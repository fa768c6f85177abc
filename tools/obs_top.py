#!/usr/bin/env python3
"""obs_top: a tiny terminal dashboard for live ghd_cli introspection.

Tails a file of heartbeat lines (the stderr of `ghd_cli ... --heartbeat-ms N`,
e.g. captured with `2>hb.err` while the solver runs) or renders a metrics
dump written by `--metrics-out=FILE`, using nothing outside the Python
standard library.

Usage:
  ghd_cli anytime big.hg --heartbeat-ms 250 2>hb.err &
  obs_top.py hb.err              # live: re-renders on every new line
  obs_top.py --once hb.err       # one frame, no screen control (CI smoke)
  obs_top.py --once metrics.json # summarize a --metrics-out dump

The input kind is auto-detected per file: a JSON object with
"type":"metrics" is a sampler dump, otherwise the file is treated as a
mixed-line heartbeat stream (non-JSON lines, e.g. the anytime ladder log,
are ignored). Exit code 0 if at least one frame could be rendered, 1
otherwise — so CI can use `--once` as a cheap end-to-end check that the
artifacts are consumable.
"""

import argparse
import json
import sys
import time

SPARK_CHARS = " .:-=+*#%@"

BOARD_ROWS = (
    ("lb", "best lower bound"),
    ("ub", "best upper bound"),
    ("k", "width k under test"),
    ("frontier_depth", "search frontier depth"),
    ("memo_states", "memo occupancy"),
    ("interner_sets", "interned sets"),
    ("guard_family", "guard family size"),
)

RATE_ROWS = (
    ("ticks_per_sec", "governor ticks/s"),
    ("memo_inserts_per_sec", "memo inserts/s"),
    ("kernel_batches_per_sec", "kernel batches/s"),
)


def sparkline(values, width=32):
    """Renders the last `width` values as a fixed-palette sparkline."""
    tail = list(values)[-width:]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return SPARK_CHARS[0] * len(tail)
    scale = len(SPARK_CHARS) - 1
    return "".join(SPARK_CHARS[int(round(v / top * scale))] for v in tail)


def fmt_count(value):
    if value is None or value < 0:
        return "-"
    if value >= 10_000_000:
        return f"{value / 1_000_000:.1f}M"
    if value >= 10_000:
        return f"{value / 1_000:.1f}k"
    return str(value)


def fraction_bar(fraction, width=20):
    """[#####---------------] 25%  (or 'unlimited' for fraction < 0)."""
    if fraction is None or fraction < 0:
        return "unlimited"
    fraction = min(fraction, 1.0)
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + \
        f"] {100 * fraction:3.0f}%"


def parse_heartbeats(text):
    beats = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if obj.get("type") == "heartbeat":
            beats.append(obj)
    return beats


def render_heartbeat(beats):
    """One dashboard frame from the newest beat plus rate history."""
    latest = beats[-1]
    lines = []
    state = "FINISHED" if latest.get("final") else "running"
    reason = latest.get("stop_reason", "none")
    if reason not in ("", "none"):
        state += f" ({reason})"
    lines.append(
        f"ghd {latest.get('phase') or '?'}"
        f"{' / ' + latest['rung'] if latest.get('rung') else ''}"
        f"   t={latest.get('at_seconds', 0):.1f}s"
        f"   beat #{latest.get('seq', 0)}   {state}")
    lines.append("")
    for key, label in BOARD_ROWS:
        lines.append(f"  {label:<24} {fmt_count(latest.get(key)):>10}")
    lines.append("")
    for key, label in RATE_ROWS:
        history = [b.get(key, 0) for b in beats]
        lines.append(f"  {label:<24} {latest.get(key, 0):>12,.0f}  "
                     f"{sparkline(history)}")
    lines.append("")
    lines.append(f"  {'resident memory':<24} "
                 f"{fmt_count(latest.get('resident_kb'))}K")
    lines.append(f"  {'bytes charged':<24} "
                 f"{fmt_count(latest.get('bytes_charged'))}")
    for key, label in (("deadline_fraction", "deadline"),
                       ("tick_fraction", "tick budget"),
                       ("memory_fraction", "memory budget")):
        lines.append(f"  {label:<24} {fraction_bar(latest.get(key))}")
    return "\n".join(lines)


def render_metrics(dump):
    """Summary frame for a --metrics-out dump (whole-run, not live)."""
    samples = dump.get("samples", [])
    lines = [
        f"ghd metrics dump   interval={dump.get('interval_ms', '?')}ms"
        f"   taken={dump.get('samples_taken', 0)}"
        f"   dropped={dump.get('samples_dropped', 0)}"
        f"   retained={len(samples)}",
        "",
    ]
    if not samples:
        lines.append("  (no samples)")
        return "\n".join(lines)
    # Per-counter rate series across the retained window, busiest first.
    series = {}
    for sample in samples:
        gap = sample.get("interval_seconds", 0)
        for name, delta in sample.get("deltas", {}).items():
            series.setdefault(name, []).append(
                delta / gap if gap > 0 else 0)
    busiest = sorted(series.items(),
                     key=lambda kv: max(kv[1]), reverse=True)[:8]
    for name, rates in busiest:
        lines.append(f"  {name + '/s':<26} {max(rates):>12,.0f}  "
                     f"{sparkline(rates)}")
    resident = [s.get("resident_kb", 0) for s in samples]
    lines.append("")
    lines.append(f"  {'resident memory':<26} {fmt_count(resident[-1])}K  "
                 f"{sparkline(resident)}")
    return "\n".join(lines)


def render(text):
    """Auto-detects the artifact kind; returns a frame or None."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            head = json.loads(stripped.splitlines()[0])
        except json.JSONDecodeError:
            head = None
        if isinstance(head, dict) and head.get("type") == "metrics":
            return render_metrics(head)
    beats = parse_heartbeats(text)
    if not beats:
        return None
    return render_heartbeat(beats)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", help="heartbeat stderr capture or a "
                                     "--metrics-out dump")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit (no screen control)")
    parser.add_argument("--interval", type=float, default=0.25,
                        help="poll interval in seconds when following")
    args = parser.parse_args()

    last_size = -1
    rendered = False
    try:
        while True:
            try:
                with open(args.file, encoding="utf-8") as f:
                    text = f.read()
            except OSError as e:
                if args.once:
                    print(f"obs_top: cannot read {args.file}: {e}",
                          file=sys.stderr)
                    return 1
                text = ""
            if len(text) != last_size:
                last_size = len(text)
                frame = render(text)
                if frame is not None:
                    rendered = True
                    if not args.once:
                        # Home + clear-to-end keeps the frame flicker-free.
                        sys.stdout.write("\x1b[H\x1b[2J")
                    print(frame, flush=True)
            if args.once:
                break
            # A final heartbeat line means the run is over: stop following.
            beats = parse_heartbeats(text)
            if beats and beats[-1].get("final"):
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    except BrokenPipeError:  # downstream pager/head closed; not an error
        return 0
    if not rendered:
        print(f"obs_top: no heartbeat lines or metrics dump in {args.file}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
