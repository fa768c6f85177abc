#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the ghd
library and the perfbench program from source (Release) into the directory
named by CARGO_TARGET_DIR, default .bench_build; later runs rebuild
incrementally. The program's output passes through to stdout; its last line
is the result object, checked here against BENCHMARK.json's metric lists.
Build logs go to stderr. Exits nonzero, printing no result, when the build
fails, the library sources are missing, or the result is malformed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_mix", "repeat_mix", "replay_evolve")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return "library sources not found under src/"
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return "build step failed: " + " ".join(cmd)
    return None


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources, so a run names the
    code it measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are " + ", ".join(sorted(result))
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        wanted = spec["per_layer" if trace else "end_to_end"]
        names = [m["name"] for m in wanted]
        if sorted(names) != sorted(result["metrics"]):
            missing = set(names) - set(result["metrics"])
            extra = set(result["metrics"]) - set(names)
            return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
                sorted(missing), sorted(extra))
        for m in wanted:
            if result["metrics"][m["name"]]["unit"] != m["unit"]:
                return "unit of %s differs from BENCHMARK.json" % m["name"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    error = build(build_dir)
    if error:
        return fail(error)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-describe", git_describe(), "--src-digest", source_digest()]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        return fail("perfbench exited with %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        return fail("perfbench printed nothing")
    try:
        error = check_result(lines[-1], args.trace == "1")
    except (ValueError, KeyError) as e:
        error = "unreadable result: %s" % e
    if error:
        return fail(error)
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
