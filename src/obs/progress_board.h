// Live progress board: a fixed set of process-global atomic slots that the
// engines publish their current position into (phase, anytime rung, best
// certified bounds, search frontier depth, memo/interner occupancy), read by
// the sampler's heartbeat lines (obs/sampler.h). Monotone totals such as
// cache hits are counters (obs/counters.h), not board slots.
//
// Design rules, mirroring obs/counters.h:
//  * publishing is a relaxed atomic store behind one relaxed enabled-load —
//    disabled sites cost exactly that load plus a predicted branch;
//  * phase/rung strings must be string literals (the board stores the
//    pointers, never copies — the same lifetime contract as the tracer);
//  * reading (SnapshotBoard) is wait-free and can run from any thread at any
//    moment: every slot is an independent atomic, so a snapshot is a
//    consistent-enough view for dashboards, not a linearizable transaction.
//
// Engines publish through the GHD_BOARD_* macros of obs/obs.h so GHD_OBS=OFF
// builds drop every site.
#ifndef GHD_OBS_PROGRESS_BOARD_H_
#define GHD_OBS_PROGRESS_BOARD_H_

#include <atomic>

namespace ghd {
namespace obs {

/// Numeric board slots. kUnset (-1) means "never published this run".
enum class BoardSlot : int {
  kBestLb = 0,      // best certified lower bound so far
  kBestUb,          // best certified upper bound so far
  kWidthK,          // width k currently being decided (k-ladder rung)
  kFrontierDepth,   // current search recursion depth (decider / B&B)
  kMemoStates,      // decider memo occupancy (positive + negative entries)
  kInternerSets,    // canonical sets interned so far
  kGuardFamily,     // guard family size (grows during closure generation)
  kIncrVersion,     // incremental solver: hypergraph version (deltas applied)
  kIncrRetained,    // incremental solver: memo entries kept by the last rebind
  kSlotCount,       // sentinel
};

inline constexpr int kNumBoardSlots = static_cast<int>(BoardSlot::kSlotCount);
inline constexpr long kBoardUnset = -1;

/// Short stable identifier ("lb", "frontier_depth", ...): the heartbeat JSON
/// key for the slot.
const char* BoardSlotName(BoardSlot slot);

/// Arms or disarms the board. Disabled (the default), every publish site is
/// one relaxed load + branch. Enabling resets every slot to kBoardUnset and
/// phase/rung to "".
void EnableBoard(bool on);
bool BoardEnabled();

/// Resets slots and phase/rung without changing the enabled flag.
void ResetBoard();

namespace internal {
extern std::atomic<bool> g_board_enabled;
extern std::atomic<const char*> g_board_phase;
extern std::atomic<const char*> g_board_rung;
extern std::atomic<long> g_board_slots[kNumBoardSlots];
}  // namespace internal

/// Hot-path publish; prefer the GHD_BOARD_* macros at event sites.
inline void BoardSet(BoardSlot slot, long value) {
  if (!internal::g_board_enabled.load(std::memory_order_relaxed)) return;
  internal::g_board_slots[static_cast<int>(slot)].store(
      value, std::memory_order_relaxed);
}

/// `phase` / `rung` must be string literals (pointers are stored, not copies).
inline void BoardSetPhase(const char* phase) {
  if (!internal::g_board_enabled.load(std::memory_order_relaxed)) return;
  internal::g_board_phase.store(phase, std::memory_order_relaxed);
}

inline void BoardSetRung(const char* rung) {
  if (!internal::g_board_enabled.load(std::memory_order_relaxed)) return;
  internal::g_board_rung.store(rung, std::memory_order_relaxed);
}

/// Point-in-time copy of every slot. `slot(...)` returns kBoardUnset for
/// never-published slots.
struct BoardSnapshot {
  const char* phase = "";
  const char* rung = "";
  long slots[kNumBoardSlots] = {};

  long slot(BoardSlot s) const { return slots[static_cast<int>(s)]; }
};

/// Wait-free; callable from any thread (the sampler thread calls it every
/// heartbeat frame).
BoardSnapshot SnapshotBoard();

}  // namespace obs
}  // namespace ghd

#endif  // GHD_OBS_PROGRESS_BOARD_H_
