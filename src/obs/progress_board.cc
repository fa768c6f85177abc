#include "obs/progress_board.h"

namespace ghd {
namespace obs {
namespace {

const char* const kSlotNames[kNumBoardSlots] = {
    "lb",
    "ub",
    "k",
    "frontier_depth",
    "memo_states",
    "interner_sets",
    "guard_family",
    "incr_version",
    "incr_retained",
};

}  // namespace

namespace internal {

std::atomic<bool> g_board_enabled{false};
std::atomic<const char*> g_board_phase{""};
std::atomic<const char*> g_board_rung{""};
std::atomic<long> g_board_slots[kNumBoardSlots] = {};

}  // namespace internal

const char* BoardSlotName(BoardSlot slot) {
  return kSlotNames[static_cast<int>(slot)];
}

void ResetBoard() {
  internal::g_board_phase.store("", std::memory_order_relaxed);
  internal::g_board_rung.store("", std::memory_order_relaxed);
  for (int i = 0; i < kNumBoardSlots; ++i) {
    internal::g_board_slots[i].store(kBoardUnset, std::memory_order_relaxed);
  }
}

void EnableBoard(bool on) {
  if (on) ResetBoard();
  internal::g_board_enabled.store(on, std::memory_order_relaxed);
}

bool BoardEnabled() {
  return internal::g_board_enabled.load(std::memory_order_relaxed);
}

BoardSnapshot SnapshotBoard() {
  BoardSnapshot snapshot;
  snapshot.phase = internal::g_board_phase.load(std::memory_order_relaxed);
  snapshot.rung = internal::g_board_rung.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumBoardSlots; ++i) {
    snapshot.slots[i] =
        internal::g_board_slots[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

}  // namespace obs
}  // namespace ghd
