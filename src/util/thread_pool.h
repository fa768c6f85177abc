// Fan-out across independent instances: the only place this library runs
// work on more than one thread. Every search engine is sequential; the batch
// commands (`ghd_cli decide-many` / `anytime-many`) and the bench suite's
// fan-out hand each instance to one call of `fn` below.
//
// What the workers share is limited to state built for concurrent use: the
// DecompCache (sharded, locked), the Budget governor (atomics), and the obs
// counters (thread-local shards folded on thread exit).
#ifndef GHD_UTIL_THREAD_POOL_H_
#define GHD_UTIL_THREAD_POOL_H_

#include <functional>

namespace ghd {

/// Resolves a requested thread count: <= 0 means all hardware threads.
int EffectiveThreads(int requested);

/// Calls `fn(i)` once for every i in [0, n). `EffectiveThreads(threads)`
/// executors (the caller plus fresh std::threads, never more than n) take
/// indices from a shared atomic counter; with one executor the loop runs
/// inline on the caller, in index order. Blocks until every index ran.
/// When `fn` throws, the remaining indices are skipped and the first
/// exception is rethrown on the caller after all executors joined.
void ParallelFor(int threads, int n, const std::function<void(int)>& fn);

}  // namespace ghd

#endif  // GHD_UTIL_THREAD_POOL_H_
