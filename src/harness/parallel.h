// ParallelSweep: run independent sweep points of a bench concurrently
// without changing a single byte of output.
//
// Every figure bench is a loop over sweep points (queue depths, request
// sizes, zone counts, ...). The points are independent by construction —
// each one builds its own Simulator + Testbed and seeds its own RNG — so
// they can run on worker threads. The determinism rules that keep
// `--json` byte-identical for every `--jobs=N` (checked by
// tools/check_jobs_identity.sh, which the `<bench>_jobs_identity` ctests
// run):
//
//  1. Workers only COMPUTE. fn(i) returns a plain result struct; it must
//     not touch the process-wide ResultWriter, tables, or stdout. (The
//     guides below don't apply under telemetry flags: SweepJobs() then
//     clamps to 1, because testbeds funnel snapshots into the BenchEnv
//     singleton.)
//  2. Recording happens after the sweep, on the calling thread, in index
//     order — ParallelSweep returns results ordered by index, never by
//     completion.
//  3. Seeds derive from the sweep-point index (or its parameters), never
//     from global mutable state, so point i is the same experiment no
//     matter which worker runs it.
//
// Wall-clock scales with physical cores; on a single-core host the pool
// degenerates to the serial loop (plus one atomic per point).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace zstor::harness {

/// The resolved worker count for sweeps: `--jobs=N` (0 = one per
/// hardware thread), forced to 1 with a one-time warning when a
/// telemetry flag is active.
int SweepJobs();

namespace detail {
/// Runs body(i) for every i in [0, n) on up to SweepJobs() threads
/// (work-stealing via one shared atomic index). Serial when jobs == 1.
void RunIndexed(std::size_t n, const std::function<void(std::size_t)>& body);
}  // namespace detail

/// Runs fn(i) for i in [0, n) concurrently and returns the results in
/// index order. R must be default-constructible (sweep results are plain
/// structs of numbers). See the determinism rules above: fn must only
/// compute; record the returned values serially afterwards.
template <typename Fn>
auto ParallelSweep(std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> out(n);
  detail::RunIndexed(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Heterogeneous variant for benches whose "sweep points" are a handful
/// of differently-shaped experiments: runs every task concurrently, each
/// writing its result into storage it captured. Same determinism rules.
void ParallelTasks(std::vector<std::function<void()>> tasks);

}  // namespace zstor::harness
