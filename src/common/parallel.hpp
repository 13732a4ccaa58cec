// Bounded-worker parallelism primitive for the benchmark harness.
//
// ExperimentRunner and bench_fleet fan independent experiments across a
// pool: run fn(0..n) on up to `jobs` threads, block until done, never
// reorder observable results. Workers claim indexes from an atomic cursor,
// so the only cross-thread state is the cursor — callers guarantee fn is
// safe for distinct indexes.
#pragma once

#include <cstddef>
#include <functional>

namespace vdb {

/// VDB_JOBS if set (clamped to >= 1), else hardware_concurrency: the width
/// of the experiment fan-out.
unsigned default_jobs();

/// Invokes fn(i) for every i in [0, n) on up to `jobs` workers (jobs == 0
/// resolves via default_jobs()). The calling thread is one of them, so at
/// most min(jobs, n) - 1 threads are started; when jobs or n is <= 1 it runs
/// inline as a plain loop and no thread is started. Blocks until every
/// index completed. fn must tolerate concurrent invocation for distinct
/// indexes; exceptions must not escape fn.
void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace vdb
