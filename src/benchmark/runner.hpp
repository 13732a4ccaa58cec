// Parallel experiment runner: fans a batch of independent experiments
// across a bounded pool of worker threads.
//
// The paper's results are a large matrix of isolated runs — 16 recovery
// configurations × 3 injection instants × several fault types — and each
// `Experiment` builds its own simulated hosts, disks, filesystem, and
// scheduler, sharing no mutable state with any other. That makes the
// matrix embarrassingly parallel: the runner executes experiments on
// `jobs` workers (default: hardware_concurrency, overridable via the
// VDB_JOBS environment variable) and hands the outcomes back in
// submission order, so every table or figure built from them is
// byte-identical to a serial run. Determinism inside one experiment comes
// from its seed; ordering is the only cross-experiment property to
// preserve.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "benchmark/experiment.hpp"
#include "common/status.hpp"

namespace vdb::bench {

/// One unit of work: an experiment plus the label the bench uses in its
/// tables and error messages.
struct LabelledExperiment {
  std::string label;
  ExperimentOptions options;
};

/// Per-experiment outcome. `result` carries the harness Status on failure
/// (the pool keeps draining the queue either way).
struct ExperimentOutcome {
  std::string label;
  Result<ExperimentResult> result;
  double wall_seconds = 0;  // real (host) wall-clock of this single run
};

/// Aggregate wall-clock accounting for one run_all() call.
struct RunnerTiming {
  std::size_t experiments = 0;
  unsigned jobs = 1;
  double wall_seconds = 0;            // batch start → last completion
  double busy_seconds = 0;            // sum of per-experiment wall times
  double max_experiment_seconds = 0;  // longest single run (the critical path)
  /// Effective parallel speedup over running the same batch serially.
  double speedup() const {
    return wall_seconds > 0 ? busy_seconds / wall_seconds : 0.0;
  }
};

class ExperimentRunner {
 public:
  /// jobs == 0 resolves to VDB_JOBS, falling back to hardware_concurrency.
  explicit ExperimentRunner(unsigned jobs = 0);

  /// Executes the whole batch, blocking until every experiment finished.
  /// Outcomes are returned in submission order.
  std::vector<ExperimentOutcome> run_all(
      const std::vector<LabelledExperiment>& batch);

  unsigned jobs() const { return jobs_; }
  /// Timing of the most recent run_all() call.
  const RunnerTiming& last_timing() const { return timing_; }

 private:
  unsigned jobs_;
  RunnerTiming timing_;
};

}  // namespace vdb::bench
