#include "benchmark/runner.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/parallel.hpp"

namespace vdb::bench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : jobs_(jobs > 0 ? jobs : vdb::default_jobs()) {}

std::vector<ExperimentOutcome> ExperimentRunner::run_all(
    const std::vector<LabelledExperiment>& batch) {
  const std::size_t n = batch.size();
  // Slots are written once each by exactly one worker, so the vector needs
  // no lock — only parallel_for's queue cursor is shared.
  std::vector<std::optional<ExperimentOutcome>> slots(n);

  const auto batch_start = std::chrono::steady_clock::now();
  parallel_for(n, jobs_, [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    Experiment exp(batch[i].options);
    Result<ExperimentResult> result = exp.run();
    slots[i].emplace(ExperimentOutcome{batch[i].label, std::move(result),
                                       seconds_since(start)});
  });

  timing_ = RunnerTiming{};
  timing_.experiments = n;
  timing_.jobs =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, n > 0 ? n : 1));
  timing_.wall_seconds = seconds_since(batch_start);

  std::vector<ExperimentOutcome> out;
  out.reserve(n);
  for (std::optional<ExperimentOutcome>& slot : slots) {
    VDB_CHECK(slot.has_value());
    timing_.busy_seconds += slot->wall_seconds;
    timing_.max_experiment_seconds =
        std::max(timing_.max_experiment_seconds, slot->wall_seconds);
    out.push_back(std::move(*slot));
  }
  return out;
}

}  // namespace vdb::bench
