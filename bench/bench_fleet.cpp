// Fleet faultload: the paper's recovery/performance procedure generalised
// to a sharded deployment. Each run partitions the TPC-C warehouses across
// N instances (each one a full paper testbed with its own standby), drives
// the fleet-wide workload with cross-shard transactions under presumed-
// abort 2PC, injects one coordinated failure scenario, and lets the
// FailoverOrchestrator restore service.
//
// Reported per run: fleet tpmC, cross-shard traffic, detection delay,
// fleet recovery time, standby promotions, in-doubt branches resolved,
// per-shard lost transactions — and the benchmark's hard zero, cross-shard
// atomicity violations (a gtxn committed on one shard, aborted on
// another).
#include <chrono>
#include <optional>

#include "bench/bench_common.hpp"
#include "common/parallel.hpp"
#include "fleet/fleet_experiment.hpp"

using namespace vdb;
using namespace vdb::bench;

namespace {

struct FleetRun {
  std::string label;
  fleet::FleetExperimentOptions opts;
};

struct FleetOutcome {
  std::string label;
  Result<fleet::FleetExperimentResult> result{
      Status{ErrorCode::kInternal, "not run"}};
  double wall_seconds = 0;
};

/// Same fan-out contract as ExperimentRunner: bounded pool, outcomes in
/// submission order, so the rendered table is byte-identical whatever
/// VDB_JOBS says.
std::vector<FleetOutcome> run_all(const std::vector<FleetRun>& batch,
                                  unsigned jobs) {
  std::vector<FleetOutcome> outcomes(batch.size());
  parallel_for(batch.size(), jobs, [&](std::size_t i) {
    const auto started = std::chrono::steady_clock::now();
    outcomes[i].label = batch[i].label;
    outcomes[i].result = fleet::FleetExperiment(batch[i].opts).run();
    outcomes[i].wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
  });
  return outcomes;
}

std::string lost_cell(const std::vector<std::uint64_t>& lost_per_shard) {
  std::string out;
  for (std::size_t i = 0; i < lost_per_shard.size(); ++i) {
    if (i != 0) out += "/";
    out += std::to_string(lost_per_shard[i]);
  }
  return out;
}

}  // namespace

int main() {
  print_header(
      "Fleet faultload: sharded deployment under coordinated failures",
      "extension of Vieira & Madeira, DSN 2002, to an N-shard fleet");

  struct ScenarioRow {
    std::string name;
    std::optional<faults::FleetScenario> scenario;
  };
  std::vector<ScenarioRow> scenarios;
  scenarios.push_back({"fault-free", std::nullopt});
  for (const faults::FleetScenarioInfo& info : faults::fleet_scenarios()) {
    scenarios.push_back({info.name, info.scenario});
  }

  std::vector<FleetRun> batch;
  for (const std::uint32_t shards : {2u, 3u}) {
    for (const ScenarioRow& row : scenarios) {
      FleetRun run;
      run.label = std::to_string(shards) + " shards / " + row.name;
      run.opts.shards = shards;
      run.opts.scenario = row.scenario;
      run.opts.duration = bench_duration();
      run.opts.inject_at = injection_instants().front();
      run.opts.seed = 20020623;  // DSN 2002
      batch.push_back(std::move(run));
    }
  }

  const unsigned jobs = default_jobs();
  const auto started = std::chrono::steady_clock::now();
  std::vector<FleetOutcome> outcomes = run_all(batch, jobs);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  TablePrinter table({"shards", "scenario", "tpmC", "x-shard", "detect",
                      "recovery", "promoted", "in-doubt", "lost/shard",
                      "atomicity", "integrity"});
  bool atomicity_clean = true;
  double busy = 0;
  for (const FleetOutcome& o : outcomes) {
    if (!o.result.is_ok()) {
      std::fprintf(stderr, "FATAL: fleet experiment '%s' failed: %s\n",
                   o.label.c_str(),
                   o.result.status().to_string().c_str());
      return 1;
    }
    busy += o.wall_seconds;
    const fleet::FleetExperimentResult& r = o.result.value();
    for (const std::string& msg : r.integrity_messages) {
      std::fprintf(stderr, "[integrity] %s: %s\n", o.label.c_str(),
                   msg.c_str());
    }
    if (r.atomicity_violations != 0) atomicity_clean = false;
    std::string recovery = "-";
    if (r.fault_injected) {
      recovery = r.recovered
                     ? TablePrinter::num(to_seconds(r.recovery_time), 1) + "s"
                     : ">" + std::to_string(static_cast<unsigned>(
                                 to_seconds(r.recovery_time))) + "s";
    }
    table.add_row({std::to_string(r.shard_count),
                   o.label.substr(o.label.find("/ ") + 2),
                   TablePrinter::num(r.tpmc, 1),
                   std::to_string(r.cross_shard_committed),
                   r.fault_injected
                       ? TablePrinter::num(to_seconds(r.detection_delay), 1) +
                             "s"
                       : "-",
                   recovery, std::to_string(r.promotions),
                   std::to_string(r.in_doubt_resolved),
                   lost_cell(r.lost_per_shard),
                   std::to_string(r.atomicity_violations),
                   r.history_check_skipped
                       ? std::to_string(r.integrity_violations) + " (W-hist "
                                                                  "skipped)"
                       : std::to_string(r.integrity_violations)});
  }
  table.print();
  std::printf("\n--- wall clock ---\n");
  std::printf("experiments: %zu  jobs: %u (VDB_JOBS)\n", outcomes.size(),
              jobs);
  std::printf("wall %.2fs  serial-equivalent %.2fs  speedup %.2fx\n", wall,
              busy, wall > 0 ? busy / wall : 0.0);

  // Machine-readable drop for scripts/check_results.py.
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const char* path = "results/bench_fleet.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
  } else {
    using vdb::bench::detail::json_escape;
    using vdb::bench::detail::json_num;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"fleet\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", quick_mode() ? "quick" : "full");
    std::fprintf(f, "  \"jobs\": %u,\n", jobs);
    std::fprintf(f, "  \"experiments\": %zu,\n", outcomes.size());
    std::fprintf(f, "  \"wall_seconds\": %s,\n", json_num(wall).c_str());
    std::fprintf(f, "  \"runs\": [");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const FleetOutcome& o = outcomes[i];
      const fleet::FleetExperimentResult& r = o.result.value();
      std::fprintf(f, "%s\n    {\"label\": \"%s\", \"ok\": true, ",
                   i == 0 ? "" : ",", json_escape(o.label).c_str());
      std::fprintf(
          f,
          "\"shard_count\": %u, \"tpmc\": %s, \"committed\": %llu, "
          "\"failed_attempts\": %llu, "
          "\"cross_shard_started\": %llu, \"cross_shard_committed\": %llu, "
          "\"fault_injected\": %s, \"recovered\": %s, "
          "\"detection_seconds\": %s, \"recovery_seconds\": %s, "
          "\"promotions\": %llu, \"in_doubt_resolved\": %llu, "
          "\"atomicity_violations\": %llu, \"lost_committed\": %llu, "
          "\"lost_per_shard\": [",
          r.shard_count, json_num(r.tpmc).c_str(),
          static_cast<unsigned long long>(r.committed),
          static_cast<unsigned long long>(r.failed_attempts),
          static_cast<unsigned long long>(r.cross_shard_started),
          static_cast<unsigned long long>(r.cross_shard_committed),
          r.fault_injected ? "true" : "false",
          r.recovered ? "true" : "false",
          json_num(to_seconds(r.detection_delay)).c_str(),
          json_num(to_seconds(r.recovery_time)).c_str(),
          static_cast<unsigned long long>(r.promotions),
          static_cast<unsigned long long>(r.in_doubt_resolved),
          static_cast<unsigned long long>(r.atomicity_violations),
          static_cast<unsigned long long>(r.lost_committed));
      for (std::size_t s = 0; s < r.lost_per_shard.size(); ++s) {
        std::fprintf(f, "%s%llu", s == 0 ? "" : ", ",
                     static_cast<unsigned long long>(r.lost_per_shard[s]));
      }
      std::fprintf(f,
                   "], \"integrity_violations\": %u, "
                   "\"history_check_skipped\": %s, \"wall_seconds\": %s}",
                   r.integrity_violations,
                   r.history_check_skipped ? "true" : "false",
                   json_num(o.wall_seconds).c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
  }

  if (!atomicity_clean) {
    std::fprintf(stderr,
                 "FATAL: cross-shard atomicity violated — see table\n");
    return 1;
  }
  return 0;
}
