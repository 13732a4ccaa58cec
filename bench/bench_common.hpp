// Shared helpers for the paper-reproduction bench binaries.
//
// Each binary regenerates one table or figure of the paper's §5. Runs use
// the paper's experimental parameters (20-minute workload, faults injected
// at 150/300/600 s, fixed detection time). Set VDB_QUICK=1 to shrink runs
// (shorter duration, one injection instant) while iterating, and VDB_JOBS=N
// to bound the worker pool (default: all cores).
//
// The binaries are written enqueue-then-collect: phase one walks the
// experiment matrix calling BenchRun::add, phase two collects results in
// submission order and renders the table. The fan-out happens on
// ExperimentRunner's thread pool; because collection order equals
// submission order, the rendered output is byte-identical whatever
// VDB_JOBS is.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/experiment.hpp"
#include "benchmark/recovery_configs.hpp"
#include "benchmark/runner.hpp"
#include "common/table_printer.hpp"

namespace vdb::bench {

inline bool quick_mode() { return std::getenv("VDB_QUICK") != nullptr; }

inline SimDuration bench_duration() {
  return quick_mode() ? 6 * kMinute : 20 * kMinute;
}

inline std::vector<SimDuration> injection_instants() {
  if (quick_mode()) return {150 * kSecond};
  return {150 * kSecond, 300 * kSecond, 600 * kSecond};
}

inline ExperimentOptions paper_options(const RecoveryConfigSpec& config) {
  ExperimentOptions opts;
  opts.config = config;
  opts.duration = bench_duration();
  opts.seed = 20020623;  // DSN 2002
  // VDB_RESTART_MODE=m1|m2|m3|m4 (or the long names) runs the whole bench
  // under that instance-restart scheme — the smoke hook for the restart-
  // mode study without touching each binary's matrix.
  if (const char* env = std::getenv("VDB_RESTART_MODE")) {
    engine::RestartMode mode;
    if (engine::parse_restart_mode(env, &mode)) {
      opts.restart_mode = mode;
    } else {
      std::fprintf(stderr, "warning: bad VDB_RESTART_MODE '%s' ignored\n",
                   env);
    }
  }
  return opts;
}

inline faults::FaultSpec make_fault(faults::FaultType type,
                                    SimDuration inject_at) {
  faults::FaultSpec spec;
  spec.type = type;
  spec.inject_at = inject_at;
  spec.tablespace = "TPCC";
  spec.table = "history";
  spec.datafile_index = 0;
  return spec;
}

/// "317.0s" or ">590s" for runs where service did not return in the window.
inline std::string recovery_cell(const ExperimentResult& result) {
  if (!result.fault_injected) return "-";
  if (!result.recovered) {
    return ">" + std::to_string(static_cast<unsigned>(
                     to_seconds(result.recovery_time))) + "s";
  }
  return TablePrinter::num(to_seconds(result.recovery_time), 1) + "s";
}

inline void print_header(const char* what, const char* paper_ref) {
  std::printf("\n=== %s ===\n", what);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Mode: %s (set VDB_QUICK=1 for a fast pass)\n\n",
              quick_mode() ? "QUICK" : "full (paper parameters)");
}

namespace detail {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace detail

/// Fan-out harness shared by the bench binaries: enqueue the whole matrix,
/// execute it on the runner's pool, collect in submission order. Also owns
/// the end-of-bench wall-clock summary and the machine-readable
/// results/bench_<name>.json used to track the perf trajectory across PRs.
class BenchRun {
 public:
  explicit BenchRun(std::string name) : name_(std::move(name)) {}

  /// Phase one: enqueue an experiment, returning the handle collect uses.
  std::size_t add(std::string label, ExperimentOptions opts) {
    VDB_CHECK_MSG(!executed_, "BenchRun::add after execute");
    queue_.push_back({std::move(label), std::move(opts)});
    return queue_.size() - 1;
  }

  /// Runs everything queued; idempotent so collection can trigger it.
  void execute() {
    if (executed_) return;
    executed_ = true;
    outcomes_ = runner_.run_all(queue_);
  }

  /// Phase two: the result for `handle`, aborting the bench loudly if the
  /// *harness* failed (faults under test are reported inside the result).
  const ExperimentResult& get(std::size_t handle) {
    execute();
    VDB_CHECK(handle < outcomes_.size());
    ExperimentOutcome& outcome = outcomes_[handle];
    if (!outcome.result.is_ok()) {
      std::fprintf(stderr, "FATAL: experiment '%s' failed: %s\n",
                   outcome.label.c_str(),
                   outcome.result.status().to_string().c_str());
      std::exit(1);
    }
    const ExperimentResult& result = outcome.result.value();
    for (const std::string& msg : result.integrity_messages) {
      std::fprintf(stderr, "[integrity] %s\n", msg.c_str());
    }
    return result;
  }

  /// Timing footer + JSON drop. Call once, after the tables are printed.
  void finish() {
    execute();
    const RunnerTiming& t = runner_.last_timing();
    std::printf("\n--- wall clock ---\n");
    std::printf("experiments: %zu  jobs: %u (VDB_JOBS)\n", t.experiments,
                t.jobs);
    std::printf(
        "wall %.2fs  serial-equivalent %.2fs  speedup %.2fx  "
        "slowest run %.2fs\n",
        t.wall_seconds, t.busy_seconds, t.speedup(),
        t.max_experiment_seconds);
    const std::string path = write_json();
    if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string write_json() {
    const RunnerTiming& t = runner_.last_timing();
    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    const std::string path = "results/bench_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return {};
    }
    using detail::json_escape;
    using detail::json_num;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n", json_escape(name_).c_str());
    std::fprintf(f, "  \"mode\": \"%s\",\n", quick_mode() ? "quick" : "full");
    std::fprintf(f, "  \"jobs\": %u,\n", t.jobs);
    std::fprintf(f, "  \"experiments\": %zu,\n", t.experiments);
    std::fprintf(f, "  \"wall_seconds\": %s,\n",
                 json_num(t.wall_seconds).c_str());
    std::fprintf(f, "  \"busy_seconds\": %s,\n",
                 json_num(t.busy_seconds).c_str());
    std::fprintf(f, "  \"speedup\": %s,\n", json_num(t.speedup()).c_str());
    std::fprintf(f, "  \"max_experiment_seconds\": %s,\n",
                 json_num(t.max_experiment_seconds).c_str());
    std::fprintf(f, "  \"runs\": [");
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      const ExperimentOutcome& o = outcomes_[i];
      std::fprintf(f, "%s\n    {\"label\": \"%s\", \"wall_seconds\": %s, ",
                   i == 0 ? "" : ",", json_escape(o.label).c_str(),
                   json_num(o.wall_seconds).c_str());
      if (!o.result.is_ok()) {
        std::fprintf(f, "\"ok\": false, \"error\": \"%s\"}",
                     json_escape(o.result.status().to_string()).c_str());
        continue;
      }
      const ExperimentResult& r = o.result.value();
      std::fprintf(
          f,
          "\"ok\": true, \"tpmc\": %s, \"committed\": %llu, "
          "\"redo_bytes\": %llu, \"fault_injected\": %s, \"recovered\": %s, "
          "\"recovery_seconds\": %s, \"lost_committed\": %llu, "
          "\"integrity_violations\": %u, \"bad_blocks_found\": %llu, "
          "\"blocks_repaired\": %llu, ",
          json_num(r.tpmc).c_str(),
          static_cast<unsigned long long>(r.committed),
          static_cast<unsigned long long>(r.redo_bytes),
          r.fault_injected ? "true" : "false",
          r.recovered ? "true" : "false",
          json_num(to_seconds(r.recovery_time)).c_str(),
          static_cast<unsigned long long>(r.lost_committed),
          r.integrity_violations,
          static_cast<unsigned long long>(r.bad_blocks_found),
          static_cast<unsigned long long>(r.blocks_repaired));
      // Counter-backed columns: engine, I/O-retry and concurrency-control
      // counts, read from the row's statistics snapshot.
      for (const CounterColumn& column : kCounterColumns) {
        std::fprintf(f, "\"%s\": %llu, ", column.key,
                     static_cast<unsigned long long>(
                         r.metrics.counter(column.counter)));
      }
      // Restart-mode study fields: every row carries the configured mode
      // plus the open / first-commit split of the recovery time (both zero
      // when no fault was injected or the run never recovered early).
      std::fprintf(f,
                   "\"restart_mode\": \"%s\", \"open_time_us\": %llu, "
                   "\"first_commit_us\": %llu, \"recovery_retries\": %llu, ",
                   json_escape(r.restart_mode).c_str(),
                   static_cast<unsigned long long>(r.open_time),
                   static_cast<unsigned long long>(r.first_commit_time),
                   static_cast<unsigned long long>(r.recovery_retries));
      // Concurrency-control fields: protocol, worker count, and retried
      // attempts (zero for the serial driver).
      std::fprintf(f,
                   "\"cc_protocol\": \"%s\", \"workers\": %u, "
                   "\"retries\": %llu, ",
                   json_escape(r.cc_protocol).c_str(), r.workers,
                   static_cast<unsigned long long>(r.cc_retries));
      // Per-phase recovery decomposition (simulated microseconds — spans
      // tile the trace, so the non-detection values sum exactly to
      // recovery_seconds) and the full V$-style statistics snapshot.
      std::fprintf(f, "\"recovery_phase_us\": {");
      for (std::size_t k = 0; k < r.recovery_phases.size(); ++k) {
        std::fprintf(f, "%s\"%s\": %llu", k == 0 ? "" : ", ",
                     json_escape(r.recovery_phases[k].first).c_str(),
                     static_cast<unsigned long long>(
                         r.recovery_phases[k].second));
      }
      std::fprintf(f, "}, \"metrics\": %s}",
                   r.metrics.to_json().c_str());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    return path;
  }

  std::string name_;
  ExperimentRunner runner_;
  std::vector<LabelledExperiment> queue_;
  std::vector<ExperimentOutcome> outcomes_;
  bool executed_ = false;
};

}  // namespace vdb::bench
