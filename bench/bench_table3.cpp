// Table 3: the sixteen recovery configurations and the number of (full)
// checkpoints each produces over a 20-minute TPC-C run.
//
// The paper's "# CKPT per experiment" column counts log-switch checkpoints:
// it is driven by redo volume / file size, which is why F1* configurations
// land in the hundreds while F400* see one. The incremental-checkpoint
// column is ours, showing the log_checkpoint_timeout activity that the
// paper's text credits for F400G3T1's short recovery.
#include <array>

#include "bench/bench_common.hpp"

using namespace vdb;
using namespace vdb::bench;

int main() {
  print_header("Table 3: recovery configurations under test",
               "Vieira & Madeira, DSN 2002, Table 3");

  BenchRun run("table3");
  std::vector<std::size_t> handles;
  for (const RecoveryConfigSpec& config : table3_configs()) {
    handles.push_back(run.add(config.name, paper_options(config)));
  }
  // Second section, enqueued up front so the whole matrix shares one
  // thread-pool fan-out: per-configuration crash recovery, decomposed into
  // the phase spans of the recorded trace (V$RECOVERY_PROGRESS). Spans
  // tile the trace, so restore+redo+undo+open+resume reproduces the
  // headline recovery time to the simulated microsecond.
  std::vector<std::size_t> crash_handles;
  for (const RecoveryConfigSpec& config : table3_configs()) {
    ExperimentOptions opts = paper_options(config);
    opts.fault = make_fault(faults::FaultType::kShutdownAbort,
                            injection_instants().front());
    crash_handles.push_back(
        run.add(std::string(config.name) + " crash", std::move(opts)));
  }
  // Third section: the restart-mode study. The same crash is replayed under
  // the early-open (M2), on-demand (M3) and mixed (M4) restart schemes on a
  // representative slice of the matrix; the M1 baseline rows are the crash
  // runs above. Quick mode keeps a single heavy-backlog configuration.
  const std::vector<std::string> mode_config_names =
      quick_mode() ? std::vector<std::string>{"F400G3T10"}
                   : std::vector<std::string>{"F400G3T10", "F100G3T1",
                                              "F40G3T10", "F1G2T1"};
  const engine::RestartMode kEarlyModes[] = {engine::RestartMode::kM2EarlyOpen,
                                             engine::RestartMode::kM3OnDemand,
                                             engine::RestartMode::kM4Mixed};
  // mode_handles[config][mode] with mode index 0 = M1 (baseline reuse).
  std::vector<std::array<std::size_t, 4>> mode_handles;
  for (const std::string& name : mode_config_names) {
    const RecoveryConfigSpec* spec = find_config(name);
    VDB_CHECK_MSG(spec != nullptr, "unknown restart-mode config");
    std::array<std::size_t, 4> row{};
    if (paper_options(*spec).restart_mode ==
        engine::RestartMode::kM1Traditional) {
      const auto all = table3_configs();
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (name == all[i].name) row[0] = crash_handles[i];
      }
    } else {
      // VDB_RESTART_MODE redirected the ambient crash runs to an early
      // mode, so the baseline must be a dedicated, explicitly-M1 run — the
      // vs-M1 column and the shape check are meaningless otherwise.
      ExperimentOptions opts = paper_options(*spec);
      opts.fault = make_fault(faults::FaultType::kShutdownAbort,
                              injection_instants().front());
      opts.restart_mode = engine::RestartMode::kM1Traditional;
      row[0] = run.add(std::string(spec->name) + " crash m1_traditional",
                       std::move(opts));
    }
    std::size_t slot = 1;
    for (engine::RestartMode mode : kEarlyModes) {
      ExperimentOptions opts = paper_options(*spec);
      opts.fault = make_fault(faults::FaultType::kShutdownAbort,
                              injection_instants().front());
      opts.restart_mode = mode;
      row[slot++] = run.add(
          std::string(spec->name) + " crash " + engine::to_string(mode),
          std::move(opts));
    }
    mode_handles.push_back(row);
  }

  TablePrinter table({"Config", "File Size", "Redo Groups", "Ckpt Timeout",
                      "# CKPT per Experiment", "# Incr. CKPT", "tpmC",
                      "Redo MB"});
  std::size_t next = 0;
  for (const RecoveryConfigSpec& config : table3_configs()) {
    const ExperimentResult& result = run.get(handles[next++]);
    table.add_row({config.name,
                   std::to_string(config.file_mb) + " MB",
                   std::to_string(config.groups),
                   std::to_string(config.timeout_sec) + " sec",
                   std::to_string(result.metrics.counter("checkpoints full")),
                   std::to_string(
                       result.metrics.counter("checkpoints incremental")),
                   TablePrinter::num(result.tpmc, 0),
                   TablePrinter::num(
                       static_cast<double>(result.redo_bytes) / (1 << 20),
                       0)});
  }
  table.print();
  std::printf(
      "\nShape checks (paper): checkpoint count ~ redo volume / file size;\n"
      "F400* ~1-2 checkpoints, F1* in the hundreds. The incremental-\n"
      "checkpoint column is the timeout activity behind the paper's fast\n"
      "F400G3T1/F100G3T1 recoveries.\n");

  TablePrinter phases({"Config", "Recovery", "Detect", "Restore", "Redo",
                       "Undo", "Open", "OnDemand", "Resume",
                       "Sum-Headline"});
  next = 0;
  for (const RecoveryConfigSpec& config : table3_configs()) {
    const ExperimentResult& result = run.get(crash_handles[next++]);
    SimDuration phase_sum = 0;
    std::array<SimDuration, obs::kRecoveryPhaseCount> by_phase{};
    for (std::size_t k = 0; k < result.recovery_phases.size(); ++k) {
      by_phase[k] = result.recovery_phases[k].second;
      if (k != static_cast<std::size_t>(obs::RecoveryPhase::kDetection)) {
        phase_sum += by_phase[k];
      }
    }
    auto cell = [&](obs::RecoveryPhase p) {
      return TablePrinter::num(
                 to_seconds(by_phase[static_cast<std::size_t>(p)]), 2) + "s";
    };
    const long long drift =
        static_cast<long long>(phase_sum) -
        static_cast<long long>(result.recovery_time);
    phases.add_row({config.name, recovery_cell(result),
                    cell(obs::RecoveryPhase::kDetection),
                    cell(obs::RecoveryPhase::kRestore),
                    cell(obs::RecoveryPhase::kRedo),
                    cell(obs::RecoveryPhase::kUndo),
                    cell(obs::RecoveryPhase::kOpen),
                    cell(obs::RecoveryPhase::kOnDemand),
                    cell(obs::RecoveryPhase::kResume),
                    std::to_string(drift) + " us"});
  }
  phases.print();
  std::printf(
      "\nPhase spans tile the recovery trace: restore+redo+undo+open+\n"
      "on_demand+resume must equal the headline recovery time\n"
      "(Sum-Headline column = 0 us, within one simulated tick).\n");

  // Restart-mode study: open time (crash -> database open) versus first-
  // commit time (crash -> service restored, the paper's end-user recovery
  // measure) per restart scheme, plus where each mode did its redo work.
  TablePrinter modes({"Config", "Mode", "Open", "First Commit", "vs M1",
                      "OnDemand Pg", "Background Pg", "Retries", "Lost",
                      "tpmC"});
  bool shape_ok = true;
  for (std::size_t c = 0; c < mode_config_names.size(); ++c) {
    const ExperimentResult& m1 = run.get(mode_handles[c][0]);
    SimDuration best_early = m1.first_commit_time;
    for (std::size_t m = 0; m < 4; ++m) {
      const ExperimentResult& result = run.get(mode_handles[c][m]);
      const double vs_m1 =
          m1.first_commit_time == 0
              ? 0.0
              : 100.0 * (static_cast<double>(result.first_commit_time) /
                             static_cast<double>(m1.first_commit_time) -
                         1.0);
      if (m >= 2) best_early = std::min(best_early, result.first_commit_time);
      modes.add_row(
          {mode_config_names[c], result.restart_mode,
           TablePrinter::num(to_seconds(result.open_time), 2) + "s",
           TablePrinter::num(to_seconds(result.first_commit_time), 2) + "s",
           m == 0 ? "-" : TablePrinter::num(vs_m1, 1) + "%",
           std::to_string(
               result.metrics.counter("pages recovered on demand")),
           std::to_string(
               result.metrics.counter("pages recovered background")),
           std::to_string(result.recovery_retries),
           std::to_string(result.lost_committed),
           TablePrinter::num(result.tpmc, 0)});
    }
    if (static_cast<double>(best_early) >
        0.7 * static_cast<double>(m1.first_commit_time)) {
      shape_ok = false;
    }
  }
  modes.print();
  std::printf(
      "\nShape check: on-demand restart (M3/M4) restores service before the\n"
      "redo backlog is drained, so its first-commit time must undercut the\n"
      "traditional M1 restart by >=30%% on every configuration above: %s\n",
      shape_ok ? "OK" : "VIOLATED");
  run.finish();
  return 0;
}
