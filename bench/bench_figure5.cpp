// Figure 5: performance with and without archive logs (§5.2).
//
// Expected shape: a moderate, uniform overhead — the paper's argument for
// always running ARCHIVELOG.
#include "bench/bench_common.hpp"

using namespace vdb;
using namespace vdb::bench;

int main() {
  print_header("Figure 5: performance with and without archive logs",
               "Vieira & Madeira, DSN 2002, Figure 5 / Section 5.2");

  BenchRun run("figure5");
  std::vector<std::pair<std::size_t, std::size_t>> handles;
  for (const RecoveryConfigSpec& config : archive_configs()) {
    ExperimentOptions on = paper_options(config);
    on.archive_mode = true;
    handles.emplace_back(
        run.add(config.name, paper_options(config)),
        run.add(std::string(config.name) + "+archive", std::move(on)));
  }

  TablePrinter table({"Config", "tpmC (no archive)", "tpmC (archive)",
                      "Overhead %", "Archived logs"});
  std::size_t next = 0;
  for (const RecoveryConfigSpec& config : archive_configs()) {
    const auto& [off_h, on_h] = handles[next++];
    const ExperimentResult& without = run.get(off_h);
    const ExperimentResult& with = run.get(on_h);

    const double overhead =
        without.tpmc > 0 ? (1.0 - with.tpmc / without.tpmc) * 100.0 : 0;
    table.add_row({config.name, TablePrinter::num(without.tpmc, 0),
                   TablePrinter::num(with.tpmc, 0),
                   TablePrinter::num(overhead, 1),
                   std::to_string(with.metrics.counter("log switches"))});
  }
  table.print();
  std::printf(
      "\nPaper conclusion reproduced when the overhead stays moderate (a few\n"
      "percent), i.e. the archive option is never a reason to run without\n"
      "recoverability.\n");
  run.finish();
  return 0;
}
