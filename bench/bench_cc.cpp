// Concurrency-control study (extension): the TPC-C workload driven through
// the multi-threaded transaction coordinator, protocol x workers x
// {fault-free, crash}.
//
// Expected shapes:
//  - workers=1 is byte-identical to the serial driver for both protocols
//    (the coordinator is not engaged at all) — checked here, hard-failing
//    the bench on any divergence;
//  - fault-free throughput scales with workers (N workers model N
//    processors sharing the simulated devices), with the protocols paying
//    their characteristic penalty: 2PL blocks (enq_lock_wait), OCC aborts
//    and resubmits (occ_validate_fail);
//  - a SHUTDOWN ABORT mid-run recovers with zero integrity violations at
//    any worker count: per-worker redo staged into the shared arena keeps
//    the commit order the replay depends on.
#include <algorithm>
#include <cstdlib>

#include "bench/bench_common.hpp"

using namespace vdb;
using namespace vdb::bench;

namespace {

SimDuration crash_inject_at() {
  return quick_mode() ? 150 * kSecond : 300 * kSecond;
}

std::vector<unsigned> worker_counts() {
  std::vector<unsigned> counts = {1, 2, 4};
  // VDB_CC_WORKERS=N widens the sweep (the cc-stress CI job runs 8).
  if (const char* env = std::getenv("VDB_CC_WORKERS")) {
    const unsigned n = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    if (n > 1 && std::find(counts.begin(), counts.end(), n) == counts.end()) {
      counts.push_back(n);
    }
  }
  return counts;
}

constexpr txn::CcProtocol kProtocols[] = {txn::CcProtocol::k2pl,
                                          txn::CcProtocol::kOcc};

}  // namespace

int main() {
  print_header("Concurrency control: protocol x workers x {fault-free, crash}",
               "extension of Vieira & Madeira, DSN 2002 (recovery under "
               "concurrent load)");

  const RecoveryConfigSpec* config = find_config("F40G3T10");
  VDB_CHECK(config != nullptr);
  const std::vector<unsigned> counts = worker_counts();

  BenchRun run("cc");
  const std::size_t serial = run.add("serial-baseline", paper_options(*config));
  struct Cell {
    txn::CcProtocol protocol;
    unsigned workers;
    bool crash;
    std::size_t handle;
  };
  std::vector<Cell> cells;
  for (const txn::CcProtocol protocol : kProtocols) {
    for (const unsigned workers : counts) {
      for (const bool crash : {false, true}) {
        ExperimentOptions opts = paper_options(*config);
        opts.workers = workers;
        opts.cc_protocol = protocol;
        if (crash) {
          opts.fault = make_fault(faults::FaultType::kShutdownAbort,
                                  crash_inject_at());
        }
        const std::string label = std::string(txn::to_string(protocol)) +
                                  "-w" + std::to_string(workers) +
                                  (crash ? "-crash" : "");
        cells.push_back({protocol, workers, crash,
                         run.add(label, std::move(opts))});
      }
    }
  }

  const ExperimentResult& base = run.get(serial);

  TablePrinter table({"Protocol", "Workers", "Fault", "tpmC", "Committed",
                      "Aborts", "Retries", "WaitDie", "OccFail", "Recovery",
                      "Lost", "Violations"});
  table.add_row({"serial", "1", "-", TablePrinter::num(base.tpmc, 1),
                 std::to_string(base.committed), "0", "0", "0", "0", "-", "-",
                 std::to_string(base.integrity_violations)});
  bool identity_ok = true;
  for (const Cell& cell : cells) {
    const ExperimentResult& r = run.get(cell.handle);
    table.add_row({txn::to_string(cell.protocol),
                   std::to_string(cell.workers),
                   cell.crash ? "crash" : "-", TablePrinter::num(r.tpmc, 1),
                   std::to_string(r.committed),
                   std::to_string(r.metrics.counter("cc txns aborted")),
                   std::to_string(r.cc_retries),
                   std::to_string(r.metrics.counter("cc wait_die aborts")),
                   std::to_string(r.metrics.counter("cc occ validate fails")),
                   recovery_cell(r),
                   r.fault_injected ? std::to_string(r.lost_committed) : "-",
                   std::to_string(r.integrity_violations)});
    // The acceptance gate: workers=1 never engages the coordinator, so the
    // fault-free runs must replay the serial baseline bit for bit.
    if (cell.workers == 1 && !cell.crash) {
      if (r.committed != base.committed || r.tpmc != base.tpmc ||
          r.redo_bytes != base.redo_bytes ||
          r.metrics.counter("cc txns aborted") != 0) {
        identity_ok = false;
        std::fprintf(stderr,
                     "FATAL: %s-w1 diverged from the serial baseline "
                     "(committed %llu vs %llu, redo %llu vs %llu)\n",
                     txn::to_string(cell.protocol),
                     static_cast<unsigned long long>(r.committed),
                     static_cast<unsigned long long>(base.committed),
                     static_cast<unsigned long long>(r.redo_bytes),
                     static_cast<unsigned long long>(base.redo_bytes));
      }
    }
  }
  table.print();

  std::printf(
      "\nShape checks: workers=1 rows equal the serial baseline exactly\n"
      "(%s); fault-free throughput grows with workers; crash rows recover\n"
      "with zero integrity violations and zero lost transactions.\n",
      identity_ok ? "PASS" : "FAIL");
  run.finish();
  return identity_ok ? 0 : 1;
}
