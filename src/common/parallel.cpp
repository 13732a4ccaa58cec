#include "common/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

namespace vdb {

unsigned default_jobs() {
  if (const char* env = std::getenv("VDB_JOBS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<unsigned>(parsed);
    return 1;  // malformed or <= 0: be conservative, stay serial
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace {

/// 0 resolves to default_jobs(), anything else passes through.
unsigned resolve_jobs(unsigned jobs) {
  return jobs > 0 ? jobs : default_jobs();
}

}  // namespace

void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(resolve_jobs(jobs), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  // The calling thread is one of the workers: it claims indexes instead of
  // idling in join(), so only workers - 1 threads are started.
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

}  // namespace vdb
