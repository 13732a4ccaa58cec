// In-memory span recorder for the benchmark's traced pass.
//
// A span is one timed public call: name, start, end (steady-clock
// nanoseconds), the index of its enclosing span, and the id of the
// experiment it belongs to. Spans nest strictly (a scope opens and closes
// on one thread, innermost first), so within one experiment the self times
// of all spans add up to the root span's duration exactly — the tiling the
// analysis in run.py checks. Recording is off unless enabled: a disabled
// recorder makes Scope a pair of branches.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace vdbbench {

using Nanos = std::int64_t;

inline Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds(Nanos ns) { return static_cast<double>(ns) * 1e-9; }

struct Span {
  std::string name;
  Nanos start = 0;
  Nanos end = 0;
  int parent = -1;  // index into the recorder's span list; -1 for a root
  int experiment = -1;
};

class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Every span opened from now on carries this experiment id.
  void set_experiment(int id) { experiment_ = id; }

  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, experiment_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line; returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start\":%lld,\"end\":%lld,"
                   "\"parent\":%d,\"experiment\":%d}\n",
                   s.name.c_str(), static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent, s.experiment);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  int experiment_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span. `total`, when given, also accumulates the scope's wall time,
/// traced or not — the end-to-end measurements use the same scopes.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, Nanos* total = nullptr)
      : rec_(rec), index_(rec.open(name)), total_(total), start_(now_ns()) {}
  ~Scope() {
    if (total_ != nullptr) *total_ += now_ns() - start_;
    rec_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
  Nanos* total_;
  Nanos start_;
};

}  // namespace vdbbench
