// Simulated filesystem.
//
// Database files (control file, datafiles, online redo logs, archived logs,
// backups) live here as named byte arrays placed on simulated disks via
// mount points. This is also the surface the fault injector uses: operator
// faults are real remove()/corrupt_range() calls, and the storage faultload
// (silent bit flips, torn writes, transient device errors) mangles the same
// byte arrays the engine persists to.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "sim/disk.hpp"
#include "sim/virtual_clock.hpp"

namespace vdb::sim {

/// Foreground I/O blocks the caller (advances the shared clock to request
/// completion); background I/O only occupies the device.
enum class IoMode { kForeground, kBackground };

class SimFs {
 public:
  explicit SimFs(VirtualClock* clock) : clock_(clock) {}

  /// Routes paths with this prefix to `disk`. Longest-prefix match wins.
  /// Disks are owned by the caller and must outlive the filesystem.
  void mount(std::string prefix, Disk* disk);

  Status create(const std::string& path);
  bool exists(const std::string& path) const;
  Status remove(const std::string& path);

  static constexpr std::uint64_t kWholeFile = ~std::uint64_t{0};

  /// Marks [offset, offset+len) corrupted; reads overlapping the range fail
  /// with kCorruption. Models an operator (or firmware) mangling bytes in
  /// place in a way the device itself reports. Overwriting the bytes heals
  /// the overlapped portion of the range.
  Status corrupt_range(const std::string& path, std::uint64_t offset,
                       std::uint64_t len);

  /// Whole-file corruption (legacy operator-fault surface).
  Status corrupt(const std::string& path);
  bool is_corrupted(const std::string& path) const;

  /// Silent fault: XORs each byte of [offset, offset+len) with a non-zero
  /// mask drawn from a seeded Rng. Reads keep succeeding — only a content
  /// checksum can tell the data went bad.
  Status flip_bits(const std::string& path, std::uint64_t offset,
                   std::uint64_t len, std::uint64_t seed);

  /// Arms a torn write: the NEXT write() to `path` persists only the first
  /// `keep_bytes` bytes of its buffer (the sectors that hit the platter
  /// before the crash), then the arm clears. The caller still sees OK — the
  /// OS acknowledged the write from its cache.
  Status tear_next_write(const std::string& path, std::uint64_t keep_bytes);

  /// Probabilistic transient device errors: until the virtual clock passes
  /// `until`, each read/write touching a path with this prefix fails with
  /// kTransientIo with probability `probability` (seeded, reproducible).
  void inject_transient_errors(std::string prefix, SimTime until,
                               double probability, std::uint64_t seed);
  void clear_transient_errors();

  Result<std::uint64_t> size(const std::string& path) const;

  /// Writes (extending the file if needed) at `offset`.
  Status write(const std::string& path, std::uint64_t offset,
               std::span<const std::uint8_t> data, IoMode mode,
               bool sequential = false);

  /// `charge_bytes` lets the caller account more bytes than are physically
  /// stored: redo records carry realistic logical sizes (Oracle redo entries
  /// are far larger than our compact encodings) without materializing pad
  /// bytes. Defaults to data.size(). The file's charged size drives the I/O
  /// cost of later read_all()/copy() calls.
  Status append(const std::string& path, std::span<const std::uint8_t> data,
                IoMode mode, std::uint64_t charge_bytes = kChargeActual);

  static constexpr std::uint64_t kChargeActual = ~std::uint64_t{0};

  /// Size used for I/O charging (>= physical size when pads were declared).
  Result<std::uint64_t> charged_size(const std::string& path) const;

  /// Reads out.size() bytes at `offset` into `out`, which the caller owns
  /// (a buffer-cache frame's page, a stack header). `out` is untouched on
  /// failure.
  Status read(const std::string& path, std::uint64_t offset,
              std::span<std::uint8_t> out, IoMode mode,
              bool sequential = false);

  /// The whole file, borrowed: a view of the stored bytes, charged as one
  /// sequential read of the file's charged size. Fails like read() on a
  /// missing file, a transient-error hit or any corrupt range. The view
  /// stays valid until `path` is next written, appended to, truncated,
  /// copied over or removed; I/O on other paths leaves it alone, and a
  /// flip_bits() on `path` shows through it. Parse in place; copy only what
  /// must outlive that.
  Result<std::span<const std::uint8_t>> read_all(const std::string& path,
                                                 IoMode mode);

  Status truncate(const std::string& path, std::uint64_t new_size);

  /// Whole-file copy, charging a sequential read on the source disk and a
  /// sequential write on the destination disk (backup / archive copy model).
  Status copy(const std::string& src, const std::string& dst, IoMode mode);

  /// Paths starting with `prefix`, sorted lexicographically.
  std::vector<std::string> list(const std::string& prefix) const;

  /// Disk a path would be placed on (nullptr if no mount matches).
  Disk* disk_for(std::string_view path) const;

  VirtualClock& clock() { return *clock_; }

 private:
  struct CorruptRange {
    std::uint64_t offset = 0;
    std::uint64_t len = 0;  // kWholeFile covers everything past offset
  };

  struct File {
    Disk* disk = nullptr;
    std::vector<std::uint8_t> data;
    std::uint64_t charged = 0;  // logical size for I/O accounting
    std::vector<CorruptRange> corrupt;
    std::uint64_t torn_keep = kNoTear;  // armed torn-write prefix length
  };

  static constexpr std::uint64_t kNoTear = ~std::uint64_t{0};

  struct TransientFault {
    std::string prefix;
    SimTime until = 0;
    double probability = 0.0;
    Rng rng;
  };

  /// Charges the I/O and, in foreground mode, blocks until completion.
  void charge(Disk* disk, std::uint64_t bytes, IoMode mode, bool sequential);

  /// Draws a transient-error verdict for an I/O on `path` (expires the
  /// injection window as a side effect).
  bool transient_hit(const std::string& path, Disk* disk);

  /// First corrupt range overlapping [offset, offset+len), if any.
  static const CorruptRange* overlap(const File& f, std::uint64_t offset,
                                     std::uint64_t len);

  /// Removes [offset, end) from the file's corrupt ranges (fresh bytes were
  /// written over them).
  static void heal(File& f, std::uint64_t offset, std::uint64_t end);

  Result<File*> find(const std::string& path);
  Result<const File*> find(const std::string& path) const;

  VirtualClock* clock_;
  std::map<std::string, Disk*, std::greater<>> mounts_;  // longest prefix first
  std::map<std::string, File> files_;
  std::optional<TransientFault> transient_;
};

}  // namespace vdb::sim
