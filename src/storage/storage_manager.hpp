// Storage manager: tablespaces, datafiles, space allocation, and the
// PageStore implementation that connects the buffer cache to the simulated
// filesystem.
//
// This layer mirrors Oracle's physical/logical storage split (§2.1 of the
// paper): tablespaces are logical containers physically backed by one or
// more datafiles; space is handed out in extents; datafiles can be taken
// offline, deleted (operator fault), and later restored by media recovery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "sim/filesystem.hpp"
#include "storage/buffer_cache.hpp"
#include "storage/page.hpp"

namespace vdb::storage {

enum class FileStatus { kOnline, kOffline, kMissing };
enum class TablespaceStatus { kOnline, kOffline };

const char* to_string(FileStatus s);
const char* to_string(TablespaceStatus s);

struct DataFileInfo {
  FileId id{};
  TablespaceId tablespace{};
  std::string path;
  std::uint32_t blocks = 0;  // physical size
  std::uint32_t high_water = 0;  // first never-formatted block
  FileStatus status = FileStatus::kOnline;
  /// Redo position from which this file must be rolled forward when it is
  /// brought back online (set when taken offline immediate / restored).
  Lsn recover_from = kInvalidLsn;
  /// True once the owning tablespace was dropped; the slot stays to keep
  /// FileIds stable within the running instance.
  bool dropped = false;
};

struct TablespaceInfo {
  TablespaceId id{};
  std::string name;
  TablespaceStatus status = TablespaceStatus::kOnline;
  std::vector<FileId> files;
  bool autoextend = true;
  /// Hard cap on total blocks (0 = unlimited); exceeding it yields
  /// kOutOfSpace — the "let a tablespace run out of space" operator fault.
  std::uint32_t max_blocks = 0;
  bool dropped = false;
};

/// Bounded exponential backoff for transient device errors. A read/write
/// that fails with kTransientIo is retried up to max_attempts times total,
/// sleeping (on the simulated clock) initial_backoff, then initial_backoff *
/// multiplier, and so on, between attempts. Exhaustion surfaces the error.
struct IoRetryPolicy {
  std::uint32_t max_attempts = 4;
  SimDuration initial_backoff = 2 * kMillisecond;
  std::uint32_t multiplier = 4;
};

struct StorageParams {
  std::uint32_t cache_pages = 2048;   // 16 MiB with 8 KiB pages
  std::uint32_t extent_blocks = 16;   // file growth unit
  IoRetryPolicy retry;
};

/// One corrupt block found by verify_file() (DBVERIFY-style scan).
struct BadBlock {
  PageId page = PageId::invalid();
  std::string path;
  std::uint64_t offset = 0;        // byte offset of the block in the file
  std::uint32_t expected_crc = 0;  // checksum stored in the page header
  std::uint32_t actual_crc = 0;    // checksum of the actual contents
  Status error;                    // why the block is bad
};

struct VerifyReport {
  std::uint64_t blocks_scanned = 0;
  std::vector<BadBlock> bad;
};

class StorageManager final : public PageStore {
 public:
  StorageManager(sim::SimFs* fs, StorageParams params,
                 std::function<void(Lsn)> wal_flush);

  // --- administration -----------------------------------------------------

  Result<TablespaceId> create_tablespace(const std::string& name,
                                         bool autoextend = true,
                                         std::uint32_t max_blocks = 0);

  /// Creates the file in the filesystem sized to `blocks` and attaches it.
  Result<FileId> add_datafile(TablespaceId ts, const std::string& path,
                              std::uint32_t blocks);

  /// Re-attaches an existing file (startup from control file / restore).
  Result<FileId> attach_datafile(TablespaceId ts, const std::string& path,
                                 FileId id, std::uint32_t blocks,
                                 FileStatus status, Lsn recover_from);

  /// Startup-from-control-file: pushes entries verbatim, preserving ids
  /// (including dropped slots). Must be called in id order.
  void restore_tablespace(const TablespaceInfo& info);
  void restore_datafile(const DataFileInfo& info);

  /// OFFLINE IMMEDIATE (default): dirty buffers are discarded; the file
  /// needs redo from the supplied checkpoint LSN before it can come back
  /// online. With `clean` (OFFLINE NORMAL, caller flushed the file first)
  /// no recovery is required.
  Status set_datafile_offline(FileId id, Lsn last_checkpoint_lsn,
                              bool clean = false);
  Status set_datafile_online(FileId id);  // requires recover_from cleared

  /// Recovery mode lifts the offline-access restriction so media recovery
  /// can roll offline files forward.
  void set_recovery_mode(bool on) { recovery_mode_ = on; }

  Status set_tablespace_offline(TablespaceId id, Lsn last_checkpoint_lsn);
  Status set_tablespace_online(TablespaceId id);

  /// Detaches the tablespace and optionally removes its files.
  Status drop_tablespace(TablespaceId id, bool delete_files);

  /// Changes the tablespace's block quota (0 = unlimited).
  Status set_tablespace_quota(TablespaceId id, std::uint32_t max_blocks);

  /// Marks a file missing (media failure detected) without touching disk.
  void mark_missing(FileId id);

  // --- space allocation ---------------------------------------------------

  /// Picks the next free block for a new page of `owner`, round-robin over
  /// the tablespace's online files, extending a file when permitted. Does
  /// NOT format the page: the engine logs a FORMAT record first and then
  /// calls apply_format (same path as redo replay).
  Result<PageId> reserve_page(TablespaceId ts);

  /// Formats `pid` for `owner` in the cache and marks it dirty with `lsn`.
  Status apply_format(PageId pid, TableId owner, std::uint16_t slot_size,
                      Lsn lsn);

  // --- page access --------------------------------------------------------

  Result<PageRef> fetch(PageId id) {
    if (fetch_gate_) {
      Status st = fetch_gate_(id);
      if (!st.is_ok()) return st;
    }
    return cache_->fetch(id);
  }

  /// Pre-fetch hook for the early-open restart modes: invoked with the page
  /// id before the cache is consulted; an error aborts the fetch. The
  /// restart coordinator uses it to roll a page forward on demand (and
  /// disables it from inside its own drains). nullptr uninstalls.
  void set_fetch_gate(std::function<Status(PageId)> gate) {
    fetch_gate_ = std::move(gate);
  }
  void mark_dirty(PageId id) { cache_->mark_dirty(id, fs_->clock().now()); }
  /// Batched-replay variant: records the LSN of the first change this frame
  /// absorbed since it was last clean (see BufferCache::mark_dirty).
  void mark_dirty(PageId id, Lsn first_change_lsn) {
    cache_->mark_dirty(id, fs_->clock().now(), first_change_lsn);
  }
  BufferCache& cache() { return *cache_; }

  /// Sequentially reads a whole file (one bulk I/O charge) and invokes `fn`
  /// for every formatted page. Used to rebuild heap/index metadata after
  /// recovery. Does not populate the cache.
  Status scan_file(FileId id,
                   const std::function<void(std::uint32_t block,
                                            const Page& page)>& fn);

  /// DBVERIFY analogue: reads every block of the file (sequential charge)
  /// and checksums it, without populating the cache. Works on online and
  /// offline files. Bad blocks are also recorded in corrupt_blocks().
  Result<VerifyReport> verify_file(FileId id);

  // --- PageStore ----------------------------------------------------------

  Status load_page(PageId id, Page* out, sim::IoMode mode) override;
  Status store_page(PageId id, Page& page, sim::IoMode mode,
                    bool batched) override;

  // --- introspection ------------------------------------------------------

  Result<const DataFileInfo*> file_info(FileId id) const;
  Result<const TablespaceInfo*> tablespace_info(TablespaceId id) const;
  Result<TablespaceId> find_tablespace(const std::string& name) const;
  const std::vector<DataFileInfo>& files() const { return files_; }
  const std::vector<TablespaceInfo>& tablespaces() const {
    return tablespaces_;
  }
  sim::SimFs& fs() { return *fs_; }
  const StorageParams& params() const { return params_; }

  /// Wires this manager and its buffer cache into a statistics area. The
  /// retry loop reports "io retries" / "io retries exhausted" counters;
  /// cache instruments are re-wired in the same call.
  void set_observability(obs::Observability* obs,
                         const sim::VirtualClock* clock);

  /// Blocks whose checksum failed on fetch or verify, pending block media
  /// recovery. Cleared per block once recovery repairs it.
  const std::vector<PageId>& corrupt_blocks() const { return corrupt_blocks_; }
  void clear_corrupt_block(PageId id);

  /// Sets high_water from a recovery scan.
  void set_high_water(FileId id, std::uint32_t hwm);
  Status set_recover_from(FileId id, Lsn lsn);

  /// Re-reads the file's physical size after a restore replaced it with an
  /// older (possibly shorter) image; metadata must not claim blocks the
  /// image does not have. Redo replay re-extends as it formats.
  Status sync_file_size(FileId id);

 private:
  Result<DataFileInfo*> file_mut(FileId id);
  Result<TablespaceInfo*> ts_mut(TablespaceId id);
  Status extend_file(DataFileInfo& file, std::uint32_t add_blocks);

  /// fs_->read / fs_->write wrapped in the bounded-backoff retry loop;
  /// kTransientIo exhaustion is surfaced with the retry count appended.
  Result<std::vector<std::uint8_t>> read_with_retry(const std::string& path,
                                                    std::uint64_t offset,
                                                    std::uint64_t len,
                                                    sim::IoMode mode,
                                                    bool sequential);
  Status write_with_retry(const std::string& path, std::uint64_t offset,
                          std::span<const std::uint8_t> data,
                          sim::IoMode mode, bool sequential);

  void note_corrupt(PageId id);

  sim::SimFs* fs_;
  StorageParams params_;
  bool recovery_mode_ = false;
  std::function<Status(PageId)> fetch_gate_;
  std::unique_ptr<BufferCache> cache_;
  std::vector<TablespaceInfo> tablespaces_;
  std::vector<DataFileInfo> files_;
  std::unordered_map<TablespaceId, std::uint32_t> alloc_cursor_;  // round robin
  std::vector<PageId> corrupt_blocks_;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* retries_exhausted_counter_ = nullptr;
};

}  // namespace vdb::storage
