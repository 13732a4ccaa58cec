#include "storage/storage_manager.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace vdb::storage {

const char* to_string(FileStatus s) {
  switch (s) {
    case FileStatus::kOnline: return "ONLINE";
    case FileStatus::kOffline: return "OFFLINE";
    case FileStatus::kMissing: return "MISSING";
  }
  return "?";
}

const char* to_string(TablespaceStatus s) {
  switch (s) {
    case TablespaceStatus::kOnline: return "ONLINE";
    case TablespaceStatus::kOffline: return "OFFLINE";
  }
  return "?";
}

StorageManager::StorageManager(sim::SimFs* fs, StorageParams params,
                               std::function<void(Lsn)> wal_flush)
    : fs_(fs), params_(params) {
  cache_ = std::make_unique<BufferCache>(this, params_.cache_pages,
                                         std::move(wal_flush));
  set_observability(nullptr, nullptr);
}

void StorageManager::set_observability(obs::Observability* obs,
                                       const sim::VirtualClock* clock) {
  obs::MetricsRegistry& reg = obs::resolve(obs)->registry();
  retries_counter_ = reg.counter("io retries");
  retries_exhausted_counter_ = reg.counter("io retries exhausted");
  cache_->set_observability(obs, clock);
}

Result<TablespaceId> StorageManager::create_tablespace(
    const std::string& name, bool autoextend, std::uint32_t max_blocks) {
  for (const auto& ts : tablespaces_) {
    if (!ts.dropped && ts.name == name) {
      return make_error(ErrorCode::kAlreadyExists, "tablespace " + name);
    }
  }
  TablespaceInfo info;
  info.id = TablespaceId{static_cast<std::uint32_t>(tablespaces_.size())};
  info.name = name;
  info.autoextend = autoextend;
  info.max_blocks = max_blocks;
  tablespaces_.push_back(info);
  return tablespaces_.back().id;
}

Result<FileId> StorageManager::add_datafile(TablespaceId ts,
                                            const std::string& path,
                                            std::uint32_t blocks) {
  VDB_ASSIGN_OR_RETURN(TablespaceInfo * tsp, ts_mut(ts));
  VDB_RETURN_IF_ERROR(fs_->create(path));
  // Size the file: datafiles are preallocated (zeroed) like Oracle's.
  VDB_RETURN_IF_ERROR(
      fs_->truncate(path, static_cast<std::uint64_t>(blocks) * Page::kSize));

  DataFileInfo info;
  info.id = FileId{static_cast<std::uint32_t>(files_.size())};
  info.tablespace = ts;
  info.path = path;
  info.blocks = blocks;
  files_.push_back(info);
  tsp->files.push_back(info.id);
  return info.id;
}

Result<FileId> StorageManager::attach_datafile(TablespaceId ts,
                                               const std::string& path,
                                               FileId id, std::uint32_t blocks,
                                               FileStatus status,
                                               Lsn recover_from) {
  VDB_CHECK_MSG(id.value == files_.size(),
                "datafiles must be attached in id order");
  VDB_ASSIGN_OR_RETURN(TablespaceInfo * tsp, ts_mut(ts));
  DataFileInfo info;
  info.id = id;
  info.tablespace = ts;
  info.path = path;
  info.blocks = blocks;
  info.status = status;
  info.recover_from = recover_from;
  if (!fs_->exists(path) && status != FileStatus::kMissing) {
    info.status = FileStatus::kMissing;
  }
  files_.push_back(info);
  tsp->files.push_back(id);
  return id;
}

void StorageManager::restore_tablespace(const TablespaceInfo& info) {
  VDB_CHECK(info.id.value == tablespaces_.size());
  tablespaces_.push_back(info);
  // File links are re-established by restore_datafile.
  tablespaces_.back().files.clear();
}

void StorageManager::restore_datafile(const DataFileInfo& info) {
  VDB_CHECK(info.id.value == files_.size());
  files_.push_back(info);
  DataFileInfo& file = files_.back();
  if (!file.dropped) {
    if (!fs_->exists(file.path)) {
      file.status = FileStatus::kMissing;
    } else {
      // The control-file snapshot is only as fresh as the last checkpoint;
      // the physical file may have grown since. Trust the larger size so
      // replay never allocates over live blocks.
      auto physical = fs_->size(file.path);
      if (physical.is_ok()) {
        file.blocks = std::max(
            file.blocks,
            static_cast<std::uint32_t>(physical.value() / Page::kSize));
      }
    }
    VDB_CHECK(info.tablespace.value < tablespaces_.size());
    tablespaces_[info.tablespace.value].files.push_back(file.id);
  }
}

Status StorageManager::set_datafile_offline(FileId id,
                                            Lsn last_checkpoint_lsn,
                                            bool clean) {
  VDB_ASSIGN_OR_RETURN(DataFileInfo * file, file_mut(id));
  if (file->status == FileStatus::kOffline) return Status::ok();
  // OFFLINE IMMEDIATE: dirty buffers are thrown away, so the on-disk image
  // is only current up to the last checkpoint; redo from there is needed to
  // bring the file online again. OFFLINE NORMAL (clean=true) had its dirty
  // buffers flushed by the caller and needs nothing.
  cache_->discard_file(id);
  file->status = FileStatus::kOffline;
  if (!clean) {
    file->recover_from = std::min(file->recover_from, last_checkpoint_lsn);
  }
  return Status::ok();
}

Status StorageManager::set_datafile_online(FileId id) {
  VDB_ASSIGN_OR_RETURN(DataFileInfo * file, file_mut(id));
  if (file->recover_from != kInvalidLsn) {
    return make_error(ErrorCode::kRecoveryRequired,
                      "datafile needs media recovery: " + file->path);
  }
  if (!fs_->exists(file->path)) {
    file->status = FileStatus::kMissing;
    return make_error(ErrorCode::kMediaFailure, "datafile missing: " + file->path);
  }
  file->status = FileStatus::kOnline;
  return Status::ok();
}

Status StorageManager::set_tablespace_offline(TablespaceId id,
                                              Lsn last_checkpoint_lsn) {
  VDB_ASSIGN_OR_RETURN(TablespaceInfo * ts, ts_mut(id));
  ts->status = TablespaceStatus::kOffline;
  for (FileId fid : ts->files) {
    VDB_RETURN_IF_ERROR(set_datafile_offline(fid, last_checkpoint_lsn));
  }
  return Status::ok();
}

Status StorageManager::set_tablespace_online(TablespaceId id) {
  VDB_ASSIGN_OR_RETURN(TablespaceInfo * ts, ts_mut(id));
  for (FileId fid : ts->files) {
    VDB_RETURN_IF_ERROR(set_datafile_online(fid));
  }
  ts->status = TablespaceStatus::kOnline;
  return Status::ok();
}

Status StorageManager::drop_tablespace(TablespaceId id, bool delete_files) {
  VDB_ASSIGN_OR_RETURN(TablespaceInfo * ts, ts_mut(id));
  for (FileId fid : ts->files) {
    auto file = file_mut(fid);
    if (!file.is_ok()) continue;
    cache_->discard_file(fid);
    if (delete_files && fs_->exists(file.value()->path)) {
      (void)fs_->remove(file.value()->path);
    }
    file.value()->dropped = true;
    file.value()->status = FileStatus::kMissing;
  }
  ts->dropped = true;
  return Status::ok();
}

Status StorageManager::set_tablespace_quota(TablespaceId id,
                                            std::uint32_t max_blocks) {
  VDB_ASSIGN_OR_RETURN(TablespaceInfo * ts, ts_mut(id));
  ts->max_blocks = max_blocks;
  return Status::ok();
}

void StorageManager::mark_missing(FileId id) {
  auto file = file_mut(id);
  if (file.is_ok()) file.value()->status = FileStatus::kMissing;
}

Result<PageId> StorageManager::reserve_page(TablespaceId ts) {
  VDB_ASSIGN_OR_RETURN(TablespaceInfo * tsp, ts_mut(ts));
  if (tsp->status != TablespaceStatus::kOnline) {
    return make_error(ErrorCode::kOffline, "tablespace offline: " + tsp->name);
  }
  if (tsp->files.empty()) {
    return make_error(ErrorCode::kOutOfSpace,
                      "tablespace has no datafiles: " + tsp->name);
  }

  // Round-robin over files so data spreads across devices, as a sensible
  // administrator would configure.
  std::uint32_t& cursor = alloc_cursor_[ts];
  for (size_t attempt = 0; attempt < tsp->files.size(); ++attempt) {
    DataFileInfo* file =
        file_mut(tsp->files[cursor % tsp->files.size()]).value();
    cursor += 1;
    if (file->status != FileStatus::kOnline) continue;
    if (file->high_water < file->blocks) {
      return PageId{file->id, file->high_water};
    }
    // File full: try to extend it within the tablespace quota.
    if (tsp->autoextend) {
      std::uint32_t total = 0;
      for (FileId fid : tsp->files) total += file_mut(fid).value()->blocks;
      if (tsp->max_blocks == 0 ||
          total + params_.extent_blocks <= tsp->max_blocks) {
        VDB_RETURN_IF_ERROR(extend_file(*file, params_.extent_blocks));
        return PageId{file->id, file->high_water};
      }
    }
  }
  return make_error(ErrorCode::kOutOfSpace,
                    "tablespace out of space: " + tsp->name);
}

Status StorageManager::extend_file(DataFileInfo& file,
                                   std::uint32_t add_blocks) {
  file.blocks += add_blocks;
  const std::uint64_t want =
      static_cast<std::uint64_t>(file.blocks) * Page::kSize;
  auto physical = fs_->size(file.path);
  if (!physical.is_ok()) return physical.status();
  // Metadata can lag the physical file after a crash (the control file is
  // only as fresh as the last checkpoint, and recovery-time evictions may
  // already have rewritten high blocks). Growing must therefore never
  // truncate: only extend when the physical file is actually shorter.
  if (physical.value() < want) {
    VDB_RETURN_IF_ERROR(fs_->truncate(file.path, want));
  } else {
    file.blocks = std::max(
        file.blocks,
        static_cast<std::uint32_t>(physical.value() / Page::kSize));
  }
  return Status::ok();
}

Status StorageManager::apply_format(PageId pid, TableId owner,
                                    std::uint16_t slot_size, Lsn lsn) {
  VDB_ASSIGN_OR_RETURN(DataFileInfo * file, file_mut(pid.file));
  // Replay may format past the current physical size (the original run
  // extended the file); grow as needed.
  while (pid.block >= file->blocks) {
    VDB_RETURN_IF_ERROR(extend_file(*file, params_.extent_blocks));
  }
  VDB_ASSIGN_OR_RETURN(PageRef ref, cache_->fetch(pid));
  ref->format(owner, slot_size);
  ref->set_lsn(lsn);
  cache_->mark_dirty(pid, fs_->clock().now());
  file->high_water = std::max(file->high_water, pid.block + 1);
  return Status::ok();
}

Result<std::vector<std::uint8_t>> StorageManager::read_with_retry(
    const std::string& path, std::uint64_t offset, std::uint64_t len,
    sim::IoMode mode, bool sequential) {
  const IoRetryPolicy& policy = params_.retry;
  SimDuration backoff = policy.initial_backoff;
  for (std::uint32_t attempt = 1;; ++attempt) {
    auto bytes = fs_->read(path, offset, len, mode, sequential);
    if (bytes.is_ok() || bytes.code() != ErrorCode::kTransientIo) return bytes;
    if (attempt >= policy.max_attempts) {
      retries_exhausted_counter_->inc();
      return make_error(ErrorCode::kTransientIo,
                        bytes.status().message() + " (" +
                            std::to_string(attempt - 1) +
                            " retries exhausted)");
    }
    retries_counter_->inc();
    fs_->clock().advance_by(backoff);
    backoff *= policy.multiplier;
  }
}

Status StorageManager::write_with_retry(const std::string& path,
                                        std::uint64_t offset,
                                        std::span<const std::uint8_t> data,
                                        sim::IoMode mode, bool sequential) {
  const IoRetryPolicy& policy = params_.retry;
  SimDuration backoff = policy.initial_backoff;
  for (std::uint32_t attempt = 1;; ++attempt) {
    Status st = fs_->write(path, offset, data, mode, sequential);
    if (st.is_ok() || st.code() != ErrorCode::kTransientIo) return st;
    if (attempt >= policy.max_attempts) {
      retries_exhausted_counter_->inc();
      return make_error(ErrorCode::kTransientIo,
                        st.message() + " (" + std::to_string(attempt - 1) +
                            " retries exhausted)");
    }
    retries_counter_->inc();
    fs_->clock().advance_by(backoff);
    backoff *= policy.multiplier;
  }
}

void StorageManager::note_corrupt(PageId id) {
  for (PageId seen : corrupt_blocks_) {
    if (seen == id) return;
  }
  corrupt_blocks_.push_back(id);
}

void StorageManager::clear_corrupt_block(PageId id) {
  std::erase(corrupt_blocks_, id);
}

Status StorageManager::load_page(PageId id, Page* out, sim::IoMode mode) {
  auto file = file_mut(id.file);
  if (!file.is_ok()) return file.status();
  DataFileInfo& f = *file.value();
  if (f.status == FileStatus::kOffline && !recovery_mode_) {
    return make_error(ErrorCode::kOffline, "datafile offline: " + f.path);
  }
  const std::uint64_t offset =
      static_cast<std::uint64_t>(id.block) * Page::kSize;
  auto bytes = read_with_retry(f.path, offset, Page::kSize, mode,
                               /*sequential=*/false);
  if (!bytes.is_ok()) {
    if (bytes.code() == ErrorCode::kNotFound) {
      f.status = FileStatus::kMissing;
      return make_error(ErrorCode::kMediaFailure,
                        "datafile missing: " + f.path);
    }
    if (bytes.code() == ErrorCode::kCorruption) note_corrupt(id);
    return bytes.status();
  }
  std::copy(bytes.value().begin(), bytes.value().end(), out->raw());
  if (!out->verify_checksum()) {
    note_corrupt(id);
    char detail[64];
    std::snprintf(detail, sizeof(detail),
                  " expected crc32c=%08x actual=%08x",
                  out->stored_checksum(), out->computed_checksum());
    return make_error(ErrorCode::kCorruption,
                      "checksum mismatch at " + vdb::to_string(id) + " (" +
                          f.path + " offset " + std::to_string(offset) + "):" +
                          detail);
  }
  return Status::ok();
}

Status StorageManager::store_page(PageId id, Page& page, sim::IoMode mode,
                                  bool batched) {
  auto file = file_mut(id.file);
  if (!file.is_ok()) return file.status();
  DataFileInfo& f = *file.value();
  if (f.status == FileStatus::kOffline && !recovery_mode_) {
    return make_error(ErrorCode::kOffline, "datafile offline: " + f.path);
  }
  page.update_checksum();
  Status st = write_with_retry(
      f.path, static_cast<std::uint64_t>(id.block) * Page::kSize, page.bytes(),
      mode, /*sequential=*/batched);
  if (!st.is_ok() && st.code() == ErrorCode::kNotFound) {
    f.status = FileStatus::kMissing;
    return make_error(ErrorCode::kMediaFailure, "datafile missing: " + f.path);
  }
  return st;
}

Result<VerifyReport> StorageManager::verify_file(FileId id) {
  VDB_ASSIGN_OR_RETURN(DataFileInfo * file, file_mut(id));
  auto size = fs_->size(file->path);
  if (!size.is_ok()) {
    if (size.code() == ErrorCode::kNotFound) {
      return make_error(ErrorCode::kMediaFailure,
                        "datafile missing: " + file->path);
    }
    return size.status();
  }
  VerifyReport report;
  Page page;
  const std::uint32_t blocks =
      static_cast<std::uint32_t>(size.value() / Page::kSize);
  for (std::uint32_t block = 0; block < blocks; ++block) {
    const PageId pid{id, block};
    const std::uint64_t offset =
        static_cast<std::uint64_t>(block) * Page::kSize;
    ++report.blocks_scanned;
    auto bytes = read_with_retry(file->path, offset, Page::kSize,
                                 sim::IoMode::kForeground,
                                 /*sequential=*/true);
    if (!bytes.is_ok()) {
      // Unreadable (loud corruption, exhausted retries): the block is bad,
      // but the scan keeps going — DBVERIFY reports all damage in one pass.
      note_corrupt(pid);
      report.bad.push_back(
          BadBlock{pid, file->path, offset, 0, 0, bytes.status()});
      continue;
    }
    std::copy(bytes.value().begin(), bytes.value().end(), page.raw());
    if (!page.verify_checksum()) {
      note_corrupt(pid);
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "checksum mismatch: expected crc32c=%08x actual=%08x",
                    page.stored_checksum(), page.computed_checksum());
      report.bad.push_back(BadBlock{pid, file->path, offset,
                                    page.stored_checksum(),
                                    page.computed_checksum(),
                                    make_error(ErrorCode::kCorruption,
                                               detail)});
    }
  }
  return report;
}

Status StorageManager::scan_file(
    FileId id,
    const std::function<void(std::uint32_t, const Page&)>& fn) {
  VDB_ASSIGN_OR_RETURN(DataFileInfo * file, file_mut(id));
  auto bytes = fs_->read_all(file->path, sim::IoMode::kForeground);
  if (!bytes.is_ok()) return bytes.status();
  const auto& data = bytes.value();
  Page page;
  std::uint32_t hwm = 0;
  for (std::uint32_t block = 0; block * Page::kSize < data.size(); ++block) {
    std::copy(data.begin() + static_cast<long>(block) * Page::kSize,
              data.begin() + static_cast<long>(block + 1) * Page::kSize,
              page.raw());
    if (!page.formatted()) continue;
    hwm = block + 1;
    fn(block, page);
  }
  file->high_water = std::max(file->high_water, hwm);
  return Status::ok();
}

Result<const DataFileInfo*> StorageManager::file_info(FileId id) const {
  if (!id.valid() || id.value >= files_.size() || files_[id.value].dropped) {
    return make_error(ErrorCode::kNotFound, "no such datafile");
  }
  return &files_[id.value];
}

Result<const TablespaceInfo*> StorageManager::tablespace_info(
    TablespaceId id) const {
  if (!id.valid() || id.value >= tablespaces_.size() ||
      tablespaces_[id.value].dropped) {
    return make_error(ErrorCode::kNotFound, "no such tablespace");
  }
  return &tablespaces_[id.value];
}

Result<TablespaceId> StorageManager::find_tablespace(
    const std::string& name) const {
  for (const auto& ts : tablespaces_) {
    if (!ts.dropped && ts.name == name) return ts.id;
  }
  return make_error(ErrorCode::kNotFound, "no such tablespace: " + name);
}

void StorageManager::set_high_water(FileId id, std::uint32_t hwm) {
  auto file = file_mut(id);
  if (file.is_ok()) {
    file.value()->high_water = std::max(file.value()->high_water, hwm);
  }
}

Status StorageManager::sync_file_size(FileId id) {
  VDB_ASSIGN_OR_RETURN(DataFileInfo * file, file_mut(id));
  auto size = fs_->size(file->path);
  if (!size.is_ok()) return size.status();
  file->blocks = static_cast<std::uint32_t>(size.value() / Page::kSize);
  file->high_water = std::min(file->high_water, file->blocks);
  return Status::ok();
}

Status StorageManager::set_recover_from(FileId id, Lsn lsn) {
  VDB_ASSIGN_OR_RETURN(DataFileInfo * file, file_mut(id));
  file->recover_from = lsn;
  return Status::ok();
}

Result<DataFileInfo*> StorageManager::file_mut(FileId id) {
  if (!id.valid() || id.value >= files_.size() || files_[id.value].dropped) {
    return make_error(ErrorCode::kNotFound, "no such datafile");
  }
  return &files_[id.value];
}

Result<TablespaceInfo*> StorageManager::ts_mut(TablespaceId id) {
  if (!id.valid() || id.value >= tablespaces_.size() ||
      tablespaces_[id.value].dropped) {
    return make_error(ErrorCode::kNotFound, "no such tablespace");
  }
  return &tablespaces_[id.value];
}

}  // namespace vdb::storage
