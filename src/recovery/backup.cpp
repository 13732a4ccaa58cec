#include "recovery/backup.hpp"

#include <algorithm>
#include <span>

#include "common/codec.hpp"

namespace vdb::recovery {

Result<std::uint32_t> BackupManager::take_backup(engine::Database& db) {
  // Checkpoint: every committed change reaches the datafiles, making the
  // copied images consistent as of the recovery position.
  VDB_RETURN_IF_ERROR(db.checkpoint_now());

  BackupSet set;
  set.set_id = next_set_id_++;
  set.backup_lsn = db.redo().recovery_position();

  for (const auto& file : db.storage().files()) {
    if (file.dropped) continue;
    if (file.status != storage::FileStatus::kOnline) {
      return Status{ErrorCode::kOffline,
                    "cannot back up non-online datafile: " + file.path};
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "/set%03u_file%03u.bk", set.set_id,
                  file.id.value);
    BackupFileEntry entry;
    entry.id = file.id;
    entry.original_path = file.path;
    entry.backup_path = dir_ + buf;
    VDB_RETURN_IF_ERROR(
        fs_->copy(file.path, entry.backup_path, sim::IoMode::kForeground));
    set.files.push_back(std::move(entry));
  }

  // Control-file snapshot taken after the checkpoint above.
  engine::ControlFileData control;
  control.db_name = db.config().name;
  control.clean_shutdown = false;
  control.recovery_position = set.backup_lsn;
  control.checkpoint_lsn = set.backup_lsn;
  control.next_txn_id = db.txns().next_id();
  control.archive_mode = db.config().redo.archive_mode;
  control.tablespaces = db.storage().tablespaces();
  control.datafiles = db.storage().files();
  control.catalog = db.cat();
  set.control = std::move(control);

  sets_.push_back(std::move(set));
  VDB_RETURN_IF_ERROR(persist_catalog());
  return sets_.back().set_id;
}

Status BackupManager::restore_datafile(engine::Database& db, FileId id) {
  // Newest set first.
  for (auto it = sets_.rbegin(); it != sets_.rend(); ++it) {
    for (const auto& entry : it->files) {
      if (entry.id != id) continue;
      if (!fs_->exists(entry.backup_path)) {
        return make_error(ErrorCode::kUnrecoverable,
                          "backup copy missing: " + entry.backup_path);
      }
      VDB_RETURN_IF_ERROR(fs_->copy(entry.backup_path, entry.original_path,
                                    sim::IoMode::kForeground));
      // The restored image is stale: it needs redo from the backup LSN,
      // and it may be shorter than the file had grown to.
      VDB_RETURN_IF_ERROR(db.storage().sync_file_size(id));
      VDB_RETURN_IF_ERROR(db.storage().set_recover_from(id, it->backup_lsn));
      return Status::ok();
    }
  }
  return make_error(ErrorCode::kUnrecoverable,
                    "no backup contains datafile " + std::to_string(id.value));
}

Result<Lsn> BackupManager::restore_block(engine::Database& db, PageId pid) {
  for (auto it = sets_.rbegin(); it != sets_.rend(); ++it) {
    for (const auto& entry : it->files) {
      if (entry.id != pid.file) continue;
      if (!fs_->exists(entry.backup_path)) {
        return make_error(ErrorCode::kUnrecoverable,
                          "backup copy missing: " + entry.backup_path);
      }
      const std::uint64_t offset =
          static_cast<std::uint64_t>(pid.block) * storage::Page::kSize;
      std::vector<std::uint8_t> image(storage::Page::kSize, 0);
      VDB_ASSIGN_OR_RETURN(std::uint64_t backup_size,
                           fs_->size(entry.backup_path));
      if (offset < backup_size) {
        const std::uint64_t n =
            std::min<std::uint64_t>(storage::Page::kSize, backup_size - offset);
        VDB_RETURN_IF_ERROR(fs_->read(entry.backup_path, offset,
                                      std::span(image).first(n),
                                      sim::IoMode::kForeground));
      }
      // else: the block did not exist at backup time — a virgin image lets
      // redo replay re-format it.
      VDB_RETURN_IF_ERROR(fs_->write(entry.original_path, offset, image,
                                     sim::IoMode::kForeground));
      (void)db;
      return it->backup_lsn;
    }
  }
  return make_error(
      ErrorCode::kUnrecoverable,
      "no backup contains datafile " + std::to_string(pid.file.value));
}

Result<BackupSet> BackupManager::restore_all(sim::SimFs& fs) {
  if (sets_.empty()) {
    return Status{ErrorCode::kUnrecoverable, "no backups exist"};
  }
  const BackupSet& set = sets_.back();
  for (const auto& entry : set.files) {
    if (!fs.exists(entry.backup_path)) {
      return Status{ErrorCode::kUnrecoverable,
                    "backup copy missing: " + entry.backup_path};
    }
    VDB_RETURN_IF_ERROR(
        fs.copy(entry.backup_path, entry.original_path,
                sim::IoMode::kForeground));
  }
  return set;
}

namespace {

void encode_set(Encoder& enc, const BackupSet& set) {
  enc.put_u32(set.set_id);
  enc.put_u64(set.backup_lsn);
  enc.put_u32(static_cast<std::uint32_t>(set.files.size()));
  for (const auto& entry : set.files) {
    enc.put_u32(entry.id.value);
    enc.put_string(entry.original_path);
    enc.put_string(entry.backup_path);
  }
  set.control.encode(enc);
}

Result<BackupSet> decode_set(Decoder& dec) {
  BackupSet set;
  auto id = dec.get_u32();
  auto lsn = dec.get_u64();
  auto count = dec.get_u32();
  if (!id.is_ok() || !lsn.is_ok() || !count.is_ok()) {
    return Status{ErrorCode::kCorruption, "bad backup set header"};
  }
  set.set_id = id.value();
  set.backup_lsn = lsn.value();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    BackupFileEntry entry;
    auto fid = dec.get_u32();
    auto orig = dec.get_string();
    if (!orig.is_ok()) return orig.status();
    auto bk = dec.get_string();
    if (!bk.is_ok()) return bk.status();
    if (!fid.is_ok()) return fid.status();
    entry.id = FileId{fid.value()};
    entry.original_path = std::move(orig).value();
    entry.backup_path = std::move(bk).value();
    set.files.push_back(std::move(entry));
  }
  auto control = engine::ControlFileData::decode(dec);
  if (!control.is_ok()) return control.status();
  set.control = std::move(control).value();
  return set;
}

}  // namespace

Status BackupManager::persist_catalog() {
  std::vector<std::uint8_t> blob;
  Encoder enc(&blob);
  enc.put_u32(next_set_id_);
  enc.put_u32(static_cast<std::uint32_t>(sets_.size()));
  for (const auto& set : sets_) encode_set(enc, set);

  if (!fs_->exists(catalog_path())) {
    VDB_RETURN_IF_ERROR(fs_->create(catalog_path()));
  }
  VDB_RETURN_IF_ERROR(fs_->truncate(catalog_path(), 0));
  return fs_->write(catalog_path(), 0, blob, sim::IoMode::kForeground,
                    /*sequential=*/true);
}

Status BackupManager::load_catalog() {
  sets_.clear();
  if (!fs_->exists(catalog_path())) return Status::ok();  // no backups yet
  auto blob = fs_->read_all(catalog_path(), sim::IoMode::kForeground);
  if (!blob.is_ok()) return blob.status();
  Decoder dec(blob.value());
  auto next_id = dec.get_u32();
  auto count = dec.get_u32();
  if (!next_id.is_ok() || !count.is_ok()) {
    return make_error(ErrorCode::kCorruption, "bad backup catalog");
  }
  next_set_id_ = next_id.value();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto set = decode_set(dec);
    if (!set.is_ok()) return set.status();
    sets_.push_back(std::move(set).value());
  }
  return Status::ok();
}

std::optional<BackupSet> BackupManager::newest() const {
  if (sets_.empty()) return std::nullopt;
  return sets_.back();
}

Status BackupManager::destroy_backups() {
  for (const std::string& path : fs_->list(dir_)) {
    VDB_RETURN_IF_ERROR(fs_->remove(path));
  }
  sets_.clear();
  return Status::ok();
}

}  // namespace vdb::recovery
