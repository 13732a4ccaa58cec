#include "sim/filesystem.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace vdb::sim {

void SimFs::mount(std::string prefix, Disk* disk) {
  VDB_CHECK(disk != nullptr);
  mounts_[std::move(prefix)] = disk;
}

Disk* SimFs::disk_for(std::string_view path) const {
  // mounts_ is sorted descending, so the first prefix match is the longest.
  for (const auto& [prefix, disk] : mounts_) {
    if (path.substr(0, prefix.size()) == prefix) return disk;
  }
  return nullptr;
}

Status SimFs::create(const std::string& path) {
  if (files_.contains(path)) {
    return make_error(ErrorCode::kAlreadyExists, "file exists: " + path);
  }
  Disk* disk = disk_for(path);
  if (disk == nullptr) {
    return make_error(ErrorCode::kInvalidArgument, "no mount for: " + path);
  }
  files_[path] = File{disk, {}, 0, {}, kNoTear};
  return Status::ok();
}

bool SimFs::exists(const std::string& path) const {
  return files_.contains(path);
}

Status SimFs::remove(const std::string& path) {
  if (files_.erase(path) == 0) {
    return make_error(ErrorCode::kNotFound, "no such file: " + path);
  }
  return Status::ok();
}

namespace {

/// End of [offset, offset+len) with saturation (len may be kWholeFile).
std::uint64_t range_end(std::uint64_t offset, std::uint64_t len) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  return len > kMax - offset ? kMax : offset + len;
}

}  // namespace

Status SimFs::corrupt_range(const std::string& path, std::uint64_t offset,
                            std::uint64_t len) {
  auto file = find(path);
  if (!file.is_ok()) return file.status();
  if (len == 0) return Status::ok();
  file.value()->corrupt.push_back(CorruptRange{offset, len});
  return Status::ok();
}

Status SimFs::corrupt(const std::string& path) {
  return corrupt_range(path, 0, kWholeFile);
}

bool SimFs::is_corrupted(const std::string& path) const {
  auto file = find(path);
  return file.is_ok() && !file.value()->corrupt.empty();
}

Status SimFs::flip_bits(const std::string& path, std::uint64_t offset,
                        std::uint64_t len, std::uint64_t seed) {
  auto file = find(path);
  if (!file.is_ok()) return file.status();
  File& f = *file.value();
  if (offset >= f.data.size()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "flip_bits past end of " + path);
  }
  const std::uint64_t end = std::min<std::uint64_t>(range_end(offset, len),
                                                    f.data.size());
  Rng rng(seed);
  for (std::uint64_t i = offset; i < end; ++i) {
    f.data[i] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
  }
  return Status::ok();
}

Status SimFs::tear_next_write(const std::string& path,
                              std::uint64_t keep_bytes) {
  auto file = find(path);
  if (!file.is_ok()) return file.status();
  file.value()->torn_keep = keep_bytes;
  return Status::ok();
}

void SimFs::inject_transient_errors(std::string prefix, SimTime until,
                                    double probability, std::uint64_t seed) {
  transient_ = TransientFault{std::move(prefix), until, probability,
                              Rng(seed)};
}

void SimFs::clear_transient_errors() { transient_.reset(); }

bool SimFs::transient_hit(const std::string& path, Disk* disk) {
  if (!transient_.has_value()) return false;
  if (clock_->now() > transient_->until) {
    transient_.reset();  // the glitch window has passed
    return false;
  }
  const std::string& prefix = transient_->prefix;
  if (path.compare(0, prefix.size(), prefix) != 0) return false;
  if (!transient_->rng.chance(transient_->probability)) return false;
  if (disk != nullptr) disk->note_transient_error();
  return true;
}

const SimFs::CorruptRange* SimFs::overlap(const File& f, std::uint64_t offset,
                                          std::uint64_t len) {
  const std::uint64_t end = range_end(offset, len);
  for (const CorruptRange& r : f.corrupt) {
    const std::uint64_t rend = range_end(r.offset, r.len);
    if (r.offset < end && offset < rend) return &r;
  }
  return nullptr;
}

void SimFs::heal(File& f, std::uint64_t offset, std::uint64_t end) {
  std::vector<CorruptRange> keep;
  for (const CorruptRange& r : f.corrupt) {
    const std::uint64_t rend = range_end(r.offset, r.len);
    if (rend <= offset || r.offset >= end) {
      keep.push_back(r);
      continue;
    }
    if (r.offset < offset) keep.push_back(CorruptRange{r.offset, offset - r.offset});
    if (rend > end) keep.push_back(CorruptRange{end, rend - end});
  }
  f.corrupt = std::move(keep);
}

Result<std::uint64_t> SimFs::size(const std::string& path) const {
  auto file = find(path);
  if (!file.is_ok()) return file.status();
  return static_cast<std::uint64_t>(file.value()->data.size());
}

void SimFs::charge(Disk* disk, std::uint64_t bytes, IoMode mode,
                   bool sequential) {
  const SimTime before = clock_->now();
  const SimTime done = disk->submit(before, bytes, sequential);
  if (mode == IoMode::kForeground) {
    // Diagnostic: long foreground waits (device contention) when tracing.
    if (done - before > 100 * kMillisecond &&
        std::getenv("VDB_TRACE_WAIT") != nullptr) {
      std::fprintf(stderr, "[wait] disk=%s %llu us\n", disk->name().c_str(),
                   static_cast<unsigned long long>(done - before));
    }
    clock_->advance_to(done);
  }
}

Status SimFs::write(const std::string& path, std::uint64_t offset,
                    std::span<const std::uint8_t> data, IoMode mode,
                    bool sequential) {
  auto file = find(path);
  if (!file.is_ok()) return file.status();
  File& f = *file.value();
  if (transient_hit(path, f.disk)) {
    return make_error(ErrorCode::kTransientIo,
                      "transient write error on " + path);
  }
  // An armed torn write persists only its sector prefix; the caller still
  // sees OK (the OS acknowledged from cache before the crash).
  std::uint64_t persisted = data.size();
  if (f.torn_keep != kNoTear) {
    persisted = std::min<std::uint64_t>(f.torn_keep, data.size());
    f.torn_keep = kNoTear;
  }
  if (f.data.size() < offset + data.size()) f.data.resize(offset + data.size());
  std::copy(data.begin(), data.begin() + static_cast<long>(persisted),
            f.data.begin() + static_cast<long>(offset));
  heal(f, offset, offset + persisted);
  f.charged = std::max<std::uint64_t>(f.charged, f.data.size());
  charge(f.disk, data.size(), mode, sequential);
  return Status::ok();
}

Status SimFs::append(const std::string& path,
                     std::span<const std::uint8_t> data, IoMode mode,
                     std::uint64_t charge_bytes) {
  auto file = find(path);
  if (!file.is_ok()) return file.status();
  File& f = *file.value();
  if (transient_hit(path, f.disk)) {
    return make_error(ErrorCode::kTransientIo,
                      "transient write error on " + path);
  }
  f.data.insert(f.data.end(), data.begin(), data.end());
  const std::uint64_t charged =
      charge_bytes == kChargeActual ? data.size() : charge_bytes;
  f.charged += charged;
  charge(f.disk, charged, mode, /*sequential=*/true);
  return Status::ok();
}

Result<std::uint64_t> SimFs::charged_size(const std::string& path) const {
  auto file = find(path);
  if (!file.is_ok()) return file.status();
  return file.value()->charged;
}

Status SimFs::read(const std::string& path, std::uint64_t offset,
                   std::span<std::uint8_t> out, IoMode mode,
                   bool sequential) {
  auto file = find(path);
  if (!file.is_ok()) return file.status();
  File& f = *file.value();
  if (transient_hit(path, f.disk)) {
    return make_error(ErrorCode::kTransientIo,
                      "transient read error on " + path);
  }
  const std::uint64_t len = out.size();
  if (const CorruptRange* r = overlap(f, offset, len)) {
    return make_error(ErrorCode::kCorruption,
                      "corrupted file: " + path + " at offset " +
                          std::to_string(r->offset) +
                          (r->len == kWholeFile
                               ? std::string(" (whole file)")
                               : " (" + std::to_string(r->len) + " bytes)"));
  }
  if (offset + len > f.data.size()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "read past end of " + path);
  }
  std::copy_n(f.data.begin() + static_cast<long>(offset), len, out.begin());
  charge(f.disk, len, mode, sequential);
  return Status::ok();
}

Result<std::span<const std::uint8_t>> SimFs::read_all(const std::string& path,
                                                      IoMode mode) {
  auto file = find(path);
  if (!file.is_ok()) return file.status();
  File& f = *file.value();
  if (transient_hit(path, f.disk)) {
    return make_error(ErrorCode::kTransientIo,
                      "transient read error on " + path);
  }
  if (const CorruptRange* r = overlap(f, 0, kWholeFile)) {
    return make_error(ErrorCode::kCorruption,
                      "corrupted file: " + path + " at offset " +
                          std::to_string(r->offset) +
                          (r->len == kWholeFile
                               ? std::string(" (whole file)")
                               : " (" + std::to_string(r->len) + " bytes)"));
  }
  charge(f.disk, f.charged, mode, /*sequential=*/true);
  return std::span<const std::uint8_t>(f.data);
}

Status SimFs::truncate(const std::string& path, std::uint64_t new_size) {
  auto file = find(path);
  if (!file.is_ok()) return file.status();
  file.value()->data.resize(new_size);
  file.value()->charged = new_size;
  // Bytes past the new end no longer exist; drop their corrupt ranges.
  heal(*file.value(), new_size, ~std::uint64_t{0});
  return Status::ok();
}

Status SimFs::copy(const std::string& src, const std::string& dst,
                   IoMode mode) {
  auto sfile = find(src);
  if (!sfile.is_ok()) return sfile.status();
  if (const CorruptRange* r = overlap(*sfile.value(), 0, kWholeFile)) {
    return make_error(ErrorCode::kCorruption,
                      "corrupted file: " + src + " at offset " +
                          std::to_string(r->offset));
  }
  if (transient_hit(src, sfile.value()->disk)) {
    return make_error(ErrorCode::kTransientIo,
                      "transient read error on " + src);
  }
  if (!files_.contains(dst)) {
    VDB_RETURN_IF_ERROR(create(dst));
  }
  // Re-find src: create() may have invalidated the iterator's referent map
  // node ordering (std::map nodes are stable, but be explicit and safe).
  File& s = *find(src).value();
  File& d = *find(dst).value();
  if (transient_hit(dst, d.disk)) {
    return make_error(ErrorCode::kTransientIo,
                      "transient write error on " + dst);
  }
  d.data = s.data;
  d.charged = s.charged;
  d.corrupt.clear();
  d.torn_keep = kNoTear;
  charge(s.disk, s.charged, mode, /*sequential=*/true);
  charge(d.disk, d.charged, mode, /*sequential=*/true);
  return Status::ok();
}

std::vector<std::string> SimFs::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, file] : files_) {
    if (path.compare(0, prefix.size(), prefix) == 0) out.push_back(path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<SimFs::File*> SimFs::find(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return make_error(ErrorCode::kNotFound, "no such file: " + path);
  }
  return &it->second;
}

Result<const SimFs::File*> SimFs::find(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return make_error(ErrorCode::kNotFound, "no such file: " + path);
  }
  return &it->second;
}

}  // namespace vdb::sim
