#include <gtest/gtest.h>

#include "sim/disk.hpp"
#include "sim/filesystem.hpp"
#include "sim/host.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/virtual_clock.hpp"

namespace vdb::sim {
namespace {

TEST(VirtualClock, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance_by(5 * kSecond);
  EXPECT_EQ(clock.now(), 5 * kSecond);
  clock.advance_to(7 * kSecond);
  EXPECT_EQ(clock.now(), 7 * kSecond);
  clock.advance_to(7 * kSecond);  // no-op allowed
}

TEST(Scheduler, FiresInTimestampOrder) {
  VirtualClock clock;
  Scheduler sched(&clock);
  std::vector<int> fired;
  sched.schedule_at(30, [&] { fired.push_back(3); });
  sched.schedule_at(10, [&] { fired.push_back(1); });
  sched.schedule_at(20, [&] { fired.push_back(2); });
  sched.run_until(25);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(clock.now(), 25u);
  sched.run_until(40);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SameTimeIsFifo) {
  VirtualClock clock;
  Scheduler sched(&clock);
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(10, [&fired, i] { fired.push_back(i); });
  }
  sched.run_until(10);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CancelPreventsFiring) {
  VirtualClock clock;
  Scheduler sched(&clock);
  bool fired = false;
  EventHandle handle = sched.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  sched.run_until(20);
  EXPECT_FALSE(fired);
}

TEST(Scheduler, PeriodicFiresRepeatedly) {
  VirtualClock clock;
  Scheduler sched(&clock);
  int count = 0;
  EventHandle handle = sched.schedule_every(10, [&] { count += 1; });
  sched.run_until(35);
  EXPECT_EQ(count, 3);  // t=10,20,30
  handle.cancel();
  sched.run_until(100);
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, EventsScheduledByEventsRun) {
  VirtualClock clock;
  Scheduler sched(&clock);
  int depth = 0;
  sched.schedule_at(10, [&] {
    depth = 1;
    sched.schedule_at(15, [&] { depth = 2; });
  });
  sched.run_until(20);
  EXPECT_EQ(depth, 2);
}

TEST(Scheduler, RunDueFiresLateEvents) {
  VirtualClock clock;
  Scheduler sched(&clock);
  int count = 0;
  sched.schedule_at(10, [&] { count += 1; });
  clock.advance_to(50);  // a long transaction passed the event time
  sched.run_due();
  EXPECT_EQ(count, 1);
}

TEST(Disk, ServiceTimeModel) {
  Disk disk(DiskId{0}, "d", DiskParams{8 * kMillisecond, 20ull << 20,
                                       500 * kMicrosecond});
  // Random 8 KiB request: 8ms seek + 8K/20M s transfer.
  const SimTime done = disk.submit(0, 8192, /*sequential=*/false);
  const SimDuration transfer = 8192ull * kSecond / (20ull << 20);
  EXPECT_EQ(done, 8 * kMillisecond + transfer);
  EXPECT_EQ(disk.stats().requests, 1u);
  EXPECT_EQ(disk.stats().bytes, 8192u);
}

TEST(Disk, RequestsQueueFifo) {
  Disk disk(DiskId{0}, "d");
  const SimTime first = disk.submit(0, 8192, false);
  const SimTime second = disk.submit(0, 8192, false);
  EXPECT_GT(second, first);  // second waits for first
  // A request arriving after the disk idles starts immediately.
  const SimTime third = disk.submit(second + kSecond, 8192, false);
  EXPECT_GT(third, second + kSecond);
}

TEST(Disk, SequentialCheaperThanRandom) {
  Disk a(DiskId{0}, "a"), b(DiskId{1}, "b");
  EXPECT_LT(a.submit(0, 8192, true), b.submit(0, 8192, false));
}

class SimFsTest : public ::testing::Test {
 protected:
  VirtualClock clock_;
  Host host_{"h", &clock_};
  void SetUp() override {
    host_.add_disk("/data");
    host_.add_disk("/other");
  }
  SimFs& fs() { return host_.fs(); }
};

TEST_F(SimFsTest, CreateWriteRead) {
  ASSERT_TRUE(fs().create("/data/a").is_ok());
  EXPECT_TRUE(fs().exists("/data/a"));
  const std::vector<std::uint8_t> data{1, 2, 3, 4};
  ASSERT_TRUE(fs().write("/data/a", 0, data, IoMode::kForeground).is_ok());
  std::vector<std::uint8_t> back(2);
  ASSERT_TRUE(fs().read("/data/a", 1, back, IoMode::kForeground).is_ok());
  EXPECT_EQ(back, (std::vector<std::uint8_t>{2, 3}));
}

TEST_F(SimFsTest, CreateDuplicateFails) {
  ASSERT_TRUE(fs().create("/data/a").is_ok());
  EXPECT_EQ(fs().create("/data/a").code(), ErrorCode::kAlreadyExists);
}

TEST_F(SimFsTest, NoMountFails) {
  EXPECT_EQ(fs().create("/nowhere/x").code(), ErrorCode::kInvalidArgument);
}

TEST_F(SimFsTest, RemoveAndMissing) {
  ASSERT_TRUE(fs().create("/data/a").is_ok());
  EXPECT_TRUE(fs().remove("/data/a").is_ok());
  EXPECT_FALSE(fs().exists("/data/a"));
  EXPECT_EQ(fs().remove("/data/a").code(), ErrorCode::kNotFound);
  std::vector<std::uint8_t> byte(1);
  EXPECT_EQ(fs().read("/data/a", 0, byte, IoMode::kForeground).code(),
            ErrorCode::kNotFound);
}

TEST_F(SimFsTest, CorruptBlocksReads) {
  ASSERT_TRUE(fs().create("/data/a").is_ok());
  ASSERT_TRUE(
      fs().append("/data/a", std::vector<std::uint8_t>{1}, IoMode::kForeground)
          .is_ok());
  ASSERT_TRUE(fs().corrupt("/data/a").is_ok());
  EXPECT_TRUE(fs().is_corrupted("/data/a"));
  std::vector<std::uint8_t> byte(1);
  EXPECT_EQ(fs().read("/data/a", 0, byte, IoMode::kForeground).code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(fs().read_all("/data/a", IoMode::kForeground).code(),
            ErrorCode::kCorruption);
}

TEST_F(SimFsTest, ReadPastEndFails) {
  ASSERT_TRUE(fs().create("/data/a").is_ok());
  std::vector<std::uint8_t> ten(10);
  EXPECT_EQ(fs().read("/data/a", 0, ten, IoMode::kForeground).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(SimFsTest, ForegroundAdvancesClockBackgroundDoesNot) {
  ASSERT_TRUE(fs().create("/data/a").is_ok());
  const std::vector<std::uint8_t> data(8192);
  const SimTime before = clock_.now();
  ASSERT_TRUE(fs().write("/data/a", 0, data, IoMode::kBackground).is_ok());
  EXPECT_EQ(clock_.now(), before);
  ASSERT_TRUE(fs().write("/data/a", 0, data, IoMode::kForeground).is_ok());
  EXPECT_GT(clock_.now(), before);
}

TEST_F(SimFsTest, BackgroundOccupiesDevice) {
  ASSERT_TRUE(fs().create("/data/a").is_ok());
  const std::vector<std::uint8_t> big(1 << 20);
  ASSERT_TRUE(fs().write("/data/a", 0, big, IoMode::kBackground).is_ok());
  // The next foreground op waits for the background one.
  const SimTime before = clock_.now();
  ASSERT_TRUE(fs().write("/data/a", 0, std::vector<std::uint8_t>{1},
                         IoMode::kForeground)
                  .is_ok());
  const SimDuration bg_time = (1ull << 20) * kSecond / (20ull << 20);
  EXPECT_GT(clock_.now() - before, bg_time);
}

TEST_F(SimFsTest, ChargedSizeTracksLogicalBytes) {
  ASSERT_TRUE(fs().create("/data/a").is_ok());
  const std::vector<std::uint8_t> data{1, 2, 3};
  ASSERT_TRUE(fs().append("/data/a", data, IoMode::kBackground, 1000).is_ok());
  EXPECT_EQ(fs().size("/data/a").value(), 3u);
  EXPECT_EQ(fs().charged_size("/data/a").value(), 1000u);
}

TEST_F(SimFsTest, CopyPreservesContentAndCharge) {
  ASSERT_TRUE(fs().create("/data/a").is_ok());
  ASSERT_TRUE(fs().append("/data/a", std::vector<std::uint8_t>{5, 6},
                          IoMode::kBackground, 500)
                  .is_ok());
  ASSERT_TRUE(fs().copy("/data/a", "/other/b", IoMode::kBackground).is_ok());
  auto copied = fs().read_all("/other/b", IoMode::kBackground);
  ASSERT_TRUE(copied.is_ok());
  EXPECT_EQ(std::vector<std::uint8_t>(copied.value().begin(),
                                      copied.value().end()),
            (std::vector<std::uint8_t>{5, 6}));
  EXPECT_EQ(fs().charged_size("/other/b").value(), 500u);
}

// read_all borrows the stored bytes instead of copying them. It keeps the
// failure checks and the I/O charge of a whole-file read, and its view
// follows the file until the file itself changes.
TEST_F(SimFsTest, ReadAllBorrowsTheStoredBytes) {
  EXPECT_EQ(fs().read_all("/data/missing", IoMode::kForeground).code(),
            ErrorCode::kNotFound);

  ASSERT_TRUE(fs().create("/data/a").is_ok());
  const std::vector<std::uint8_t> data{10, 20, 30, 40, 50, 60};
  constexpr std::uint64_t kCharged = 1 << 20;
  ASSERT_TRUE(
      fs().append("/data/a", data, IoMode::kForeground, kCharged).is_ok());

  // A foreground read waits for one sequential request of the charged size
  // on an idle device; a background one occupies the device only.
  Disk* disk = fs().disk_for("/data/a");
  const DiskParams& params = disk->params();
  const SimDuration whole_file =
      params.sequential_seek_time +
      kCharged * kSecond / params.bandwidth_bytes_per_sec;
  const SimTime before = clock_.now();
  const std::uint64_t bytes_before = disk->stats().bytes;
  auto view = fs().read_all("/data/a", IoMode::kForeground);
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(clock_.now() - before, whole_file);
  EXPECT_EQ(disk->stats().bytes - bytes_before, kCharged);
  EXPECT_EQ(std::vector<std::uint8_t>(view.value().begin(),
                                      view.value().end()),
            data);
  const SimTime after_foreground = clock_.now();
  ASSERT_TRUE(fs().read_all("/data/a", IoMode::kBackground).is_ok());
  EXPECT_EQ(clock_.now(), after_foreground);
  EXPECT_EQ(disk->busy_until(), after_foreground + whole_file);

  // Silent damage is in the stored bytes, so the view shows it.
  const std::uint8_t first = view.value()[0];
  ASSERT_TRUE(fs().flip_bits("/data/a", 0, 1, /*seed=*/5).is_ok());
  EXPECT_NE(view.value()[0], first);

  // I/O on other paths leaves the view where it was.
  const std::uint8_t* where = view.value().data();
  const std::vector<std::uint8_t> seen(view.value().begin(),
                                       view.value().end());
  const std::vector<std::uint8_t> big(64 * 1024, 7);
  for (int i = 0; i < 32; ++i) {
    const std::string other =
        (i % 2 == 0 ? "/data/f" : "/other/f") + std::to_string(i);
    ASSERT_TRUE(fs().create(other).is_ok());
    ASSERT_TRUE(fs().append(other, big, IoMode::kBackground).is_ok());
    ASSERT_TRUE(fs().write(other, 100, data, IoMode::kBackground).is_ok());
  }
  ASSERT_TRUE(fs().copy("/other/f1", "/data/copy", IoMode::kBackground)
                  .is_ok());
  ASSERT_TRUE(fs().remove("/data/f0").is_ok());
  EXPECT_EQ(fs().read_all("/data/a", IoMode::kBackground).value().data(),
            where);
  EXPECT_EQ(std::vector<std::uint8_t>(view.value().begin(),
                                      view.value().end()),
            seen);

  // A device error inside an injected window, and a corrupt range anywhere
  // in the file, fail the read.
  fs().inject_transient_errors("/data/a", clock_.now() + kSecond, 1.0,
                               /*seed=*/1);
  EXPECT_EQ(fs().read_all("/data/a", IoMode::kForeground).code(),
            ErrorCode::kTransientIo);
  fs().clear_transient_errors();
  ASSERT_TRUE(fs().corrupt_range("/data/a", 4, 1).is_ok());
  EXPECT_EQ(fs().read_all("/data/a", IoMode::kForeground).code(),
            ErrorCode::kCorruption);
}

TEST_F(SimFsTest, ListByPrefix) {
  ASSERT_TRUE(fs().create("/data/x1").is_ok());
  ASSERT_TRUE(fs().create("/data/x2").is_ok());
  ASSERT_TRUE(fs().create("/other/x3").is_ok());
  const auto listed = fs().list("/data/x");
  EXPECT_EQ(listed, (std::vector<std::string>{"/data/x1", "/data/x2"}));
}

TEST_F(SimFsTest, LongestPrefixMountWins) {
  host_.add_disk("/data/sub");
  Disk* sub = fs().disk_for("/data/sub/file");
  Disk* top = fs().disk_for("/data/file");
  ASSERT_NE(sub, nullptr);
  ASSERT_NE(top, nullptr);
  EXPECT_NE(sub, top);
}

TEST_F(SimFsTest, TruncateResizes) {
  ASSERT_TRUE(fs().create("/data/a").is_ok());
  ASSERT_TRUE(fs().truncate("/data/a", 100).is_ok());
  EXPECT_EQ(fs().size("/data/a").value(), 100u);
  std::vector<std::uint8_t> zeros(100, 0xFF);
  ASSERT_TRUE(fs().read("/data/a", 0, zeros, IoMode::kBackground).is_ok());
  for (auto b : zeros) EXPECT_EQ(b, 0);
  ASSERT_TRUE(fs().truncate("/data/a", 10).is_ok());
  EXPECT_EQ(fs().size("/data/a").value(), 10u);
}

TEST(Network, TransfersSerialize) {
  NetworkLink link(NetworkParams{10ull << 20, 1 * kMillisecond});
  const SimTime first = link.transfer(0, 1 << 20);
  const SimTime second = link.transfer(0, 1 << 20);
  EXPECT_GT(second, first);
  EXPECT_EQ(link.stats().transfers, 2u);
  EXPECT_EQ(link.stats().bytes, 2u << 20);
}

TEST(Network, LatencyPlusBandwidth) {
  NetworkLink link(NetworkParams{10ull << 20, 1 * kMillisecond});
  const SimTime done = link.transfer(0, 10 << 20);
  EXPECT_EQ(done, 1 * kMillisecond + 1 * kSecond);
}

}  // namespace
}  // namespace vdb::sim
