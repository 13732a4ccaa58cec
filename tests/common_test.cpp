#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/table_printer.hpp"
#include "common/types.hpp"

namespace vdb {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kOk);
  EXPECT_EQ(st.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = make_error(ErrorCode::kMediaFailure, "file gone");
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kMediaFailure);
  EXPECT_EQ(st.to_string(), "MediaFailure: file gone");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r = Status{ErrorCode::kNotFound, "nope"};
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
}

Result<int> helper_returning(int v, bool fail) {
  if (fail) return Status{ErrorCode::kInvalidArgument, "fail"};
  return v;
}

Status uses_assign_or_return(bool fail, int* out) {
  VDB_ASSIGN_OR_RETURN(int v, helper_returning(7, fail));
  *out = v;
  return Status::ok();
}

TEST(Result, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(uses_assign_or_return(false, &out).is_ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(uses_assign_or_return(true, &out).code(),
            ErrorCode::kInvalidArgument);
}

TEST(StrongId, DistinctAndComparable) {
  FileId a{1}, b{2};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_FALSE(FileId::invalid().valid());
  EXPECT_TRUE(a.valid());
}

TEST(PageIdRowId, HashAndCompare) {
  std::set<PageId> pages;
  pages.insert(PageId{FileId{1}, 5});
  pages.insert(PageId{FileId{1}, 5});
  pages.insert(PageId{FileId{2}, 5});
  EXPECT_EQ(pages.size(), 2u);
  RowId r1{PageId{FileId{1}, 5}, 3};
  RowId r2{PageId{FileId{1}, 5}, 4};
  EXPECT_LT(r1, r2);
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(1500 * kMillisecond), 1.5);
  EXPECT_EQ(from_seconds(2.5), 2500 * kMillisecond);
  EXPECT_EQ(format_duration(1500 * kMillisecond), "1.500s");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(-3, 12);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 12);
  }
  // Degenerate range.
  EXPECT_EQ(rng.uniform(5, 5), 5);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, NurandStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.nurand(255, 1, 3000, 123);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3000);
  }
}

TEST(Rng, NurandIsSkewed) {
  // NURand concentrates mass: some values must appear far more often than
  // the uniform expectation.
  Rng rng(19);
  std::map<std::int64_t, int> hist;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hist[rng.nurand(255, 0, 999, 42)] += 1;
  int max_count = 0;
  for (const auto& [v, c] : hist) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 3 * n / 1000);  // > 3x uniform frequency
}

TEST(Rng, StringHelpers) {
  Rng rng(23);
  char buf[10];
  for (int i = 0; i < 100; ++i) {
    const std::size_t a = rng.alnum_string(buf, 5, 10);
    EXPECT_GE(a, 5u);
    EXPECT_LE(a, 10u);
    for (std::size_t k = 0; k < a; ++k) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(buf[k])));
    }
    const std::size_t d = rng.digit_string(buf, 4, 4);
    EXPECT_EQ(d, 4u);
    for (std::size_t k = 0; k < d; ++k) {
      EXPECT_TRUE(buf[k] >= '0' && buf[k] <= '9');
    }
  }
}

TEST(Rng, SplitIndependence) {
  Rng parent(31);
  Rng child = parent.split();
  // Streams should diverge.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Codec, PrimitiveRoundtrip) {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  enc.put_u8(200);
  enc.put_u16(50000);
  enc.put_u32(4000000000u);
  enc.put_u64(~0ull - 5);
  enc.put_i64(-123456789);
  enc.put_double(3.25);
  enc.put_string("hello");
  enc.put_string("");

  Decoder dec(buf);
  EXPECT_EQ(dec.get_u8().value(), 200);
  EXPECT_EQ(dec.get_u16().value(), 50000);
  EXPECT_EQ(dec.get_u32().value(), 4000000000u);
  EXPECT_EQ(dec.get_u64().value(), ~0ull - 5);
  EXPECT_EQ(dec.get_i64().value(), -123456789);
  EXPECT_DOUBLE_EQ(dec.get_double().value(), 3.25);
  EXPECT_EQ(dec.get_string().value(), "hello");
  EXPECT_EQ(dec.get_string().value(), "");
  EXPECT_TRUE(dec.done());
}

TEST(Codec, TruncationDetected) {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  enc.put_u64(1);
  Decoder dec(std::span<const std::uint8_t>(buf).subspan(0, 4));
  EXPECT_EQ(dec.get_u64().code(), ErrorCode::kCorruption);
}

TEST(Codec, TruncatedBlobDetected) {
  std::vector<std::uint8_t> buf;
  Encoder enc(&buf);
  enc.put_string("hello world");
  buf.resize(buf.size() - 3);
  Decoder dec(buf);
  EXPECT_EQ(dec.get_string().code(), ErrorCode::kCorruption);
}

TEST(Codec, RandomBlobsRoundtrip) {
  Rng rng(37);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> blob(
        static_cast<size_t>(rng.uniform(0, 300)));
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    std::vector<std::uint8_t> buf;
    Encoder enc(&buf);
    enc.put_bytes(blob);
    Decoder dec(buf);
    EXPECT_EQ(dec.get_bytes().value(), blob);
  }
}

TEST(Crc32c, KnownProperties) {
  const std::vector<std::uint8_t> a{'a', 'b', 'c'};
  const std::vector<std::uint8_t> b{'a', 'b', 'd'};
  EXPECT_EQ(crc32c(a), crc32c(a));
  EXPECT_NE(crc32c(a), crc32c(b));
  EXPECT_NE(crc32c(a), crc32c({}));
}

// The CRC-32C check value of "123456789", then RFC 3720 (iSCSI) B.4 vectors.
TEST(Crc32c, Rfc3720Vectors) {
  const std::string digits = "123456789";
  EXPECT_EQ(crc32c({reinterpret_cast<const std::uint8_t*>(digits.data()),
                    digits.size()}),
            0xE3069283u);
  std::vector<std::uint8_t> buf(32, 0x00);
  EXPECT_EQ(crc32c(buf), 0x8A9136AAu);
  std::fill(buf.begin(), buf.end(), 0xFF);
  EXPECT_EQ(crc32c(buf), 0x62A8AB43u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(crc32c(buf), 0x46DD794Eu);
  EXPECT_EQ(detail::crc32c_portable(buf), 0x46DD794Eu);
}

// The dispatched kernel (hardware where available) must reproduce the
// portable one byte for byte: every stored page and redo checksum depends
// on it. Lengths cover the single-stream tail, the three-stream block
// boundaries, and whole pages; offsets cover every 8-byte misalignment.
TEST(Crc32c, DispatchedKernelMatchesPortable) {
  Rng rng(20020623);
  std::vector<std::uint8_t> buf(8192 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 2048; ++n) lengths.push_back(n);
  lengths.push_back(8188);
  lengths.push_back(8192);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n : lengths) {
      const std::span<const std::uint8_t> s{buf.data() + offset, n};
      ASSERT_EQ(crc32c(s), detail::crc32c_portable(s))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(crc32c(s, 0xDEADBEEF), detail::crc32c_portable(s, 0xDEADBEEF))
          << "seeded, offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32c, SeedChainsAcrossSplits) {
  Rng rng(7);
  std::vector<std::uint8_t> buf(3000);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  const std::span<const std::uint8_t> all{buf};
  const std::uint32_t whole = crc32c(all);
  for (std::size_t cut : {0u, 1u, 7u, 768u, 769u, 1500u, 2999u, 3000u}) {
    EXPECT_EQ(crc32c(all.subspan(cut), crc32c(all.first(cut))), whole)
        << "cut " << cut;
  }
}

TEST(TablePrinter, RendersAlignedTable) {
  TablePrinter t({"Name", "Value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| Name  | Value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(TablePrinter, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(1000.0, 0), "1000");
}

}  // namespace
}  // namespace vdb
