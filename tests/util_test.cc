// Unit tests for src/util: Status/Result, hashing, bitsets, glob matching,
// string helpers, RNG determinism, table printer.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "util/bitset64.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace eql {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad m");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "invalid_argument: bad m");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kTimeout}) {
    EXPECT_STRNE(StatusCodeName(c), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 41);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nothing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Bitset64Test, SetTestCount) {
  Bitset64 b;
  EXPECT_TRUE(b.Empty());
  b.Set(0);
  b.Set(63);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_FALSE(b.Test(5));
  EXPECT_EQ(b.Count(), 2);
}

TEST(Bitset64Test, FullMaskBoundaries) {
  EXPECT_EQ(Bitset64::FullMask(0).Count(), 0);
  EXPECT_EQ(Bitset64::FullMask(3).Count(), 3);
  EXPECT_EQ(Bitset64::FullMask(64).Count(), 64);
}

TEST(Bitset64Test, SetAlgebra) {
  Bitset64 a = Bitset64::Single(1) | Bitset64::Single(2);
  Bitset64 b = Bitset64::Single(2) | Bitset64::Single(3);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Contains(b));
  EXPECT_TRUE((a | b).Contains(a));
  EXPECT_EQ((a & b).Count(), 1);
}

TEST(HashTest, IdVectorOrderAndLengthSensitive) {
  std::vector<uint32_t> a = {1, 2, 3};
  std::vector<uint32_t> b = {1, 3, 2};
  std::vector<uint32_t> c = {1, 2};
  EXPECT_NE(HashIdVector(a), HashIdVector(b));
  EXPECT_NE(HashIdVector(a), HashIdVector(c));
  EXPECT_EQ(HashIdVector(a), HashIdVector({1, 2, 3}));
}

TEST(HashTest, EmptyVectorsHashEqually) {
  EXPECT_EQ(HashIdVector({}), HashIdVector({}));
}

TEST(GlobTest, Basics) {
  EXPECT_TRUE(GlobMatch("*lice", "Alice"));
  EXPECT_TRUE(GlobMatch("A*e", "Alice"));
  EXPECT_FALSE(GlobMatch("*lice", "Bob"));
  EXPECT_TRUE(GlobMatch("???", "Bob"));
  EXPECT_FALSE(GlobMatch("??", "Bob"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("", ""));
  EXPECT_FALSE(GlobMatch("", "x"));
  EXPECT_TRUE(GlobMatch("a*b*c", "a-xx-b-yy-c"));
  EXPECT_FALSE(GlobMatch("a*b*c", "acb"));
}

TEST(StringTest, SplitKeepsEmptyPieces) {
  auto v = Split("a,,b", ',');
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], "");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  x \t\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringTest, ParseDouble) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_FALSE(ParseDouble("3.5x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
}

TEST(StringTest, ParseDecimalAcceptsOnlyDigits) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseDecimal("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseDecimal("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 7;
  for (const char* bad : {"", "+5", "-1", " 5", "5 ", "5x", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseDecimal(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "a rejected parse must not write";
  }
}

TEST(StringTest, ParseDecimalInRangeChecksBothBounds) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseDecimalInRange("1", 1, 256, &v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(ParseDecimalInRange("256", 1, 256, &v));
  EXPECT_EQ(v, 256u);
  EXPECT_TRUE(ParseDecimalInRange("18446744073709551615", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 7;
  for (const char* bad : {"0", "257", "-1", "1x", "", "4294967397"}) {
    EXPECT_FALSE(ParseDecimalInRange(bad, 1, 256, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "a rejected parse must not write";
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BelowInRangeAndCoversValues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    uint64_t v = rng.Below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
  }
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, ZeroExpiresImmediately) {
  Deadline d = Deadline::AfterMs(0);
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, BudgetPastClockRangeIsInfiniteNotWrapped) {
  Deadline d = Deadline::AfterMs(std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(Deadline::AfterMs(int64_t{1} << 40).RemainingMs(), 0);
}

TEST(StopwatchTest, MeasuresForwardTime) {
  Stopwatch sw;
  double t1 = sw.ElapsedUs();
  double t2 = sw.ElapsedUs();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0);
}

TEST(TablePrinterTest, AlignsAndCsvs) {
  TablePrinter t({"alg", "ms"});
  t.AddRow({"gam", "12"});
  t.AddRow({"molesp", "3"});
  std::string rendered = t.Render();
  EXPECT_NE(rendered.find("alg"), std::string::npos);
  EXPECT_NE(rendered.find("molesp"), std::string::npos);
  std::string csv = t.RenderCsv();
  EXPECT_NE(csv.find("CSV,alg,ms"), std::string::npos);
  EXPECT_NE(csv.find("CSV,gam,12"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

}  // namespace
}  // namespace eql
