// Unit tests for src/util: time types, RNG, strings, JSON, the ring buffer,
// bytes, stats, Result.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/result.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

namespace pan {
namespace {

// ---------------------------------------------------------------- types --

TEST(DurationTest, ArithmeticAndConversions) {
  const Duration d = milliseconds(2) + microseconds(500);
  EXPECT_EQ(d.nanos(), 2'500'000);
  EXPECT_DOUBLE_EQ(d.millis(), 2.5);
  EXPECT_EQ((d * 2).nanos(), 5'000'000);
  EXPECT_EQ((d / 2).nanos(), 1'250'000);
  EXPECT_EQ((-d).nanos(), -2'500'000);
  EXPECT_LT(milliseconds(1), milliseconds(2));
}

TEST(DurationTest, ScaledRoundsTowardZero) {
  EXPECT_EQ(milliseconds(10).scaled(0.5).nanos(), 5'000'000);
  EXPECT_EQ(nanoseconds(3).scaled(0.5).nanos(), 1);
}

TEST(TimePointTest, DifferenceAndOffsets) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + seconds(1);
  EXPECT_EQ((t1 - t0).nanos(), 1'000'000'000);
  EXPECT_EQ((t1 - milliseconds(200)).nanos(), 800'000'000);
  EXPECT_GT(t1, t0);
}

TEST(TypesFormatTest, AdaptiveUnits) {
  EXPECT_EQ(to_string(nanoseconds(370)), "370ns");
  EXPECT_EQ(to_string(microseconds(12)), "12.00us");
  EXPECT_EQ(to_string(milliseconds(1) + microseconds(250)), "1.250ms");
  EXPECT_EQ(to_string(seconds(2)), "2.000s");
}

// ------------------------------------------------------------------ rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(42);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextInIsInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / kSamples, 5.0, 0.25);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.next_normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, JitteredWithinBounds) {
  Rng rng(17);
  const Duration base = milliseconds(100);
  for (int i = 0; i < 500; ++i) {
    const Duration d = rng.jittered(base, 0.1);
    EXPECT_GE(d.nanos(), 90'000'000);
    EXPECT_LE(d.nanos(), 110'000'000);
  }
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(3);
  Rng childa = parent.fork(1);
  Rng childb = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (childa.next_u64() == childb.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// -------------------------------------------------------------- strings --

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = strings::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitTrimmedDropsEmpties) {
  const auto parts = strings::split_trimmed(" a , , b ", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(strings::trim("  x  "), "x");
  EXPECT_EQ(strings::trim("\t\r\n"), "");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("a"), "a");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(strings::to_lower("AbC"), "abc");
  EXPECT_TRUE(strings::iequals("Content-Length", "content-length"));
  EXPECT_FALSE(strings::iequals("a", "ab"));
  EXPECT_TRUE(strings::starts_with("http://x", "http://"));
  EXPECT_FALSE(strings::starts_with("ht", "http://"));
  EXPECT_TRUE(strings::ends_with("file.png", ".png"));
}

TEST(StringsTest, ParseU64) {
  EXPECT_EQ(strings::parse_u64("0").value(), 0u);
  EXPECT_EQ(strings::parse_u64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(strings::parse_u64("18446744073709551616").ok());  // overflow
  EXPECT_FALSE(strings::parse_u64("").ok());
  EXPECT_FALSE(strings::parse_u64("12x").ok());
  EXPECT_FALSE(strings::parse_u64("-1").ok());
}

TEST(StringsTest, ParseHex) {
  EXPECT_EQ(strings::parse_hex_u64("ff00").value(), 0xff00u);
  EXPECT_EQ(strings::parse_hex_u64("DEAD").value(), 0xdeadu);
  EXPECT_FALSE(strings::parse_hex_u64("xyz").ok());
  EXPECT_FALSE(strings::parse_hex_u64("").ok());
  EXPECT_FALSE(strings::parse_hex_u64("11112222333344445").ok());  // >16 digits
}

TEST(StringsTest, Format) {
  EXPECT_EQ(strings::format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strings::format("%05.1f", 2.25), "002.2");
}

// ----------------------------------------------------------------- json --

TEST(JsonWriterTest, NestsAndPlacesCommas) {
  util::JsonWriter w;
  w.begin_object().field("n", std::uint64_t{7}).field("neg", -3).field("ok", true);
  w.key("empty").begin_array().end_array().key("list").begin_array();
  w.value("a").begin_object().end_object().fixed(1.5, 3).raw("null").end_array();
  w.key("ms").fixed(2.0 / 3.0, 4).field("s", std::string("x")).end_object();
  EXPECT_EQ(w.take(),
            R"({"n":7,"neg":-3,"ok":true,"empty":[],"list":["a",{},1.500,null],)"
            R"("ms":0.6667,"s":"x"})");
}

TEST(JsonWriterTest, EscapesKeysAndValues) {
  util::JsonWriter w;
  w.begin_object().field("k\"ey", "v\\al\n\x01").end_object();
  EXPECT_EQ(w.take(), R"({"k\"ey":"v\\al\n\u0001"})");
}

TEST(JsonWriterTest, FixedMatchesPrintf) {
  for (const double v : {0.0, -0.0, 0.0005, 1234.56789, -2.5e-7, 1e300}) {
    for (const int places : {3, 4, 6}) {
      util::JsonWriter w;
      w.fixed(v, places);
      EXPECT_EQ(w.take(), strings::format("%.*f", places, v)) << v << " " << places;
    }
  }
}

TEST(JsonWriterTest, TopLevelDocumentsTakeNoComma) {
  util::JsonWriter w;
  w.begin_object().field("a", 1).end_object().raw("\n");
  w.begin_object().field("b", 2).end_object();
  EXPECT_EQ(w.take(), "{\"a\":1}\n{\"b\":2}");
}

// ----------------------------------------------------------------- ring --

/// The ring's elements, front to back.
std::vector<int> contents(const util::Ring<int>& ring) {
  std::vector<int> out;
  for (std::size_t i = 0; i < ring.size(); ++i) out.push_back(ring[i]);
  return out;
}

TEST(RingTest, GrowsWhileWrapped) {
  util::Ring<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);  // nothing reserved until the first push
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  ASSERT_EQ(ring.capacity(), 4u);
  ring.pop_front();
  ring.pop_front();
  ring.push_back(4);
  ring.push_back(5);  // the back has wrapped to slot 1
  ring.push_back(6);  // full and wrapped: doubles, front first
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(contents(ring), (std::vector<int>{2, 3, 4, 5, 6}));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 8u);  // clear keeps the storage
}

TEST(RingTest, PushFrontAtIndexZeroOfAWrappedRing) {
  util::Ring<int> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(i);
  ring.pop_front();  // the head is at slot 1
  ring.push_back(4);  // wrapped into slot 0
  ring.pop_front();
  ring.pop_front();  // the head is at slot 3
  ring.push_front(20);
  ring.push_front(10);  // head moves 3 -> 2 -> 1
  EXPECT_EQ(contents(ring), (std::vector<int>{10, 20, 3, 4}));
  ring.push_front(0);  // full: grows, then the head wraps below slot 0
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(contents(ring), (std::vector<int>{0, 10, 20, 3, 4}));
  ring[0] = -1;
  EXPECT_EQ(ring[0], -1);
}

TEST(RingTest, PopResetsSlotsAndReleaseFreesStorage) {
  util::Ring<std::shared_ptr<int>> ring;
  const auto owned = std::make_shared<int>(7);
  ring.push_back(owned);
  ring.push_back(owned);
  EXPECT_EQ(owned.use_count(), 3);
  ring.pop_front();  // a popped slot lets go of what it held
  EXPECT_EQ(owned.use_count(), 2);
  ring.release();
  EXPECT_EQ(owned.use_count(), 1);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
  ring.push_back(owned);  // usable again: grows from nothing
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(*ring[0], 7);
}

// ---------------------------------------------------------------- bytes --

TEST(BytesTest, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ULL);
  w.lp_str("hello");
  w.lp_bytes(Bytes{1, 2, 3});
  const Bytes buf = std::move(w).take();

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.lp_str(), "hello");
  EXPECT_EQ(r.lp_bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.complete());
}

TEST(BytesTest, BigEndianOrder) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[1], 0x02);
}

TEST(BytesTest, ReaderUnderrunSetsStickyFailure) {
  const Bytes buf{1, 2};
  ByteReader r(buf);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.u8(), 0u);  // still failed, no UB
  EXPECT_FALSE(r.complete());
}

TEST(BytesTest, CompleteRequiresFullConsumption) {
  const Bytes buf{1, 2, 3};
  ByteReader r(buf);
  r.u8();
  EXPECT_FALSE(r.complete());
  r.skip(2);
  EXPECT_TRUE(r.complete());
}

TEST(BytesTest, PatchU16) {
  ByteWriter w;
  w.u16(0);
  w.u8(9);
  w.patch_u16(0, 0xBEEF);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u16(), 0xBEEF);
}

TEST(BytesTest, HexEncoding) {
  EXPECT_EQ(to_hex(Bytes{0x00, 0xff, 0x1a}), "00ff1a");
  EXPECT_EQ(to_hex(Bytes{}), "");
}

TEST(BytesTest, StringConversionRoundTrip) {
  const Bytes b = from_string("abc");
  EXPECT_EQ(to_string_view_copy(b), "abc");
}

// ---------------------------------------------------------------- stats --

TEST(StatsTest, BoxStatsKnownValues) {
  const BoxStats s = box_stats({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.q3, 4);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
}

TEST(StatsTest, BoxStatsInterpolates) {
  const BoxStats s = box_stats({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
}

TEST(StatsTest, EmptyAndSingleton) {
  EXPECT_EQ(box_stats({}).count, 0u);
  const BoxStats s = box_stats({7});
  EXPECT_DOUBLE_EQ(s.min, 7);
  EXPECT_DOUBLE_EQ(s.median, 7);
  EXPECT_DOUBLE_EQ(s.max, 7);
  EXPECT_DOUBLE_EQ(s.stddev, 0);
}

TEST(StatsTest, PercentileMatchesSorted) {
  const std::vector<double> samples{9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(percentile(samples, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(samples, 50), 5);
  EXPECT_DOUBLE_EQ(percentile(samples, 100), 9);
}

TEST(StatsTest, RunningStatsMatchesBatch) {
  RunningStats r;
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) r.add(x);
  const BoxStats b = box_stats(xs);
  EXPECT_DOUBLE_EQ(r.mean(), b.mean);
  EXPECT_NEAR(r.stddev(), b.stddev, 1e-12);
  EXPECT_DOUBLE_EQ(r.min(), 2);
  EXPECT_DOUBLE_EQ(r.max(), 9);
  EXPECT_EQ(r.count(), xs.size());
}

TEST(StatsTest, AsciiBoxRowPlacesMarkers) {
  BoxStats s;
  s.count = 5;
  s.min = 0;
  s.q1 = 25;
  s.median = 50;
  s.q3 = 75;
  s.max = 100;
  const std::string row = ascii_box_row(s, 0, 100, 41);
  EXPECT_EQ(row.size(), 41u);
  EXPECT_EQ(row.front(), '|');
  EXPECT_EQ(row.back(), '|');
  EXPECT_EQ(row[20], '#');
  EXPECT_EQ(row[10], '[');
  EXPECT_EQ(row[30], ']');
}

/// Property sweep: quartile invariants hold for arbitrary samples.
class BoxStatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoxStatsProperty, OrderingInvariants) {
  Rng rng(GetParam());
  std::vector<double> samples;
  const std::size_t n = 1 + rng.next_below(200);
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(rng.next_normal(50, 25));
  }
  const BoxStats s = box_stats(samples);
  EXPECT_LE(s.min, s.q1);
  EXPECT_LE(s.q1, s.median);
  EXPECT_LE(s.median, s.q3);
  EXPECT_LE(s.q3, s.max);
  EXPECT_GE(s.mean, s.min);
  EXPECT_LE(s.mean, s.max);
  EXPECT_EQ(s.count, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxStatsProperty, ::testing::Range<std::uint64_t>(1, 25));

// --------------------------------------------------------------- result --

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  EXPECT_EQ(ok.value_or(9), 5);

  Result<int> err = Err("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), "nope");
  EXPECT_EQ(err.value_or(9), 9);
}

TEST(ResultTest, TakeMoves) {
  Result<std::string> r = std::string("abc");
  const std::string s = std::move(r).take();
  EXPECT_EQ(s, "abc");
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status bad = Err("boom");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "boom");
}

}  // namespace
}  // namespace pan
