#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace mbrc::util {
namespace {

TEST(Assert, PassesOnTrue) {
  EXPECT_NO_THROW(MBRC_ASSERT(1 + 1 == 2));
  EXPECT_NO_THROW(MBRC_ASSERT_MSG(true, "never shown"));
}

TEST(Assert, ThrowsWithContext) {
  try {
    MBRC_ASSERT_MSG(false, "the extra context");
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the extra context"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c;
  }
  Rng d(43);
  bool any_diff = false;
  Rng e(42);
  for (int i = 0; i < 100; ++i) any_diff |= d() != e();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SplitIsReproducibleAndIndependentOfParentPosition) {
  // Same (seed, stream) -> same sub-stream, regardless of how many draws
  // the parent has made before splitting.
  Rng fresh(42);
  Rng advanced(42);
  for (int i = 0; i < 57; ++i) (void)advanced();
  Rng child_a = fresh.split(3);
  Rng child_b = advanced.split(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child_a(), child_b());
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng with_split(42);
  Rng without_split(42);
  (void)with_split.split(0);
  (void)with_split.split(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(with_split(), without_split());
}

TEST(Rng, SplitStreamsAreDistinct) {
  // Different streams (and the parent itself) produce different sequences.
  Rng parent(42);
  Rng s0 = parent.split(0);
  Rng s1 = parent.split(1);
  bool s0_vs_s1 = false, s0_vs_parent = false;
  Rng parent_copy(42);
  for (int i = 0; i < 100; ++i) {
    const auto a = s0();
    s0_vs_s1 |= a != s1();
    s0_vs_parent |= a != parent_copy();
  }
  EXPECT_TRUE(s0_vs_s1);
  EXPECT_TRUE(s0_vs_parent);

  // Adjacent streams across many indices stay pairwise distinct on their
  // first draw (no structural collisions from the index arithmetic).
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t stream = 0; stream < 256; ++stream) {
    Rng child = parent.split(stream);
    first_draws.insert(child());
  }
  EXPECT_EQ(first_draws.size(), 256u);
}

TEST(Rng, SeedAccessorSurvivesDraws) {
  Rng rng(1234);
  for (int i = 0; i < 10; ++i) (void)rng();
  EXPECT_EQ(rng.seed(), 1234u);
  EXPECT_EQ(rng.split(5).seed(), Rng(1234).split(5).seed());
}

TEST(Rng, UniformIntInRangeAndCoversRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 2000 draws
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformRealBoundsAndMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform_real(2.0, 4.0);
    ASSERT_GE(v, 2.0);
    ASSERT_LT(v, 4.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, ChanceFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Table, AlignsAndFormats) {
  Table t({"name", "count"});
  t.row().cell(std::string("short")).cell(42);
  t.row().cell(std::string("a-much-longer-name")).cell(7);
  t.row().cell(std::string("pct")).percent(0.2912);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("29.1 %"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.cell(1), AssertionError);
}

}  // namespace
}  // namespace mbrc::util
