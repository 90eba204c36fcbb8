// Tests for the common substrate: vectors, RNG, statistics, the sorted-vector
// map.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/vec.hpp"

namespace gdvr {
namespace {

// ---------- Vec ----------

TEST(Vec, ConstructionAndAccess) {
  Vec v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.dim(), 3);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
  Vec z = Vec::zero(5);
  EXPECT_EQ(z.dim(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(z[i], 0.0);
}

TEST(Vec, Arithmetic) {
  const Vec a{1, 2}, b{3, 5};
  EXPECT_EQ(a + b, (Vec{4, 7}));
  EXPECT_EQ(b - a, (Vec{2, 3}));
  EXPECT_EQ(a * 2.0, (Vec{2, 4}));
  EXPECT_EQ(2.0 * a, (Vec{2, 4}));
  EXPECT_EQ(b / 2.0, (Vec{1.5, 2.5}));
}

TEST(Vec, DotNormDistance) {
  const Vec a{3, 4};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(a.dot(Vec{1, 1}), 7.0);
  EXPECT_DOUBLE_EQ(a.distance(Vec{0, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance(a, Vec{3, 0}), 4.0);
}

TEST(Vec, UnitVector) {
  const Vec a{3, 4};
  const Vec u = a.unit();
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
  EXPECT_NEAR(u[0], 0.6, 1e-12);
  // Zero vector: deterministic unit along the first axis, never NaN.
  const Vec z = Vec::zero(3).unit();
  EXPECT_NEAR(z.norm(), 1.0, 1e-12);
  EXPECT_TRUE(z.finite());
}

TEST(Vec, FiniteDetection) {
  Vec v{1, 2};
  EXPECT_TRUE(v.finite());
  v[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(v.finite());
  v[0] = std::nan("");
  EXPECT_FALSE(v.finite());
}

TEST(Vec, CompoundAssignment) {
  Vec a{1, 1};
  a += Vec{2, 3};
  EXPECT_EQ(a, (Vec{3, 4}));
  a -= Vec{1, 1};
  EXPECT_EQ(a, (Vec{2, 3}));
  a *= 3.0;
  EXPECT_EQ(a, (Vec{6, 9}));
}

// ---------- Rng ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto x = rng.uniform_int(7);
    EXPECT_LT(x, 7u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStat rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(rs.mean(), 10.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.1);
}

TEST(Rng, PointOnSphereRadius) {
  Rng rng(13);
  const Vec c{1, 2, 3};
  for (int i = 0; i < 100; ++i) {
    const Vec p = rng.point_on_sphere(c, 2.5);
    EXPECT_NEAR(p.distance(c), 2.5, 1e-9);
  }
}

TEST(Rng, PointInBox) {
  Rng rng(17);
  const Vec extent{10.0, 5.0};
  for (int i = 0; i < 200; ++i) {
    const Vec p = rng.point_in_box(extent);
    EXPECT_GE(p[0], 0.0);
    EXPECT_LT(p[0], 10.0);
    EXPECT_GE(p[1], 0.0);
    EXPECT_LT(p[1], 5.0);
  }
}

TEST(Rng, SplitStreamsIndependent) {
  Rng base(42);
  Rng a = base.split(1);
  Rng b = base.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

// ---------- stats ----------

TEST(Stats, RunningStatBasics) {
  RunningStat rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(Stats, RunningStatMerge) {
  RunningStat a, b, all;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, MergeEdgeCases) {
  // Merging an empty operand (either side) must be exact, not just close.
  RunningStat filled;
  for (double x : {1.0, 2.0, 6.0}) filled.add(x);
  const double mean = filled.mean(), var = filled.variance();

  RunningStat empty_rhs = filled;
  empty_rhs.merge(RunningStat{});
  EXPECT_EQ(empty_rhs.count(), 3u);
  EXPECT_DOUBLE_EQ(empty_rhs.mean(), mean);
  EXPECT_DOUBLE_EQ(empty_rhs.variance(), var);

  RunningStat empty_lhs;
  empty_lhs.merge(filled);
  EXPECT_EQ(empty_lhs.count(), 3u);
  EXPECT_DOUBLE_EQ(empty_lhs.mean(), mean);
  EXPECT_DOUBLE_EQ(empty_lhs.variance(), var);
  EXPECT_DOUBLE_EQ(empty_lhs.min(), 1.0);
  EXPECT_DOUBLE_EQ(empty_lhs.max(), 6.0);

  RunningStat both_empty;
  both_empty.merge(RunningStat{});
  EXPECT_EQ(both_empty.count(), 0u);
  EXPECT_DOUBLE_EQ(both_empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(both_empty.min(), 0.0);

  // Self-merge (a copy of oneself) doubles the count, keeps the mean, and
  // keeps the variance finite and correct.
  RunningStat self = filled;
  self.merge(filled);
  EXPECT_EQ(self.count(), 6u);
  EXPECT_NEAR(self.mean(), mean, 1e-12);
  // Var of {1,2,6,1,2,6} with n-1 denominator: mean 3, ss = 2*(4+1+9) = 28, /5.
  EXPECT_NEAR(self.variance(), 28.0 / 5.0, 1e-12);
}

TEST(Stats, MergeIsOrderInsensitive) {
  // a.merge(b) and b.merge(a) agree to floating-point roundoff, and both
  // match the stat over the concatenated stream.
  RunningStat a, b, all;
  Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    (i < 20 ? a : b).add(x);  // deliberately unequal sizes
    all.add(x);
  }
  RunningStat ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_NEAR(ab.mean(), ba.mean(), 1e-12);
  EXPECT_NEAR(ab.variance(), ba.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(ab.min(), ba.min());
  EXPECT_DOUBLE_EQ(ab.max(), ba.max());
  EXPECT_NEAR(ab.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(ab.variance(), all.variance(), 1e-9);
}

TEST(Stats, SingleSampleVarianceIsZero) {
  RunningStat rs;
  rs.add(42.0);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 42.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);  // n-1 denominator must not divide by 0
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 42.0);
  EXPECT_DOUBLE_EQ(rs.max(), 42.0);

  // Merging two singletons gives a well-defined two-sample variance.
  RunningStat other;
  other.add(44.0);
  rs.merge(other);
  EXPECT_EQ(rs.count(), 2u);
  EXPECT_DOUBLE_EQ(rs.mean(), 43.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 2.0);
}

TEST(Stats, PercentileEndpointsAndTwoElements) {
  // q = 0 / q = 1 must hit the exact extremes without interpolation
  // artifacts, including on single- and two-element inputs.
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 1.0), 7.0);

  const std::vector<double> two{10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(two, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(two, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile(two, 0.5), 15.0);   // linear interpolation
  EXPECT_DOUBLE_EQ(percentile(two, 0.25), 12.5);
  // Unsorted input is sorted internally.
  EXPECT_DOUBLE_EQ(percentile({20.0, 10.0}, 0.75), 17.5);
}

TEST(Stats, MeanStddevSpan) {
  const std::vector<double> xs{1.0, 3.0, 5.0};
  EXPECT_DOUBLE_EQ(mean_of(xs), 3.0);
  EXPECT_DOUBLE_EQ(stddev_of(xs), 2.0);
  EXPECT_DOUBLE_EQ(mean_of(std::vector<double>{}), 0.0);
}

// ---------- FlatMap ----------

std::vector<int> keys_of(const FlatMap<int, double>& m) {
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  return keys;
}

TEST(FlatMap, OutOfOrderInsertsIterateAscending) {
  FlatMap<int, double> m;
  for (int k : {7, 2, 9, -1, 4}) EXPECT_TRUE(m.emplace(k, 10.0 * k).second);
  EXPECT_EQ(keys_of(m), (std::vector<int>{-1, 2, 4, 7, 9}));
  for (const auto& [k, v] : m) EXPECT_DOUBLE_EQ(v, 10.0 * k);
  // emplace never overwrites: the first value under a key stays.
  const auto [it, inserted] = m.emplace(4, -5.0);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->first, 4);
  EXPECT_DOUBLE_EQ(it->second, 40.0);
  EXPECT_EQ(m.size(), 5u);

  // Pair keys order lexicographically, as the relay table needs.
  FlatMap<std::pair<int, int>, int> pairs;
  pairs[{3, 1}] = 1;
  pairs[{1, 9}] = 2;
  pairs[{3, 0}] = 3;
  std::vector<std::pair<int, int>> order;
  for (const auto& [k, v] : pairs) order.push_back(k);
  EXPECT_EQ(order, (std::vector<std::pair<int, int>>{{1, 9}, {3, 0}, {3, 1}}));
}

TEST(FlatMap, SubscriptDefaultInsertsInPlace) {
  FlatMap<int, double> m;
  m.emplace(1, 1.5);
  m.emplace(5, 5.5);
  double& fresh = m[3];
  EXPECT_DOUBLE_EQ(fresh, 0.0);  // value-initialized
  fresh = 3.5;
  EXPECT_EQ(keys_of(m), (std::vector<int>{1, 3, 5}));
  EXPECT_DOUBLE_EQ(m.at(3), 3.5);
  // An existing key is found, not re-inserted.
  m[5] += 1.0;
  EXPECT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m.at(5), 6.5);
}

TEST(FlatMap, EraseIfPrunesInOnePass) {
  FlatMap<int, double> m;
  for (int k = 9; k >= 0; --k) m.emplace(k, k);
  int calls = 0;
  const std::size_t removed = erase_if(m, [&](const auto& e) {
    ++calls;
    return e.first % 3 != 0;
  });
  EXPECT_EQ(calls, 10);  // the predicate runs once per entry
  EXPECT_EQ(removed, 6u);
  EXPECT_EQ(keys_of(m), (std::vector<int>{0, 3, 6, 9}));
  for (const auto& [k, v] : m) EXPECT_DOUBLE_EQ(v, k);
  EXPECT_EQ(erase_if(m, [](const auto&) { return false; }), 0u);
  EXPECT_EQ(m.size(), 4u);
}

// The order contract the overlay's cursor predicates rely on: one call per
// entry, in ascending key order, so a predicate may walk a cursor over
// another key-sorted list alongside.
TEST(FlatMap, EraseIfVisitsEntriesOnceInAscendingOrder) {
  FlatMap<int, double> m;
  for (int k : {8, 3, 5, 1, 9}) m.emplace(k, k);
  std::vector<int> seen;
  erase_if(m, [&](const auto& e) {
    seen.push_back(e.first);
    return e.first == 3 || e.first == 9;
  });
  EXPECT_EQ(seen, (std::vector<int>{1, 3, 5, 8, 9}));
  EXPECT_EQ(keys_of(m), (std::vector<int>{1, 5, 8}));

  const std::vector<int> keep{0, 1, 4, 8};
  auto cursor = keep.begin();
  erase_if(m, [&](const auto& e) {
    while (cursor != keep.end() && *cursor < e.first) ++cursor;
    return cursor == keep.end() || *cursor != e.first;
  });
  EXPECT_EQ(keys_of(m), (std::vector<int>{1, 8}));
  for (const auto& [k, v] : m) EXPECT_DOUBLE_EQ(v, k);
}

std::vector<std::pair<int, std::vector<int>>> batch_of(std::initializer_list<int> keys) {
  std::vector<std::pair<int, std::vector<int>>> batch;
  for (int k : keys) batch.emplace_back(k, std::vector<int>{k, -k});
  return batch;
}

TEST(FlatMap, InsertSortedMergesABatchInOnePass) {
  FlatMap<int, std::vector<int>> m;
  const auto expect_keys = [&](const std::vector<int>& keys) {
    std::vector<int> got;
    for (const auto& [k, v] : m) {
      got.push_back(k);
      EXPECT_EQ(v, (std::vector<int>{k, -k})) << k;  // each value moved with its key
    }
    EXPECT_EQ(got, keys);
  };
  auto batch = batch_of({});
  m.insert_sorted(batch);
  expect_keys({});
  batch = batch_of({1, 4, 6});  // into an empty map
  m.insert_sorted(batch);
  expect_keys({1, 4, 6});
  batch = batch_of({-3, 0});  // everything before
  m.insert_sorted(batch);
  expect_keys({-3, 0, 1, 4, 6});
  batch = batch_of({7, 9});  // everything after
  m.insert_sorted(batch);
  expect_keys({-3, 0, 1, 4, 6, 7, 9});
  batch = batch_of({-5, 2, 3, 5, 8, 12});  // interleaved, at both ends
  m.insert_sorted(batch);
  expect_keys({-5, -3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12});
  ASSERT_NE(m.find(5), m.end());
  EXPECT_EQ(m.find(5)->second, (std::vector<int>{5, -5}));
}

TEST(FlatMapDeathTest, InsertSortedRejectsUnorderedOrPresentKeys) {
  FlatMap<int, std::vector<int>> m;
  m.emplace(2, {});
  m.emplace(5, {});
  auto descending = batch_of({4, 3});
  EXPECT_DEATH(m.insert_sorted(descending), "not strictly ascending");
  auto repeated = batch_of({3, 3});
  EXPECT_DEATH(m.insert_sorted(repeated), "not strictly ascending");
  auto present = batch_of({1, 5, 7});
  EXPECT_DEATH(m.insert_sorted(present), "already present");
  auto present_first = batch_of({2});
  EXPECT_DEATH(m.insert_sorted(present_first), "already present");
}

TEST(FlatMap, LookupsOnAbsentKeys) {
  FlatMap<int, double> m;
  EXPECT_EQ(m.find(4), m.end());
  EXPECT_EQ(m.count(4), 0u);
  EXPECT_THROW((void)m.at(4), std::out_of_range);
  EXPECT_EQ(m.erase(4), 0u);
  m.emplace(2, 2.0);
  m.emplace(6, 6.0);
  const FlatMap<int, double>& cm = m;
  for (int absent : {1, 4, 7}) {  // before, between and after the keys
    EXPECT_EQ(m.find(absent), m.end()) << absent;
    EXPECT_EQ(cm.find(absent), cm.end()) << absent;
    EXPECT_EQ(m.count(absent), 0u) << absent;
    EXPECT_THROW((void)cm.at(absent), std::out_of_range) << absent;
  }
  EXPECT_EQ(m.size(), 2u);  // lookups never insert
  ASSERT_NE(m.find(6), m.end());
  EXPECT_DOUBLE_EQ(m.find(6)->second, 6.0);
  EXPECT_EQ(m.count(2), 1u);
  EXPECT_EQ(m.erase(2), 1u);
  EXPECT_EQ(keys_of(m), (std::vector<int>{6}));
}

}  // namespace
}  // namespace gdvr
