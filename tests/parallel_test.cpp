// ParallelTrials: the determinism contract the bench sweeps rely on --
// results indexed by trial, bit-identical to a sequential run regardless of
// thread count or OS scheduling.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace gdvr {
namespace {

// A deterministic per-trial workload: everything derives from the index.
double trial_value(int i) {
  Rng rng(1000 + static_cast<std::uint64_t>(i) * 17);
  double acc = 0.0;
  for (int k = 0; k < 100 + i; ++k) acc += rng.uniform(0.0, 1.0);
  return acc;
}

TEST(ParallelTrials, BitIdenticalToSequential) {
  ParallelTrials seq(1);
  ParallelTrials par(4);
  ASSERT_EQ(seq.threads(), 1);
  ASSERT_EQ(par.threads(), 4);
  const auto a = seq.run(64, trial_value);
  const auto b = par.run(64, trial_value);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Exact equality: the same double bits, not just approximately equal.
    EXPECT_EQ(a[i], b[i]) << "trial " << i;
  }
}

TEST(ParallelTrials, ResultsLandInSubmissionOrder) {
  ParallelTrials pool(3);
  // Uneven per-trial cost so workers finish out of order.
  const auto out = pool.run(40, [](int i) { return trial_value(i % 7) + i; });
  for (int i = 0; i < 40; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], trial_value(i % 7) + i) << i;
}

TEST(ParallelTrials, HandlesEmptyAndSmallCounts) {
  ParallelTrials pool(8);
  EXPECT_TRUE(pool.run(0, trial_value).empty());
  const auto one = pool.run(1, trial_value);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], trial_value(0));
  // Fewer trials than threads: spawns only as many workers as trials.
  const auto two = pool.run(2, trial_value);
  EXPECT_EQ(two[1], trial_value(1));
}

TEST(ParallelTrials, LoneTrialRunsOnCallingThread) {
  // One trial is one worker's work: the caller runs it rather than spawning
  // and joining a thread for it.
  const std::thread::id caller = std::this_thread::get_id();
  const auto ran_on = ParallelTrials(4).run(1, [](int) { return std::this_thread::get_id(); });
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on[0], caller);
}

TEST(ParallelTrials, PropagatesExceptions) {
  for (int threads : {1, 4}) {
    ParallelTrials pool(threads);
    EXPECT_THROW(pool.run(16,
                          [](int i) -> int {
                            if (i == 11) throw std::runtime_error("trial 11 failed");
                            return i;
                          }),
                 std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ParallelTrials, ThreadCountFromEnvironment) {
  ::setenv("GDVR_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(ParallelTrials().threads(), 5);
  EXPECT_EQ(ParallelTrials(2).threads(), 2);  // explicit arg wins
  ::unsetenv("GDVR_THREADS");
  EXPECT_GE(ParallelTrials().threads(), 1);
}

TEST(ParallelTrials, MoveOnlyResultsAndLargeFanOut) {
  ParallelTrials pool(4);
  const auto out = pool.run(500, [](int i) {
    std::vector<int> v(static_cast<std::size_t>(i % 13 + 1));
    std::iota(v.begin(), v.end(), i);
    return v;
  });
  ASSERT_EQ(out.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)].size(), static_cast<std::size_t>(i % 13 + 1));
    EXPECT_EQ(out[static_cast<std::size_t>(i)].front(), i);
  }
}

}  // namespace
}  // namespace gdvr
