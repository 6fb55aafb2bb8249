// ThreadPool and ParallelConfig: chunk coverage, lane bounds, reuse across
// many jobs, serial inlining, and the single-point thread-count/grain
// validation that replaced the old ad-hoc `num_threads <= 0` checks.
#include "nucleus/parallel/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "nucleus/core/peeling.h"
#include "nucleus/graph/generators.h"
#include "nucleus/parallel/parallel_config.h"
#include "nucleus/parallel/parallel_peel.h"

namespace nucleus {
namespace {

TEST(ParallelConfigTest, ResolvesNonPositiveThreadCountsToHardware) {
  // The old internal::ParallelFor computed garbage chunk sizes for
  // num_threads <= 0; the config is now the single clamp point.
  for (int raw : {0, -1, -100}) {
    ParallelConfig config;
    config.num_threads = raw;
    EXPECT_GE(config.ResolvedThreads(), 1) << "raw=" << raw;
  }
  EXPECT_GE(ParallelConfig::Auto().ResolvedThreads(), 1);
}

TEST(ParallelConfigTest, PreservesExplicitValues) {
  ParallelConfig config;
  config.num_threads = 5;
  config.grain_size = 7;
  EXPECT_EQ(config.ResolvedThreads(), 5);
  EXPECT_EQ(config.ResolvedGrain(), 7);
  EXPECT_EQ(ParallelConfig::WithThreads(3).ResolvedThreads(), 3);
}

TEST(ParallelConfigTest, ResolvesNonPositiveGrainToDefault) {
  for (std::int64_t raw : {std::int64_t{0}, std::int64_t{-4}}) {
    ParallelConfig config;
    config.grain_size = raw;
    EXPECT_EQ(config.ResolvedGrain(), ParallelConfig::kDefaultGrain);
  }
}

TEST(ParallelConfigTest, DefaultIsSerial) {
  EXPECT_EQ(ParallelConfig{}.ResolvedThreads(), 1);
}

class ThreadPoolTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(GetParam());
  for (const std::int64_t total : {1, 5, 64, 1000}) {
    for (const std::int64_t grain : {1, 7, 64, 4096}) {
      std::vector<std::atomic<int>> visits(total);
      for (auto& v : visits) v.store(0);
      pool.ParallelFor(total, grain,
                       [&](int lane, std::int64_t begin, std::int64_t end) {
                         EXPECT_GE(lane, 0);
                         EXPECT_LT(lane, pool.num_threads());
                         EXPECT_EQ(begin % grain, 0);  // fixed chunk grid
                         for (std::int64_t i = begin; i < end; ++i) {
                           visits[i].fetch_add(1);
                         }
                       });
      for (std::int64_t i = 0; i < total; ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "i=" << i << " total=" << total << " grain=" << grain;
      }
    }
  }
}

TEST_P(ThreadPoolTest, ReusedAcrossManyJobs) {
  // The point of the pool: many small ParallelFors on one set of workers.
  ThreadPool pool(GetParam());
  std::atomic<std::int64_t> sum{0};
  for (int job = 0; job < 200; ++job) {
    pool.ParallelFor(10, 3, [&](int, std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
  }
  EXPECT_EQ(sum.load(), 200 * 45);
}

INSTANTIATE_TEST_SUITE_P(Lanes, ThreadPoolTest, ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           std::string name = "t";
                           return name.append(std::to_string(info.param));
                         });

TEST(ThreadPool, ZeroTotalRunsNothing) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, 16, [&](int, std::int64_t, std::int64_t) {
    called = true;
  });
  pool.ParallelFor(-3, 16, [&](int, std::int64_t, std::int64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SerialPoolRunsInlineOnLaneZero) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::int64_t covered = 0;
  pool.ParallelFor(100, 9, [&](int lane, std::int64_t begin, std::int64_t end) {
    EXPECT_EQ(lane, 0);
    covered += end - begin;  // non-atomic: must be single-threaded
  });
  EXPECT_EQ(covered, 100);
}

TEST(ThreadPool, BackToBackJobsWithChangingGeometryCoverEachIndexOnce) {
  // Regression for the job-geometry data race fixed alongside the
  // thread-safety annotation rollout: workers used to read the job's
  // total/grain/num_chunks from pool members without the mutex, so a
  // worker could pair the new epoch with stale geometry. Run many
  // back-to-back jobs whose geometry changes every time and assert every
  // index is visited exactly once per job — a stale-geometry pairing
  // over- or under-covers some index.
  ThreadPool pool(4);
  const std::int64_t kMaxTotal = 257;
  std::vector<std::atomic<int>> hits(kMaxTotal);
  for (int job = 0; job < 300; ++job) {
    const std::int64_t total = 1 + (job * 37) % kMaxTotal;
    const std::int64_t grain = 1 + job % 13;
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.ParallelFor(total, grain,
                     [&](int, std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         hits[i].fetch_add(1, std::memory_order_relaxed);
                       }
                     });
    for (std::int64_t i = 0; i < kMaxTotal; ++i) {
      ASSERT_EQ(hits[i].load(), i < total ? 1 : 0)
          << "job " << job << " total " << total << " grain " << grain
          << " index " << i;
    }
  }
}

TEST(ThreadPool, ConfigConstructorResolves) {
  ThreadPool pool(ParallelConfig::WithThreads(-2));  // -2 -> hardware
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ParallelEntryPoints, DegenerateThreadCountsMatchSerial) {
  // Regression for the satellite fix: raw counts {-2, 0, 1, 64} must all
  // behave identically (clamped once in ParallelConfig, not per call site).
  const Graph g = ErdosRenyiGnp(60, 0.15, 5);
  const VertexSpace space(g);
  const auto serial_supports = ComputeSupports(space);
  const PeelResult serial = Peel(space);
  for (int raw : {-2, 0, 1, 64}) {
    EXPECT_EQ(ComputeSupportsParallel(space, raw), serial_supports)
        << "raw=" << raw;
    EXPECT_EQ(PeelParallel(space, raw).lambda, serial.lambda) << "raw=" << raw;
  }
}

}  // namespace
}  // namespace nucleus
