// Concurrency stress tests, written to be run under ThreadSanitizer (the
// `tsan` CMake preset / CI job). They hammer the ThreadPool primitive and the
// parallel dynamic scanning builder at varying thread counts, maximising
// cross-thread interleavings: plain (non-atomic) writes that must be
// published by the pool's mutex handshake, pool reuse across rounds, nested
// submission, and teardown with a loaded queue. Under TSan any missing
// happens-before edge is a hard failure; under a plain build the tests still
// verify the functional results.
#include <atomic>
#include <cstddef>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/common/trace.h"
#include "src/core/diagram.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::BuildDiagram;
using skydia::testing::RandomDataset;

TEST(ThreadPoolStressTest, ParallelForCoversEveryIndexExactlyOnce) {
  // Plain int writes: only the WaitIdle barrier makes them visible to the
  // checking thread. TSan flags the pool if that edge is missing.
  for (const size_t threads : {1u, 2u, 3u, 8u, 16u}) {
    ThreadPool pool(threads);
    for (const size_t count : {0u, 1u, 7u, 64u, 1013u}) {
      std::vector<int> hits(count, 0);
      pool.ParallelFor(count, [&hits](size_t i) { ++hits[i]; });
      EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), size_t{0}), count)
          << threads << " threads, " << count << " indices";
    }
  }
}

TEST(ThreadPoolStressTest, ReuseAcrossRoundsPublishesPriorWrites) {
  // Each round reads the values the previous round wrote — likely from a
  // different worker thread — so every round depends on the inter-round
  // happens-before chain through WaitIdle.
  constexpr size_t kIndices = 257;
  constexpr int kRounds = 50;
  ThreadPool pool(8);
  std::vector<int> counters(kIndices, 0);
  for (int round = 0; round < kRounds; ++round) {
    pool.ParallelFor(kIndices, [&counters, round](size_t i) {
      EXPECT_EQ(counters[i], round);
      ++counters[i];
    });
  }
  for (const int value : counters) EXPECT_EQ(value, kRounds);
}

TEST(ThreadPoolStressTest, SubmitWaitIdleDrainsEverything) {
  ThreadPool pool(5);
  std::atomic<size_t> done{0};
  constexpr size_t kTasks = 2000;
  for (size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolStressTest, NestedSubmissionRunsBeforeIdle) {
  // Tasks that enqueue children before returning: WaitIdle must not report
  // idle between a parent finishing and its already-enqueued child starting.
  ThreadPool pool(4);
  std::atomic<size_t> done{0};
  constexpr size_t kParents = 100;
  for (size_t i = 0; i < kParents; ++i) {
    pool.Submit([&pool, &done] {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 2 * kParents);
}

TEST(ThreadPoolStressTest, DestructorDrainsLoadedQueue) {
  // ~ThreadPool drains whatever was submitted; repeated create/destroy also
  // stresses worker startup racing against immediate shutdown.
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> done{0};
    {
      ThreadPool pool(3);
      for (size_t i = 0; i < 64; ++i) {
        pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      }
    }
    EXPECT_EQ(done.load(), 64u);
  }
}

TEST(ParallelBuilderStressTest, DynamicMatchesSequentialUnderRepetition) {
  const Dataset ds = RandomDataset(36, 48, 31);
  const SkylineDiagram sequential =
      BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  for (int round = 0; round < 3; ++round) {
    for (const int threads : {2, 3, 5, 8, 13}) {
      const SkylineDiagram parallel =
          BuildDiagram(ds, SkylineQueryType::kDynamic,
                       BuildAlgorithm::kScanning, threads);
      EXPECT_TRUE(parallel.subcell_diagram()->SameResults(
          *sequential.subcell_diagram()))
          << "round " << round << ", " << threads << " threads";
    }
  }
}

TEST(TraceStressTest, EightThreadsEmitSpansDuringParallelBuildWhileDraining) {
  // The trace seqlock under maximum contention: 8 pool workers emit stripe
  // spans from a real parallel build, 8 extra threads hammer tiny rings into
  // wraparound, and a collector thread drains concurrently the whole time.
  // Under TSan any non-atomic slot access or missing acquire edge in
  // Collect() is a hard failure; under a plain build the test still checks
  // that drained events are never torn (names stay one of the emitted
  // literals and timestamps are sane).
  trace::SetEnabled(false);
  trace::Reset();
  trace::SetRingCapacity(256);  // small enough that emitters wrap mid-drain
  trace::SetEnabled(true);

  std::atomic<bool> stop{false};
  std::thread collector([&] {
    uint64_t drains = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const trace::TraceSnapshot snapshot = trace::Collect();
      for (const trace::ThreadTrack& track : snapshot.threads) {
        for (const trace::TraceEvent& event : track.events) {
          ASSERT_NE(event.name, nullptr);
          const std::string name = event.name;
          ASSERT_FALSE(name.empty());
          ASSERT_LT(event.duration_ns, uint64_t{60} * 1'000'000'000)
              << "torn span " << name;
        }
      }
      ++drains;
    }
    EXPECT_GT(drains, 0u);
  });

  std::vector<std::thread> emitters;
  emitters.reserve(8);
  for (int t = 0; t < 8; ++t) {
    emitters.emplace_back([t] {
      trace::SetThreadName("stress-emitter-" + std::to_string(t));
      for (int i = 0; i < 4000; ++i) {
        SKYDIA_TRACE_SPAN("stress.outer");
        {
          SKYDIA_TRACE_SPAN("stress.inner");
          trace::Counter("stress.progress", static_cast<uint64_t>(i));
        }
      }
    });
  }

  // ~127 subcell rows per axis, so each of the 8 workers gets a stripe.
  const Dataset ds = RandomDataset(40, 64, 41);
  for (int round = 0; round < 3; ++round) {
    const SkylineDiagram parallel =
        BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning,
                     /*parallelism=*/8);
    ASSERT_NE(parallel.subcell_diagram(), nullptr);
  }

  for (std::thread& emitter : emitters) emitter.join();
  stop.store(true, std::memory_order_release);
  collector.join();

  // The build's stripe spans and the emitters' spans both made it into the
  // final drain (their threads are parked/joined, so this read is quiescent).
  const trace::TraceSnapshot final_snapshot = trace::Collect();
  bool saw_stripe = false;
  bool saw_emitter = false;
  for (const trace::ThreadTrack& track : final_snapshot.threads) {
    for (const trace::TraceEvent& event : track.events) {
      const std::string name = event.name;
      saw_stripe |= name == "stripe.scan" || name == "scan.row";
      saw_emitter |= name == "stress.outer";
    }
  }
  EXPECT_TRUE(saw_stripe);
  EXPECT_TRUE(saw_emitter);

  trace::SetEnabled(false);
  trace::Reset();
  trace::SetRingCapacity(16384);
}

}  // namespace
}  // namespace skydia
