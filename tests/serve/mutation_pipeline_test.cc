#include "src/serve/mutation_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/trace.h"
#include "src/core/incremental.h"
#include "src/core/incremental_dynamic.h"
#include "src/core/query_engine.h"
#include "src/core/serialize.h"
#include "src/serve/metrics.h"
#include "src/serve/protocol.h"
#include "src/serve/snapshot_registry.h"
#include "src/skyline/query.h"
#include "tests/testing/util.h"

namespace skydia::serve {
namespace {

using skydia::testing::AsSorted;
using skydia::testing::BuildDiagram;
using skydia::testing::RandomDistinctDataset;

/// Installs a quadrant-cell snapshot over `dataset` (built through the same
/// incremental type the pipeline shadows, so structure sharing is exercised).
uint64_t InstallQuadrant(SnapshotRegistry* registry, const Dataset& dataset) {
  auto built = IncrementalQuadrantDiagram::Create(dataset, {});
  SKYDIA_CHECK(built.ok());
  return registry->Install(
      ServableDiagram::Wrap(built->shared_dataset(), built->shared_diagram(),
                            SkylineQueryType::kQuadrant),
      "mem://quadrant");
}

/// Installs a dynamic (subcell) snapshot over `dataset`.
uint64_t InstallDynamic(SnapshotRegistry* registry, const Dataset& dataset) {
  auto built = IncrementalDynamicDiagram::Create(dataset, {});
  SKYDIA_CHECK(built.ok());
  return registry->Install(
      ServableDiagram::Wrap(built->shared_dataset(), built->shared_diagram()),
      "mem://dynamic");
}

std::vector<PointId> ServedSkyline(const SnapshotRegistry& registry,
                                   const Point2D& q) {
  const auto snapshot = registry.Current();
  SKYDIA_CHECK(snapshot != nullptr);
  QueryOptions exact;
  exact.exact = true;
  auto answer = snapshot->diagram->engine().Answer(q, exact);
  SKYDIA_CHECK(answer.ok());
  return AsSorted(std::move(answer).value());
}

TEST(MutationPipelineTest, SynchronousInsertPublishesExactGeneration) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  const Dataset dataset = RandomDistinctDataset(32, 1024, /*seed=*/5);
  ASSERT_EQ(InstallQuadrant(&registry, dataset), 1u);

  MutationPipeline pipeline(&registry, &metrics, {});  // window_ms = 0
  auto ack = pipeline.Insert({3, 2}, std::nullopt);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->generation, 2u);
  EXPECT_EQ(ack->point, 32u);
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(pipeline.pending(), 0u);

  // The published snapshot serves the mutated dataset, verified against the
  // brute-force oracle over the same points.
  const auto snapshot = registry.Current();
  ASSERT_EQ(snapshot->diagram->dataset().size(), 33u);
  std::vector<Point2D> points(dataset.points().begin(),
                              dataset.points().end());
  points.push_back({3, 2});
  auto oracle_ds = Dataset::Create(points, 1024);
  ASSERT_TRUE(oracle_ds.ok());
  for (const Point2D q : {Point2D{0, 0}, Point2D{10, 10}, Point2D{500, 4}}) {
    EXPECT_EQ(ServedSkyline(registry, q),
              AsSorted(FirstQuadrantSkyline(*oracle_ds, q)))
        << "q=(" << q.x << "," << q.y << ")";
  }
  EXPECT_EQ(metrics.mutation_inserts.load(), 1u);
  EXPECT_EQ(metrics.mutation_publishes.load(), 1u);
  EXPECT_EQ(metrics.mutation_points_live.load(), 33u);
  EXPECT_GE(metrics.mutation_cells_recomputed.load(), 1u);
}

TEST(MutationPipelineTest, DeleteRemovesPointAndRejectsUnknownIds) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  const Dataset dataset = RandomDistinctDataset(24, 1024, /*seed=*/6);
  InstallQuadrant(&registry, dataset);
  MutationPipeline pipeline(&registry, &metrics, {});

  auto ack = pipeline.Delete(7);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(registry.Current()->diagram->dataset().size(), 23u);

  // Ids shift down past the deleted point; the oracle mirrors that.
  std::vector<Point2D> points(dataset.points().begin(),
                              dataset.points().end());
  points.erase(points.begin() + 7);
  auto oracle_ds = Dataset::Create(points, 1024);
  ASSERT_TRUE(oracle_ds.ok());
  EXPECT_EQ(ServedSkyline(registry, {0, 0}),
            AsSorted(FirstQuadrantSkyline(*oracle_ds, {0, 0})));

  auto unknown = pipeline.Delete(23);  // one past the shrunk end
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ErrorCodeForStatus(unknown.status()), ErrorCode::kUnknownPoint);
  EXPECT_FALSE(pipeline.Delete(-1).ok());
  EXPECT_EQ(metrics.mutation_deletes.load(), 1u);
  EXPECT_EQ(metrics.mutation_failures.load(), 2u);
}

TEST(MutationPipelineTest, WindowCoalescesIntoOneFlushPublish) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  InstallQuadrant(&registry, RandomDistinctDataset(16, 4096, /*seed=*/7));

  MutationPipelineOptions options;
  options.window_ms = 60'000;  // effectively "until flush"
  MutationPipeline pipeline(&registry, &metrics, options);

  for (int i = 0; i < 5; ++i) {
    auto ack =
        pipeline.Insert({2000 + 2 * i, 2001 + 2 * i}, std::nullopt);
    ASSERT_TRUE(ack.ok()) << ack.status();
    // Deferred acks carry a lower bound on the publishing generation.
    EXPECT_EQ(ack->generation, 2u);
  }
  EXPECT_EQ(pipeline.pending(), 5u);
  EXPECT_EQ(registry.generation(), 1u);  // nothing visible yet
  EXPECT_EQ(metrics.mutation_pending.load(), 5u);

  EXPECT_EQ(pipeline.Flush(), 2u);
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(pipeline.pending(), 0u);
  EXPECT_EQ(registry.Current()->diagram->dataset().size(), 21u);
  EXPECT_EQ(metrics.mutation_publishes.load(), 1u);
  EXPECT_EQ(metrics.mutation_last_publish_mutations.load(), 5u);

  // A flush with nothing pending is a no-op at the same generation.
  EXPECT_EQ(pipeline.Flush(), 2u);
  EXPECT_EQ(metrics.mutation_publishes.load(), 1u);
}

TEST(MutationPipelineTest, PublisherThreadFlushesAfterTheWindow) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  InstallQuadrant(&registry, RandomDistinctDataset(16, 4096, /*seed=*/8));

  MutationPipelineOptions options;
  options.window_ms = 20;
  MutationPipeline pipeline(&registry, &metrics, options);
  ASSERT_TRUE(pipeline.Insert({3000, 3000}, std::nullopt).ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (registry.generation() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(registry.Current()->diagram->dataset().size(), 17u);
  EXPECT_EQ(pipeline.pending(), 0u);
}

TEST(MutationPipelineTest, BacklogRejectsAsOverloaded) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  InstallQuadrant(&registry, RandomDistinctDataset(8, 4096, /*seed=*/9));

  MutationPipelineOptions options;
  options.window_ms = 60'000;
  options.max_pending = 2;
  MutationPipeline pipeline(&registry, &metrics, options);
  ASSERT_TRUE(pipeline.Insert({100, 101}, std::nullopt).ok());
  ASSERT_TRUE(pipeline.Insert({102, 103}, std::nullopt).ok());

  auto overloaded = pipeline.Insert({104, 105}, std::nullopt);
  ASSERT_FALSE(overloaded.ok());
  EXPECT_EQ(overloaded.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ErrorCodeForStatus(overloaded.status()), ErrorCode::kOverloaded);

  // Flushing drains the backlog and unblocks writers.
  pipeline.Flush();
  EXPECT_TRUE(pipeline.Insert({104, 105}, std::nullopt).ok());
}

TEST(MutationPipelineTest, ResetDiscardsUnpublishedMutations) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  InstallQuadrant(&registry, RandomDistinctDataset(16, 4096, /*seed=*/10));

  MutationPipelineOptions options;
  options.window_ms = 60'000;
  MutationPipeline pipeline(&registry, &metrics, options);
  ASSERT_TRUE(pipeline.Insert({2000, 2000}, std::nullopt).ok());
  ASSERT_EQ(pipeline.pending(), 1u);

  pipeline.Reset();
  EXPECT_EQ(pipeline.pending(), 0u);
  EXPECT_EQ(pipeline.Flush(), 1u);  // nothing to publish
  EXPECT_EQ(registry.Current()->diagram->dataset().size(), 16u);

  // The next mutation re-seeds from the current snapshot and works.
  ASSERT_TRUE(pipeline.Insert({2000, 2000}, std::nullopt).ok());
  EXPECT_EQ(pipeline.Flush(), 2u);
  EXPECT_EQ(registry.Current()->diagram->dataset().size(), 17u);
}

TEST(MutationPipelineTest, ReloadAndResetSerializesWithInFlightPublishes) {
  // Regression: a publish that grabbed pre-reload shadow state must never
  // Install() after the reload's snapshot — ReloadAndReset holds the
  // publish lock across the registry swap + shadow reset, so the racing
  // flush either lands before the swap or finds nothing pending after it.
  SnapshotRegistry registry;
  ServerMetrics metrics;
  InstallQuadrant(&registry, RandomDistinctDataset(64, 1 << 20, /*seed=*/21));

  MutationPipelineOptions options;
  options.window_ms = 60'000;  // publishes happen only via Flush
  MutationPipeline pipeline(&registry, &metrics, options);

  const Dataset reloaded = RandomDistinctDataset(48, 1 << 20, /*seed=*/22);
  for (int round = 0; round < 16; ++round) {
    ASSERT_TRUE(
        pipeline.Insert({500'000 + round, 600'000 + round}, std::nullopt)
            .ok());
    std::thread flusher([&pipeline] { pipeline.Flush(); });
    const Status swapped = pipeline.ReloadAndReset([&] {
      InstallQuadrant(&registry, reloaded);
      return Status::OK();
    });
    flusher.join();
    ASSERT_TRUE(swapped.ok());
    // Whatever the interleaving, the reloaded data is what serves.
    EXPECT_EQ(registry.Current()->diagram->dataset().size(), 48u)
        << "round " << round;
    EXPECT_EQ(pipeline.pending(), 0u);
  }
  // A failing swap leaves the shadow (and its pending mutations) intact.
  ASSERT_TRUE(pipeline.Insert({999'999, 999'998}, std::nullopt).ok());
  const Status failed = pipeline.ReloadAndReset(
      [] { return Status::NotFound("no such blob"); });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(pipeline.pending(), 1u);
  const uint64_t published = pipeline.Flush();
  EXPECT_EQ(published, registry.generation());
  EXPECT_EQ(registry.Current()->diagram->dataset().size(), 49u);
}

TEST(MutationPipelineTest, DeferredAckBoundHoldsUnderConcurrentFlushes) {
  // Visibility contract: once the served generation reaches a deferred
  // ack's lower bound, the write is in the snapshot — including when the
  // mutation lands while a publish that predates it is mid-build (that
  // publish's generation must lie strictly below the bound).
  SnapshotRegistry registry;
  ServerMetrics metrics;
  InstallQuadrant(&registry, RandomDistinctDataset(16, 1 << 20, /*seed=*/23));

  MutationPipelineOptions options;
  options.window_ms = 60'000;  // publishes come only from the flusher
  MutationPipeline pipeline(&registry, &metrics, options);

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      pipeline.Flush();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int i = 0; i < 64 && std::chrono::steady_clock::now() < deadline;
       ++i) {
    const Point2D p{100'000 + i, 200'000 + i};
    auto ack = pipeline.Insert(p, std::nullopt);
    ASSERT_TRUE(ack.ok()) << ack.status();
    auto snapshot = registry.Current();
    while (snapshot->generation < ack->generation &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      snapshot = registry.Current();
    }
    ASSERT_GE(snapshot->generation, ack->generation) << "i=" << i;
    const auto& points = snapshot->diagram->dataset().points();
    EXPECT_NE(std::find(points.begin(), points.end(), p), points.end())
        << "acked write missing at gen " << snapshot->generation
        << " (bound " << ack->generation << ", i=" << i << ")";
  }
  stop.store(true, std::memory_order_release);
  flusher.join();
}

TEST(MutationPipelineTest, RequireDistinctMapsToDuplicateCoordinate) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  const Dataset dataset = RandomDistinctDataset(16, 1024, /*seed=*/11);
  InstallQuadrant(&registry, dataset);

  MutationPipelineOptions options;
  options.require_distinct = true;
  MutationPipeline pipeline(&registry, &metrics, options);
  const Point2D clash{dataset.point(0).x, dataset.point(0).y + 1};
  auto dup = pipeline.Insert(clash, std::nullopt);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ErrorCodeForStatus(dup.status()),
            ErrorCode::kDuplicateCoordinate);
}

TEST(MutationPipelineTest, GlobalSemanticsSnapshotRejectsMutations) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  const Dataset dataset = RandomDistinctDataset(16, 1024, /*seed=*/12);
  auto holder = std::make_shared<SkylineDiagram>(
      BuildDiagram(dataset, SkylineQueryType::kGlobal));
  registry.Install(
      ServableDiagram::Wrap(
          std::shared_ptr<const Dataset>(holder, &holder->dataset()),
          std::shared_ptr<const CellDiagram>(holder, holder->cell_diagram()),
          SkylineQueryType::kGlobal),
      "mem://global");

  MutationPipeline pipeline(&registry, &metrics, {});
  auto rejected = pipeline.Insert({3, 3}, std::nullopt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.generation(), 1u);
}

TEST(MutationPipelineTest, NoSnapshotInstalledFailsCleanly) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  MutationPipeline pipeline(&registry, &metrics, {});
  auto rejected = pipeline.Insert({1, 2}, std::nullopt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MutationPipelineTest, DynamicFamilyMutatesAndKeepsSubcellShape) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  const Dataset dataset = RandomDistinctDataset(24, 1024, /*seed=*/13);
  InstallDynamic(&registry, dataset);

  MutationPipeline pipeline(&registry, &metrics, {});
  auto ins = pipeline.Insert({900, 900}, std::string("late"));
  ASSERT_TRUE(ins.ok()) << ins.status();
  auto del = pipeline.Delete(0);
  ASSERT_TRUE(del.ok()) << del.status();

  const auto snapshot = registry.Current();
  EXPECT_EQ(snapshot->generation, 3u);
  EXPECT_EQ(snapshot->diagram->dataset().size(), 24u);
  // The published family must stay subcell: the shadow was seeded dynamic.
  EXPECT_NE(snapshot->diagram->subcell_diagram(), nullptr);
  EXPECT_EQ(snapshot->diagram->cell_diagram(), nullptr);

  // Parity against a from-scratch incremental build over the same points.
  std::vector<Point2D> points(dataset.points().begin(),
                              dataset.points().end());
  points.push_back({900, 900});
  points.erase(points.begin());
  auto oracle_ds = Dataset::Create(points, 1024);
  ASSERT_TRUE(oracle_ds.ok());
  auto oracle = IncrementalDynamicDiagram::Create(*oracle_ds, {});
  ASSERT_TRUE(oracle.ok());
  const PointLocationIndex oracle_index(oracle->diagram());
  for (const Point2D q : {Point2D{5, 5}, Point2D{321, 123}}) {
    // Both sides answer through the subcell index (interior-exact), so the
    // comparison carries the same boundary convention.
    auto served = snapshot->diagram->engine().Answer(q, {});
    ASSERT_TRUE(served.ok()) << served.status();
    const auto expect = oracle_index.Query(q);
    EXPECT_EQ(AsSorted(std::move(served).value()),
              AsSorted(std::vector<PointId>(expect.begin(), expect.end())))
        << "q=(" << q.x << "," << q.y << ")";
  }
}

/// Saves the `type` diagram of `dataset` where the registry can load it.
void SaveBlob(const Dataset& dataset, SkylineQueryType type,
              const std::string& path) {
  const SkylineDiagram built = BuildDiagram(dataset, type);
  const Status saved =
      built.cell_diagram() != nullptr
          ? SaveCellDiagram(dataset, *built.cell_diagram(), path)
          : SaveSubcellDiagram(dataset, *built.subcell_diagram(), path);
  SKYDIA_CHECK(saved.ok());
}

/// Spans called `name` recorded since the last trace::Reset().
size_t CountSpans(const char* name) {
  size_t count = 0;
  for (const trace::ThreadTrack& track : trace::Collect().threads) {
    for (const trace::TraceEvent& event : track.events) {
      if (event.kind == trace::TraceEvent::Kind::kSpan &&
          std::strcmp(event.name, name) == 0) {
        ++count;
      }
    }
  }
  return count;
}

/// Served answers (exact: ServedSkyline falls back to the oracle on
/// bisector lines) against the `type` oracle over `points`.
void ExpectServedMatchesOracle(const SnapshotRegistry& registry,
                               SkylineQueryType type,
                               const std::vector<Point2D>& points) {
  auto oracle_ds = Dataset::Create(points, 1024);
  ASSERT_TRUE(oracle_ds.ok());
  for (const Point2D q : {Point2D{1, 3}, Point2D{301, 517}, Point2D{765, 9}}) {
    EXPECT_EQ(ServedSkyline(registry, q),
              AsSorted(type == SkylineQueryType::kQuadrant
                           ? FirstQuadrantSkyline(*oracle_ds, q)
                           : DynamicSkyline(*oracle_ds, q)))
        << "q=(" << q.x << "," << q.y << ")";
  }
}

TEST(MutationPipelineTest, FirstWriteAdoptsTheServedDiagramWithoutABuild) {
  // The shadow adopts what the registry serves — a blob loaded from disk —
  // so the first insert after an install, and after a reload, runs no
  // builder: both scanning constructions record a scan.row span per row.
  for (const SkylineQueryType type :
       {SkylineQueryType::kQuadrant, SkylineQueryType::kDynamic}) {
    SCOPED_TRACE(SkylineQueryTypeName(type));
    const std::string path = ::testing::TempDir() + "/adopt_" +
                             SkylineQueryTypeName(type) + ".skd";
    const Dataset first = RandomDistinctDataset(20, 1024, /*seed=*/31);
    SaveBlob(first, type, path);
    SnapshotRegistry registry;
    ServerMetrics metrics;
    ASSERT_TRUE(registry
                    .Reload(path, QueryEngineOptions{},
                            SkylineQueryType::kQuadrant)
                    .ok());
    MutationPipeline pipeline(&registry, &metrics, {});

    trace::SetEnabled(true);
    trace::Reset();
    ASSERT_TRUE(pipeline.Insert({1000, 1001}, std::nullopt).ok());
    EXPECT_EQ(CountSpans("scan.row"), 0u);
    EXPECT_EQ(CountSpans("mutation.apply"), 1u);  // tracing was live
    std::vector<Point2D> points = first.points();
    points.push_back({1000, 1001});
    ExpectServedMatchesOracle(registry, type, points);

    // A reload drops the shadow; the next insert adopts the reloaded blob.
    const Dataset second = RandomDistinctDataset(24, 1024, /*seed=*/32);
    SaveBlob(second, type, path);
    ASSERT_TRUE(pipeline
                    .ReloadAndReset([&] {
                      return registry.Reload(path, QueryEngineOptions{},
                                             SkylineQueryType::kQuadrant);
                    })
                    .ok());
    trace::Reset();
    ASSERT_TRUE(pipeline.Insert({1002, 1003}, std::nullopt).ok());
    ASSERT_TRUE(pipeline.Delete(0).ok());
    EXPECT_EQ(CountSpans("scan.row"), 0u);
    EXPECT_EQ(CountSpans("mutation.apply"), 2u);
    points = second.points();
    points.push_back({1002, 1003});
    points.erase(points.begin());
    ExpectServedMatchesOracle(registry, type, points);
    trace::SetEnabled(false);
    trace::Reset();
    std::remove(path.c_str());
  }
}

TEST(MutationPipelineTest, LoadedGlobalBlobStillRejectsMutations) {
  // A cell blob served with global semantics is not adoptable: global
  // results shift everywhere under a mutation.
  const std::string path = ::testing::TempDir() + "/adopt_global.skd";
  SaveBlob(RandomDistinctDataset(16, 1024, /*seed=*/33),
           SkylineQueryType::kGlobal, path);
  SnapshotRegistry registry;
  ServerMetrics metrics;
  ASSERT_TRUE(
      registry.Reload(path, QueryEngineOptions{}, SkylineQueryType::kGlobal)
          .ok());
  MutationPipeline pipeline(&registry, &metrics, {});
  auto rejected = pipeline.Insert({3, 3}, std::nullopt);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(pipeline.DebugState().shadow_seeded);
  EXPECT_EQ(registry.generation(), 1u);
  std::remove(path.c_str());
}

TEST(MutationPipelineTest, ReadersPinnedAcrossPublishKeepTheirSnapshot) {
  SnapshotRegistry registry;
  ServerMetrics metrics;
  InstallQuadrant(&registry, RandomDistinctDataset(16, 4096, /*seed=*/14));
  MutationPipeline pipeline(&registry, &metrics, {});

  const auto pinned = registry.Current();
  ASSERT_TRUE(pipeline.Insert({3000, 3000}, std::nullopt).ok());

  // The pinned (pre-publish) snapshot still answers from the old dataset
  // while the registry serves the new generation.
  EXPECT_EQ(pinned->diagram->dataset().size(), 16u);
  EXPECT_EQ(pinned->generation, 1u);
  EXPECT_EQ(registry.Current()->diagram->dataset().size(), 17u);
  EXPECT_EQ(registry.Current()->generation, 2u);
}

}  // namespace
}  // namespace skydia::serve
