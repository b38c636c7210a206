// Property-based differential suite for the live-mutation path: random
// interleaved insert/delete/query sequences over the incremental diagrams,
// checked at every step against a full rebuild of the same point set. This
// is the correctness backstop behind the serve layer's write path — if the
// staircase (quadrant) or subcell reuse (dynamic) maintenance ever drifts
// from the from-scratch construction, one of these cases pins a seed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/core/diagram.h"
#include "src/core/incremental.h"
#include "src/core/incremental_dynamic.h"
#include "src/core/query_engine.h"
#include "src/datagen/distributions.h"
#include "tests/testing/property.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::AsSorted;
using skydia::testing::BuildDiagram;
using skydia::testing::GeneratedDataset;
using skydia::testing::PropertyBaseSeed;
using skydia::testing::RandomQueryPoint;
using skydia::testing::RunSeededCases;

constexpr int64_t kDomain = 256;

std::vector<PointId> Sorted(std::span<const PointId> ids) {
  return AsSorted(std::vector<PointId>(ids.begin(), ids.end()));
}

/// How a trace's incremental diagram starts.
struct Seeding {
  /// nullopt: Create() (its own scanning build). Otherwise Adopt() of the
  /// diagram this algorithm builds at the trace's parallelism, saved to a
  /// blob and served from it (SkylineDiagram::Load), which is how the
  /// serve layer's shadow starts.
  std::optional<BuildAlgorithm> adopted_blob;
  /// Mutations in the trace. Long traces check the rebuild every fourth
  /// step, keep the point count level, and must cross the compaction
  /// watermark at least once.
  int steps = 12;
};

/// Serves `dataset`'s `family` diagram built by `algorithm` from a saved
/// blob and adopts the served objects into `quadrant` or `dynamic`.
void AdoptFromBlob(const Dataset& dataset, SkylineQueryType family,
                   BuildAlgorithm algorithm, int parallelism,
                   std::optional<IncrementalQuadrantDiagram>* quadrant,
                   std::optional<IncrementalDynamicDiagram>* dynamic) {
  const SkylineDiagram built =
      BuildDiagram(dataset, family, algorithm, parallelism);
  const std::string path = ::testing::TempDir() + "/mutation_seed_" +
                           std::to_string(::getpid()) + ".skd";
  const Status saved = built.Save(path);
  ASSERT_TRUE(saved.ok()) << saved;
  auto served = SkylineDiagram::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(served.ok()) << served.status();
  if (family == SkylineQueryType::kQuadrant) {
    auto adopted = IncrementalQuadrantDiagram::Adopt(
        served->shared_dataset(), served->shared_cell_diagram());
    ASSERT_TRUE(adopted.ok()) << adopted.status();
    quadrant->emplace(std::move(adopted).value());
  } else {
    auto adopted = IncrementalDynamicDiagram::Adopt(
        served->shared_dataset(), served->shared_subcell_diagram());
    ASSERT_TRUE(adopted.ok()) << adopted.status();
    dynamic->emplace(std::move(adopted).value());
  }
}

/// One random interleaved mutation/query trace over `family`, rebuilding
/// the oracle diagram from scratch (at `parallelism`) after every mutation.
void RunInterleavedTrace(SkylineQueryType family, Distribution distribution,
                         int parallelism, const Seeding& seeding, Rng& rng,
                         uint64_t seed) {
  const size_t n0 = 12 + rng.NextBounded(12);
  Dataset initial = GeneratedDataset(n0, kDomain, distribution, seed);
  std::vector<Point2D> mirror = initial.points();

  std::optional<IncrementalQuadrantDiagram> quadrant;
  std::optional<IncrementalDynamicDiagram> dynamic;
  if (seeding.adopted_blob.has_value()) {
    AdoptFromBlob(initial, family, *seeding.adopted_blob, parallelism,
                  &quadrant, &dynamic);
    if (::testing::Test::HasFatalFailure()) return;
  } else if (family == SkylineQueryType::kQuadrant) {
    auto built = IncrementalQuadrantDiagram::Create(std::move(initial));
    ASSERT_TRUE(built.ok()) << built.status();
    quadrant.emplace(std::move(built).value());
  } else {
    auto built = IncrementalDynamicDiagram::Create(std::move(initial));
    ASSERT_TRUE(built.ok()) << built.status();
    dynamic.emplace(std::move(built).value());
  }
  const auto pool_size = [&] {
    return quadrant.has_value() ? quadrant->diagram().pool().size()
                                : dynamic->diagram().pool().size();
  };

  const bool long_trace = seeding.steps > 12;
  // A non-compacting mutation keeps every adopted set, so the pool only
  // shrinks when a mutation compacts it.
  int compactions = 0;
  for (int step = 0; step < seeding.steps; ++step) {
    // ~2/3 inserts so the set grows and deletes keep finding structure;
    // long traces stay level so rebuilds stay cheap.
    const uint64_t delete_odds = long_trace ? 2 : 3;
    const bool do_delete =
        mirror.size() > 2 && rng.NextBounded(delete_odds) == 0;
    const size_t pool_before = pool_size();
    if (do_delete) {
      const auto victim =
          static_cast<PointId>(rng.NextBounded(mirror.size()));
      const Status deleted = quadrant.has_value() ? quadrant->Delete(victim)
                                                  : dynamic->Delete(victim);
      ASSERT_TRUE(deleted.ok()) << deleted;
      mirror.erase(mirror.begin() + victim);
    } else {
      const Point2D p{rng.NextInt(0, kDomain - 1),
                      rng.NextInt(0, kDomain - 1)};
      const StatusOr<PointId> id = quadrant.has_value()
                                       ? quadrant->Insert(p)
                                       : dynamic->Insert(p);
      ASSERT_TRUE(id.ok()) << id.status();
      ASSERT_EQ(*id, mirror.size());
      mirror.push_back(p);
    }
    if (pool_size() < pool_before) ++compactions;
    if (long_trace && step % 4 != 3) continue;

    // Full-rebuild oracle over the mirrored point set, at the requested
    // build parallelism (the mutation path itself is sequential; the
    // rebuild exercises the parallel constructions against it).
    auto mirror_ds = Dataset::Create(mirror, kDomain);
    ASSERT_TRUE(mirror_ds.ok()) << mirror_ds.status();
    const SkylineDiagram rebuilt = BuildDiagram(
        *mirror_ds, family, BuildAlgorithm::kAuto, parallelism);

    const Dataset& served = quadrant.has_value() ? quadrant->dataset()
                                                 : dynamic->dataset();
    ASSERT_EQ(served.size(), mirror.size());
    const PointLocationIndex index =
        quadrant.has_value() ? PointLocationIndex(quadrant->diagram())
                             : PointLocationIndex(dynamic->diagram());
    for (int probe = 0; probe < 6; ++probe) {
      const Point2D q = RandomQueryPoint(rng, served);
      const std::vector<PointId> incremental = Sorted(index.Query(q));
      const std::vector<PointId> oracle = Sorted(rebuilt.Query(q));
      ASSERT_EQ(incremental, oracle)
          << "step " << step << " q=(" << q.x << "," << q.y << ") n="
          << mirror.size();
    }
  }
  if (long_trace) {
    EXPECT_GE(compactions, 1)
        << "the trace never crossed the compaction watermark";
  }
}

struct MutationPropertyParam {
  SkylineQueryType family;
  Distribution distribution;
  int parallelism;
  /// Seed the trace by adopting a loaded blob (once per BuildAlgorithm the
  /// family accepts at `parallelism`) instead of by Create().
  bool adopted = false;
  /// Mutations per trace (see Seeding::steps).
  int steps = 12;
};

/// Every BuildAlgorithm the facade accepts for `family` at `parallelism`.
std::vector<BuildAlgorithm> AcceptedAlgorithms(SkylineQueryType family,
                                               int parallelism) {
  const Dataset probe = GeneratedDataset(4, kDomain,
                                         Distribution::kIndependent, 1);
  std::vector<BuildAlgorithm> accepted;
  for (const BuildAlgorithm algorithm :
       {BuildAlgorithm::kAuto, BuildAlgorithm::kBaseline, BuildAlgorithm::kDsg,
        BuildAlgorithm::kSubset, BuildAlgorithm::kScanning}) {
    SkylineBuildOptions options;
    options.algorithm = algorithm;
    options.parallelism = parallelism;
    auto copy = Dataset::Create(probe.points(), kDomain);
    if (SkylineDiagram::Build(std::move(copy).value(), family, options).ok()) {
      accepted.push_back(algorithm);
    }
  }
  return accepted;
}

class MutationPropertyTest
    : public ::testing::TestWithParam<MutationPropertyParam> {};

TEST_P(MutationPropertyTest, InterleavedMutationsMatchFullRebuild) {
  const MutationPropertyParam param = GetParam();
  const uint64_t base_seed =
      PropertyBaseSeed(0xD1A6 + static_cast<uint64_t>(param.parallelism));
  if (!param.adopted) {
    RunSeededCases("interleaved mutations vs rebuild", /*cases=*/4,
                   base_seed, [&](Rng& rng, uint64_t seed) {
                     RunInterleavedTrace(param.family, param.distribution,
                                         param.parallelism,
                                         Seeding{std::nullopt, param.steps},
                                         rng, seed);
                   });
    return;
  }
  const std::vector<BuildAlgorithm> algorithms =
      AcceptedAlgorithms(param.family, param.parallelism);
  ASSERT_FALSE(algorithms.empty());
  for (const BuildAlgorithm algorithm : algorithms) {
    SCOPED_TRACE(std::string("adopted blob built by ") +
                 BuildAlgorithmName(algorithm));
    RunSeededCases("adopted mutations vs rebuild", /*cases=*/2, base_seed,
                   [&](Rng& rng, uint64_t seed) {
                     RunInterleavedTrace(param.family, param.distribution,
                                         param.parallelism,
                                         Seeding{algorithm, param.steps}, rng,
                                         seed);
                   });
    if (HasFailure()) return;
  }
}

std::string ParamName(
    const ::testing::TestParamInfo<MutationPropertyParam>& info) {
  std::string dist = DistributionName(info.param.distribution);
  if (!dist.empty() && dist[0] >= 'a' && dist[0] <= 'z') {
    dist[0] = static_cast<char>(dist[0] - 'a' + 'A');
  }
  return std::string(info.param.family == SkylineQueryType::kQuadrant
                         ? "Quadrant"
                         : "Dynamic") +
         dist + "P" + std::to_string(info.param.parallelism) +
         (info.param.adopted ? "Adopted" : "") +
         (info.param.steps > 12 ? "Long" : "");
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesDistributionsParallelism, MutationPropertyTest,
    ::testing::Values(
        // Quadrant family x 3 distributions x parallelism 1/2/7.
        MutationPropertyParam{SkylineQueryType::kQuadrant,
                              Distribution::kIndependent, 1},
        MutationPropertyParam{SkylineQueryType::kQuadrant,
                              Distribution::kCorrelated, 2},
        MutationPropertyParam{SkylineQueryType::kQuadrant,
                              Distribution::kAnticorrelated, 7},
        MutationPropertyParam{SkylineQueryType::kQuadrant,
                              Distribution::kAnticorrelated, 1},
        MutationPropertyParam{SkylineQueryType::kQuadrant,
                              Distribution::kIndependent, 7},
        // Dynamic family x 3 distributions x parallelism 1/2/7.
        MutationPropertyParam{SkylineQueryType::kDynamic,
                              Distribution::kIndependent, 1},
        MutationPropertyParam{SkylineQueryType::kDynamic,
                              Distribution::kCorrelated, 7},
        MutationPropertyParam{SkylineQueryType::kDynamic,
                              Distribution::kAnticorrelated, 2},
        MutationPropertyParam{SkylineQueryType::kDynamic,
                              Distribution::kCorrelated, 1},
        MutationPropertyParam{SkylineQueryType::kDynamic,
                              Distribution::kIndependent, 2},
        // Adopted from a Save->Load round trip: both families x 3
        // distributions, sequential and parallel builds, and one long
        // trace per family across the compaction watermark.
        MutationPropertyParam{SkylineQueryType::kQuadrant,
                              Distribution::kIndependent, 1, true},
        MutationPropertyParam{SkylineQueryType::kQuadrant,
                              Distribution::kCorrelated, 2, true},
        MutationPropertyParam{SkylineQueryType::kQuadrant,
                              Distribution::kAnticorrelated, 1, true, 48},
        MutationPropertyParam{SkylineQueryType::kDynamic,
                              Distribution::kIndependent, 2, true},
        MutationPropertyParam{SkylineQueryType::kDynamic,
                              Distribution::kCorrelated, 1, true},
        MutationPropertyParam{SkylineQueryType::kDynamic,
                              Distribution::kAnticorrelated, 1, true, 48}),
    ParamName);

// The mutation fast path adopts the previous pool wholesale — carrying some
// no-longer-referenced sets forward — and compacts (re-interns referenced
// sets) once the pool doubles past the watermark. A long trace must stay
// query-correct across many adoptions and compactions, and the pool must
// stay within the structural bound the watermark policy implies: the size
// right after a compaction is at most referenced + recomputed
// (<= 2 * cells + 1), growth continues until it doubles past that, plus one
// mutation's delta before the next compaction lands.
TEST(MutationCompactionTest, LongTraceStaysCorrectWithBoundedPool) {
  RunSeededCases(
      "long mutation trace pool bound", /*cases=*/2,
      PropertyBaseSeed(0xC017AC7), [&](Rng& rng, uint64_t seed) {
        Dataset initial =
            GeneratedDataset(16, kDomain, Distribution::kIndependent, seed);
        std::vector<Point2D> mirror = initial.points();
        auto built = IncrementalQuadrantDiagram::Create(std::move(initial));
        ASSERT_TRUE(built.ok()) << built.status();
        IncrementalQuadrantDiagram diagram = std::move(built).value();

        for (int step = 0; step < 80; ++step) {
          if (mirror.size() > 2 && rng.NextBounded(3) == 0) {
            const auto victim =
                static_cast<PointId>(rng.NextBounded(mirror.size()));
            ASSERT_TRUE(diagram.Delete(victim).ok());
            mirror.erase(mirror.begin() + victim);
          } else {
            const Point2D p{rng.NextInt(0, kDomain - 1),
                            rng.NextInt(0, kDomain - 1)};
            ASSERT_TRUE(diagram.Insert(p).ok());
            mirror.push_back(p);
          }
          const uint64_t cells = diagram.diagram().grid().num_cells();
          ASSERT_LE(diagram.diagram().pool().size(), 6 * cells + 16)
              << "pool grew past the compaction bound at step " << step;
          if (step % 8 != 0) continue;
          auto mirror_ds = Dataset::Create(mirror, kDomain);
          ASSERT_TRUE(mirror_ds.ok());
          const SkylineDiagram rebuilt =
              BuildDiagram(*mirror_ds, SkylineQueryType::kQuadrant);
          const PointLocationIndex index(diagram.diagram());
          for (int probe = 0; probe < 4; ++probe) {
            const Point2D q = RandomQueryPoint(rng, diagram.dataset());
            ASSERT_EQ(Sorted(index.Query(q)), Sorted(rebuilt.Query(q)))
                << "step " << step;
          }
        }
      });
}

// Labels ride along with mutations: inserted labels attach to the new id
// and deletions renumber without detaching any label from its point.
TEST(MutationLabelTest, LabelsFollowPointsAcrossInterleavedMutations) {
  RunSeededCases(
      "labels follow points", /*cases=*/6, PropertyBaseSeed(0x1ABE1),
      [&](Rng& rng, uint64_t seed) {
        (void)seed;
        std::vector<Point2D> points;
        std::vector<std::string> labels;
        for (int i = 0; i < 8; ++i) {
          points.push_back(
              {rng.NextInt(0, kDomain - 1), rng.NextInt(0, kDomain - 1)});
          labels.push_back("seed" + std::to_string(i));
        }
        auto ds = Dataset::Create(points, kDomain, labels);
        ASSERT_TRUE(ds.ok());
        auto diagram = IncrementalQuadrantDiagram::Create(*ds);
        ASSERT_TRUE(diagram.ok());

        std::vector<std::string> mirror = labels;
        for (int step = 0; step < 16; ++step) {
          if (mirror.size() > 2 && rng.NextBernoulli(0.4)) {
            const auto victim =
                static_cast<PointId>(rng.NextBounded(mirror.size()));
            ASSERT_TRUE(diagram->Delete(victim).ok());
            mirror.erase(mirror.begin() + victim);
          } else {
            const std::string label = "ins" + std::to_string(step);
            auto id = diagram->Insert({rng.NextInt(0, kDomain - 1),
                                       rng.NextInt(0, kDomain - 1)},
                                      label);
            ASSERT_TRUE(id.ok());
            mirror.push_back(label);
          }
          ASSERT_EQ(diagram->dataset().size(), mirror.size());
          for (PointId id = 0; id < mirror.size(); ++id) {
            ASSERT_EQ(diagram->dataset().label(id), mirror[id])
                << "step " << step;
          }
        }
      });
}

}  // namespace
}  // namespace skydia
