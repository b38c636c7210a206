#include "src/serve/snapshot_registry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "src/core/query_engine.h"
#include "tests/serve/serve_test_util.h"

namespace skydia::serve {
namespace {

using skydia::testing::BuildDiagram;
using skydia::testing::RandomDataset;
using skydia::testing::SaveQuadrantFixture;

std::string FixturePath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SnapshotRegistryTest, EmptyUntilFirstInstall) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.generation(), 0u);
}

TEST(SnapshotRegistryTest, InstallBumpsGeneration) {
  const std::string path = FixturePath("registry_install.skd");
  SaveQuadrantFixture(32, 1024, /*seed=*/1, path);

  SnapshotRegistry registry;
  auto loaded = ServableDiagram::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(registry.Install(std::move(loaded).value(), path), 1u);
  EXPECT_EQ(registry.generation(), 1u);

  const auto snapshot = registry.Current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->generation, 1u);
  EXPECT_EQ(snapshot->source_path, path);
  EXPECT_EQ(snapshot->diagram->dataset().size(), 32u);
  ASSERT_NE(snapshot->cache, nullptr);
}

TEST(SnapshotRegistryTest, ReloadSwapsAndOldSnapshotSurvivesPin) {
  const std::string path = FixturePath("registry_reload.skd");
  SaveQuadrantFixture(32, 1024, /*seed=*/1, path);

  SnapshotRegistry registry;
  ASSERT_TRUE(registry
                  .Reload(path, QueryEngineOptions{},
                          SkylineQueryType::kQuadrant)
                  .ok());
  const auto pinned = registry.Current();
  ASSERT_NE(pinned, nullptr);

  // Overwrite the blob with a different dataset and reload by stored path.
  SaveQuadrantFixture(48, 1024, /*seed=*/2, path);
  ASSERT_TRUE(
      registry.Reload("", QueryEngineOptions{}, SkylineQueryType::kQuadrant)
          .ok());
  EXPECT_EQ(registry.generation(), 2u);

  // The pinned generation keeps answering from the old dataset.
  EXPECT_EQ(pinned->generation, 1u);
  EXPECT_EQ(pinned->diagram->dataset().size(), 32u);
  EXPECT_EQ(registry.Current()->diagram->dataset().size(), 48u);
}

TEST(SnapshotRegistryTest, FailedReloadKeepsServing) {
  const std::string path = FixturePath("registry_failed_reload.skd");
  SaveQuadrantFixture(32, 1024, /*seed=*/1, path);

  SnapshotRegistry registry;
  ASSERT_TRUE(registry
                  .Reload(path, QueryEngineOptions{},
                          SkylineQueryType::kQuadrant)
                  .ok());
  const Status bad = registry.Reload(path + ".does-not-exist",
                                     QueryEngineOptions{},
                                     SkylineQueryType::kQuadrant);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(registry.generation(), 1u);
  ASSERT_NE(registry.Current(), nullptr);
  EXPECT_EQ(registry.Current()->generation, 1u);
}

TEST(SnapshotRegistryTest, PathlessReloadWithoutInstallFails) {
  SnapshotRegistry registry;
  const Status s =
      registry.Reload("", QueryEngineOptions{}, SkylineQueryType::kQuadrant);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotRegistryTest, FreshCachePerSnapshot) {
  const std::string path = FixturePath("registry_cache.skd");
  SaveQuadrantFixture(32, 1024, /*seed=*/1, path);

  SnapshotRegistry registry;
  ASSERT_TRUE(registry
                  .Reload(path, QueryEngineOptions{},
                          SkylineQueryType::kQuadrant)
                  .ok());
  registry.Current()->cache->Insert(1, "stale");
  ASSERT_TRUE(
      registry.Reload("", QueryEngineOptions{}, SkylineQueryType::kQuadrant)
          .ok());
  std::string value;
  EXPECT_FALSE(registry.Current()->cache->Lookup(1, &value));
}

TEST(SnapshotRegistryTest, ReplacedSnapshotIsFreedOutsideTheLock) {
  // The first install's dataset carries a deleter that runs when the
  // snapshot is freed. It asks another thread to call Current() and waits
  // for that call: under the registry lock the reader would block until
  // the deleter returned, so the wait would time out.
  SnapshotRegistry registry;
  const auto built = std::make_shared<SkylineDiagram>(BuildDiagram(
      RandomDataset(16, 256, /*seed=*/3), SkylineQueryType::kQuadrant));
  std::promise<void> reader_returned;
  bool deleter_ran = false;
  bool reader_was_free = false;
  std::thread reader;
  const auto free_dataset = [&](const Dataset* dataset) {
    reader = std::thread([&] {
      (void)registry.Current();
      reader_returned.set_value();
    });
    reader_was_free =
        reader_returned.get_future().wait_for(std::chrono::seconds(10)) ==
        std::future_status::ready;
    deleter_ran = true;
    delete dataset;
  };
  auto copy = Dataset::Create(built->dataset().points(),
                              built->dataset().domain_size());
  ASSERT_TRUE(copy.ok());
  registry.Install(
      ServableDiagram::Wrap(
          std::shared_ptr<const Dataset>(new Dataset(std::move(copy).value()),
                                         free_dataset),
          std::shared_ptr<const CellDiagram>(built, built->cell_diagram()),
          SkylineQueryType::kQuadrant),
      "mem://first");
  EXPECT_FALSE(deleter_ran);

  const std::string path = FixturePath("registry_free_outside_lock.skd");
  SaveQuadrantFixture(16, 256, /*seed=*/4, path);
  ASSERT_TRUE(registry
                  .Reload(path, QueryEngineOptions{},
                          SkylineQueryType::kQuadrant)
                  .ok());
  ASSERT_TRUE(deleter_ran);
  EXPECT_TRUE(reader_was_free)
      << "Current() blocked while the replaced snapshot was freed";
  reader.join();
  EXPECT_EQ(registry.generation(), 2u);
}

}  // namespace
}  // namespace skydia::serve
