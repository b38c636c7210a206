#include "src/serve/snapshot_registry.h"

#include <utility>

namespace skydia::serve {

SnapshotRegistry::SnapshotRegistry(const ResultCacheOptions& cache)
    : cache_(cache) {}

std::shared_ptr<const ServingSnapshot> SnapshotRegistry::Current() const {
  MutexLock lock(mu_);
  return current_;
}

uint64_t SnapshotRegistry::Install(SkylineDiagram diagram,
                                   std::string source_path) {
  auto snapshot = std::make_shared<ServingSnapshot>();
  snapshot->diagram = std::make_shared<const SkylineDiagram>(std::move(diagram));
  snapshot->cache = std::make_shared<ResultCache>(cache_);
  snapshot->source_path = std::move(source_path);
  std::shared_ptr<const ServingSnapshot> replaced;
  uint64_t generation = 0;
  {
    MutexLock lock(mu_);
    generation = generation_.load(std::memory_order_relaxed) + 1;
    snapshot->generation = generation;
    replaced = std::exchange(current_, std::move(snapshot));
    generation_.store(generation, std::memory_order_release);
  }
  // Dropped after unlocking. When no in-flight batch still pins the
  // replaced snapshot, this frees its whole diagram (hundreds of megabytes
  // for a large blob), which must not hold readers in Current() meanwhile.
  replaced.reset();
  return generation;
}

Status SnapshotRegistry::Reload(const std::string& path) {
  std::string target = path;
  if (target.empty()) {
    auto current = Current();
    if (current == nullptr) {
      return Status::FailedPrecondition(
          "reload without a path needs an installed snapshot to re-read");
    }
    target = current->source_path;
  }
  // Load outside the lock: queries keep flowing against the old snapshot
  // while the replacement deserializes and builds its index.
  auto loaded = SkylineDiagram::Load(target);
  if (!loaded.ok()) return loaded.status();
  Install(std::move(loaded).value(), std::move(target));
  return Status::OK();
}

}  // namespace skydia::serve
