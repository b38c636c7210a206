// SnapshotRegistry: RCU-style hot-swap of the served diagram.
//
// The server pins one immutable ServingSnapshot per request batch via a
// shared_ptr copy; Reload() builds the replacement off to the side and swaps
// the pointer under a mutex. In-flight batches keep serving the snapshot
// they pinned until they drop their reference — queries never block on a
// reload and never observe a half-installed diagram.
//
// A snapshot serves through one ServableDiagram: every point, exact and
// range query it answers goes through that diagram's one QueryEngine and its
// PointLocationIndex.
//
// Each snapshot carries its own ResultCache: SetIds are meaningless across
// snapshots, so retiring the cache with its diagram makes stale cache hits
// structurally impossible (no invalidation protocol to get wrong).
//
// Generation numbers increase monotonically from 1 and stamp every reply
// ("gen" field), which is what the hot-swap stress test asserts on.
#ifndef SKYDIA_SRC_SERVE_SNAPSHOT_REGISTRY_H_
#define SKYDIA_SRC_SERVE_SNAPSHOT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/annotations.h"
#include "src/common/status.h"
#include "src/core/diagram.h"
#include "src/core/query_engine.h"
#include "src/serve/result_cache.h"

namespace skydia::serve {

/// One immutable serving generation: the loaded diagram, its reply cache,
/// and where it came from. Shared read-only across connection threads.
struct ServingSnapshot {
  std::shared_ptr<const ServableDiagram> diagram;
  std::shared_ptr<ResultCache> cache;
  uint64_t generation = 0;
  std::string source_path;  ///< blob the snapshot was loaded from
};

/// Thread-safe holder of the current ServingSnapshot.
class SnapshotRegistry {
 public:
  SnapshotRegistry() = default;
  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// The current snapshot (null until the first Install/Reload). The caller
  /// holds the returned pointer for the duration of one request batch.
  std::shared_ptr<const ServingSnapshot> Current() const SKYDIA_EXCLUDES(mu_);

  /// Installs an already-loaded diagram as the new current snapshot with a
  /// fresh cache. Returns the new generation. The replaced snapshot is
  /// released after the swap's lock is dropped, so freeing it never stalls
  /// Current().
  uint64_t Install(ServableDiagram diagram, std::string source_path,
                   const ResultCacheOptions& cache_options = {})
      SKYDIA_EXCLUDES(mu_);

  /// Loads `path` and installs it. On failure the current snapshot is left
  /// serving untouched. An empty `path` reloads the current snapshot's
  /// source file (error when nothing is installed yet).
  Status Reload(const std::string& path, const QueryEngineOptions& engine,
                SkylineQueryType cell_semantics,
                const ResultCacheOptions& cache_options = {})
      SKYDIA_EXCLUDES(mu_);

  /// Generation of the current snapshot (0 = nothing installed). Lock-free.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const ServingSnapshot> current_ SKYDIA_GUARDED_BY(mu_);
  /// Mirrors current_->generation for the lock-free generation() fast path;
  /// written under mu_ with release so readers see it monotonic.
  std::atomic<uint64_t> generation_{0};
};

}  // namespace skydia::serve

#endif  // SKYDIA_SRC_SERVE_SNAPSHOT_REGISTRY_H_
