// SnapshotRegistry: RCU-style hot-swap of the served diagram.
//
// The server pins one immutable ServingSnapshot per request batch via a
// shared_ptr copy; Reload() builds the replacement off to the side and swaps
// the pointer under a mutex. In-flight batches keep serving the snapshot
// they pinned until they drop their reference — queries never block on a
// reload and never observe a half-installed diagram.
//
// Each snapshot carries its own ResultCache: SetIds are meaningless across
// snapshots, so retiring the cache with its diagram makes stale cache hits
// structurally impossible (no invalidation protocol to get wrong).
//
// Sharding: when Install/Reload are given a shard count > 1, the snapshot
// also carries a ShardedServableDiagram built over the same loaded blob.
// The sharded view and every one of its stripe indexes are members of the
// one ServingSnapshot that the registry swaps atomically, so a hot-swap
// publishes all stripes under one generation — a batch can never observe
// stripes from two generations.
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
#include "src/core/sharded_diagram.h"
#include "src/serve/result_cache.h"

namespace skydia::serve {

/// One immutable serving generation: the loaded diagram, its reply cache,
/// and where it came from. Shared read-only across connection threads.
struct ServingSnapshot {
  std::shared_ptr<const ServableDiagram> diagram;
  /// Row-stripe sharded view over `diagram` (null when serving unsharded).
  /// All stripes belong to this snapshot: one generation, swapped as a unit.
  std::shared_ptr<const ShardedServableDiagram> sharded;
  std::shared_ptr<ResultCache> cache;
  uint64_t generation = 0;
  std::string source_path;  ///< blob the snapshot was loaded from

  /// The one surface to serve this snapshot through (the sharded view when
  /// present, else the single-index diagram). Readers target this so the
  /// serve layer never branches on the snapshot's shape.
  const Servable& serving() const {
    return sharded != nullptr ? static_cast<const Servable&>(*sharded)
                              : *diagram;
  }
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
  /// fresh cache (and, when `sharding.num_shards > 1`, a sharded view built
  /// before the swap so all stripes publish atomically). Returns the new
  /// generation. The replaced snapshot is released after the swap's lock is
  /// dropped, so freeing it never stalls Current().
  uint64_t Install(ServableDiagram diagram, std::string source_path,
                   const ResultCacheOptions& cache_options = {},
                   const ShardingOptions& sharding = {}) SKYDIA_EXCLUDES(mu_);

  /// Loads `path` and installs it. On failure the current snapshot is left
  /// serving untouched. An empty `path` reloads the current snapshot's
  /// source file (error when nothing is installed yet).
  Status Reload(const std::string& path, const QueryEngineOptions& engine,
                SkylineQueryType cell_semantics,
                const ResultCacheOptions& cache_options = {},
                const ShardingOptions& sharding = {}) SKYDIA_EXCLUDES(mu_);

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
