// MutationPipeline: the serve-side write path over the incremental diagrams.
//
// Mutations ({"cmd":"insert"}, {"cmd":"delete"}) apply synchronously to a
// private *shadow* diagram — an IncrementalQuadrantDiagram or
// IncrementalDynamicDiagram — under one mutex, so writers are serialized and
// each request gets its own success/error reply. The first mutation after a
// start or reload seeds the shadow by adopting the currently served
// snapshot's dataset and diagram (Incremental*Diagram::Adopt): nothing is
// rebuilt and nothing is copied, so that first write costs what any other
// write costs. Readers never see the shadow's later states until a publish:
// they keep serving the registry's current immutable snapshot.
//
// Publishing is what makes a mutation visible, and it is decoupled from
// applying: the shadow's dataset/diagram are immutable snapshots behind
// shared_ptrs, so a publish grabs the current pair, wraps it into a
// ServableDiagram (index build) and Install()s it on the registry — the
// same RCU hot-swap path a reload takes, with a bumped generation and a
// fresh cache. In-flight read batches keep their pinned snapshot; readers
// never block on writers.
//
// Coalescing: with window_ms > 0 a background publisher thread publishes
// once per window, batching every mutation applied since the last publish
// into one index rebuild ({"cmd":"flush"} publishes immediately). With
// window_ms <= 0 every mutation publishes synchronously before its ack.
//
// Ack generations: a synchronous publish acks the exact generation now
// serving the mutation. A deferred (windowed) ack carries a lower bound —
// the mutation is visible once reply "gen" values reach at least that
// number. The bound accounts for a publish already between its state grab
// and its Install (that publish predates the mutation, so the bound is its
// generation + 1). Generations stay monotonic either way (Install under
// the registry's lock).
//
// Backpressure: when more than max_pending mutations are waiting for a
// publish, further mutations are rejected with ResourceExhausted
// ("mutation backlog full ..."), which the protocol layer maps to the
// "overloaded" error code.
//
// Interaction with reload: a successful reload makes the shadow stale, so
// the server runs the reload through ReloadAndReset() — the registry swap
// and the shadow reset happen under the publish lock, so a publish that
// grabbed pre-reload shadow state can never Install() after the reload and
// silently revert it. Unpublished mutations are discarded and the next
// mutation re-seeds from the reloaded snapshot. Mutations are in-memory
// only; they do not rewrite the source blob.
//
// Supported families: quadrant cell snapshots and dynamic subcell
// snapshots. Global-semantics snapshots reject mutations (a point outside
// every quadrant still shifts global results everywhere; no incremental
// maintenance is implemented for them).
#ifndef SKYDIA_SRC_SERVE_MUTATION_PIPELINE_H_
#define SKYDIA_SRC_SERVE_MUTATION_PIPELINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "src/common/annotations.h"
#include "src/common/status.h"
#include "src/core/incremental.h"
#include "src/core/incremental_dynamic.h"
#include "src/core/query_engine.h"
#include "src/geometry/point.h"
#include "src/serve/metrics.h"
#include "src/serve/result_cache.h"
#include "src/serve/snapshot_registry.h"

namespace skydia::serve {

/// Options for MutationPipeline (the server copies these out of its own
/// ServerOptions so published snapshots serve exactly like loaded ones).
struct MutationPipelineOptions {
  /// Publish coalescing window in milliseconds. <= 0 publishes every
  /// mutation synchronously before its ack; > 0 batches all mutations of a
  /// window into one publish on a background thread.
  int window_ms = 0;
  /// Mutations allowed to wait for one publish before new ones are
  /// rejected as overloaded. 0 disables the cap.
  size_t max_pending = 4096;
  /// Enforce the distinct-coordinates invariant on insert (the
  /// duplicate_coordinate protocol error).
  bool require_distinct = false;
  /// How published snapshots are wrapped — mirror the server's serving
  /// options.
  QueryEngineOptions engine;
  ResultCacheOptions cache;
};

/// Point-in-time introspection of the write path, rendered by the server's
/// GET /debug/snapshot endpoint. A consistent read of the pipeline's state
/// under mu_ — values may be stale by the time the caller renders them.
struct MutationDebugState {
  uint64_t pending = 0;        ///< mutations applied but unpublished
  uint64_t pending_cells = 0;  ///< cells recomputed by those mutations
  bool shadow_seeded = false;  ///< a shadow diagram exists
  int64_t shadow_age_ms = 0;   ///< ms since the shadow was seeded (0 if none)
  bool publish_in_flight = false;  ///< a publish is between grab and Install
  uint64_t in_flight_generation = 0;  ///< its target generation (else 0)
  /// Request id of the first pending mutation ("" when none carried one) —
  /// the request a windowed publish is coalescing on behalf of.
  std::string pending_rid;
  int window_ms = 0;        ///< configured coalescing window
  uint64_t max_pending = 0;  ///< configured backlog cap (0 = unlimited)
};

/// One mutation's acknowledgement.
struct MutationAck {
  /// Generation serving the mutation (synchronous publish) or a lower
  /// bound on it (deferred publish; see the header comment).
  uint64_t generation = 0;
  /// The inserted point's id (inserts only; Delete leaves it 0).
  PointId point = 0;
};

/// The write path. Thread-safe; `registry` and `metrics` must outlive it.
class MutationPipeline {
 public:
  MutationPipeline(SnapshotRegistry* registry, ServerMetrics* metrics,
                   const MutationPipelineOptions& options);
  ~MutationPipeline();

  MutationPipeline(const MutationPipeline&) = delete;
  MutationPipeline& operator=(const MutationPipeline&) = delete;

  /// Applies one insert to the shadow diagram. Errors (outside the domain,
  /// duplicated coordinate under require_distinct, backlog full,
  /// unsupported snapshot family) leave the shadow unchanged.
  StatusOr<MutationAck> Insert(const Point2D& p,
                               std::optional<std::string> label)
      SKYDIA_EXCLUDES(publish_mu_, mu_);

  /// Applies one delete. `point` is validated against the shadow dataset
  /// (NotFound -> the unknown_point protocol error). Ids above it shift
  /// down by one, exactly like IncrementalQuadrantDiagram::Delete.
  StatusOr<MutationAck> Delete(int64_t point)
      SKYDIA_EXCLUDES(publish_mu_, mu_);

  /// Publishes everything pending now (no-op when nothing is pending) and
  /// returns the current generation afterwards.
  uint64_t Flush() SKYDIA_EXCLUDES(publish_mu_, mu_);

  /// Drops the shadow and all unpublished mutations; the next mutation
  /// re-seeds from the registry's then-current snapshot. Waits out an
  /// in-flight publish first, so nothing grabbed from the pre-reset shadow
  /// installs afterwards. For a reload, use ReloadAndReset instead: the
  /// registry swap itself must happen under the same publish exclusion.
  void Reset() SKYDIA_EXCLUDES(publish_mu_, mu_);

  /// Runs `swap_registry` — a callback that swaps the registry's snapshot,
  /// typically SnapshotRegistry::Reload — serialized against publishes,
  /// then on success drops the shadow exactly like Reset(). Holding the
  /// publish lock across swap + reset closes the race where a publish that
  /// grabbed pre-reload shadow state installs *after* the reload with a
  /// higher generation, silently reverting the reloaded data.
  Status ReloadAndReset(const std::function<Status()>& swap_registry)
      SKYDIA_EXCLUDES(publish_mu_, mu_);

  /// Mutations applied but not yet published.
  uint64_t pending() const SKYDIA_EXCLUDES(mu_);

  /// Consistent snapshot of the pipeline's state for /debug/snapshot.
  MutationDebugState DebugState() const SKYDIA_EXCLUDES(mu_);

  /// Stops the publisher thread without publishing what is pending.
  /// Idempotent; also run by the destructor.
  void Stop() SKYDIA_EXCLUDES(mu_);

 private:
  /// Seeds the shadow when absent by adopting the registry's current
  /// snapshot (no build, no copy); global snapshots are rejected.
  Status EnsureShadowLocked() SKYDIA_REQUIRES(mu_);
  /// Reset()'s body, for callers already holding the locks.
  void ResetLocked() SKYDIA_REQUIRES(mu_);
  /// Serialized grab-build-install of the shadow's current state. Returns
  /// the generation current after the call (published or pre-existing).
  uint64_t Publish() SKYDIA_EXCLUDES(publish_mu_, mu_);
  void PublisherLoop() SKYDIA_EXCLUDES(publish_mu_, mu_);

  SnapshotRegistry* registry_;
  ServerMetrics* metrics_;
  MutationPipelineOptions options_;

  mutable Mutex mu_;
  /// Exactly one of the two shadows is set once seeded (quadrant cell vs
  /// dynamic subcell family, chosen by the seeding snapshot).
  std::unique_ptr<IncrementalQuadrantDiagram> quadrant_ SKYDIA_GUARDED_BY(mu_);
  std::unique_ptr<IncrementalDynamicDiagram> dynamic_ SKYDIA_GUARDED_BY(mu_);
  std::string source_path_ SKYDIA_GUARDED_BY(mu_);
  uint64_t pending_ SKYDIA_GUARDED_BY(mu_) = 0;
  uint64_t pending_cells_ SKYDIA_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point first_pending_ SKYDIA_GUARDED_BY(mu_);
  /// Request-context token of the first pending mutation (0 = none). The
  /// publish that drains the batch runs its span under this context, so a
  /// windowed publish traces back to the request that opened the window.
  uint64_t pending_ctx_ SKYDIA_GUARDED_BY(mu_) = 0;
  /// When the shadow was seeded (meaningful only while one exists).
  std::chrono::steady_clock::time_point seeded_at_ SKYDIA_GUARDED_BY(mu_);
  bool stop_ SKYDIA_GUARDED_BY(mu_) = false;
  std::condition_variable cv_;

  /// True between a publish's state grab and its Install;
  /// `in_flight_generation_` is the generation that publish will install
  /// at — exact, because every Install in a serving process happens under
  /// publish_mu_ (publishes here, reloads via ReloadAndReset). A deferred
  /// ack issued during that span must exceed it: the in-flight publish
  /// grabbed state from before the mutation, so the generation it installs
  /// does not contain the write.
  bool publish_in_flight_ SKYDIA_GUARDED_BY(mu_) = false;
  uint64_t in_flight_generation_ SKYDIA_GUARDED_BY(mu_) = 0;

  /// Serializes publishes so an older grab can never Install() after a
  /// newer one. Acquired before mu_ (grab happens under both, the
  /// build+install under publish_mu_ alone so writers keep applying).
  Mutex publish_mu_;

  std::thread publisher_;  ///< only started when window_ms > 0
};

}  // namespace skydia::serve

#endif  // SKYDIA_SRC_SERVE_MUTATION_PIPELINE_H_
