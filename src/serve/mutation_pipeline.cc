#include "src/serve/mutation_pipeline.h"

#include <algorithm>
#include <utility>

#include "src/common/trace.h"
#include "src/core/diagram.h"

namespace skydia::serve {

MutationPipeline::MutationPipeline(SnapshotRegistry* registry,
                                   ServerMetrics* metrics,
                                   const MutationPipelineOptions& options)
    : registry_(registry), metrics_(metrics), options_(options) {
  if (options_.window_ms > 0) {
    publisher_ = std::thread([this] { PublisherLoop(); });
  }
}

MutationPipeline::~MutationPipeline() { Stop(); }

void MutationPipeline::Stop() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (publisher_.joinable()) publisher_.join();
}

Status MutationPipeline::EnsureShadowLocked() {
  if (quadrant_ != nullptr || dynamic_ != nullptr) return Status::OK();
  const auto snapshot = registry_->Current();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no snapshot installed");
  }
  IncrementalOptions options;
  options.require_distinct_coordinates = options_.require_distinct;
  // The shadow adopts the served objects: it starts as the very diagram
  // readers see, with nothing rebuilt or copied. Mutations replace the
  // shadow's pointers and never write through them, so the snapshot keeps
  // serving what it served.
  const ServableDiagram& served = *snapshot->diagram;
  if (served.subcell_diagram() != nullptr) {
    auto shadow = IncrementalDynamicDiagram::Adopt(
        served.shared_dataset(), served.shared_subcell_diagram(), options);
    if (!shadow.ok()) return shadow.status();
    dynamic_ =
        std::make_unique<IncrementalDynamicDiagram>(std::move(*shadow));
  } else {
    if (served.type() == SkylineQueryType::kGlobal) {
      return Status::InvalidArgument(
          "mutations are not supported for global semantics");
    }
    auto shadow = IncrementalQuadrantDiagram::Adopt(
        served.shared_dataset(), served.shared_cell_diagram(), options);
    if (!shadow.ok()) return shadow.status();
    quadrant_ =
        std::make_unique<IncrementalQuadrantDiagram>(std::move(*shadow));
  }
  source_path_ = snapshot->source_path;
  seeded_at_ = std::chrono::steady_clock::now();
  return Status::OK();
}

StatusOr<MutationAck> MutationPipeline::Insert(
    const Point2D& p, std::optional<std::string> label) {
  SKYDIA_TRACE_SPAN("mutation.apply");
  MutationAck ack;
  bool publish_now = false;
  bool first_pending = false;
  {
    MutexLock lock(mu_);
    if (Status seeded = EnsureShadowLocked(); !seeded.ok()) {
      metrics_->mutation_failures.fetch_add(1, std::memory_order_relaxed);
      return seeded;
    }
    if (options_.max_pending > 0 && pending_ >= options_.max_pending) {
      metrics_->mutation_failures.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "mutation backlog full (" + std::to_string(pending_) +
          " pending); flush or retry");
    }
    StatusOr<PointId> id = quadrant_ != nullptr
                               ? quadrant_->Insert(p, std::move(label))
                               : dynamic_->Insert(p, std::move(label));
    if (!id.ok()) {
      metrics_->mutation_failures.fetch_add(1, std::memory_order_relaxed);
      return id.status();
    }
    ack.point = *id;
    pending_cells_ += quadrant_ != nullptr
                          ? quadrant_->last_insert_recomputed_cells()
                          : dynamic_->last_insert_recomputed_subcells();
    first_pending = pending_ == 0;
    if (first_pending) {
      first_pending_ = std::chrono::steady_clock::now();
      pending_ctx_ = trace::CurrentRequestContext();
    }
    ++pending_;
    metrics_->mutation_pending.store(pending_, std::memory_order_relaxed);
    metrics_->mutation_inserts.fetch_add(1, std::memory_order_relaxed);
    publish_now = options_.window_ms <= 0;
    // Deferred lower bound. When a publish is between its grab and its
    // Install, its generation does not contain this mutation (the grab
    // predates the apply), so the first generation guaranteed to is the
    // one after it; otherwise the next install is the including one.
    ack.generation = publish_in_flight_ ? in_flight_generation_ + 1
                                        : registry_->generation() + 1;
  }
  if (publish_now) {
    ack.generation = Publish();
  } else if (first_pending) {
    cv_.notify_all();  // arm the publisher's window deadline
  }
  return ack;
}

StatusOr<MutationAck> MutationPipeline::Delete(int64_t point) {
  SKYDIA_TRACE_SPAN("mutation.apply");
  MutationAck ack;
  bool publish_now = false;
  bool first_pending = false;
  {
    MutexLock lock(mu_);
    if (Status seeded = EnsureShadowLocked(); !seeded.ok()) {
      metrics_->mutation_failures.fetch_add(1, std::memory_order_relaxed);
      return seeded;
    }
    if (options_.max_pending > 0 && pending_ >= options_.max_pending) {
      metrics_->mutation_failures.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "mutation backlog full (" + std::to_string(pending_) +
          " pending); flush or retry");
    }
    const size_t size = quadrant_ != nullptr ? quadrant_->dataset().size()
                                             : dynamic_->dataset().size();
    if (point < 0 || static_cast<uint64_t>(point) >= size) {
      metrics_->mutation_failures.fetch_add(1, std::memory_order_relaxed);
      return Status::NotFound("unknown point id " + std::to_string(point));
    }
    const auto id = static_cast<PointId>(point);
    Status applied =
        quadrant_ != nullptr ? quadrant_->Delete(id) : dynamic_->Delete(id);
    if (!applied.ok()) {
      metrics_->mutation_failures.fetch_add(1, std::memory_order_relaxed);
      return applied;
    }
    pending_cells_ += quadrant_ != nullptr
                          ? quadrant_->last_delete_recomputed_cells()
                          : dynamic_->last_delete_recomputed_subcells();
    first_pending = pending_ == 0;
    if (first_pending) {
      first_pending_ = std::chrono::steady_clock::now();
      pending_ctx_ = trace::CurrentRequestContext();
    }
    ++pending_;
    metrics_->mutation_pending.store(pending_, std::memory_order_relaxed);
    metrics_->mutation_deletes.fetch_add(1, std::memory_order_relaxed);
    publish_now = options_.window_ms <= 0;
    // Deferred lower bound. When a publish is between its grab and its
    // Install, its generation does not contain this mutation (the grab
    // predates the apply), so the first generation guaranteed to is the
    // one after it; otherwise the next install is the including one.
    ack.generation = publish_in_flight_ ? in_flight_generation_ + 1
                                        : registry_->generation() + 1;
  }
  if (publish_now) {
    ack.generation = Publish();
  } else if (first_pending) {
    cv_.notify_all();
  }
  return ack;
}

uint64_t MutationPipeline::Flush() { return Publish(); }

void MutationPipeline::Reset() {
  // Excluding publish_mu_ waits out an in-flight publish first: state
  // grabbed from the pre-reset shadow is installed (or not) before the
  // reset, never after it.
  MutexLock publish_lock(publish_mu_);
  MutexLock lock(mu_);
  ResetLocked();
}

void MutationPipeline::ResetLocked() {
  quadrant_.reset();
  dynamic_.reset();
  source_path_.clear();
  pending_ = 0;
  pending_cells_ = 0;
  pending_ctx_ = 0;
  metrics_->mutation_pending.store(0, std::memory_order_relaxed);
}

Status MutationPipeline::ReloadAndReset(
    const std::function<Status()>& swap_registry) {
  // The registry swap and the shadow reset share one publish_mu_ critical
  // section: an in-flight publish completes its Install before the swap,
  // and any publish started afterwards finds pending_ == 0 and no-ops —
  // the reloaded snapshot can never be overwritten by pre-reload state.
  MutexLock publish_lock(publish_mu_);
  Status status = swap_registry();
  if (status.ok()) {
    MutexLock lock(mu_);
    ResetLocked();
  }
  return status;
}

uint64_t MutationPipeline::pending() const {
  MutexLock lock(mu_);
  return pending_;
}

MutationDebugState MutationPipeline::DebugState() const {
  MutationDebugState state;
  state.window_ms = options_.window_ms;
  state.max_pending = options_.max_pending;
  MutexLock lock(mu_);
  state.pending = pending_;
  state.pending_cells = pending_cells_;
  state.shadow_seeded = quadrant_ != nullptr || dynamic_ != nullptr;
  if (state.shadow_seeded) {
    state.shadow_age_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - seeded_at_)
                              .count();
  }
  state.publish_in_flight = publish_in_flight_;
  state.in_flight_generation = publish_in_flight_ ? in_flight_generation_ : 0;
  if (pending_ctx_ != 0) {
    state.pending_rid = trace::RequestIdForToken(pending_ctx_);
  }
  return state;
}

uint64_t MutationPipeline::Publish() {
  MutexLock publish_lock(publish_mu_);
  std::shared_ptr<const Dataset> dataset;
  std::shared_ptr<const CellDiagram> cell;
  std::shared_ptr<const SubcellDiagram> subcell;
  std::string source;
  uint64_t batch = 0;
  uint64_t cells = 0;
  uint64_t ctx = 0;
  {
    MutexLock lock(mu_);
    if (pending_ == 0) return registry_->generation();
    ctx = pending_ctx_;
    pending_ctx_ = 0;
    if (quadrant_ != nullptr) {
      dataset = quadrant_->shared_dataset();
      cell = quadrant_->shared_diagram();
    } else {
      dataset = dynamic_->shared_dataset();
      subcell = dynamic_->shared_diagram();
    }
    source = source_path_;
    batch = pending_;
    cells = pending_cells_;
    pending_ = 0;
    pending_cells_ = 0;
    metrics_->mutation_pending.store(0, std::memory_order_relaxed);
    // Every Install is serialized under publish_mu_, so this publish lands
    // at exactly generation + 1; record it so deferred acks issued while
    // the build runs bound past it (this grab does not contain them).
    in_flight_generation_ = registry_->generation() + 1;
    publish_in_flight_ = true;
  }
  // Build and install outside mu_: writers keep applying to the shadow
  // (its state is immutable snapshots; the grab above stays valid) and
  // readers keep serving the old snapshot until the Install swap.
  //
  // The publish span runs under the first pending mutation's request
  // context (when it carried one), so a windowed publish on the publisher
  // thread traces back to the request that opened the coalescing window.
  trace::ScopedRequestContext ctx_scope(
      ctx != 0 ? ctx : trace::CurrentRequestContext());
  SKYDIA_TRACE_SPAN("mutation.publish");
  const uint64_t start_ns = trace::NowNanos();
  ServableDiagram wrapped =
      cell != nullptr ? ServableDiagram::Wrap(std::move(dataset), cell,
                                              SkylineQueryType::kQuadrant,
                                              options_.engine)
                      : ServableDiagram::Wrap(std::move(dataset), subcell,
                                              options_.engine);
  const size_t points = wrapped.dataset().size();
  const uint64_t generation =
      registry_->Install(std::move(wrapped), std::move(source), options_.cache);
  {
    MutexLock lock(mu_);
    publish_in_flight_ = false;
  }
  const uint64_t publish_ns = trace::NowNanos() - start_ns;
  metrics_->RecordMutationPublish(publish_ns);
  metrics_->mutation_publishes.fetch_add(1, std::memory_order_relaxed);
  metrics_->mutation_cells_recomputed.fetch_add(cells,
                                                std::memory_order_relaxed);
  metrics_->mutation_last_publish_mutations.store(batch,
                                                  std::memory_order_relaxed);
  metrics_->mutation_last_publish_cells.store(cells,
                                              std::memory_order_relaxed);
  metrics_->mutation_last_publish_ns.store(publish_ns,
                                           std::memory_order_relaxed);
  metrics_->mutation_points_live.store(points, std::memory_order_relaxed);
  return generation;
}

void MutationPipeline::PublisherLoop() {
  const auto window =
      std::chrono::milliseconds(std::max(options_.window_ms, 1));
  for (;;) {
    bool due = false;
    {
      MutexLock lock(mu_);
      while (!stop_ && pending_ == 0) cv_.wait(lock.native());
      if (stop_) return;
      const auto deadline = first_pending_ + window;
      cv_.wait_until(lock.native(), deadline);
      if (stop_) return;
      due = pending_ > 0 && std::chrono::steady_clock::now() >= deadline;
    }
    if (due) Publish();
  }
}

}  // namespace skydia::serve
