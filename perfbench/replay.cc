// The traced run: the workload's inputs replayed through each layer's
// public functions, with spans recorded around every call into a layer, then
// reconciled against a live server and its /metrics.
//
// Per-reply layer costs (parse, locate, cache, render) are what the reactor
// spends on one closed-loop reply. Their sum against the live ns_per_reply
// leaves the residual: reactor, syscalls and batching.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <type_traits>

#include "perfbench/perf.h"
#include "src/core/build_report.h"
#include "src/core/incremental.h"
#include "src/core/incremental_dynamic.h"
#include "src/core/query_engine.h"
#include "src/core/serialize.h"
#include "src/serve/protocol.h"
#include "src/serve/result_cache.h"
#include "src/serve/snapshot_registry.h"

namespace skydia::perf {
namespace {

/// Queries replayed through the layers and then, in the same order on one
/// connection, through the live server.
constexpr uint64_t kReplayQueries = 131072;
constexpr uint64_t kTinyReplayQueries = 4096;
constexpr uint64_t kReplayRanges = 64;
constexpr uint64_t kReplayWritePairs = 8;
/// Per-request spans are kept for this many replayed queries (the batch
/// spans cover the rest).
constexpr uint64_t kRequestSpans = 32;
constexpr uint64_t kOracleStride = 1024;

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Median cost of reading the clock twice, subtracted from each
/// individually timed call.
uint64_t ClockOverheadNs() {
  std::vector<uint64_t> d;
  for (int i = 0; i < 1001; ++i) {
    const uint64_t a = NowNs();
    d.push_back(NowNs() - a);
  }
  return static_cast<uint64_t>(Quantile(&d, 0.5));
}

/// The server's cache key (src/serve/server.cc): set id, labels bit.
uint64_t CacheKey(SetId set) { return static_cast<uint64_t>(set) << 1; }

struct Layers {
  double parse_ns = 0;
  double locate_ns = 0;
  double lookup_ns = 0;
  double render_ns = 0;
  double insert_per_reply_ns = 0;
  uint64_t hits = 0;
  double Sum() const {
    return parse_ns + locate_ns + lookup_ns + render_ns + insert_per_reply_ns;
  }
};

/// Loads the blob and wraps it for serving, timing each step.
StatusOr<ServableDiagram> LoadAndWrap(const WorkloadSpec& spec,
                                      const std::string& blob,
                                      SpanRecorder* spans, uint32_t parent,
                                      MetricSet* m) {
  const bool dynamic = spec.type == SkylineQueryType::kDynamic;
  const uint32_t load = spans->Begin("core.serialize.load", parent);
  std::shared_ptr<const Dataset> dataset;
  std::shared_ptr<const CellDiagram> cells;
  std::shared_ptr<const SubcellDiagram> subcells;
  if (dynamic) {
    auto loaded = LoadSubcellDiagram(blob);
    if (!loaded.ok()) return loaded.status();
    dataset = std::make_shared<const Dataset>(std::move(loaded->dataset));
    subcells =
        std::make_shared<const SubcellDiagram>(std::move(loaded->diagram));
  } else {
    auto loaded = LoadCellDiagram(blob);
    if (!loaded.ok()) return loaded.status();
    dataset = std::make_shared<const Dataset>(std::move(loaded->dataset));
    cells = std::make_shared<const CellDiagram>(std::move(loaded->diagram));
  }
  spans->End(load);
  m->Set("core.serialize.load_s", Sec(spans->DurationNs(load)), "s");

  const uint32_t wrap = spans->Begin("core.point_location.index_build", parent);
  ServableDiagram servable =
      dynamic
          ? ServableDiagram::Wrap(dataset, subcells)
          : ServableDiagram::Wrap(dataset, cells, SkylineQueryType::kQuadrant);
  spans->End(wrap);
  m->Set("core.point_location.index_build_s", Sec(spans->DurationNs(wrap)),
         "s");
  return servable;
}

/// parse -> locate -> cache -> render over `queries`, the reactor's per-reply
/// work in the order the server does it.
Layers ReplayReplies(const QueryEngine& engine,
                     const std::vector<Point2D>& queries,
                     const Point2D& probe, AnswerCheck* check,
                     SpanRecorder* spans, uint32_t parent, MetricSet* m,
                     uint64_t* failed) {
  const uint64_t overhead = ClockOverheadNs();
  const double count = static_cast<double>(queries.size());
  Layers layers;

  std::vector<std::string> lines;
  lines.reserve(queries.size());
  for (const Point2D& q : queries) {
    std::string line = QueryLine(q);
    line.pop_back();
    lines.push_back(std::move(line));
  }
  const uint32_t parse = spans->Begin("serve.protocol.parse", parent);
  uint64_t parse_errors = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    auto request = serve::ParseRequest(lines[i]);
    if (!request.ok() || request->query().q != queries[i]) ++parse_errors;
  }
  spans->End(parse);
  layers.parse_ns = static_cast<double>(spans->DurationNs(parse)) / count;
  *failed += parse_errors;

  std::vector<SetId> sets(queries.size());
  const uint32_t locate = spans->Begin("core.point_location.locate", parent);
  for (size_t i = 0; i < queries.size(); ++i) {
    sets[i] = engine.AnswerSetId(queries[i]);
  }
  spans->End(locate);
  layers.locate_ns = static_cast<double>(spans->DurationNs(locate)) / count;

  for (size_t i = 0; i < queries.size(); i += kOracleStride) {
    const auto want = check->Expected(queries[i]);
    const auto got = engine.Get(sets[i]);
    if (want.has_value() &&
        !std::equal(want->begin(), want->end(), got.begin(), got.end())) {
      ++*failed;
    }
  }

  // The live server's cache saw the set-up's probe query first.
  serve::ResultCache cache;
  cache.Insert(CacheKey(engine.AnswerSetId(probe)),
               serve::RenderIdsArray(engine.Get(engine.AnswerSetId(probe))));
  const uint32_t serve_span = spans->Begin("serve.result_cache+render", parent);
  uint64_t lookup_sum = 0;
  uint64_t render_sum = 0;
  uint64_t insert_sum = 0;
  uint64_t inserts = 0;
  uint64_t ids = 0;
  uint64_t bytes = 0;
  std::string cached;
  std::string out;
  const auto net = [overhead](uint64_t a, uint64_t b) {
    return b - a > overhead ? b - a - overhead : 0;
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string rid =
        "s" + std::to_string(1000 + i / kPipeline) + "." +
        std::to_string(i % kPipeline);
    out.clear();
    const uint64_t key = CacheKey(sets[i]);
    const uint64_t t0 = NowNs();
    const bool hit = cache.Lookup(key, &cached);
    const uint64_t t1 = NowNs();
    uint64_t t2 = t1;
    uint64_t t3 = t1;
    uint64_t t4 = t1;
    if (hit) {
      ++layers.hits;
      t2 = NowNs();
      serve::AppendQueryReply(std::nullopt, 1, "ids", cached, &out, rid);
      t3 = NowNs();
      t4 = t3;
    } else {
      t2 = NowNs();
      const auto members = engine.Get(sets[i]);
      std::string array = serve::RenderIdsArray(members);
      serve::AppendQueryReply(std::nullopt, 1, "ids", array, &out, rid);
      t3 = NowNs();
      cache.Insert(key, std::move(array));
      t4 = NowNs();
      insert_sum += net(t3, t4);
      ++inserts;
    }
    lookup_sum += net(t0, t1);
    render_sum += net(t2, t3);
    ids += engine.Get(sets[i]).size();
    bytes += out.size();
    if (i < kRequestSpans) {
      const int64_t request_id = static_cast<int64_t>(i);
      const uint32_t req =
          spans->Add("request", t0, t4, serve_span, request_id);
      spans->Add("serve.result_cache.lookup", t0, t1, req, request_id);
      spans->Add(hit ? "serve.protocol.append" : "serve.protocol.render", t2,
                 t3, req, request_id);
      if (!hit) {
        spans->Add("serve.result_cache.insert", t3, t4, req, request_id);
      }
    }
  }
  spans->End(serve_span);
  layers.lookup_ns = static_cast<double>(lookup_sum) / count;
  layers.render_ns = static_cast<double>(render_sum) / count;
  layers.insert_per_reply_ns = static_cast<double>(insert_sum) / count;

  m->Set("serve.protocol.parse_ns", layers.parse_ns, "ns");
  m->Set("core.point_location.locate_ns", layers.locate_ns, "ns");
  m->Set("serve.result_cache.hit_ratio",
         static_cast<double>(layers.hits) / count, "ratio");
  m->Set("serve.result_cache.lookup_ns", layers.lookup_ns, "ns");
  m->Set("serve.result_cache.insert_ns",
         inserts == 0 ? 0 : static_cast<double>(insert_sum) /
                                static_cast<double>(inserts),
         "ns");
  m->Set("serve.result_cache.evictions",
         static_cast<double>(cache.Stats().evictions), "count");
  m->Set("skyline.interning.ids_per_reply", static_cast<double>(ids) / count,
         "count");
  m->Set("serve.protocol.render_ns", layers.render_ns, "ns");
  m->Set("serve.protocol.reply_bytes", static_cast<double>(bytes) / count,
         "bytes");
  return layers;
}

void ReplayRanges(const QueryEngine& engine, uint64_t seed, SpanRecorder* spans,
                  uint32_t parent, MetricSet* m, uint64_t* failed) {
  uint64_t total_ns = 0;
  uint64_t cells = 0;
  const PointLocationIndex& index = engine.index();
  for (uint64_t j = 0; j < kReplayRanges; ++j) {
    const QueryRange r = RangeAt(StreamPoint(seed, kRangeStream, j));
    const auto lo = index.Locate(Point2D{r.x_lo, r.y_lo});
    const auto hi = index.Locate(Point2D{r.x_hi, r.y_hi});
    cells += uint64_t{hi.cx - lo.cx + 1} * (hi.cy - lo.cy + 1);
    const uint32_t span = spans->Begin("core.range_query", parent,
                                       static_cast<int64_t>(j));
    const auto summary = engine.AnswerRange(r);
    spans->End(span);
    total_ns += spans->DurationNs(span);
    if (!summary.ok()) ++*failed;
  }
  m->Set("core.range_query.ns",
         static_cast<double>(total_ns) / kReplayRanges, "ns");
  m->Set("core.range_query.cells_swept",
         static_cast<double>(cells) / kReplayRanges, "count");
}

/// Seeds the shadow diagram and replays insert/delete pairs, publishing
/// each mutation like the synchronous pipeline: apply, wrap, install.
template <typename Incremental>
void ReplayWrites(Dataset dataset, uint64_t seed, bool corner,
                  SpanRecorder* spans, uint32_t parent, MetricSet* m,
                  uint64_t* failed) {
  const uint32_t seed_span = spans->Begin("core.incremental.seed", parent);
  auto shadow = Incremental::Create(std::move(dataset));
  spans->End(seed_span);
  m->Set("core.incremental.seed_s", Sec(spans->DurationNs(seed_span)), "s");
  if (!shadow.ok()) {
    ++*failed;
    return;
  }
  serve::SnapshotRegistry registry;
  std::vector<double> apply_ms;
  std::vector<double> wrap_ms;
  std::vector<double> install_us;
  uint64_t cells = 0;
  const auto publish = [&](int64_t rid) {
    const uint32_t wrap =
        spans->Begin("core.point_location.publish_index", parent, rid);
    ServableDiagram servable = [&] {
      if constexpr (std::is_same_v<Incremental, IncrementalDynamicDiagram>) {
        return ServableDiagram::Wrap(shadow->shared_dataset(),
                                     shadow->shared_diagram());
      } else {
        return ServableDiagram::Wrap(shadow->shared_dataset(),
                                     shadow->shared_diagram(),
                                     SkylineQueryType::kQuadrant);
      }
    }();
    spans->End(wrap);
    wrap_ms.push_back(Ms(spans->DurationNs(wrap)));
    const uint32_t install =
        spans->Begin("serve.snapshot_registry.install", parent, rid);
    registry.Install(std::move(servable), "");
    spans->End(install);
    install_us.push_back(static_cast<double>(spans->DurationNs(install)) / 1e3);
  };
  const auto recomputed = [&](bool insert) -> uint64_t {
    if constexpr (std::is_same_v<Incremental, IncrementalDynamicDiagram>) {
      return insert ? shadow->last_insert_recomputed_subcells()
                    : shadow->last_delete_recomputed_subcells();
    } else {
      return insert ? shadow->last_insert_recomputed_cells()
                    : shadow->last_delete_recomputed_cells();
    }
  };
  for (uint64_t j = 0; j < kReplayWritePairs; ++j) {
    const int64_t rid = static_cast<int64_t>(j);
    uint32_t span = spans->Begin("core.incremental.insert", parent, rid);
    auto id = shadow->Insert(WritePoint(corner, seed, j));
    spans->End(span);
    apply_ms.push_back(Ms(spans->DurationNs(span)));
    if (!id.ok()) {
      ++*failed;
      continue;
    }
    cells += recomputed(true);
    publish(rid);
    span = spans->Begin("core.incremental.delete", parent, rid);
    const Status deleted = shadow->Delete(*id);
    spans->End(span);
    apply_ms.push_back(Ms(spans->DurationNs(span)));
    if (!deleted.ok()) ++*failed;
    cells += recomputed(false);
    publish(rid);
  }
  const double ops = 2.0 * kReplayWritePairs;
  m->Set("core.incremental.apply_ms", Quantile(&apply_ms, 0.5), "ms");
  m->Set("core.incremental.cells_recomputed",
         static_cast<double>(cells) / ops, "count");
  m->Set("core.point_location.publish_index_ms", Quantile(&wrap_ms, 0.5),
         "ms");
  m->Set("serve.snapshot_registry.install_us", Quantile(&install_us, 0.5),
         "us");
}

struct LiveCounters {
  double hits = 0;
  double misses = 0;
  double queries = 0;
};

LiveCounters Scrape(int port) {
  const std::string payload = ScrapeMetrics(port);
  LiveCounters c;
  c.hits = MetricValue(payload, "skydia_cache_hits_total").value_or(-1);
  c.misses = MetricValue(payload, "skydia_cache_misses_total").value_or(-1);
  c.queries = MetricValue(payload, "skydia_queries_served_total").value_or(-1);
  return c;
}

/// Sends `queries` in order on one connection, kPipeline per burst.
uint64_t SendInOrder(int port, const std::vector<Point2D>& queries) {
  const int fd = Dial(port);
  if (fd < 0) return queries.size();
  uint64_t bad = 0;
  std::string in;
  char buf[1 << 16];
  for (size_t i = 0; i < queries.size(); i += kPipeline) {
    const size_t end = std::min(queries.size(), i + kPipeline);
    std::string burst;
    for (size_t j = i; j < end; ++j) burst.append(QueryLine(queries[j]));
    if (::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(burst.size())) {
      ::close(fd);
      return bad + (queries.size() - i);
    }
    size_t replies = 0;
    while (replies < end - i) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        ::close(fd);
        return bad + (queries.size() - i - replies);
      }
      in.append(buf, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl; (nl = in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        if (in.compare(start, 7, "{\"gen\":") != 0) ++bad;
        ++replies;
      }
      in.erase(0, start);
    }
  }
  ::close(fd);
  return bad;
}

}  // namespace

uint64_t RunTraced(const WorkloadSpec& spec, uint64_t seed,
                   const std::string& work_dir, const TracedOptions& options,
                   MetricSet* m, uint64_t* attempted) {
  SpanRecorder spans;
  uint64_t failed = 0;
  const uint32_t root = spans.Begin("traced_run");
  const std::string blob = work_dir + "/" + spec.name + ".traced.skd";

  // Set-up, layer by layer.
  const uint32_t setup = spans.Begin("setup", root);
  uint32_t span = spans.Begin("datagen.generate", setup);
  auto dataset = MakeDataset(spec, seed);
  spans.End(span);
  m->Set("datagen.generate_s", Sec(spans.DurationNs(span)), "s");
  if (!dataset.ok()) return 1;
  {
    BuildReport report;
    SkylineBuildOptions build_options;
    build_options.report = &report;
    span = spans.Begin("core.build", setup);
    auto diagram = SkylineDiagram::Build(*dataset, spec.type, build_options);
    spans.End(span);
    if (!diagram.ok()) return 1;
    m->Set("core.build.s", Sec(spans.DurationNs(span)), "s");
    m->Set("core.build.cells", static_cast<double>(report.num_cells), "count");
    m->Set("core.build.distinct_sets",
           static_cast<double>(report.num_distinct_sets), "count");
    m->Set("core.build.arena_bytes", static_cast<double>(report.arena_bytes),
           "bytes");
    span = spans.Begin("core.serialize.save", setup);
    const Status saved =
        spec.type == SkylineQueryType::kDynamic
            ? SaveSubcellDiagram(diagram->dataset(),
                                 *diagram->subcell_diagram(), blob)
            : SaveCellDiagram(diagram->dataset(), *diagram->cell_diagram(),
                              blob);
    spans.End(span);
    if (!saved.ok()) return 1;
    m->Set("core.serialize.save_s", Sec(spans.DurationNs(span)), "s");
    std::error_code ec;
    m->Set("core.serialize.blob_bytes",
           static_cast<double>(std::filesystem::file_size(blob, ec)), "bytes");
  }

  // The closed-loop stream, replayed layer by layer.
  AnswerCheck check(spec, *dataset);
  const uint64_t replay_count =
      options.tiny ? kTinyReplayQueries : kReplayQueries;
  std::vector<Point2D> queries;
  for (uint64_t k = 0; k < replay_count; ++k) {
    queries.push_back(StreamPoint(seed, kClosedStream, k));
  }
  const Point2D probe = StreamPoint(seed, kProbeStream, 0);
  Layers layers;
  {
    auto servable = LoadAndWrap(spec, blob, &spans, setup, m);
    spans.End(setup);
    if (!servable.ok()) return 1;
    const uint32_t replay = spans.Begin("replay", root);
    layers = ReplayReplies(servable->engine(), queries, probe, &check, &spans,
                           replay, m, &failed);
    ReplayRanges(servable->engine(), seed, &spans, replay, m, &failed);
    spans.End(replay);
  }
  *attempted += replay_count + kReplayRanges + 2 * kReplayWritePairs;
  const uint32_t writes = spans.Begin("writes", root);
  const bool corner = !spec.concurrent_writer;  // as the live writer does
  if (spec.type == SkylineQueryType::kDynamic) {
    ReplayWrites<IncrementalDynamicDiagram>(*dataset, seed, corner, &spans,
                                            writes, m, &failed);
  } else {
    ReplayWrites<IncrementalQuadrantDiagram>(*dataset, seed, corner, &spans,
                                             writes, m, &failed);
  }
  spans.End(writes);

  // The live server: the same stream in the same order must leave the same
  // cache counters; then the open and closed loops.
  const uint32_t live = spans.Begin("live", root);
  auto served = SetupOnce(spec, seed, blob);
  if (!served.ok()) return failed + 1;
  const int port = served->server->port();
  const LiveCounters before = Scrape(port);
  span = spans.Begin("live.in_order", live);
  failed += SendInOrder(port, queries);
  spans.End(span);
  *attempted += replay_count + 1;
  const LiveCounters after = Scrape(port);
  const double hits = after.hits - before.hits;
  const double lookups = hits + after.misses - before.misses;
  const double served_queries = after.queries - before.queries;
  const double replayed = static_cast<double>(replay_count);
  const bool agree = lookups == replayed && served_queries == replayed &&
                     hits == static_cast<double>(layers.hits);
  std::printf("reconcile: replay %llu lookups %llu hits | server /metrics "
              "%.0f lookups %.0f hits %.0f queries_served -> %s\n",
              static_cast<unsigned long long>(replay_count),
              static_cast<unsigned long long>(layers.hits), lookups, hits,
              served_queries, agree ? "agree" : "DISAGREE");
  if (!agree) ++failed;
  m->Set("serve.result_cache.live_hit_ratio",
         lookups > 0 ? hits / lookups : 0, "ratio");

  PhasePlan open_plan;
  open_plan.read_connections =
      spec.read_connections - (spec.range_rate > 0 ? 1 : 0);
  open_plan.rate = spec.open_rate;
  open_plan.range_rate = spec.range_rate;
  open_plan.warmup_s = 0.2;
  open_plan.measure_s = std::max(0.5, options.seconds * 0.1);
  uint64_t write_index = 0;
  span = spans.Begin("live.open_loop", live);
  PhaseResult open = RunPhase(port, seed, open_plan, &write_index);
  spans.End(span);
  m->Set("loadgen.late_p99_us", Quantile(&open.late_ns, 0.99) / 1e3, "us");

  const serve::ServerMetrics& sm = served->server->metrics();
  const auto batches = [&sm] {
    return sm.inline_batches.load() + sm.worker_batches.load();
  };
  const uint64_t requests0 = sm.requests_total.load();
  const uint64_t batches0 = batches();
  PhasePlan closed_plan;
  closed_plan.open_loop = false;
  closed_plan.read_connections = spec.read_connections;
  closed_plan.first_k = replay_count;
  closed_plan.warmup_s = 0.2;
  closed_plan.measure_s = std::max(0.5, options.seconds * 0.2);
  span = spans.Begin("live.closed_loop", live);
  PinServerThreads(true);
  PhaseResult closed = RunPhase(port, seed, closed_plan, &write_index);
  PinServerThreads(false);
  spans.End(span);
  const uint64_t requests = sm.requests_total.load() - requests0;
  const uint64_t recv_batches = batches() - batches0;
  served->server->Stop();
  spans.End(live);
  spans.End(root);
  failed += open.failed() + closed.failed();
  *attempted += open.attempted + closed.attempted;

  const double rate = ClosedRate(closed);
  const double ns_per_reply = rate == 0 ? 0 : 1e9 / rate;
  const double residual = ns_per_reply - layers.Sum();
  m->Set("serve.server.ns_per_reply", ns_per_reply, "ns");
  m->Set("serve.server.layer_sum_ns_per_reply", layers.Sum(), "ns");
  m->Set("serve.server.residual_ns_per_reply", residual, "ns");
  m->Set("serve.server.replies_per_recv",
         recv_batches == 0 ? 0
                           : static_cast<double>(requests) /
                                 static_cast<double>(recv_batches),
         "count");
  std::printf("per reply (closed loop): ns_per_reply %.1f = layer sum %.1f "
              "[parse %.1f + locate %.1f + cache lookup %.1f + render %.1f + "
              "cache insert %.1f] + residual %.1f (reactor, syscalls, "
              "batching)\n",
              ns_per_reply, layers.Sum(), layers.parse_ns, layers.locate_ns,
              layers.lookup_ns, layers.render_ns, layers.insert_per_reply_ns,
              residual);

  if (!options.trace_out.empty()) {
    const Status written = spans.WriteChromeTrace(options.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      ++failed;
    }
  }
  return failed;
}

}  // namespace skydia::perf
