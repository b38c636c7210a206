// skydia command-line tool: generate workloads, build/save/load diagrams,
// answer queries, dump structure statistics and render SVG visualizations.
//
// Usage:
//   skydia generate --n 256 --domain 1024 --dist independent --seed 1
//          --out points.csv
//   skydia build   --in points.csv --x x --y y --type quadrant
//          [--algo auto] [--threads 1] [--report] [--trace out.json]
//          --out diagram.skd
//   skydia query   diagram.skd points.csv [--threads T] [--exact]
//          [--semantics quadrant|global] [--stats] [--bench [--repeat R]]
//          [--trace out.json] [--batch-threshold N]
//   skydia query   diagram.skd --qx 10 --qy 80 [--exact]
//   skydia serve   diagram.skd [--port 7447] [--threads T] [--workers W]
//          [--trace [f.json]] [--slow-query-ms MS]
//   skydia stats   --diagram diagram.skd
//   skydia check   diagram.skd [--samples 64] [--seed 1]
//   skydia render  --diagram diagram.skd --out diagram.svg [--labels]
//
// Exit code 0 on success; errors print to stderr.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/common/csv.h"
#include "src/common/timer.h"
#include "src/common/trace.h"
#include "src/core/build_report.h"
#include "src/core/diagram.h"
#include "src/core/merge.h"
#include "src/core/query_engine.h"
#include "src/core/render_svg.h"
#include "src/core/serialize.h"
#include "src/core/validate.h"
#include "src/datagen/distributions.h"
#include "src/datagen/real_data.h"
#include "src/serve/server.h"
#include "src/skyline/query.h"

namespace skydia {
namespace {

// --- tiny flag parser --------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = "unexpected positional argument: " + arg;
        return;
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";  // boolean flag
      }
    }
  }

  const std::string& error() const { return error_; }

  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& name, int64_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }
  bool GetBool(const std::string& name) const {
    const auto it = values_.find(name);
    return it != values_.end() && it->second != "false";
  }
  bool Has(const std::string& name) const { return values_.contains(name); }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

// --- tracing -----------------------------------------------------------------

/// Reads --trace and, when present, turns span collection on for the rest of
/// the command. `--trace out.json` names the Chrome-trace output file; a bare
/// `--trace` collects spans for the text summary only. Returns the output
/// path ("" when none was given).
std::string EnableTraceIfRequested(const Flags& flags) {
  if (!flags.Has("trace")) return "";
  trace::SetEnabled(true);
  const std::string path = flags.GetString("trace");
  return path == "true" ? "" : path;
}

/// Writes the collected spans as Chrome trace-event JSON (open it at
/// ui.perfetto.dev or chrome://tracing) and prints the text summary to
/// stderr. No-op when tracing was not requested.
int FinishTrace(const std::string& trace_path) {
  if (!trace::Enabled()) return 0;
  const trace::TraceSnapshot snapshot = trace::Collect();
  if (!trace_path.empty()) {
    if (Status s = trace::WriteChromeTrace(snapshot, trace_path); !s.ok()) {
      return Fail(s.ToString());
    }
  }
  std::cerr << trace::RenderTextSummary(snapshot);
  if (!trace_path.empty()) {
    std::cerr << "wrote trace to " << trace_path << "\n";
  }
  return 0;
}

void PrintUsage() {
  std::cerr
      << "skydia — skyline diagrams for skyline queries\n\n"
         "commands:\n"
         "  generate --n N --domain S [--dist independent|correlated|\n"
         "           anticorrelated|clustered] [--seed K] [--distinct]\n"
         "           --out points.csv\n"
         "  build    --in points.csv [--x x --y y] --type quadrant|global|\n"
         "           dynamic [--algo auto|baseline|dsg|subset|scanning]\n"
         "           [--threads T] [--report] [--trace out.json]\n"
         "           --out diagram.skd  (--report prints per-phase timings;\n"
         "           --trace writes Chrome trace-event JSON for Perfetto)\n"
         "  query    <diagram.skd> [<points.csv>] [--qx X --qy Y]\n"
         "           [--x x --y y] [--threads T] [--exact] [--stats]\n"
         "           [--semantics quadrant|global] [--bench [--repeat R]]\n"
         "           [--trace out.json] [--batch-threshold N]\n"
         "  stats    --diagram diagram.skd\n"
         "  check    <diagram.skd> [--samples N] [--seed K]\n"
         "           [--allow-duplicate-sets]  (validate invariants;\n"
         "           non-zero exit on corruption)\n"
         "  serve    <diagram.skd> [--host H] [--port P] [--threads T]\n"
         "           [--workers W]\n"
         "           [--semantics quadrant|global] [--cache-entries N]\n"
         "           [--idle-timeout-ms MS] [--max-connections N]\n"
         "           [--slow-query-ms MS] [--mutation-window-ms MS]\n"
         "           [--mutation-max-pending N] [--trace [out.json]]\n"
         "           [--trace-sample N] [--trace-window-ms MS]\n"
         "           [--crash-trace out.json|none]\n"
         "           (line-JSON queries over TCP; insert/delete/flush\n"
         "           mutate the served snapshot, coalesced over the\n"
         "           mutation window; SIGHUP hot-swaps the snapshot;\n"
         "           GET /metrics, /healthz, /readyz, /debug/trace,\n"
         "           /debug/snapshot, /debug/connections on the same\n"
         "           port; the flight recorder samples every Nth span\n"
         "           (default 256, 0 disables) over the trace window\n"
         "           (default 10s) and dumps it to --crash-trace on a\n"
         "           fatal signal; --trace records every span and\n"
         "           flushes a summary on exit, even under SIGTERM)\n"
         "  render   --diagram diagram.skd --out out.svg [--labels]\n"
         "  hotels   (print the paper's Figure 1 example)\n";
}

// --- commands ----------------------------------------------------------------

int CmdGenerate(const Flags& flags) {
  DataGenOptions options;
  options.n = static_cast<size_t>(flags.GetInt("n", 256));
  options.domain_size = flags.GetInt("domain", 1024);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.distinct_coordinates = flags.GetBool("distinct");
  const std::string dist = flags.GetString("dist", "independent");
  if (dist == "independent") {
    options.distribution = Distribution::kIndependent;
  } else if (dist == "correlated") {
    options.distribution = Distribution::kCorrelated;
  } else if (dist == "anticorrelated") {
    options.distribution = Distribution::kAnticorrelated;
  } else if (dist == "clustered") {
    options.distribution = Distribution::kClustered;
  } else {
    return Fail("unknown --dist " + dist);
  }
  const std::string out = flags.GetString("out");
  if (out.empty()) return Fail("--out is required");

  auto dataset = GenerateDataset(options);
  if (!dataset.ok()) return Fail(dataset.status().ToString());

  CsvDocument doc;
  doc.rows.push_back({"label", "x", "y"});
  for (PointId id = 0; id < dataset->size(); ++id) {
    const Point2D& p = dataset->point(id);
    doc.rows.push_back(
        {dataset->label(id), std::to_string(p.x), std::to_string(p.y)});
  }
  if (Status s = WriteCsvFile(out, doc); !s.ok()) return Fail(s.ToString());
  std::cout << "wrote " << dataset->size() << " " << dist << " points to "
            << out << "\n";
  return 0;
}

int CmdBuild(const Flags& flags) {
  const std::string in = flags.GetString("in");
  const std::string out = flags.GetString("out");
  if (in.empty() || out.empty()) return Fail("--in and --out are required");

  auto dataset =
      LoadDatasetCsv(in, flags.GetString("x", "x"), flags.GetString("y", "y"));
  if (!dataset.ok()) return Fail(dataset.status().ToString());

  auto type = ParseSkylineQueryType(flags.GetString("type", "quadrant"));
  if (!type.ok()) return Fail(type.status().ToString());

  SkylineBuildOptions build;
  auto algo = ParseBuildAlgorithm(flags.GetString("algo", "auto"));
  if (!algo.ok()) return Fail(algo.status().ToString());
  build.algorithm = *algo;
  build.parallelism = static_cast<int>(flags.GetInt("threads", 1));

  const std::string trace_path = EnableTraceIfRequested(flags);
  // Always collected: the summary line names what actually ran.
  BuildReport report;
  build.report = &report;

  auto diagram = SkylineDiagram::Build(*std::move(dataset), *type, build);
  if (!diagram.ok()) return Fail(diagram.status().ToString());

  const Status saved =
      diagram->cell_diagram() != nullptr
          ? SaveCellDiagram(diagram->dataset(), *diagram->cell_diagram(), out)
          : SaveSubcellDiagram(diagram->dataset(),
                               *diagram->subcell_diagram(), out);
  if (!saved.ok()) return Fail(saved.ToString());
  std::cout << "built " << SkylineQueryTypeName(*type) << " diagram ("
            << report.algorithm << ", " << report.parallelism
            << " thread(s)) over " << diagram->dataset().size()
            << " points -> " << out << "\n";
  if (flags.GetBool("report") || trace::Enabled()) {
    std::cout << report.ToString();
  }
  return FinishTrace(trace_path);
}

// Loads the blob at `path` (either kind) and runs the matching callback.
int WithLoadedDiagram(const std::string& path,
                      const std::function<int(const LoadedCellDiagram*)>& cell,
                      const std::function<int(const LoadedSubcellDiagram*)>&
                          subcell) {
  if (path.empty()) return Fail("--diagram is required");
  auto loaded = LoadDiagram(path);
  if (!loaded.ok()) {
    return Fail("cannot load " + path + ": " + loaded.status().ToString());
  }
  if (const auto* as_cell = std::get_if<LoadedCellDiagram>(&*loaded)) {
    return cell(as_cell);
  }
  return subcell(&std::get<LoadedSubcellDiagram>(*loaded));
}

// Loads query points from a CSV with a header row naming columns `x_column`
// and `y_column`; extra columns are ignored.
StatusOr<std::vector<Point2D>> LoadQueryPoints(const std::string& path,
                                               const std::string& x_column,
                                               const std::string& y_column) {
  auto doc = ReadCsvFile(path);
  if (!doc.ok()) return doc.status();
  if (doc->rows.empty()) {
    return Status::InvalidArgument("query CSV has no header row: " + path);
  }
  const auto& header = doc->rows[0];
  size_t xi = header.size();
  size_t yi = header.size();
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == x_column) xi = i;
    if (header[i] == y_column) yi = i;
  }
  if (xi == header.size() || yi == header.size()) {
    return Status::InvalidArgument("query CSV columns not found: " + x_column +
                                   ", " + y_column);
  }
  const auto parse = [](const std::string& field, int64_t* out) {
    char* end = nullptr;
    *out = std::strtoll(field.c_str(), &end, 10);
    return end != field.c_str() && *end == '\0';
  };
  std::vector<Point2D> points;
  points.reserve(doc->rows.size() - 1);
  for (size_t r = 1; r < doc->rows.size(); ++r) {
    const auto& row = doc->rows[r];
    Point2D q;
    if (xi >= row.size() || yi >= row.size() || !parse(row[xi], &q.x) ||
        !parse(row[yi], &q.y)) {
      return Status::Corruption("bad query CSV row " + std::to_string(r) +
                                " in " + path);
    }
    points.push_back(q);
  }
  return points;
}

void PrintAnswer(const Dataset& dataset, const Point2D& q,
                 std::span<const PointId> ids) {
  std::cout << "skyline(" << q << ") = {";
  for (size_t i = 0; i < ids.size(); ++i) {
    std::cout << (i ? ", " : "") << dataset.label(ids[i]);
  }
  std::cout << "}\n";
}

void PrintEngineStats(const QueryEngine& engine) {
  const QueryEngineStats stats = engine.Stats();
  std::cout << "engine stats: served=" << stats.queries_served
            << " batches=" << stats.batches << " p50=" << stats.p50_latency_ns
            << "ns p99=" << stats.p99_latency_ns << "ns\n";
}

// Compares, over the same query stream: (a) from-scratch linear scans of the
// dataset, (b) per-query indexed lookups, (c) the batched parallel API.
int RunQueryBench(const ServableDiagram& servable,
                  const std::vector<Point2D>& points, int repeat) {
  if (points.empty()) return Fail("--bench needs a non-empty points CSV");
  if (repeat < 1) repeat = 1;
  const Dataset& dataset = servable.dataset();
  const QueryEngine& engine = servable.engine();
  const double total = static_cast<double>(points.size()) * repeat;

  uint64_t sink = 0;
  Timer timer;
  for (int r = 0; r < repeat; ++r) {
    for (const Point2D& q : points) {
      switch (engine.semantics()) {
        case SkylineQueryType::kQuadrant:
          sink += FirstQuadrantSkyline(dataset, q).size();
          break;
        case SkylineQueryType::kGlobal:
          sink += GlobalSkyline(dataset, q).size();
          break;
        case SkylineQueryType::kDynamic:
          sink += DynamicSkyline(dataset, q).size();
          break;
      }
    }
  }
  const double scan_ns = timer.ElapsedSeconds() * 1e9 / total;

  timer.Restart();
  for (int r = 0; r < repeat; ++r) {
    for (const Point2D& q : points) sink += engine.Answer(q).size();
  }
  const double single_ns = timer.ElapsedSeconds() * 1e9 / total;

  std::vector<SetId> out;
  timer.Restart();
  for (int r = 0; r < repeat; ++r) engine.AnswerBatch(points, &out);
  const double batch_ns = timer.ElapsedSeconds() * 1e9 / total;
  for (const SetId id : out) sink += id;

  std::cout << "bench: " << points.size() << " queries x " << repeat
            << " repeat(s), n=" << dataset.size() << " (sink " << sink
            << ")\n";
  const auto line = [&](const char* name, double ns) {
    std::cout << "  " << name << ": " << static_cast<int64_t>(ns)
              << " ns/query (" << scan_ns / (ns > 0 ? ns : 1) << "x)\n";
  };
  line("linear scan", scan_ns);
  line("index      ", single_ns);
  line("batched    ", batch_ns);
  PrintEngineStats(engine);
  return 0;
}

int CmdQuery(const Flags& flags,
             const std::vector<std::string>& positionals) {
  std::string path = flags.GetString("diagram");
  if (path.empty() && !positionals.empty()) path = positionals[0];
  if (path.empty()) {
    return Fail(
        "usage: skydia query <diagram.skd> [<points.csv>] [--qx X --qy Y]");
  }
  std::string points_path = flags.GetString("points");
  if (points_path.empty() && positionals.size() > 1) {
    points_path = positionals[1];
  }

  auto cell_semantics =
      ParseSkylineQueryType(flags.GetString("semantics", "quadrant"));
  if (!cell_semantics.ok()) return Fail(cell_semantics.status().ToString());
  if (*cell_semantics == SkylineQueryType::kDynamic) {
    return Fail("--semantics names the semantics a cell blob serves"
                " (quadrant|global); dynamic is inferred from subcell blobs");
  }

  const std::string trace_path = EnableTraceIfRequested(flags);

  QueryEngineOptions options;
  options.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  options.parallel_batch_threshold = static_cast<size_t>(flags.GetInt(
      "batch-threshold",
      static_cast<int64_t>(options.parallel_batch_threshold)));
  auto servable = ServableDiagram::Load(path, options, *cell_semantics);
  if (!servable.ok()) return Fail(servable.status().ToString());
  const QueryEngine& engine = servable->engine();
  const Dataset& dataset = servable->dataset();
  QueryOptions query_options;
  query_options.exact = flags.GetBool("exact");

  if (flags.Has("qx") || flags.Has("qy")) {
    if (!flags.Has("qx") || !flags.Has("qy")) {
      return Fail("--qx and --qy must be given together");
    }
    const Point2D q{flags.GetInt("qx", 0), flags.GetInt("qy", 0)};
    if (query_options.exact) {
      auto answer = engine.Answer(q, query_options);
      if (!answer.ok()) return Fail(answer.status().ToString());
      PrintAnswer(dataset, q, *answer);
    } else {
      PrintAnswer(dataset, q, engine.Answer(q));
    }
  } else if (points_path.empty()) {
    return Fail("provide <points.csv> (or --points), or --qx and --qy");
  }

  if (!points_path.empty()) {
    auto points = LoadQueryPoints(points_path, flags.GetString("x", "x"),
                                  flags.GetString("y", "y"));
    if (!points.ok()) return Fail(points.status().ToString());
    if (flags.GetBool("bench")) {
      const int repeat = static_cast<int>(flags.GetInt("repeat", 3));
      const int rc = RunQueryBench(*servable, *points, repeat);
      if (rc != 0) return rc;
    } else if (query_options.exact) {
      auto answers = engine.AnswerBatch(*points, query_options);
      if (!answers.ok()) return Fail(answers.status().ToString());
      for (size_t i = 0; i < points->size(); ++i) {
        PrintAnswer(dataset, (*points)[i], (*answers)[i]);
      }
    } else {
      std::vector<SetId> out;
      engine.AnswerBatch(*points, &out);
      for (size_t i = 0; i < points->size(); ++i) {
        PrintAnswer(dataset, (*points)[i], engine.Get(out[i]));
      }
    }
  }

  if (flags.GetBool("stats")) PrintEngineStats(engine);
  return FinishTrace(trace_path);
}

int CmdStats(const Flags& flags) {
  return WithLoadedDiagram(
      flags.GetString("diagram"),
      [&](const LoadedCellDiagram* loaded) {
        const auto stats = loaded->diagram.ComputeStats();
        const MergedPolyominoes merged = MergeCells(loaded->diagram);
        std::cout << "kind: cell diagram (quadrant/global)\n"
                  << "points: " << loaded->dataset.size() << "\n"
                  << "domain: " << loaded->dataset.domain_size() << "\n"
                  << "cells: " << stats.num_cells << "\n"
                  << "polyominoes: " << merged.num_polyominoes() << "\n"
                  << "distinct results: " << stats.num_distinct_sets << "\n"
                  << "result elements: " << stats.total_set_elements << "\n"
                  << "arena bytes: " << stats.pool_bytes << "\n"
                  << "approx bytes: " << stats.approx_bytes << "\n";
        return 0;
      },
      [&](const LoadedSubcellDiagram* loaded) {
        const auto stats = loaded->diagram.ComputeStats();
        std::cout << "kind: subcell diagram (dynamic)\n"
                  << "points: " << loaded->dataset.size() << "\n"
                  << "domain: " << loaded->dataset.domain_size() << "\n"
                  << "subcells: " << stats.num_subcells << "\n"
                  << "distinct results: " << stats.num_distinct_sets << "\n"
                  << "result elements: " << stats.total_set_elements << "\n"
                  << "arena bytes: " << stats.pool_bytes << "\n"
                  << "approx bytes: " << stats.approx_bytes << "\n";
        return 0;
      });
}

// Validates every invariant of a stored diagram (src/core/validate.h) and
// exits non-zero on the first violation. The file's checksum and field-level
// structure are already verified by the loader; `check` additionally proves
// the decoded diagram is a well-formed skyline diagram and spot-checks stored
// results against brute-force queries.
int CmdCheck(const Flags& flags, const std::string& positional_path) {
  std::string path = flags.GetString("diagram");
  if (path.empty()) path = positional_path;
  if (path.empty()) return Fail("usage: skydia check <diagram.skd>");

  ValidateOptions validate;
  validate.sample_queries = static_cast<size_t>(flags.GetInt("samples", 64));
  validate.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  validate.require_canonical_pool = !flags.GetBool("allow-duplicate-sets");

  return WithLoadedDiagram(
      path,
      [&](const LoadedCellDiagram* loaded) {
        if (Status s =
                ValidateDiagram(loaded->dataset, loaded->diagram, validate);
            !s.ok()) {
          return Fail(path + ": " + s.ToString());
        }
        std::cout << "ok: cell diagram, " << loaded->dataset.size()
                  << " points, " << loaded->diagram.grid().num_cells()
                  << " cells, " << loaded->diagram.pool().size()
                  << " result sets, " << validate.sample_queries
                  << " sampled queries verified\n";
        return 0;
      },
      [&](const LoadedSubcellDiagram* loaded) {
        if (Status s =
                ValidateDiagram(loaded->dataset, loaded->diagram, validate);
            !s.ok()) {
          return Fail(path + ": " + s.ToString());
        }
        std::cout << "ok: subcell diagram, " << loaded->dataset.size()
                  << " points, " << loaded->diagram.grid().num_subcells()
                  << " subcells, " << loaded->diagram.pool().size()
                  << " result sets, " << validate.sample_queries
                  << " sampled queries verified\n";
        return 0;
      });
}

int CmdRender(const Flags& flags) {
  const std::string out = flags.GetString("out");
  if (out.empty()) return Fail("--out is required");
  SvgOptions svg;
  svg.draw_labels = flags.GetBool("labels");
  return WithLoadedDiagram(
      flags.GetString("diagram"),
      [&](const LoadedCellDiagram* loaded) {
        const Status s = WriteSvgFile(
            out, RenderCellDiagramSvg(loaded->dataset, loaded->diagram, svg));
        if (!s.ok()) return Fail(s.ToString());
        std::cout << "rendered " << out << "\n";
        return 0;
      },
      [&](const LoadedSubcellDiagram* loaded) {
        const Status s = WriteSvgFile(
            out,
            RenderSubcellDiagramSvg(loaded->dataset, loaded->diagram, svg));
        if (!s.ok()) return Fail(s.ToString());
        std::cout << "rendered " << out << "\n";
        return 0;
      });
}

// Serves a built diagram blob over TCP until SIGINT/SIGTERM; SIGHUP
// hot-swaps the snapshot by re-reading the blob (src/serve/server.h).
int CmdServe(const Flags& flags, const std::string& positional_path) {
  std::string path = flags.GetString("diagram");
  if (path.empty()) path = positional_path;
  if (path.empty()) {
    return Fail("usage: skydia serve <diagram.skd> [--port P] [--threads T]"
                " [--workers W]");
  }

  auto cell_semantics =
      ParseSkylineQueryType(flags.GetString("semantics", "quadrant"));
  if (!cell_semantics.ok()) return Fail(cell_semantics.status().ToString());
  if (*cell_semantics == SkylineQueryType::kDynamic) {
    return Fail("--semantics names the semantics a cell blob serves"
                " (quadrant|global); dynamic is inferred from subcell blobs");
  }

  serve::ServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<int>(flags.GetInt("port", 7447));
  options.engine.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  options.num_workers = static_cast<int>(flags.GetInt("workers", 1));
  options.cell_semantics = *cell_semantics;
  options.cache.capacity =
      static_cast<size_t>(flags.GetInt("cache-entries", 1 << 14));
  options.idle_timeout_ms =
      static_cast<int>(flags.GetInt("idle-timeout-ms", 60'000));
  options.max_connections =
      static_cast<int>(flags.GetInt("max-connections", 256));
  options.slow_query_ms =
      static_cast<int>(flags.GetInt("slow-query-ms", options.slow_query_ms));
  options.mutation_window_ms = static_cast<int>(
      flags.GetInt("mutation-window-ms", options.mutation_window_ms));
  options.mutation_max_pending = static_cast<size_t>(
      flags.GetInt("mutation-max-pending",
                   static_cast<int64_t>(options.mutation_max_pending)));

  // The always-on flight recorder: sampled spans over a bounded window,
  // exported live via GET /debug/trace and dumped to --crash-trace by the
  // fatal-signal handler. --trace-sample 0 turns both off.
  const auto sample = flags.GetInt("trace-sample", 256);
  if (sample > 0) {
    trace::RecorderOptions recorder;
    recorder.sample_period = static_cast<uint32_t>(sample);
    recorder.window_ns =
        static_cast<uint64_t>(
            std::max<int64_t>(1, flags.GetInt("trace-window-ms", 10'000))) *
        1'000'000ull;
    trace::EnableFlightRecorder(recorder);
    const std::string crash_path =
        flags.GetString("crash-trace", "/tmp/skydia-crash-trace.json");
    if (crash_path != "none") {
      if (Status s = trace::InstallCrashHandler(crash_path); !s.ok()) {
        std::cerr << "crash-trace handler not installed: " << s << "\n";
      }
    }
  }

  // --trace on the daemon: collect spans for the whole serving lifetime and
  // guarantee the text summary reaches stderr even on a signal-driven exit —
  // RegisterExitSummary installs an atexit flush, and the explicit
  // FlushExitSummary below covers the normal sigwait shutdown path.
  const std::string trace_path = EnableTraceIfRequested(flags);
  if (trace::Enabled()) trace::RegisterExitSummary();

  // Handle the lifecycle signals synchronously on this thread via sigwait:
  // the server threads keep serving while we sleep in sigwait, and a SIGHUP
  // reload runs outside any signal-handler restrictions.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  serve::SkylineServer server(options);
  if (Status s = server.Start(path); !s.ok()) return Fail(s.ToString());
  std::cout << "serving " << path << " on " << options.host << ":"
            << server.port() << " (generation "
            << server.registry().generation()
            << ", SIGHUP reloads, /metrics over HTTP)" << std::endl;

  for (;;) {
    int signo = 0;
    if (sigwait(&mask, &signo) != 0) continue;
    if (signo == SIGHUP) {
      const Status s = server.Reload("");
      if (s.ok()) {
        std::cout << "reloaded " << path << " (generation "
                  << server.registry().generation() << ")" << std::endl;
      } else {
        std::cerr << "reload failed, keeping old snapshot: " << s << std::endl;
      }
      continue;
    }
    break;  // SIGINT / SIGTERM
  }
  std::cout << "shutting down" << std::endl;
  server.Stop();
  if (trace::Enabled()) {
    if (!trace_path.empty()) {
      const trace::TraceSnapshot snapshot = trace::Collect();
      if (Status s = trace::WriteChromeTrace(snapshot, trace_path); !s.ok()) {
        std::cerr << "trace write failed: " << s << "\n";
      } else {
        std::cerr << "wrote trace to " << trace_path << "\n";
      }
    }
    trace::FlushExitSummary();
  }
  return 0;
}

int CmdHotels() {
  const Dataset hotels = HotelExample();
  const Point2D q = HotelExampleQuery();
  std::cout << "Figure 1 running example, q = " << q << "\n";
  const auto print = [&](const char* name, const std::vector<PointId>& ids) {
    std::cout << "  " << name << ": {";
    for (size_t i = 0; i < ids.size(); ++i) {
      std::cout << (i ? ", " : "") << hotels.label(ids[i]);
    }
    std::cout << "}\n";
  };
  print("quadrant", FirstQuadrantSkyline(hotels, q));
  print("global", GlobalSkyline(hotels, q));
  print("dynamic", DynamicSkyline(hotels, q));
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  // `check` and `query` accept leading positional arguments (the diagram
  // path, and for `query` an optional points CSV).
  std::vector<std::string> positionals;
  int first_flag = 2;
  if (command == "check" || command == "query" || command == "serve") {
    while (first_flag < argc &&
           std::string(argv[first_flag]).rfind("--", 0) != 0) {
      positionals.emplace_back(argv[first_flag++]);
    }
  }
  const Flags flags(argc, argv, first_flag);
  if (!flags.error().empty()) return Fail(flags.error());

  if (command == "generate") return CmdGenerate(flags);
  if (command == "build") return CmdBuild(flags);
  if (command == "query") return CmdQuery(flags, positionals);
  if (command == "stats") return CmdStats(flags);
  if (command == "check") {
    return CmdCheck(flags, positionals.empty() ? "" : positionals[0]);
  }
  if (command == "serve") {
    return CmdServe(flags, positionals.empty() ? "" : positionals[0]);
  }
  if (command == "render") return CmdRender(flags);
  if (command == "hotels") return CmdHotels();
  PrintUsage();
  return Fail("unknown command " + command);
}

}  // namespace
}  // namespace skydia

int main(int argc, char** argv) { return skydia::Main(argc, argv); }
