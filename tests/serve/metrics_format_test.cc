// A strict Prometheus text-format (0.0.4) parser over the full /metrics
// payload: every emitted family must carry # HELP and # TYPE before its
// first sample, names must follow the repo naming scheme (lint-enforced in
// tools/metrics_lint.py, re-checked here against the live payload), and
// histograms must expose cumulative monotone buckets with a +Inf bucket
// equal to _count. New metrics that would silently break scrapers fail
// here first.
#include "src/serve/metrics.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "src/core/query_engine.h"
#include "src/serve/snapshot_registry.h"
#include "tests/serve/serve_test_util.h"

namespace skydia::serve {
namespace {

struct Sample {
  std::string name;  // full sample name, e.g. skydia_foo_seconds_bucket
  std::map<std::string, std::string> labels;
  double value = 0;
};

struct Family {
  bool have_help = false;
  std::string type;  // "counter" | "gauge" | "histogram" | ...
  std::vector<Sample> samples;
};

/// The family a sample belongs to: histogram series fold their
/// _bucket/_sum/_count suffix back onto the base name.
std::string FamilyOf(const std::string& sample_name,
                     const std::map<std::string, Family>& families) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (sample_name.size() > s.size() &&
        sample_name.compare(sample_name.size() - s.size(), s.size(), s) ==
            0) {
      const std::string base = sample_name.substr(0, sample_name.size() -
                                                         s.size());
      const auto it = families.find(base);
      if (it != families.end() && it->second.type == "histogram") {
        return base;
      }
    }
  }
  return sample_name;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != ':') {
      return false;
    }
  }
  return true;
}

/// Parses one exposition payload. Violations of the text format are
/// collected into `errors` (empty = fully conformant).
std::map<std::string, Family> ParseExposition(
    const std::string& text, std::vector<std::string>* errors) {
  std::map<std::string, Family> families;
  size_t start = 0;
  int line_no = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      errors->push_back("payload does not end with a newline");
      end = text.size();
    }
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    const auto fail = [&](const std::string& why) {
      errors->push_back("line " + std::to_string(line_no) + ": " + why +
                        ": " + line);
    };
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP <name> <docstring>" or "# TYPE <name> <type>".
      if (line.rfind("# HELP ", 0) == 0) {
        const std::string rest = line.substr(7);
        const size_t sp = rest.find(' ');
        if (sp == std::string::npos || sp + 1 >= rest.size()) {
          fail("HELP without a docstring");
          continue;
        }
        const std::string name = rest.substr(0, sp);
        if (families[name].have_help) fail("duplicate HELP");
        families[name].have_help = true;
      } else if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const size_t sp = rest.find(' ');
        if (sp == std::string::npos) {
          fail("TYPE without a type");
          continue;
        }
        const std::string name = rest.substr(0, sp);
        const std::string type = rest.substr(sp + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          fail("unknown TYPE " + type);
        }
        if (!families[name].type.empty()) fail("duplicate TYPE");
        if (!families[name].samples.empty()) {
          fail("TYPE after the family's first sample");
        }
        families[name].type = type;
      } else {
        fail("comment that is neither HELP nor TYPE");
      }
      continue;
    }
    // Sample line: name[{labels}] value
    Sample sample;
    size_t pos = 0;
    while (pos < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[pos])) ||
            line[pos] == '_' || line[pos] == ':')) {
      ++pos;
    }
    sample.name = line.substr(0, pos);
    if (!ValidMetricName(sample.name)) {
      fail("invalid metric name");
      continue;
    }
    if (pos < line.size() && line[pos] == '{') {
      const size_t close = line.rfind('}');
      if (close == std::string::npos || close < pos) {
        fail("unterminated label set");
        continue;
      }
      // Label pairs: name="value" with \\, \", \n escapes.
      size_t lp = pos + 1;
      while (lp < close) {
        size_t eq = line.find('=', lp);
        if (eq == std::string::npos || eq > close ||
            line[eq + 1] != '"') {
          fail("malformed label pair");
          break;
        }
        const std::string label_name = line.substr(lp, eq - lp);
        if (!ValidMetricName(label_name)) {
          fail("invalid label name " + label_name);
          break;
        }
        std::string value;
        size_t vp = eq + 2;
        bool closed = false;
        while (vp < close) {
          if (line[vp] == '\\' && vp + 1 < close) {
            value.push_back(line[vp + 1] == 'n' ? '\n' : line[vp + 1]);
            vp += 2;
          } else if (line[vp] == '"') {
            closed = true;
            ++vp;
            break;
          } else {
            value.push_back(line[vp++]);
          }
        }
        if (!closed) {
          fail("unterminated label value");
          break;
        }
        sample.labels[label_name] = value;
        if (vp < close && line[vp] == ',') ++vp;
        lp = vp;
      }
      pos = close + 1;
    }
    if (pos >= line.size() || line[pos] != ' ') {
      fail("no space before the sample value");
      continue;
    }
    const std::string value_text = line.substr(pos + 1);
    try {
      size_t consumed = 0;
      if (value_text == "+Inf") {
        sample.value = std::numeric_limits<double>::infinity();
      } else {
        sample.value = std::stod(value_text, &consumed);
        if (consumed != value_text.size()) {
          fail("trailing garbage after the value");
          continue;
        }
      }
    } catch (...) {
      fail("unparseable sample value");
      continue;
    }
    families[FamilyOf(sample.name, families)].samples.push_back(sample);
  }
  // Post: every family with samples has HELP and TYPE.
  for (const auto& [name, family] : families) {
    if (family.samples.empty()) {
      errors->push_back("family " + name + " has HELP/TYPE but no samples");
      continue;
    }
    if (!family.have_help) errors->push_back("family " + name + ": no HELP");
    if (family.type.empty()) errors->push_back("family " + name +
                                               ": no TYPE");
  }
  return families;
}

class MetricsFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per process: ctest runs each test of this fixture as its own
    // process, concurrently, and a shared path lets one test read another's
    // half-written blob.
    const std::string path = ::testing::TempDir() + "/metrics_format_" +
                             std::to_string(::getpid()) + ".skd";
    skydia::testing::SaveQuadrantFixture(256, 1 << 10, 7, path);
    auto loaded = SkylineDiagram::Load(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    snapshot_.diagram =
        std::make_shared<const SkylineDiagram>(std::move(loaded).value());
    snapshot_.cache = std::make_shared<ResultCache>();
    snapshot_.generation = 2;
    snapshot_.source_path = path;
    std::vector<Point2D> queries;
    for (int i = 0; i < 2048; ++i) {
      queries.push_back(Point2D{i % 1024, (i * 7) % 1024});
    }
    std::vector<SetId> out;
    snapshot_.diagram->engine().AnswerBatch(queries, &out);

    // Populate every server-side family, including the PR-10 histograms,
    // so the parse walks real bucket series rather than empty stubs.
    metrics_.requests_total.store(9);
    metrics_.connections_opened.store(3);
    metrics_.reactor_loop_lag_ns.store(1'500'000);
    for (uint64_t ns : {800u, 70'000u, 70'001u, 2'000'000u, 900'000'000u}) {
      metrics_.RecordRequestDuration(ns, /*ctx=*/0);
    }
    for (uint64_t ns : {40'000u, 3'000'000u}) {
      metrics_.RecordMutationPublish(ns);
    }
    exposition_ =
        RenderPrometheusMetrics(metrics_, &snapshot_, /*uptime_seconds=*/1.5);
  }

  ServerMetrics metrics_;
  ServingSnapshot snapshot_;
  std::string exposition_;
};

TEST_F(MetricsFormatTest, EveryFamilyParsesWithHelpAndType) {
  std::vector<std::string> errors;
  const auto families = ParseExposition(exposition_, &errors);
  EXPECT_TRUE(errors.empty()) << errors.front() << " (+"
                              << errors.size() - 1 << " more)";
  // The families the dashboards depend on are present with sane types.
  const std::map<std::string, std::string> expect_type = {
      {"skydia_requests_total", "counter"},
      {"skydia_connections_open", "gauge"},
      {"skydia_uptime_seconds", "gauge"},
      {"skydia_reactor_loop_lag_seconds", "gauge"},
      {"skydia_request_duration_seconds", "histogram"},
      {"skydia_mutation_publish_duration_seconds", "histogram"},
      {"skydia_query_latency_ns", "histogram"},
      {"skydia_build_info", "gauge"},
  };
  for (const auto& [name, type] : expect_type) {
    const auto it = families.find(name);
    ASSERT_NE(it, families.end()) << name << " missing from /metrics";
    EXPECT_EQ(it->second.type, type) << name;
    EXPECT_FALSE(it->second.samples.empty()) << name;
  }
}

TEST_F(MetricsFormatTest, HistogramsAreCumulativeWithConsistentSumAndCount) {
  std::vector<std::string> errors;
  const auto families = ParseExposition(exposition_, &errors);
  ASSERT_TRUE(errors.empty()) << errors.front();
  int histograms_checked = 0;
  for (const auto& [name, family] : families) {
    if (family.type != "histogram") continue;
    ++histograms_checked;
    double last_le = -std::numeric_limits<double>::infinity();
    double last_count = -1;
    double inf_count = -1;
    std::optional<double> count;
    bool have_sum = false;
    for (const Sample& sample : family.samples) {
      if (sample.name == name + "_bucket") {
        const auto le = sample.labels.find("le");
        ASSERT_NE(le, sample.labels.end()) << name << " bucket without le";
        const double bound = le->second == "+Inf"
                                 ? std::numeric_limits<double>::infinity()
                                 : std::stod(le->second);
        EXPECT_GT(bound, last_le) << name << ": le not strictly ascending";
        EXPECT_GE(sample.value, last_count)
            << name << ": bucket counts not cumulative at le=" << le->second;
        last_le = bound;
        last_count = sample.value;
        if (std::isinf(bound)) inf_count = sample.value;
      } else if (sample.name == name + "_count") {
        count = sample.value;
      } else if (sample.name == name + "_sum") {
        have_sum = true;
        EXPECT_GE(sample.value, 0) << name;
      }
    }
    ASSERT_TRUE(count.has_value()) << name << ": no _count series";
    EXPECT_TRUE(have_sum) << name << ": no _sum series";
    EXPECT_GE(inf_count, 0) << name << ": no +Inf bucket";
    EXPECT_EQ(inf_count, *count) << name << ": +Inf bucket != _count";
  }
  // All three histograms (engine latency + the two PR-10 duration ones).
  EXPECT_GE(histograms_checked, 3);
}

TEST_F(MetricsFormatTest, NamesFollowTheRepoScheme) {
  std::vector<std::string> errors;
  const auto families = ParseExposition(exposition_, &errors);
  ASSERT_TRUE(errors.empty()) << errors.front();
  for (const auto& [name, family] : families) {
    EXPECT_EQ(name.rfind("skydia_", 0), 0u) << name << ": missing prefix";
    for (const char c : name) {
      EXPECT_TRUE(std::islower(static_cast<unsigned char>(c)) ||
                  std::isdigit(static_cast<unsigned char>(c)) || c == '_')
          << name;
    }
    const bool ends_total =
        name.size() > 6 && name.compare(name.size() - 6, 6, "_total") == 0;
    if (family.type == "counter") {
      EXPECT_TRUE(ends_total) << name << ": counters end in _total";
    } else {
      EXPECT_FALSE(ends_total) << name << ": only counters end in _total";
    }
    // Duration metrics are rendered in base seconds, never milliseconds.
    EXPECT_EQ(name.find("_duration_ms"), std::string::npos) << name;
    if (name.find("_duration_") != std::string::npos) {
      EXPECT_TRUE(name.size() > 8 &&
                  name.compare(name.size() - 8, 8, "_seconds") == 0)
          << name << ": durations are in seconds";
    }
  }
}

TEST_F(MetricsFormatTest, EmptyHistogramsStillRenderInfSumAndCount) {
  // A fresh server with zero mutation publishes must still expose the
  // family (scrapers pre-create series from the first scrape).
  ServerMetrics empty;
  const std::string exposition =
      RenderPrometheusMetrics(empty, nullptr, /*uptime_seconds=*/0.1);
  std::vector<std::string> errors;
  const auto families = ParseExposition(exposition, &errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  const auto it = families.find("skydia_mutation_publish_duration_seconds");
  ASSERT_NE(it, families.end());
  bool inf_zero = false;
  bool count_zero = false;
  for (const Sample& sample : it->second.samples) {
    if (sample.name.size() > 7 &&
        sample.name.compare(sample.name.size() - 7, 7, "_bucket") == 0 &&
        sample.labels.count("le") && sample.labels.at("le") == "+Inf") {
      inf_zero = sample.value == 0;
    }
    if (sample.name.size() > 6 &&
        sample.name.compare(sample.name.size() - 6, 6, "_count") == 0) {
      count_zero = sample.value == 0;
    }
  }
  EXPECT_TRUE(inf_zero);
  EXPECT_TRUE(count_zero);
}

}  // namespace
}  // namespace skydia::serve
