// Answer check: sampled replies against the brute-force oracle.
//
// Quadrant answers are exact at every position. Dynamic answers are exact
// only inside subcells, so point queries on a grid or bisector line are
// skipped. Range replies are recomputed cell by cell: the rectangle covers
// the slabs [SlabOf(lo), SlabOf(hi)] on each axis (the index's half-open
// convention), and each cell is answered at an interior representative.
#include <algorithm>
#include <cstdio>
#include <set>

#include "perfbench/perf.h"
#include "src/skyline/query.h"

namespace skydia::perf {

struct AnswerCheck::Truth {
  Truth(const WorkloadSpec& spec, Dataset d)
      : dynamic(spec.type == SkylineQueryType::kDynamic), ds(std::move(d)) {
    std::vector<int64_t> xs;
    std::vector<int64_t> ys;
    for (const Point2D& p : ds.points()) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
    x_lines = Lines(xs);
    y_lines = Lines(ys);
  }

  /// Quadrant grid lines are the distinct coordinates; dynamic lines are
  /// every pairwise sum of them (bisectors, in doubled coordinates).
  std::vector<int64_t> Lines(std::vector<int64_t> v) const {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    if (!dynamic) return v;
    std::vector<int64_t> sums;
    for (size_t i = 0; i < v.size(); ++i) {
      for (size_t j = i; j < v.size(); ++j) sums.push_back(v[i] + v[j]);
    }
    std::sort(sums.begin(), sums.end());
    sums.erase(std::unique(sums.begin(), sums.end()), sums.end());
    return sums;
  }

  int64_t scale() const { return dynamic ? 2 : 1; }

  bool OnLine(const Point2D& q) const {
    return dynamic &&
           (std::binary_search(x_lines.begin(), x_lines.end(), 2 * q.x) ||
            std::binary_search(y_lines.begin(), y_lines.end(), 2 * q.y));
  }

  static uint32_t SlabOf(const std::vector<int64_t>& lines, int64_t v) {
    return static_cast<uint32_t>(
        std::lower_bound(lines.begin(), lines.end(), v) - lines.begin());
  }

  /// 4x-scaled coordinate of a position inside slab `s`.
  int64_t Representative(const std::vector<int64_t>& lines, uint32_t s) const {
    if (!dynamic) {
      // Quadrant slab s is (line[s-1], line[s]]; the line itself is inside.
      return s < lines.size() ? 4 * lines[s] : 4 * (lines.back() + 1);
    }
    if (s == 0) return 2 * lines.front() - 1;
    if (s == lines.size()) return 2 * lines.back() + 1;
    return lines[s - 1] + lines[s];
  }

  std::vector<PointId> At4(int64_t x4, int64_t y4) const {
    return dynamic ? DynamicSkylineAt4(ds, x4, y4)
                   : QuadrantSkylineAt4(ds, x4, y4, 0);
  }

  std::vector<PointId> Point(const Point2D& q) const {
    return dynamic ? DynamicSkyline(ds, q) : QuadrantSkyline(ds, q, 0);
  }

  RangeSkylineSummary Range(const QueryRange& r) const {
    const uint32_t x0 = SlabOf(x_lines, scale() * r.x_lo);
    const uint32_t x1 = SlabOf(x_lines, scale() * r.x_hi);
    const uint32_t y0 = SlabOf(y_lines, scale() * r.y_lo);
    const uint32_t y1 = SlabOf(y_lines, scale() * r.y_hi);
    std::set<std::vector<PointId>> distinct;
    std::set<PointId> all;
    std::vector<PointId> common;
    bool first = true;
    for (uint32_t sy = y0; sy <= y1; ++sy) {
      for (uint32_t sx = x0; sx <= x1; ++sx) {
        std::vector<PointId> ids = At4(Representative(x_lines, sx),
                                       Representative(y_lines, sy));
        all.insert(ids.begin(), ids.end());
        if (first) {
          common = ids;
          first = false;
        } else {
          std::vector<PointId> kept;
          std::set_intersection(common.begin(), common.end(), ids.begin(),
                                ids.end(), std::back_inserter(kept));
          common.swap(kept);
        }
        distinct.insert(std::move(ids));
      }
    }
    RangeSkylineSummary out;
    out.union_ids.assign(all.begin(), all.end());
    out.intersection_ids = std::move(common);
    out.distinct_results = distinct.size();
    return out;
  }

  bool dynamic;
  Dataset ds;
  std::vector<int64_t> x_lines;
  std::vector<int64_t> y_lines;
};

AnswerCheck::AnswerCheck(const WorkloadSpec& spec, Dataset base)
    : spec_(spec), base_(std::make_unique<Truth>(spec, std::move(base))) {}

AnswerCheck::~AnswerCheck() = default;

AnswerCheck::Truth& AnswerCheck::TruthFor(const WritePair* pair) {
  if (pair == nullptr) return *base_;
  const int64_t key = static_cast<int64_t>(pair->insert_gen);
  auto it = truths_.find(key);
  if (it == truths_.end()) {
    // The answering generation holds the base points plus the pair's point,
    // appended last (so it carries the id its insert ack reported).
    std::vector<Point2D> points = base_->ds.points();
    points.push_back(pair->p);
    auto ds = Dataset::Create(std::move(points), kDomain);
    // Cannot fail for a point the server accepted; compare with the base
    // (and so count a mismatch) if it ever does.
    if (!ds.ok()) return *base_;
    it = truths_.emplace(key, std::make_unique<Truth>(spec_, *std::move(ds)))
             .first;
  }
  return *it->second;
}

std::optional<std::vector<PointId>> AnswerCheck::Expected(const Point2D& q) {
  if (base_->OnLine(q)) return std::nullopt;
  return base_->Point(q);
}

bool AnswerCheck::CheckOne(const Sample& s, Truth& truth, bool* skipped) {
  *skipped = false;
  if (s.kind == Kind::kRange) {
    const RangeSkylineSummary want = truth.Range(s.range);
    const auto u = ReplyArray(s.reply, "union");
    const auto i = ReplyArray(s.reply, "intersection");
    const auto d = ReplyInt(s.reply, "distinct");
    return u.has_value() && i.has_value() && d.has_value() &&
           *u == want.union_ids && *i == want.intersection_ids &&
           *d == want.distinct_results;
  }
  if (truth.OnLine(s.q)) {
    *skipped = true;
    return true;
  }
  const auto ids = ReplyArray(s.reply, "ids");
  return ids.has_value() && *ids == truth.Point(s.q);
}

uint64_t AnswerCheck::Check(const std::vector<Sample>& samples,
                            const std::vector<WritePair>& writes,
                            uint64_t* checked) {
  uint64_t mismatches = 0;
  for (const Sample& s : samples) {
    // Unanswered and error replies are already counted as failures.
    if (s.reply.rfind("{\"gen\":", 0) != 0) continue;
    // The generation that answered picks the dataset: a pair's point is
    // present from its insert's generation up to its delete's.
    const auto gen = ReplyInt(s.reply, "gen");
    const WritePair* pair = nullptr;
    if (gen.has_value()) {
      for (const WritePair& w : writes) {
        if (w.insert_gen <= *gen && *gen < w.delete_gen) pair = &w;
      }
    }
    bool skipped = false;
    const bool ok = gen.has_value() && CheckOne(s, TruthFor(pair), &skipped);
    if (skipped) continue;
    ++*checked;
    if (!ok) {
      if (++mismatches <= 5) {
        std::fprintf(stderr, "answer mismatch at (%lld,%lld): %s\n",
                     static_cast<long long>(s.q.x),
                     static_cast<long long>(s.q.y), s.reply.c_str());
      }
    }
  }
  return mismatches;
}

}  // namespace skydia::perf
