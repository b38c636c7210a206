#include "src/datagen/real_data.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "src/common/csv.h"
#include "src/common/logging.h"
#include "src/common/random.h"

namespace skydia {

Dataset HotelExample() {
  // (distance, price); see header for the invariants these satisfy.
  const std::vector<Point2D> points = {
      {2, 95},   // p1
      {14, 98},  // p2
      {14, 92},  // p3
      {16, 94},  // p4
      {18, 93},  // p5
      {8, 84},   // p6
      {26, 65},  // p7
      {22, 85},  // p8
      {24, 88},  // p9
      {28, 84},  // p10
      {13, 77},  // p11
  };
  std::vector<std::string> labels;
  for (size_t i = 1; i <= points.size(); ++i) {
    labels.push_back("p" + std::to_string(i));
  }
  auto dataset = Dataset::Create(points, /*domain_size=*/128, labels);
  SKYDIA_CHECK(dataset.ok());
  return std::move(dataset).value();
}

Point2D HotelExampleQuery() { return Point2D{10, 80}; }

Status WriteNbaLikeCsv(const std::string& path, size_t n, uint64_t seed) {
  Rng rng(seed);
  CsvDocument doc;
  doc.rows.push_back({"label", "points_rank", "rebounds_rank"});
  for (size_t i = 0; i < n; ++i) {
    // Player skill tiers correlate scoring and rebounding ranks; ranks are
    // small integers with heavy ties, like real per-season stat tables.
    const int64_t tier = rng.NextInt(0, 511);
    const auto jitter = [&] {
      return std::llround(rng.NextGaussian() * 48.0);
    };
    const int64_t points_rank =
        std::clamp<int64_t>(tier + jitter(), 0, 511);
    const int64_t rebounds_rank =
        std::clamp<int64_t>(tier + jitter(), 0, 511);
    doc.rows.push_back({"player" + std::to_string(i),
                        std::to_string(points_rank),
                        std::to_string(rebounds_rank)});
  }
  return WriteCsvFile(path, doc);
}

StatusOr<Dataset> LoadDatasetCsv(const std::string& path,
                                 const std::string& x_column,
                                 const std::string& y_column) {
  StatusOr<CsvDocument> doc = ReadCsvFile(path);
  if (!doc.ok()) return doc.status();
  if (doc->rows.empty()) {
    return Status::InvalidArgument("CSV file has no header row: " + path);
  }
  const std::vector<std::string>& header = doc->rows[0];
  auto find_col = [&](const std::string& name) -> int {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  const int xc = find_col(x_column);
  const int yc = find_col(y_column);
  const int lc = find_col("label");
  if (xc < 0 || yc < 0) {
    return Status::InvalidArgument("CSV columns not found: " + x_column +
                                   ", " + y_column);
  }

  std::vector<Point2D> points;
  std::vector<std::string> labels;
  int64_t max_coord = 0;
  for (size_t r = 1; r < doc->rows.size(); ++r) {
    const std::vector<std::string>& row = doc->rows[r];
    if (static_cast<int>(row.size()) <= std::max(xc, yc)) {
      return Status::Corruption("CSV row " + std::to_string(r) +
                                " is too short");
    }
    errno = 0;
    char* end = nullptr;
    const int64_t x = std::strtoll(row[xc].c_str(), &end, 10);
    if (end == row[xc].c_str() || *end != '\0') {
      return Status::Corruption("non-integer x value in CSV row " +
                                std::to_string(r));
    }
    const int64_t y = std::strtoll(row[yc].c_str(), &end, 10);
    if (end == row[yc].c_str() || *end != '\0') {
      return Status::Corruption("non-integer y value in CSV row " +
                                std::to_string(r));
    }
    points.push_back(Point2D{x, y});
    labels.push_back(lc >= 0 && static_cast<int>(row.size()) > lc
                         ? row[lc]
                         : "row" + std::to_string(r));
    max_coord = std::max({max_coord, x, y});
  }
  // Stops past Dataset::kMaxDomainSize, which Create then rejects, instead
  // of doubling into signed overflow.
  int64_t domain = 1;
  while (domain <= max_coord && domain <= Dataset::kMaxDomainSize) domain *= 2;
  return Dataset::Create(std::move(points), domain, std::move(labels));
}

}  // namespace skydia
