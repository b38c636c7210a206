#include "src/core/serialize.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <system_error>

#include "src/common/sha256.h"

namespace skydia {

namespace {

// The last magic byte is the format version. v1 stored the pool as one
// length-prefixed id list per set; v2 stores the flat interning arena in one
// block (length-prefixed member buffer + per-set offset table). Writers emit
// v2; readers accept both.
constexpr char kMagicPrefix[7] = {'S', 'K', 'Y', 'D', 'I', 'A', 'G'};
constexpr uint8_t kVersion1 = 1;
constexpr uint8_t kVersion2 = 2;
constexpr uint8_t kKindCell = 1;
constexpr uint8_t kKindSubcell = 2;
constexpr size_t kHeaderLen = sizeof(kMagicPrefix) + 1 + 1;  // magic|ver|kind

// --- little-endian emit helpers ---------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof(bytes));
}

void PutU64(std::string* out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof(bytes));
}

// Appends `words` as little-endian u32s: one memcpy-append on a
// little-endian host, a byte swap per word elsewhere. With
// Reader::ReadU32Array, the codec's one path for the u32 arrays (set
// members, cell tables) that make up nearly all of a blob.
void PutU32Array(std::string* out, std::span<const uint32_t> words) {
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(words.data()),
                words.size_bytes());
  } else {
    for (const uint32_t word : words) PutU32(out, word);
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

// --- bounds-checked reader ---------------------------------------------------

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadBytes(void* out, size_t len) {
    if (bytes_.size() - pos_ < len) return false;
    std::memcpy(out, bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool ReadU8(uint8_t* v) { return ReadBytes(v, 1); }
  bool ReadU32(uint32_t* v) {
    uint8_t b[4];
    if (!ReadBytes(b, 4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= uint32_t{b[i]} << (8 * i);
    return true;
  }
  bool ReadU64(uint64_t* v) {
    uint8_t b[8];
    if (!ReadBytes(b, 8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= uint64_t{b[i]} << (8 * i);
    return true;
  }
  bool ReadI64(int64_t* v) {
    uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  // Reads `out.size()` little-endian u32s with one bounds check: a memcpy on
  // a little-endian host, a byte swap per word elsewhere.
  bool ReadU32Array(std::span<uint32_t> out) {
    if (remaining() / sizeof(uint32_t) < out.size()) return false;
    if constexpr (std::endian::native == std::endian::little) {
      if (!out.empty()) {
        std::memcpy(out.data(), bytes_.data() + pos_, out.size_bytes());
      }
      pos_ += out.size_bytes();
    } else {
      for (uint32_t& word : out) ReadU32(&word);  // in bounds: checked above
    }
    return true;
  }
  bool ReadString(std::string* out, size_t len) {
    if (bytes_.size() - pos_ < len) return false;
    out->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  size_t remaining() const { return bytes_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

// --- shared sections ---------------------------------------------------------

void EmitDataset(const Dataset& dataset, std::string* out) {
  PutU64(out, static_cast<uint64_t>(dataset.domain_size()));
  PutU64(out, dataset.size());
  for (const Point2D& p : dataset.points()) {
    PutI64(out, p.x);
    PutI64(out, p.y);
  }
  PutU8(out, dataset.has_labels() ? 1 : 0);
  if (dataset.has_labels()) {
    for (PointId id = 0; id < dataset.size(); ++id) {
      const std::string label = dataset.label(id);
      PutU32(out, static_cast<uint32_t>(label.size()));
      out->append(label);
    }
  }
}

StatusOr<Dataset> ReadDataset(Reader* reader) {
  uint64_t domain = 0;
  uint64_t n = 0;
  if (!reader->ReadU64(&domain) || !reader->ReadU64(&n)) {
    return Status::Corruption("truncated dataset header");
  }
  if (n > (uint64_t{1} << 32)) {
    return Status::Corruption("implausible point count");
  }
  std::vector<Point2D> points;
  points.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Point2D p;
    if (!reader->ReadI64(&p.x) || !reader->ReadI64(&p.y)) {
      return Status::Corruption("truncated point table");
    }
    points.push_back(p);
  }
  uint8_t has_labels = 0;
  if (!reader->ReadU8(&has_labels)) {
    return Status::Corruption("truncated label flag");
  }
  std::vector<std::string> labels;
  if (has_labels == 1) {
    labels.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t len = 0;
      std::string label;
      if (!reader->ReadU32(&len) || !reader->ReadString(&label, len)) {
        return Status::Corruption("truncated label table");
      }
      labels.push_back(std::move(label));
    }
  } else if (has_labels != 0) {
    return Status::Corruption("invalid label flag");
  }
  auto dataset =
      Dataset::Create(std::move(points), static_cast<int64_t>(domain),
                      std::move(labels));
  if (!dataset.ok()) {
    return Status::Corruption("stored dataset violates domain bounds: " +
                              dataset.status().message());
  }
  return dataset;
}

// v2 pool block: the interning arena emitted flat — num_sets, then the
// length-prefixed member buffer in one run, then the {offset, length} record
// table. Loading is one buffer read instead of num_sets separate
// allocations (AdoptArena defers the dedup index to the first intern).
void EmitPool(const SkylineSetPool& pool, std::string* out) {
  PutU64(out, pool.size());
  PutU64(out, pool.total_elements());
  for (SetId id = 0; id < pool.size(); ++id) PutU32Array(out, pool.Get(id));
  uint64_t offset = 0;
  for (SetId id = 0; id < pool.size(); ++id) {
    const auto set = pool.Get(id);
    PutU64(out, offset);
    PutU32(out, static_cast<uint32_t>(set.size()));
    offset += set.size();
  }
}

// Checks one set's structural invariants (shared by both format readers).
Status ValidateSet(std::span<const PointId> ids, size_t num_points) {
  if (ids.size() > num_points) {
    return Status::Corruption("result set larger than the dataset");
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= num_points) {
      return Status::Corruption("result set references unknown point");
    }
    if (i > 0 && ids[i] <= ids[i - 1]) {
      return Status::Corruption("result set not sorted/unique");
    }
  }
  return Status::OK();
}

// v1 pool section: one length-prefixed id list per set, reproduced via
// Append (set by set, like a builder, so it ends with Freeze). Kept so
// pre-v2 diagram files stay loadable.
Status ReadPoolV1(Reader* reader, size_t num_points, SkylineSetPool* pool) {
  uint64_t num_sets = 0;
  if (!reader->ReadU64(&num_sets)) {
    return Status::Corruption("truncated pool header");
  }
  if (num_sets == 0) {
    return Status::Corruption("pool must contain the empty set");
  }
  for (uint64_t s = 0; s < num_sets; ++s) {
    uint64_t size = 0;
    if (!reader->ReadU64(&size)) {
      return Status::Corruption("truncated set header");
    }
    if (size > num_points) {
      return Status::Corruption("result set larger than the dataset");
    }
    std::vector<PointId> ids(size);
    for (uint64_t i = 0; i < size; ++i) {
      if (!reader->ReadU32(&ids[i])) {
        return Status::Corruption("truncated set contents");
      }
    }
    if (Status s_check = ValidateSet(ids, num_points); !s_check.ok()) {
      return s_check;
    }
    if (s == 0) {
      if (!ids.empty()) {
        return Status::Corruption("set 0 must be the empty set");
      }
      continue;  // the pool pre-interns it
    }
    pool->Append(std::move(ids));
  }
  pool->Freeze();
  return Status::OK();
}

Status ReadPoolV2(Reader* reader, size_t num_points, SkylineSetPool* pool) {
  uint64_t num_sets = 0;
  uint64_t buffer_len = 0;
  if (!reader->ReadU64(&num_sets) || !reader->ReadU64(&buffer_len)) {
    return Status::Corruption("truncated pool header");
  }
  if (num_sets == 0) {
    return Status::Corruption("pool must contain the empty set");
  }
  // Each buffer element takes 4 bytes and each offset-table record 12; cap
  // both counts against the remaining payload before allocating, so a forged
  // header cannot demand a multi-gigabyte buffer the blob does not carry.
  if (buffer_len > reader->remaining() / sizeof(PointId) ||
      num_sets > (uint64_t{1} << 32)) {
    return Status::Corruption("implausible pool arena size");
  }
  if (num_sets > (reader->remaining() - buffer_len * sizeof(PointId)) / 12) {
    return Status::Corruption("pool offset table larger than the payload");
  }
  std::vector<PointId> buffer(buffer_len);
  if (!reader->ReadU32Array(buffer)) {
    return Status::Corruption("truncated pool arena");
  }
  std::vector<uint32_t> lengths(num_sets);
  uint64_t expected_offset = 0;
  for (uint64_t s = 0; s < num_sets; ++s) {
    uint64_t offset = 0;
    uint32_t length = 0;
    if (!reader->ReadU64(&offset) || !reader->ReadU32(&length)) {
      return Status::Corruption("truncated pool offset table");
    }
    // The writer emits sets back to back; require the canonical layout so
    // offsets cannot alias or leave gaps.
    if (offset != expected_offset || length > buffer_len - offset) {
      return Status::Corruption("pool offset table is not a flat arena");
    }
    const std::span<const PointId> ids(buffer.data() + offset, length);
    if (Status s_check = ValidateSet(ids, num_points); !s_check.ok()) {
      return s_check;
    }
    expected_offset = offset + length;
    lengths[s] = length;
  }
  if (expected_offset != buffer_len) {
    return Status::Corruption("pool arena has trailing members");
  }
  if (lengths[0] != 0) {
    return Status::Corruption("set 0 must be the empty set");
  }
  pool->AdoptArena(std::move(buffer), lengths);
  return Status::OK();
}

Status ReadPool(Reader* reader, uint8_t version, size_t num_points,
                SkylineSetPool* pool) {
  return version == kVersion1 ? ReadPoolV1(reader, num_points, pool)
                              : ReadPoolV2(reader, num_points, pool);
}

// Reads the cell table straight into `table`, the diagram's own (sized by
// its grid), in one bounds-checked read, then checks every id against the
// pool.
Status ReadCells(Reader* reader, size_t pool_size, std::span<SetId> table) {
  uint64_t count = 0;
  if (!reader->ReadU64(&count)) {
    return Status::Corruption("truncated cell header");
  }
  if (count != table.size()) {
    return Status::Corruption("cell count does not match the grid shape");
  }
  if (!reader->ReadU32Array(table)) {
    return Status::Corruption("truncated cell table");
  }
  for (const SetId id : table) {
    if (id >= pool_size) {
      return Status::Corruption("cell references unknown result set");
    }
  }
  return Status::OK();
}

void AppendChecksum(std::string* out) {
  const Sha256Digest digest = Sha256::Hash(out->data(), out->size());
  out->append(reinterpret_cast<const char*>(digest.data()), digest.size());
}

Status CheckEnvelope(const std::string& bytes, uint8_t expected_kind,
                     std::string_view* payload, uint8_t* version) {
  if (bytes.size() < kHeaderLen + 32) {
    return Status::Corruption("file too short");
  }
  if (std::memcmp(bytes.data(), kMagicPrefix, sizeof(kMagicPrefix)) != 0) {
    return Status::Corruption("bad magic");
  }
  const char version_char = bytes[sizeof(kMagicPrefix)];
  if (version_char == '1') {
    *version = kVersion1;
  } else if (version_char == '2') {
    *version = kVersion2;
  } else {
    return Status::Corruption("unsupported format version");
  }
  const size_t body_len = bytes.size() - 32;
  const Sha256Digest digest = Sha256::Hash(bytes.data(), body_len);
  if (std::memcmp(bytes.data() + body_len, digest.data(), 32) != 0) {
    return Status::Corruption("checksum mismatch");
  }
  const auto kind = static_cast<uint8_t>(bytes[kHeaderLen - 1]);
  if (kind != expected_kind) {
    return Status::Corruption("wrong diagram kind");
  }
  *payload =
      std::string_view(bytes).substr(kHeaderLen, body_len - kHeaderLen);
  return Status::OK();
}

// The exact size of the v2 blob SerializeBlob writes, so it allocates once.
size_t BlobSize(const Dataset& dataset, const SkylineSetPool& pool,
                size_t num_cells) {
  size_t size = kHeaderLen;
  size += 2 * sizeof(uint64_t) + dataset.size() * 2 * sizeof(int64_t) + 1;
  if (dataset.has_labels()) {
    for (PointId id = 0; id < dataset.size(); ++id) {
      size += sizeof(uint32_t) + dataset.label(id).size();
    }
  }
  size += 2 * sizeof(uint64_t) + pool.total_elements() * sizeof(PointId) +
          pool.size() * (sizeof(uint64_t) + sizeof(uint32_t));
  size += sizeof(uint64_t) + num_cells * sizeof(SetId);
  return size + sizeof(Sha256Digest);
}

// A whole v2 blob: envelope, dataset, pool, the row-major cell table, and
// the checksum footer. Cell and subcell blobs differ only in the kind byte
// and in whose table they carry.
std::string SerializeBlob(uint8_t kind, const Dataset& dataset,
                          const SkylineSetPool& pool,
                          std::span<const SetId> cells) {
  const size_t size = BlobSize(dataset, pool, cells.size());
  std::string out;
  out.reserve(size);
  out.append(kMagicPrefix, sizeof(kMagicPrefix));
  out.push_back('2');
  PutU8(&out, kind);
  EmitDataset(dataset, &out);
  EmitPool(pool, &out);
  PutU64(&out, cells.size());
  PutU32Array(&out, cells);
  AppendChecksum(&out);
  assert(out.size() == size);
  return out;
}

// The one blob parser: cell and subcell blobs differ only in the kind byte
// and in the grid whose table the cells fill. `Loaded` is LoadedCellDiagram
// or LoadedSubcellDiagram.
template <typename Loaded>
StatusOr<Loaded> ParseBlob(uint8_t kind, const std::string& bytes,
                           const ParseOptions& options) {
  std::string_view payload;
  uint8_t version = 0;
  if (Status s = CheckEnvelope(bytes, kind, &payload, &version); !s.ok()) {
    return s;
  }
  Reader reader(payload);
  StatusOr<Dataset> dataset = ReadDataset(&reader);
  if (!dataset.ok()) return dataset.status();

  decltype(Loaded::diagram) diagram(*dataset);
  if (Status s = ReadPool(&reader, version, dataset->size(), &diagram.pool());
      !s.ok()) {
    return s;
  }
  if (Status s =
          ReadCells(&reader, diagram.pool().size(), diagram.cell_table());
      !s.ok()) {
    return s;
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after the cell table");
  }
  if (options.validate_structure) {
    if (Status s = ValidateDiagram(*dataset, diagram, options.validate);
        !s.ok()) {
      return s;
    }
  }
  return Loaded{std::move(dataset).value(), std::move(diagram)};
}

Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // Bytes still buffered are flushed by the close; a failure there (a full
  // disk) must fail the save too.
  out.close();
  if (!out) return Status::Internal("short write: " + path);
  return Status::OK();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  // One read into a buffer sized from the file: streaming a blob of hundreds
  // of megabytes through a string stream regrows and copies it repeatedly.
  // A path with no size (a directory) reads as empty and fails the envelope
  // check as too short.
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  std::string bytes(error ? 0 : size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<size_t>(in.gcount()));
  return bytes;
}

}  // namespace

std::string SerializeCellDiagram(const Dataset& dataset,
                                 const CellDiagram& diagram) {
  return SerializeBlob(kKindCell, dataset, diagram.pool(),
                       diagram.cell_table());
}

Status SaveCellDiagram(const Dataset& dataset, const CellDiagram& diagram,
                       const std::string& path) {
  return WriteFile(path, SerializeCellDiagram(dataset, diagram));
}

StatusOr<LoadedCellDiagram> ParseCellDiagram(const std::string& bytes,
                                             const ParseOptions& options) {
  return ParseBlob<LoadedCellDiagram>(kKindCell, bytes, options);
}

StatusOr<LoadedCellDiagram> LoadCellDiagram(const std::string& path,
                                            const ParseOptions& options) {
  StatusOr<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return ParseCellDiagram(*bytes, options);
}

std::string SerializeSubcellDiagram(const Dataset& dataset,
                                    const SubcellDiagram& diagram) {
  return SerializeBlob(kKindSubcell, dataset, diagram.pool(),
                       diagram.cell_table());
}

Status SaveSubcellDiagram(const Dataset& dataset,
                          const SubcellDiagram& diagram,
                          const std::string& path) {
  return WriteFile(path, SerializeSubcellDiagram(dataset, diagram));
}

StatusOr<LoadedSubcellDiagram> ParseSubcellDiagram(
    const std::string& bytes, const ParseOptions& options) {
  return ParseBlob<LoadedSubcellDiagram>(kKindSubcell, bytes, options);
}

StatusOr<LoadedSubcellDiagram> LoadSubcellDiagram(const std::string& path,
                                                  const ParseOptions& options) {
  StatusOr<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return ParseSubcellDiagram(*bytes, options);
}

StatusOr<LoadedDiagram> LoadDiagram(const std::string& path) {
  StatusOr<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  // Dispatch on the kind byte so the body is parsed, and hashed, once.
  // Anything that is not a subcell envelope goes to the cell parser, whose
  // envelope check names the corruption (short file, bad magic, ...).
  if (bytes->size() >= kHeaderLen &&
      static_cast<uint8_t>((*bytes)[kHeaderLen - 1]) == kKindSubcell) {
    StatusOr<LoadedSubcellDiagram> subcell = ParseSubcellDiagram(*bytes);
    if (!subcell.ok()) return subcell.status();
    return LoadedDiagram(std::move(subcell).value());
  }
  StatusOr<LoadedCellDiagram> cell = ParseCellDiagram(*bytes);
  if (!cell.ok()) return cell.status();
  return LoadedDiagram(std::move(cell).value());
}

}  // namespace skydia
