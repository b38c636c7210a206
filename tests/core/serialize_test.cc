#include "src/core/serialize.h"

#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "src/common/sha256.h"
#include "src/core/diagram.h"
#include "src/core/point_location.h"
#include "src/datagen/real_data.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::RandomDataset;

TEST(SerializeTest, CellDiagramRoundTrip) {
  const Dataset ds = RandomDataset(30, 32, 3);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const std::string bytes = SerializeCellDiagram(ds, diagram);
  auto loaded = ParseCellDiagram(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dataset.points(), ds.points());
  EXPECT_EQ(loaded->dataset.domain_size(), ds.domain_size());
  EXPECT_TRUE(loaded->diagram.SameResults(diagram));
}

TEST(SerializeTest, CellDiagramWithLabelsRoundTrip) {
  const Dataset hotels = HotelExample();
  const SkylineDiagram built = testing::BuildDiagram(
      hotels, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  auto loaded = ParseCellDiagram(SerializeCellDiagram(hotels, diagram));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->dataset.has_labels());
  EXPECT_EQ(loaded->dataset.label(10), "p11");
  EXPECT_TRUE(loaded->diagram.SameResults(diagram));
}

TEST(SerializeTest, SubcellDiagramRoundTrip) {
  const Dataset ds = RandomDataset(12, 16, 5);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  const SubcellDiagram& diagram = *built.subcell_diagram();
  auto loaded = ParseSubcellDiagram(SerializeSubcellDiagram(ds, diagram));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->diagram.SameResults(diagram));
}

TEST(SerializeTest, QueriesSurviveTheRoundTrip) {
  const Dataset ds = RandomDataset(20, 24, 7);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  auto loaded = ParseCellDiagram(SerializeCellDiagram(ds, diagram));
  ASSERT_TRUE(loaded.ok());
  const PointLocationIndex before(diagram);
  const PointLocationIndex after(loaded->diagram);
  for (int64_t x = 0; x < 24; x += 3) {
    for (int64_t y = 0; y < 24; y += 3) {
      const auto a = before.Query({x, y});
      const auto b = after.Query({x, y});
      EXPECT_TRUE(a.size() == b.size() &&
                  std::equal(a.begin(), a.end(), b.begin()));
    }
  }
}

TEST(SerializeTest, FileRoundTrip) {
  const Dataset ds = RandomDataset(15, 20, 9);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const std::string path = ::testing::TempDir() + "/skydia_diagram.skd";
  ASSERT_TRUE(SaveCellDiagram(ds, diagram, path).ok());
  auto loaded = LoadCellDiagram(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->diagram.SameResults(diagram));
  std::remove(path.c_str());
}

TEST(SerializeTest, SaveReportsAFailedFlush) {
  // /dev/full accepts the open and fails every write. A blob small enough
  // to sit in the stream buffer until the close must fail the save too.
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  const Dataset ds = RandomDataset(2, 8, 17);
  const SkylineDiagram cell = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const Status cell_saved =
      SaveCellDiagram(ds, *cell.cell_diagram(), "/dev/full");
  EXPECT_EQ(cell_saved.code(), StatusCode::kInternal) << cell_saved;
  const SkylineDiagram subcell = testing::BuildDiagram(
      ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  const Status subcell_saved =
      SaveSubcellDiagram(ds, *subcell.subcell_diagram(), "/dev/full");
  EXPECT_EQ(subcell_saved.code(), StatusCode::kInternal) << subcell_saved;
}

TEST(SerializeTest, MissingFileIsNotFound) {
  auto loaded = LoadCellDiagram("/no/such/skydia/file.skd");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// --- failure injection -------------------------------------------------------

std::string ValidBytes() {
  const Dataset ds = RandomDataset(10, 16, 11);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  return SerializeCellDiagram(ds, diagram);
}

TEST(SerializeTest, RejectsBadMagic) {
  std::string bytes = ValidBytes();
  bytes[0] ^= 0xFF;
  auto loaded = ParseCellDiagram(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, RejectsEveryBitFlipSomewhere) {
  const std::string valid = ValidBytes();
  // Flip one byte at a spread of positions; the checksum (or an earlier
  // structural check) must catch every one of them.
  for (size_t pos = 8; pos < valid.size(); pos += 37) {
    std::string bytes = valid;
    bytes[pos] ^= 0x5A;
    auto loaded = ParseCellDiagram(bytes);
    EXPECT_FALSE(loaded.ok()) << "undetected corruption at byte " << pos;
  }
}

TEST(SerializeTest, RejectsTruncation) {
  const std::string valid = ValidBytes();
  for (const size_t keep :
       {size_t{0}, size_t{5}, size_t{9}, valid.size() / 2, valid.size() - 1}) {
    auto loaded = ParseCellDiagram(valid.substr(0, keep));
    EXPECT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

TEST(SerializeTest, RejectsTrailingGarbage) {
  std::string bytes = ValidBytes();
  bytes += "extra";
  auto loaded = ParseCellDiagram(bytes);
  EXPECT_FALSE(loaded.ok());
}

TEST(SerializeTest, RejectsKindConfusion) {
  // A subcell file must not parse as a cell diagram and vice versa.
  const Dataset ds = RandomDataset(8, 12, 13);
  const SkylineDiagram dynamic = testing::BuildDiagram(
      ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  const std::string sub_bytes =
      SerializeSubcellDiagram(ds, *dynamic.subcell_diagram());
  EXPECT_FALSE(ParseCellDiagram(sub_bytes).ok());

  const SkylineDiagram cells = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const std::string cell_bytes =
      SerializeCellDiagram(ds, *cells.cell_diagram());
  EXPECT_FALSE(ParseSubcellDiagram(cell_bytes).ok());
}

// --- v2 pool offset-table hardening ------------------------------------------
//
// The checksum catches random damage, but a malicious (or buggy) writer can
// produce a correctly checksummed blob whose pool offset table points outside
// the arena buffer, or whose header demands absurd allocations. These must be
// rejected by the structural checks with a Corruption status — never by
// reading out of bounds or by attempting a multi-gigabyte allocation.

uint64_t ReadU64At(const std::string& bytes, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= uint64_t{static_cast<uint8_t>(bytes[pos + i])} << (8 * i);
  }
  return v;
}

void WriteU64At(std::string* bytes, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[pos + i] = static_cast<char>(v >> (8 * i));
  }
}

void WriteU32At(std::string* bytes, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[pos + i] = static_cast<char>(v >> (8 * i));
  }
}

// Re-signs a hand-corrupted blob so only the structural checks can reject it.
void Rechecksum(std::string* bytes) {
  const size_t body = bytes->size() - 32;
  const Sha256Digest digest = Sha256::Hash(bytes->data(), body);
  std::memcpy(bytes->data() + body, digest.data(), digest.size());
}

// Byte layout of a label-free v2 cell blob (see serialize.cc file comment):
// magic+version+kind (9), dataset (8 domain + 8 n + 16n points + 1 label
// flag), then the pool block.
struct PoolLayout {
  size_t header_pos;  // num_sets u64, buffer_len u64
  size_t buffer_pos;
  size_t table_pos;   // num_sets x (offset u64, length u32)
  uint64_t num_sets;
  uint64_t buffer_len;
};

PoolLayout LocatePool(const std::string& bytes) {
  PoolLayout layout;
  const uint64_t n = ReadU64At(bytes, 9 + 8);
  layout.header_pos = 9 + 16 + 16 * n + 1;
  layout.num_sets = ReadU64At(bytes, layout.header_pos);
  layout.buffer_len = ReadU64At(bytes, layout.header_pos + 8);
  layout.buffer_pos = layout.header_pos + 16;
  layout.table_pos = layout.buffer_pos + 4 * layout.buffer_len;
  return layout;
}

TEST(SerializeTest, RejectsOffsetTablePointingPastBufferEnd) {
  std::string bytes = ValidBytes();
  const PoolLayout pool = LocatePool(bytes);
  ASSERT_GE(pool.num_sets, 2u);
  // Point record 1 far past the arena buffer and re-sign the blob.
  WriteU64At(&bytes, pool.table_pos + 12, pool.buffer_len + 1000);
  Rechecksum(&bytes);
  auto loaded = ParseCellDiagram(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, RejectsRecordLengthOverrunningBuffer) {
  std::string bytes = ValidBytes();
  const PoolLayout pool = LocatePool(bytes);
  ASSERT_GE(pool.num_sets, 2u);
  // Record 1 keeps its canonical offset but claims more members than the
  // buffer holds.
  WriteU32At(&bytes, pool.table_pos + 12 + 8,
             static_cast<uint32_t>(pool.buffer_len + 5));
  Rechecksum(&bytes);
  auto loaded = ParseCellDiagram(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, RejectsImplausibleSetCountWithoutAllocating) {
  std::string bytes = ValidBytes();
  const PoolLayout pool = LocatePool(bytes);
  // 2^31 sets would demand an 8 GiB offset-table allocation before the fix;
  // the reader must reject against the actual payload size instead.
  WriteU64At(&bytes, pool.header_pos, uint64_t{1} << 31);
  Rechecksum(&bytes);
  auto loaded = ParseCellDiagram(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, RejectsNonCanonicalGapInOffsetTable) {
  std::string bytes = ValidBytes();
  const PoolLayout pool = LocatePool(bytes);
  ASSERT_GE(pool.num_sets, 3u);
  // Shift record 2 forward by one element: records must tile back to back.
  const uint64_t offset = ReadU64At(bytes, pool.table_pos + 24);
  WriteU64At(&bytes, pool.table_pos + 24, offset + 1);
  Rechecksum(&bytes);
  auto loaded = ParseCellDiagram(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// --- format versioning -------------------------------------------------------

#include "tests/core/serialize_v1_fixture.inc"

TEST(SerializeTest, WritesVersion2Magic) {
  const std::string bytes = ValidBytes();
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 8), "SKYDIAG2");
}

TEST(SerializeTest, V1CellFixtureStillLoads) {
  const std::string bytes(kV1CellBlob, kV1CellBlob_len);
  ASSERT_EQ(bytes.substr(0, 8), "SKYDIAG1");
  auto loaded = ParseCellDiagram(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // The blob was written for exactly this dataset/diagram; the v1 reader
  // must reproduce it content-identically.
  const Dataset ds = RandomDataset(10, 16, 11);
  EXPECT_EQ(loaded->dataset.points(), ds.points());
  const SkylineDiagram rebuilt = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  EXPECT_TRUE(loaded->diagram.SameResults(*rebuilt.cell_diagram()));
}

TEST(SerializeTest, V1SubcellFixtureStillLoads) {
  const std::string bytes(kV1SubcellBlob, kV1SubcellBlob_len);
  ASSERT_EQ(bytes.substr(0, 8), "SKYDIAG1");
  auto loaded = ParseSubcellDiagram(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  const Dataset ds = RandomDataset(8, 12, 13);
  EXPECT_EQ(loaded->dataset.points(), ds.points());
  const SkylineDiagram rebuilt = testing::BuildDiagram(
      ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  EXPECT_TRUE(loaded->diagram.SameResults(*rebuilt.subcell_diagram()));
}

TEST(SerializeTest, V1RoundTripsThroughV2) {
  // Load the v1 fixture, re-serialize (always v2), reload: still equal.
  auto loaded = ParseCellDiagram(std::string(kV1CellBlob, kV1CellBlob_len));
  ASSERT_TRUE(loaded.ok());
  const std::string v2 = SerializeCellDiagram(loaded->dataset, loaded->diagram);
  EXPECT_EQ(v2.substr(0, 8), "SKYDIAG2");
  auto reloaded = ParseCellDiagram(v2);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_TRUE(reloaded->diagram.SameResults(loaded->diagram));
}

// The v2 bytes themselves are frozen: the round-trip tests compare the
// writer only against the reader, so a codec change that altered both the
// same way (word order, the offset-table layout) would pass them.

#include "tests/core/serialize_v2_fixture.inc"

Dataset LabelledFixtureDataset() {
  const Dataset plain = RandomDataset(10, 16, 11);
  std::vector<std::string> labels;
  for (PointId id = 0; id < plain.size(); ++id) {
    labels.push_back("p" + std::to_string(id + 1));
  }
  auto labelled =
      Dataset::Create(plain.points(), plain.domain_size(), std::move(labels));
  SKYDIA_CHECK(labelled.ok());
  return std::move(labelled).value();
}

TEST(SerializeTest, V2CellFixtureLoads) {
  auto loaded = ParseCellDiagram(std::string(kV2CellBlob, kV2CellBlob_len));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Dataset ds = LabelledFixtureDataset();
  EXPECT_EQ(loaded->dataset.points(), ds.points());
  ASSERT_TRUE(loaded->dataset.has_labels());
  EXPECT_EQ(loaded->dataset.label(9), "p10");
  const SkylineDiagram rebuilt = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  EXPECT_TRUE(loaded->diagram.SameResults(*rebuilt.cell_diagram()));
}

TEST(SerializeTest, V2SubcellFixtureLoads) {
  auto loaded =
      ParseSubcellDiagram(std::string(kV2SubcellBlob, kV2SubcellBlob_len));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Dataset ds = RandomDataset(8, 12, 13);
  EXPECT_EQ(loaded->dataset.points(), ds.points());
  const SkylineDiagram rebuilt = testing::BuildDiagram(
      ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  EXPECT_TRUE(loaded->diagram.SameResults(*rebuilt.subcell_diagram()));
}

TEST(SerializeTest, WriterReproducesTheV2FixturesByteForByte) {
  const Dataset cell_ds = LabelledFixtureDataset();
  const SkylineDiagram cell = testing::BuildDiagram(
      cell_ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  EXPECT_EQ(SerializeCellDiagram(cell_ds, *cell.cell_diagram()),
            std::string(kV2CellBlob, kV2CellBlob_len));
  const Dataset subcell_ds = RandomDataset(8, 12, 13);
  const SkylineDiagram subcell = testing::BuildDiagram(
      subcell_ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  EXPECT_EQ(SerializeSubcellDiagram(subcell_ds, *subcell.subcell_diagram()),
            std::string(kV2SubcellBlob, kV2SubcellBlob_len));
}

TEST(SerializeTest, RejectsUnknownVersion) {
  std::string bytes = ValidBytes();
  bytes[7] = '3';
  auto loaded = ParseCellDiagram(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// --- adversarial inputs (fuzz corpus regressions) ----------------------------

TEST(SerializeTest, RejectsEveryTruncationLength) {
  // Exhaustive version of RejectsTruncation: every proper prefix of a
  // valid blob is corrupt — no prefix length may parse, hang, or crash.
  const std::string valid = ValidBytes();
  for (size_t keep = 0; keep < valid.size(); ++keep) {
    auto loaded = ParseCellDiagram(valid.substr(0, keep));
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " of " << valid.size();
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

TEST(SerializeTest, RejectsRandomGarbage) {
  // Deterministic garbage of assorted lengths through both readers; the
  // odds of fabricating a valid checksum are nil, so everything must be
  // rejected without throwing or over-allocating.
  std::mt19937_64 rng(0xD1A62A11u);
  for (int round = 0; round < 64; ++round) {
    std::string bytes((rng() % 512) + 1, '\0');
    for (char& c : bytes) c = static_cast<char>(rng());
    EXPECT_FALSE(ParseCellDiagram(bytes).ok());
    EXPECT_FALSE(ParseSubcellDiagram(bytes).ok());
  }
}

TEST(SerializeTest, ReserializeIsByteIdentical) {
  // The fuzz harness's core invariant as a unit test: parsing a v2 blob
  // and serializing the result reproduces the input byte for byte (the
  // format is canonical — one diagram, one encoding).
  const std::string valid = ValidBytes();
  auto loaded = ParseCellDiagram(valid);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializeCellDiagram(loaded->dataset, loaded->diagram), valid);
}

TEST(SerializeTest, AdoptedPoolWithDuplicatesSurvives) {
  // A mutated diagram's adopted pool stores duplicate sets; Append-based
  // reconstruction must keep cell->content and the pool verbatim.
  const Dataset ds = RandomDataset(14, 20, 11);
  const IncrementalQuadrantDiagram mutated =
      testing::InsertedAndDeleted(ds, {10, 10});
  const CellDiagram& diagram = mutated.diagram();
  std::set<std::vector<PointId>> contents;
  for (SetId id = 0; id < diagram.pool().size(); ++id) {
    const auto set = diagram.pool().Get(id);
    contents.emplace(set.begin(), set.end());
  }
  ASSERT_LT(contents.size(), diagram.pool().size());
  auto loaded = ParseCellDiagram(SerializeCellDiagram(ds, diagram));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->diagram.SameResults(diagram));
  EXPECT_EQ(loaded->diagram.pool().size(), diagram.pool().size());
}

// --- LoadDiagram: one read, dispatched on the kind byte ----------------------

/// Cell and subcell blobs over one small dataset.
struct BothKinds {
  Dataset dataset = RandomDataset(10, 16, 17);
  SkylineDiagram cells = testing::BuildDiagram(
      dataset, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  SkylineDiagram subcells = testing::BuildDiagram(
      dataset, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  std::string cell_bytes = SerializeCellDiagram(dataset, *cells.cell_diagram());
  std::string subcell_bytes =
      SerializeSubcellDiagram(dataset, *subcells.subcell_diagram());
};

StatusOr<LoadedDiagram> LoadBytes(const std::string& bytes) {
  // One file per process: tests run concurrently as separate processes.
  const std::string path = ::testing::TempDir() + "/skydia_load_any_" +
                           std::to_string(::getpid()) + ".skd";
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    SKYDIA_CHECK(file != nullptr);
    SKYDIA_CHECK_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
                    bytes.size());
    std::fclose(file);
  }
  auto loaded = LoadDiagram(path);
  std::remove(path.c_str());
  return loaded;
}

TEST(SerializeTest, LoadDiagramDispatchesOnTheKindByte) {
  const BothKinds blobs;
  auto as_cell = LoadBytes(blobs.cell_bytes);
  ASSERT_TRUE(as_cell.ok()) << as_cell.status();
  const auto* cell = std::get_if<LoadedCellDiagram>(&*as_cell);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->dataset.points(), blobs.dataset.points());
  EXPECT_TRUE(cell->diagram.SameResults(*blobs.cells.cell_diagram()));

  auto as_subcell = LoadBytes(blobs.subcell_bytes);
  ASSERT_TRUE(as_subcell.ok()) << as_subcell.status();
  const auto* subcell = std::get_if<LoadedSubcellDiagram>(&*as_subcell);
  ASSERT_NE(subcell, nullptr);
  EXPECT_TRUE(
      subcell->diagram.SameResults(*blobs.subcells.subcell_diagram()));

  auto missing = LoadDiagram("/no/such/skydia/file.skd");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SerializeTest, LoadDiagramRejectsCorruptBlobsOfEitherKind) {
  // Whichever parser the (possibly damaged) kind byte selects, damage is a
  // Corruption error.
  const BothKinds blobs;
  constexpr size_t kKindPos = 8;  // after the 7-byte magic and the version
  for (const std::string* valid : {&blobs.cell_bytes, &blobs.subcell_bytes}) {
    std::vector<std::pair<const char*, std::string>> damaged;
    damaged.emplace_back("empty", "");
    damaged.emplace_back("header only", valid->substr(0, kKindPos + 1));
    damaged.emplace_back("truncated", valid->substr(0, valid->size() - 1));
    std::string flipped = *valid;
    flipped[flipped.size() / 2] ^= 0x20;
    damaged.emplace_back("flipped body byte", flipped);
    std::string swapped = *valid;
    swapped[kKindPos] = static_cast<char>(3 - swapped[kKindPos]);
    damaged.emplace_back("other kind", swapped);
    Rechecksum(&swapped);
    damaged.emplace_back("other kind, re-signed", swapped);
    std::string unknown = *valid;
    unknown[kKindPos] = 7;
    Rechecksum(&unknown);
    damaged.emplace_back("unknown kind, re-signed", unknown);
    for (const auto& [what, bytes] : damaged) {
      auto loaded = LoadBytes(bytes);
      ASSERT_FALSE(loaded.ok()) << what;
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
          << what << ": " << loaded.status();
    }
  }
}

// --- cell table hardening ----------------------------------------------------
//
// Re-signed blobs whose cell table disagrees with the grid or the pool pass
// the checksum, so only the parser's structural checks can reject them, for
// either kind.

/// Position of the cell table's count u64: right after the pool block.
size_t CellTablePos(const std::string& bytes) {
  const PoolLayout pool = LocatePool(bytes);
  return pool.table_pos + 12 * pool.num_sets;
}

void ExpectResignedCorruption(std::string bytes, const char* what) {
  Rechecksum(&bytes);
  auto loaded = LoadBytes(bytes);
  ASSERT_FALSE(loaded.ok()) << what;
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << what << ": " << loaded.status();
}

TEST(SerializeTest, RejectsResignedCellCountOneOff) {
  const BothKinds blobs;
  for (const std::string* valid : {&blobs.cell_bytes, &blobs.subcell_bytes}) {
    const size_t pos = CellTablePos(*valid);
    const uint64_t count = ReadU64At(*valid, pos);
    ASSERT_EQ(valid->size(), pos + 8 + 4 * count + 32);
    for (const uint64_t wrong : {count - 1, count + 1}) {
      std::string bytes = *valid;
      WriteU64At(&bytes, pos, wrong);
      ExpectResignedCorruption(bytes, "cell count one off");
    }
  }
}

TEST(SerializeTest, RejectsResignedCellIdEqualToPoolSize) {
  const BothKinds blobs;
  for (const std::string* valid : {&blobs.cell_bytes, &blobs.subcell_bytes}) {
    std::string bytes = *valid;
    WriteU32At(&bytes, CellTablePos(bytes) + 8,
               static_cast<uint32_t>(LocatePool(bytes).num_sets));
    ExpectResignedCorruption(bytes, "cell id equal to the pool size");
  }
}

TEST(SerializeTest, RejectsResignedExtraByteBeforeTheFooter) {
  // Unlike RejectsTrailingGarbage, the checksum covers the extra byte.
  const BothKinds blobs;
  for (const std::string* valid : {&blobs.cell_bytes, &blobs.subcell_bytes}) {
    std::string bytes = *valid;
    bytes.insert(bytes.size() - 32, 1, '\0');
    ExpectResignedCorruption(bytes, "extra byte before the footer");
  }
}

}  // namespace
}  // namespace skydia
