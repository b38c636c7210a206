// Binary serialization of built skyline diagrams: the precompute-once /
// serve-forever deployment the paper motivates (and the basis for the
// outsourcing applications — an owner builds and signs the file, servers
// load it).
//
// Format (little-endian), version 2 — the last magic byte is the version:
//   magic "SKYDIAG2" | kind u8 (1 = cell, 2 = subcell)
//   dataset: domain u64, n u64, n x (x i64, y i64),
//            labels: flag u8, then n x (len u32, bytes) when present
//   pool (the flat interning arena, one block):
//            num_sets u64, buffer_len u64, buffer u32 x buffer_len,
//            then num_sets x (offset u64, length u32)  -- set 0 is empty;
//            sets must tile the buffer back to back in id order
//   cells: count u64, ids u32...
//   footer: SHA-256 of everything above
// Version 1 ("SKYDIAG1") stored the pool as one length-prefixed id list per
// set; readers still accept it (writers always emit v2).
// Load verifies the magic, every structural invariant (sorted/unique set
// contents, in-range ids, canonical arena layout, grid shape) and the
// checksum, returning Status::Corruption on any mismatch — see
// tests/core/serialize_test.cc for the failure-injection matrix.
//
// The codec moves the u32 arrays that are nearly all of a blob (the set
// members and the cell table) in bulk: the writer sizes the blob once and
// appends each array in one copy, the reader copies each out in one
// bounds-checked read and then validates it. On a little-endian host each
// copy is a memcpy; a big-endian host swaps each word, so the bytes are the
// same everywhere. The hashing runs at memory speed too (see
// src/common/sha256.h). None of this changes the format: the frozen v1 and
// v2 fixtures (tests/core/serialize_v{1,2}_fixture.inc) pin the bytes, and
// the writer must reproduce the v2 ones exactly.
#ifndef SKYDIA_SRC_CORE_SERIALIZE_H_
#define SKYDIA_SRC_CORE_SERIALIZE_H_

#include <string>
#include <variant>

#include "src/common/status.h"
#include "src/core/diagram.h"
#include "src/core/skyline_cell.h"
#include "src/core/subcell_diagram.h"
#include "src/geometry/dataset.h"

namespace skydia {

/// A diagram loaded from disk, together with the dataset it was built from.
struct LoadedCellDiagram {
  Dataset dataset;
  CellDiagram diagram;
};
struct LoadedSubcellDiagram {
  Dataset dataset;
  SubcellDiagram diagram;
};
/// A diagram blob of either kind.
using LoadedDiagram = std::variant<LoadedCellDiagram, LoadedSubcellDiagram>;

/// Serializes a cell diagram (quadrant or global) with its source dataset.
std::string SerializeCellDiagram(const Dataset& dataset,
                                 const CellDiagram& diagram);
Status SaveCellDiagram(const Dataset& dataset, const CellDiagram& diagram,
                       const std::string& path);

/// Deserializes; returns Corruption on malformed/damaged input.
StatusOr<LoadedCellDiagram> ParseCellDiagram(const std::string& bytes);
StatusOr<LoadedCellDiagram> LoadCellDiagram(const std::string& path);

/// Subcell (dynamic) variants.
std::string SerializeSubcellDiagram(const Dataset& dataset,
                                    const SubcellDiagram& diagram);
Status SaveSubcellDiagram(const Dataset& dataset,
                          const SubcellDiagram& diagram,
                          const std::string& path);
StatusOr<LoadedSubcellDiagram> ParseSubcellDiagram(const std::string& bytes);
StatusOr<LoadedSubcellDiagram> LoadSubcellDiagram(const std::string& path);

/// Loads a blob of either kind: reads the file once and parses it as the
/// kind its envelope names, so the body is hashed once. The loader for
/// callers that serve or inspect whatever a file holds. NotFound when the
/// file cannot be opened; Corruption on malformed/damaged input, exactly
/// like the per-kind loaders.
StatusOr<LoadedDiagram> LoadDiagram(const std::string& path);

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_SERIALIZE_H_
