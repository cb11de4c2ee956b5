#pragma once

#include <map>
#include <string>

#include "region/partition.hpp"
#include "region/world.hpp"
#include "support/serialize.hpp"

namespace dpart::region {

/// Serialization of region-layer state for durable checkpoints
/// (runtime/checkpoint.hpp). Everything here targets the framed binary
/// stream from support/serialize.hpp; corruption and schema mismatches
/// surface as CheckpointCorruption from the bounds-checked reader or from
/// restoreWorld's structural validation.

/// Run-length fast path: an IndexSet is stored as its runs (lo/hi pairs),
/// so a contiguous block partition of a million-element region costs a few
/// dozen bytes rather than a bitmap or index list.
void writeIndexSet(BinaryWriter& w, const IndexSet& set);
[[nodiscard]] IndexSet readIndexSet(BinaryReader& r);

/// Fewest bytes an encoded IndexSet takes in any format version (the empty
/// set's run count) — the element size decoders pass to BinaryReader::count
/// for a sequence of sets.
inline constexpr std::size_t kMinIndexSetBytes = 8;

void writePartition(BinaryWriter& w, const Partition& p);
[[nodiscard]] Partition readPartition(BinaryReader& r);

/// Named partitions (e.g. a plan's externally bound symbols).
void writePartitionMap(BinaryWriter& w,
                       const std::map<std::string, Partition>& parts);
[[nodiscard]] std::map<std::string, Partition> readPartitionMap(
    BinaryReader& r);

/// Serializes every region (name, size, fields with full column data) plus
/// the set of registered function ids. The fn ids act as a structural
/// fingerprint: point functions themselves are code, re-registered by the
/// application on restart, so the snapshot only has to prove it was taken
/// from a World with the same shape. Columns go through the bulk codec
/// (BinaryWriter::column), and the writer grows once, by snapshotSize.
void snapshotWorld(BinaryWriter& w, const World& world);

/// Exact number of bytes snapshotWorld appends for `world`.
[[nodiscard]] std::size_t snapshotSize(const World& world);

/// Restores a snapshot into `world`, which must already have the same
/// structure (the application rebuilds regions/fields/fns on restart; the
/// checkpoint restores *data*). All columns are staged and validated against
/// the live World first — region names, sizes, field names/types, fn id
/// set — and only then committed, so a mismatching or truncated payload
/// throws CheckpointCorruption without leaving `world` half-overwritten.
void restoreWorld(BinaryReader& r, World& world);

}  // namespace dpart::region
