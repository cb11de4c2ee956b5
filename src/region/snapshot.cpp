#include "region/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace dpart::region {

namespace {

constexpr std::uint8_t kTagF64 = 0;
constexpr std::uint8_t kTagIdx = 1;
constexpr std::uint8_t kTagRange = 2;

// v2 IndexSet encodings (v1 streams have no tag byte: the body is always the
// flat run list).
constexpr std::uint8_t kSetRuns = 0;     // u64 count, then (lo, hi) pairs
constexpr std::uint8_t kSetChunked = 1;  // per-chunk containers, bitmaps raw

// Per-chunk container kinds under kSetChunked.
constexpr std::uint8_t kChunkRuns = 0;
constexpr std::uint8_t kChunkBitmap = 1;

// Run columns cross the bulk codec as raw bytes: they must be exactly the
// (lo, hi) pair of 8-byte words the per-value encoding writes, in that order.
static_assert(std::is_trivially_copyable_v<Run> &&
              std::is_standard_layout_v<Run> && sizeof(Index) == 8 &&
              sizeof(Run) == 2 * sizeof(Index) && offsetof(Run, lo) == 0 &&
              offsetof(Run, hi) == sizeof(Index));

std::uint8_t tagOf(FieldType t) {
  switch (t) {
    case FieldType::F64: return kTagF64;
    case FieldType::Idx: return kTagIdx;
    case FieldType::Range: return kTagRange;
  }
  DPART_UNREACHABLE("bad FieldType");
}

std::size_t valueBytes(FieldType t) {
  return t == FieldType::Range ? sizeof(Run) : 8;
}

/// One staged field column, decoded but not yet committed to the World.
struct StagedField {
  std::string name;
  std::uint8_t tag = kTagF64;
  std::vector<double> f64;
  std::vector<Index> idx;
  std::vector<Run> range;
};

struct StagedRegion {
  std::string name;
  Index size = 0;
  std::vector<StagedField> fields;
};

[[noreturn]] void mismatch(const std::string& what) {
  throw CheckpointCorruption("snapshot does not match live World: " + what);
}

}  // namespace

void writeIndexSet(BinaryWriter& w, const IndexSet& set) {
  if (set.bitmapChunkCount() == 0) {
    // Run-shaped sets (the common partition case) keep the v1-style compact
    // run list behind a tag byte; interval partitions stay a few bytes each.
    const auto runs = set.runs();
    w.u8(kSetRuns);
    w.u64(runs.size());
    w.column(runs);
    return;
  }
  // Dense sets serialize chunk-at-a-time: bitmap containers are dumped as
  // raw words (64 per chunk) instead of exploding into per-run pairs.
  w.u8(kSetChunked);
  w.u64(set.chunkCount());
  set.visitChunks([&w](const IndexSet::ChunkView& c) {
    w.i64(c.base);
    if (!c.words.empty()) {
      w.u8(kChunkBitmap);
      w.column(c.words);
    } else {
      w.u8(kChunkRuns);
      w.u64(c.runs.size());
      w.column(c.runs);
    }
  });
}

IndexSet readIndexSet(BinaryReader& r) {
  std::vector<Run> runs;
  const auto readRunList = [&r, &runs] {
    const std::size_t first = runs.size();
    r.column(r.count(sizeof(Run)), runs);
    for (std::size_t i = first; i < runs.size(); ++i) {
      if (runs[i].hi <= runs[i].lo) {
        throw CheckpointCorruption("snapshot IndexSet has empty run [" +
                                   std::to_string(runs[i].lo) + "," +
                                   std::to_string(runs[i].hi) + ")");
      }
    }
  };
  if (r.formatVersion() < 2) {
    // v1 stream: bare run list, no tag byte.
    readRunList();
    return IndexSet::fromRuns(std::move(runs));
  }
  const std::uint8_t tag = r.u8();
  if (tag == kSetRuns) {
    readRunList();
  } else if (tag == kSetChunked) {
    // Smallest chunk: base, kind byte, empty run list.
    const std::size_t chunkCount = r.count(sizeof(Index) + 1 + 8);
    for (std::size_t c = 0; c < chunkCount; ++c) {
      const Index base = r.i64();
      const std::uint8_t kind = r.u8();
      if (kind == kChunkRuns) {
        readRunList();
      } else if (kind == kChunkBitmap) {
        for (std::size_t k = 0; k < detail::kChunkWords; ++k) {
          std::uint64_t word = r.u64();
          const Index wb = base + static_cast<Index>(k * 64);
          while (word != 0) {
            const int start = std::countr_zero(word);
            const int len = std::countr_one(word >> start);
            const Index lo = wb + start;
            if (!runs.empty() && runs.back().hi == lo) {
              runs.back().hi = lo + len;
            } else {
              runs.push_back(Run{lo, lo + len});
            }
            if (start + len >= 64) break;
            word &= ~0ull << (start + len);
          }
        }
      } else {
        throw CheckpointCorruption("snapshot IndexSet chunk has bad kind " +
                                   std::to_string(kind));
      }
    }
  } else {
    throw CheckpointCorruption("snapshot IndexSet has bad container tag " +
                               std::to_string(tag));
  }
  // fromRuns re-normalizes, so even a tampered-but-CRC-colliding payload
  // cannot smuggle an invariant-breaking set into the runtime.
  return IndexSet::fromRuns(std::move(runs));
}

void writePartition(BinaryWriter& w, const Partition& p) {
  w.str(p.regionName());
  w.u64(p.count());
  for (const IndexSet& sub : p.subregions()) writeIndexSet(w, sub);
}

Partition readPartition(BinaryReader& r) {
  std::string regionName = r.str();
  const std::size_t n = r.count(kMinIndexSetBytes);
  std::vector<IndexSet> subs;
  subs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) subs.push_back(readIndexSet(r));
  return Partition(std::move(regionName), std::move(subs));
}

void writePartitionMap(BinaryWriter& w,
                       const std::map<std::string, Partition>& parts) {
  w.u64(parts.size());
  for (const auto& [name, part] : parts) {
    w.str(name);
    writePartition(w, part);
  }
}

std::map<std::string, Partition> readPartitionMap(BinaryReader& r) {
  // Smallest entry: symbol name, region name, piece count.
  const std::size_t n = r.count(3 * 8);
  std::map<std::string, Partition> parts;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = r.str();
    parts.emplace(std::move(name), readPartition(r));
  }
  return parts;
}

std::size_t snapshotSize(const World& world) {
  std::size_t bytes = 8;  // region count
  for (const std::string& regionName : world.regionNames()) {
    const Region& region = world.region(regionName);
    bytes += 8 + regionName.size() + 8 + 8;  // name, size, field count
    const auto n = static_cast<std::size_t>(region.size());
    for (const std::string& fieldName : region.fieldNames()) {
      bytes += 8 + fieldName.size() + 1 +
               n * valueBytes(region.fieldType(fieldName));
    }
  }
  bytes += 8;  // fn id count
  for (const std::string& id : world.fnIds()) bytes += 8 + id.size();
  return bytes;
}

void snapshotWorld(BinaryWriter& w, const World& world) {
  w.reserve(snapshotSize(world));
  const std::vector<std::string> regionNames = world.regionNames();
  w.u64(regionNames.size());
  for (const std::string& regionName : regionNames) {
    const Region& region = world.region(regionName);
    w.str(regionName);
    w.i64(region.size());
    const std::vector<std::string> fieldNames = region.fieldNames();
    w.u64(fieldNames.size());
    for (const std::string& fieldName : fieldNames) {
      w.str(fieldName);
      const FieldType type = region.fieldType(fieldName);
      w.u8(tagOf(type));
      switch (type) {
        case FieldType::F64: w.column(region.f64(fieldName)); break;
        case FieldType::Idx: w.column(region.idx(fieldName)); break;
        case FieldType::Range: w.column(region.range(fieldName)); break;
      }
    }
  }
  const std::vector<std::string> fnIds = world.fnIds();
  w.u64(fnIds.size());
  for (const std::string& id : fnIds) w.str(id);
}

void restoreWorld(BinaryReader& r, World& world) {
  // Stage: decode everything before touching the World, so any read error
  // (truncation mid-column, bad type tag) aborts with the World intact.
  // Smallest region: name, size, field count.
  const std::size_t regionCount = r.count(3 * 8);
  std::vector<StagedRegion> staged;
  staged.reserve(regionCount);
  for (std::size_t ri = 0; ri < regionCount; ++ri) {
    StagedRegion sr;
    sr.name = r.str();
    sr.size = r.i64();
    if (sr.size < 0) mismatch("negative size for region '" + sr.name + "'");
    // Smallest field: name, type tag (an empty region has no values).
    const std::size_t fieldCount = r.count(8 + 1);
    for (std::size_t fi = 0; fi < fieldCount; ++fi) {
      StagedField sf;
      sf.name = r.str();
      sf.tag = r.u8();
      // column() rejects a size the rest of the payload cannot hold as
      // corruption before sizing the staged column.
      const auto n = static_cast<std::size_t>(sr.size);
      switch (sf.tag) {
        case kTagF64: r.column(n, sf.f64); break;
        case kTagIdx: r.column(n, sf.idx); break;
        case kTagRange: r.column(n, sf.range); break;
        default:
          throw CheckpointCorruption("snapshot field '" + sr.name + "." +
                                     sf.name + "' has bad type tag " +
                                     std::to_string(sf.tag));
      }
      sr.fields.push_back(std::move(sf));
    }
    staged.push_back(std::move(sr));
  }
  const std::size_t fnCount = r.count(8);
  std::vector<std::string> fnIds;
  fnIds.reserve(fnCount);
  for (std::size_t i = 0; i < fnCount; ++i) fnIds.push_back(r.str());
  r.expectEnd();

  // Validate: the live World must have exactly the snapshot's structure.
  const std::vector<std::string> liveRegions = world.regionNames();
  if (liveRegions.size() != staged.size()) {
    mismatch("snapshot has " + std::to_string(staged.size()) +
             " region(s), World has " + std::to_string(liveRegions.size()));
  }
  for (const StagedRegion& sr : staged) {
    if (!world.hasRegion(sr.name)) mismatch("no region '" + sr.name + "'");
    const Region& region = std::as_const(world).region(sr.name);
    if (region.size() != sr.size) {
      mismatch("region '" + sr.name + "' has size " +
               std::to_string(region.size()) + ", snapshot has " +
               std::to_string(sr.size));
    }
    const std::vector<std::string> liveFields = region.fieldNames();
    if (liveFields.size() != sr.fields.size()) {
      mismatch("region '" + sr.name + "' field count differs");
    }
    for (const StagedField& sf : sr.fields) {
      if (!region.hasField(sf.name)) {
        mismatch("region '" + sr.name + "' has no field '" + sf.name + "'");
      }
      if (tagOf(region.fieldType(sf.name)) != sf.tag) {
        mismatch("field '" + sr.name + "." + sf.name + "' type differs");
      }
    }
  }
  std::vector<std::string> liveFns = world.fnIds();
  std::sort(liveFns.begin(), liveFns.end());
  std::sort(fnIds.begin(), fnIds.end());
  if (liveFns != fnIds) mismatch("registered function ids differ");

  // Commit: overwrite every column in place.
  for (const StagedRegion& sr : staged) {
    Region& region = world.region(sr.name);
    for (const StagedField& sf : sr.fields) {
      switch (sf.tag) {
        case kTagF64:
          std::copy(sf.f64.begin(), sf.f64.end(), region.f64(sf.name).begin());
          break;
        case kTagIdx:
          std::copy(sf.idx.begin(), sf.idx.end(), region.idx(sf.name).begin());
          break;
        case kTagRange:
          std::copy(sf.range.begin(), sf.range.end(),
                    region.range(sf.name).begin());
          break;
        default: DPART_UNREACHABLE("validated tag");
      }
    }
  }
}

}  // namespace dpart::region
