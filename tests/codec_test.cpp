// Bulk column codec and CRC-32 tests (support/serialize): the slice-by-8
// crc32 against a bit-at-a-time reference over every alignment and tail
// length, and the memcpy column paths of snapshotWorld and the wire codecs
// against a per-value reference encoder kept here — the bytes on disk and
// on the wire must not move when the encoder gets faster.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "region/snapshot.hpp"
#include "runtime/distributed/wire.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace dpart {
namespace {

using region::FieldType;
using region::Index;
using region::IndexSet;
using region::Run;
using region::World;
using runtime::BufferedReduce;
using runtime::FieldSlice;

std::uint32_t bitwiseCrc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> randomBytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(std::span(reinterpret_cast<const std::uint8_t*>(check.data()),
                            check.size())),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryOffsetAndLength) {
  Rng rng(7);
  const std::vector<std::uint8_t> buf = randomBytes(rng, 8 + 80);
  // Offsets 0-7 put the first 8-byte load at every alignment; lengths 0-80
  // cover tail-only inputs, whole slices and every tail after them.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 80; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(crc32(s), bitwiseCrc32(s))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32, MatchesBitwiseReferenceOnRandomBuffers) {
  Rng rng(11);
  for (int i = 0; i < 24; ++i) {
    const std::size_t n = static_cast<std::size_t>(rng.below(64 * 1024 + 1));
    const std::vector<std::uint8_t> buf = randomBytes(rng, n);
    const std::size_t offset =
        n == 0 ? 0 : rng.below(std::min<std::size_t>(n, 8));
    const std::span<const std::uint8_t> s(buf.data() + offset, n - offset);
    ASSERT_EQ(crc32(s), bitwiseCrc32(s)) << "length " << s.size();
  }
}

/// The per-value encoder the bulk paths must reproduce byte for byte: every
/// multi-byte value is pushed one little-endian byte at a time.
struct RefWriter {
  void u8(std::uint8_t v) { out.push_back(v); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    out.insert(out.end(), s.begin(), s.end());
  }
  void run(const Run& r) {
    i64(r.lo);
    i64(r.hi);
  }
  std::vector<std::uint8_t> out;
};

void refIndexSet(RefWriter& w, const IndexSet& set) {
  if (set.bitmapChunkCount() == 0) {
    w.u8(0);  // run list
    w.u64(set.runs().size());
    for (const Run& r : set.runs()) w.run(r);
    return;
  }
  w.u8(1);  // chunked
  w.u64(set.chunkCount());
  set.visitChunks([&w](const IndexSet::ChunkView& c) {
    w.i64(c.base);
    if (!c.words.empty()) {
      w.u8(1);  // bitmap chunk
      for (const std::uint64_t word : c.words) w.u64(word);
    } else {
      w.u8(0);  // run chunk
      w.u64(c.runs.size());
      for (const Run& r : c.runs) w.run(r);
    }
  });
}

std::vector<std::uint8_t> refSnapshot(const World& world) {
  RefWriter w;
  w.u64(world.regionNames().size());
  for (const std::string& name : world.regionNames()) {
    const region::Region& region = world.region(name);
    w.str(name);
    w.i64(region.size());
    w.u64(region.fieldNames().size());
    for (const std::string& field : region.fieldNames()) {
      w.str(field);
      switch (region.fieldType(field)) {
        case FieldType::F64:
          w.u8(0);
          for (const double v : region.f64(field)) w.f64(v);
          break;
        case FieldType::Idx:
          w.u8(1);
          for (const Index v : region.idx(field)) w.i64(v);
          break;
        case FieldType::Range:
          w.u8(2);
          for (const Run& v : region.range(field)) w.run(v);
          break;
      }
    }
  }
  w.u64(world.fnIds().size());
  for (const std::string& id : world.fnIds()) w.str(id);
  return w.out;
}

void refSlices(RefWriter& w, const std::vector<FieldSlice>& slices) {
  w.u64(slices.size());
  for (const FieldSlice& s : slices) {
    w.str(s.region);
    w.str(s.field);
    refIndexSet(w, s.indices);
    for (const double v : s.values) w.f64(v);
  }
}

// Appends with += rather than "literal" + std::to_string(...), whose
// inlined form trips GCC 12's -Wrestrict false positive.
std::string numbered(const char* prefix, std::uint64_t k) {
  std::string out = prefix;
  out += std::to_string(k);
  return out;
}

/// Any 64-bit pattern, NaN payloads and signed zeros included.
double anyDouble(Rng& rng) { return std::bit_cast<double>(rng.next()); }

Run anyRun(Rng& rng) {
  return Run{static_cast<Index>(rng.next()), static_cast<Index>(rng.next())};
}

/// Empty, interval, scattered-run or dense (bitmap-chunk) sets.
IndexSet randomSet(Rng& rng) {
  constexpr Index kChunk = region::detail::kChunkBits;
  const auto base = static_cast<Index>(rng.below(3)) * kChunk;
  switch (rng.below(4)) {
    case 0: return {};
    case 1: {
      const Index lo = base + static_cast<Index>(rng.below(5000));
      const Index len = 1 + static_cast<Index>(rng.below(9000));
      return IndexSet::interval(lo, lo + len);
    }
    case 2: {
      std::vector<Run> runs;
      for (std::uint64_t k = rng.below(12); k > 0; --k) {
        const Index lo = base + static_cast<Index>(rng.below(20000));
        runs.push_back(Run{lo, lo + 1 + static_cast<Index>(rng.below(40))});
      }
      return IndexSet::fromRuns(std::move(runs));
    }
    default: {
      std::vector<Index> indices;
      const auto span = static_cast<Index>(1 + rng.below(3)) * kChunk;
      for (Index i = 0; i < span; ++i) {
        if (rng.chance(0.5)) indices.push_back(base + i);
      }
      return IndexSet::fromIndices(std::move(indices));
    }
  }
}

void fillRandomWorld(World& world, Rng& rng) {
  const std::uint64_t nRegions = rng.below(5);
  for (std::uint64_t ri = 0; ri < nRegions; ++ri) {
    const std::string name = numbered("region", ri);
    // Size-0 regions hold empty columns.
    const Index size =
        rng.chance(0.3) ? 0 : static_cast<Index>(rng.below(2000));
    region::Region& r = world.addRegion(name, size);
    const std::uint64_t nFields = rng.below(4);
    for (std::uint64_t fi = 0; fi < nFields; ++fi) {
      const std::string field = numbered("field", fi);
      const auto type = static_cast<FieldType>(rng.below(3));
      r.addField(field, type);
      switch (type) {
        case FieldType::F64:
          for (double& v : r.f64(field)) v = anyDouble(rng);
          break;
        case FieldType::Idx:
          for (Index& v : r.idx(field)) v = static_cast<Index>(rng.next());
          if (rng.chance(0.5)) world.defineFieldFn(name, field, name);
          break;
        case FieldType::Range:
          for (Run& v : r.range(field)) v = anyRun(rng);
          if (rng.chance(0.5)) world.defineRangeFn(name, field, name);
          break;
      }
    }
  }
}

TEST(ColumnCodec, SnapshotMatchesPerValueReference) {
  bool sawFieldlessRegion = false;
  bool sawEmptyColumn = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    World world;
    fillRandomWorld(world, rng);
    for (const std::string& name : world.regionNames()) {
      const region::Region& r = world.region(name);
      sawFieldlessRegion |= r.fieldNames().empty();
      sawEmptyColumn |= r.size() == 0 && !r.fieldNames().empty();
    }
    BinaryWriter w;
    w.u8(0x5A);  // snapshots are appended after other sections
    region::snapshotWorld(w, world);
    std::vector<std::uint8_t> want = {0x5A};
    const std::vector<std::uint8_t> ref = refSnapshot(world);
    want.insert(want.end(), ref.begin(), ref.end());
    ASSERT_EQ(std::vector<std::uint8_t>(w.payload().begin(), w.payload().end()),
              want)
        << "seed " << seed;
    EXPECT_EQ(region::snapshotSize(world), ref.size()) << "seed " << seed;
  }
  EXPECT_TRUE(sawFieldlessRegion);
  EXPECT_TRUE(sawEmptyColumn);
}

std::vector<FieldSlice> randomSlices(Rng& rng, bool& sawBitmap, bool& sawRuns) {
  std::vector<FieldSlice> slices(rng.below(4));
  for (FieldSlice& s : slices) {
    s.region = numbered("r", rng.below(3));
    s.field = numbered("f", rng.below(3));
    s.indices = randomSet(rng);
    (s.indices.bitmapChunkCount() > 0 ? sawBitmap : sawRuns) = true;
    s.values.resize(static_cast<std::size_t>(s.indices.size()));
    for (double& v : s.values) v = anyDouble(rng);
  }
  return slices;
}

TEST(ColumnCodec, WireMessagesMatchPerValueReference) {
  bool sawBitmap = false;
  bool sawRuns = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    runtime::dist::TaskMsg task;
    task.seq = rng.next();
    task.loop = numbered("loop", seed);
    task.piece = rng.below(16);
    task.refresh = randomSlices(rng, sawBitmap, sawRuns);
    RefWriter t;
    t.u64(task.seq);
    t.str(task.loop);
    t.u64(task.piece);
    refSlices(t, task.refresh);
    ASSERT_EQ(runtime::dist::encodeTask(task), t.out) << "seed " << seed;

    runtime::dist::ResultMsg result;
    result.seq = rng.next();
    result.piece = rng.below(16);
    result.writes = randomSlices(rng, sawBitmap, sawRuns);
    result.reduces.resize(rng.below(3));
    for (BufferedReduce& br : result.reduces) {
      br.stmtId = static_cast<int>(rng.below(100));
      br.op = static_cast<ir::ReduceOp>(rng.below(3));
      for (std::uint64_t k = rng.below(20); k > 0; --k) {
        br.entries.emplace_back(static_cast<Index>(rng.next()), anyDouble(rng));
      }
    }
    result.taskSeconds = anyDouble(rng);
    RefWriter r;
    r.u64(result.seq);
    r.u64(result.piece);
    refSlices(r, result.writes);
    r.u64(result.reduces.size());
    for (const BufferedReduce& br : result.reduces) {
      r.i64(br.stmtId);
      r.u8(static_cast<std::uint8_t>(br.op));
      r.u64(br.entries.size());
      for (const auto& [target, value] : br.entries) {
        r.i64(target);
        r.f64(value);
      }
    }
    r.f64(result.taskSeconds);
    ASSERT_EQ(runtime::dist::encodeResult(result), r.out) << "seed " << seed;
  }
  EXPECT_TRUE(sawBitmap);
  EXPECT_TRUE(sawRuns);
}

TEST(ColumnCodec, ColumnsRoundTripBitExactly) {
  Rng rng(3);
  std::vector<double> f64(257);
  for (double& v : f64) v = anyDouble(rng);
  std::vector<Index> idx(129);
  for (Index& v : idx) v = static_cast<Index>(rng.next());
  std::vector<region::Run> runs(65);
  for (region::Run& v : runs) v = anyRun(rng);

  BinaryWriter w;
  w.u8(1);  // puts every column at an odd offset
  w.column(std::span<const double>(f64));
  w.column(std::span<const Index>(idx));
  w.column(std::span<const region::Run>(runs));
  EXPECT_EQ(w.size(), 1 + 8 * f64.size() + 8 * idx.size() + 16 * runs.size());

  BinaryReader r(w.payload());
  EXPECT_EQ(r.u8(), 1);
  std::vector<double> f64Back;
  std::vector<Index> idxBack;
  std::vector<region::Run> runsBack = {region::Run{1, 2}};  // reads append
  r.column(f64.size(), f64Back);
  r.column(idx.size(), idxBack);
  r.column(runs.size(), runsBack);
  r.expectEnd();
  ASSERT_EQ(f64Back.size(), f64.size());
  for (std::size_t i = 0; i < f64.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f64Back[i]),
              std::bit_cast<std::uint64_t>(f64[i]));
  }
  EXPECT_EQ(idxBack, idx);
  runs.insert(runs.begin(), region::Run{1, 2});
  EXPECT_EQ(runsBack, runs);
}

TEST(ColumnCodec, OverlongColumnThrowsBeforeAllocating) {
  BinaryWriter w;
  w.f64(1.0);
  w.f64(2.0);
  BinaryReader r(w.payload());
  std::vector<double> out;
  EXPECT_THROW(r.column(3, out), CheckpointCorruption);
  // A declared length needing terabytes is corruption, not an allocation.
  EXPECT_THROW(r.column(std::size_t{1} << 40, out), CheckpointCorruption);
  EXPECT_EQ(out.capacity(), 0u);
  std::vector<region::Run> runs;
  EXPECT_THROW(r.column(2, runs), CheckpointCorruption);  // 16 bytes each
  EXPECT_EQ(runs.capacity(), 0u);
  // A rejected read consumes nothing.
  r.column(2, out);
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0}));
  r.expectEnd();

  // A snapshot region declaring more values than the payload holds.
  RefWriter snap;
  snap.u64(1);
  snap.str("R");
  snap.i64(std::int64_t{1} << 40);
  snap.u64(1);
  snap.str("x");
  snap.u8(0);
  snap.f64(0.5);
  World world;
  world.addRegion("R", 4).addField("x", FieldType::F64);
  BinaryReader sr(snap.out);
  EXPECT_THROW(region::restoreWorld(sr, world), CheckpointCorruption);

  // A wire slice whose few runs declare far more values than follow.
  RefWriter msg;
  msg.u64(1);  // seq
  msg.str("loop");
  msg.u64(0);  // piece
  msg.u64(1);  // one slice
  msg.str("R");
  msg.str("x");
  msg.u8(0);  // run list
  msg.u64(1);
  msg.run(region::Run{0, std::int64_t{1} << 20});
  msg.f64(0.5);
  BinaryReader mr(msg.out);
  EXPECT_THROW((void)runtime::dist::decodeTask(mr), CheckpointCorruption);
}

}  // namespace
}  // namespace dpart
