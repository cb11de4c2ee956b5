// Checkpoint subsystem tests: the framed binary stream (corruption must be
// detected, never parsed), region-layer snapshot/restore (bitwise round
// trips, structural validation), and the CheckpointManager's retention,
// manifest, and newest-to-oldest fallback across corrupt generations.

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "region/snapshot.hpp"
#include "runtime/checkpoint.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace dpart {
namespace {

namespace fs = std::filesystem;

using region::FieldType;
using region::Index;
using region::IndexSet;
using region::Partition;
using region::Run;
using region::World;

/// Fresh temp directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("dpart_" + tag + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
  fs::path path;
};

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(BinaryStream, RoundTripsEveryType) {
  BinaryWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(-0.0);
  w.f64(3.141592653589793);
  w.str("hello\0world");  // truncated at the NUL by the literal, still fine
  w.str("");

  BinaryReader r(w.payload());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expectEnd());
}

TEST(BinaryStream, ReadPastEndThrowsCheckpointCorruption) {
  BinaryWriter w;
  w.u32(7);
  BinaryReader r(w.payload());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW((void)r.u8(), CheckpointCorruption);

  BinaryReader r2(w.payload());
  EXPECT_THROW((void)r2.u64(), CheckpointCorruption);

  // A length-prefixed string whose length exceeds the remaining bytes.
  BinaryWriter w3;
  w3.u64(1000);
  BinaryReader r3(w3.payload());
  EXPECT_THROW(r3.str(), CheckpointCorruption);
}

TEST(BinaryStream, TrailingBytesAreRejected) {
  BinaryWriter w;
  w.u32(1);
  w.u32(2);
  BinaryReader r(w.payload());
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_THROW(r.expectEnd(), CheckpointCorruption);
}

TEST(FramedFile, RoundTrips) {
  TempDir dir("framed");
  const std::string path = (dir.path / "blob.dpc").string();
  BinaryWriter w;
  for (int i = 0; i < 100; ++i) w.u32(static_cast<std::uint32_t>(i * i));
  writeFramedFile(path, w.payload());
  EXPECT_EQ(readFramedFile(path), std::vector<std::uint8_t>(
                                      w.payload().begin(), w.payload().end()));
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "atomic write left its temp";
}

TEST(FramedFile, DetectsEveryBitFlip) {
  TempDir dir("flip");
  const std::string path = (dir.path / "blob.dpc").string();
  BinaryWriter w;
  w.str("payload worth protecting");
  writeFramedFile(path, w.payload());
  const std::vector<std::uint8_t> file = slurp(path);
  // Flip one bit at a time across the whole file — header and payload —
  // and require the reader to reject every variant.
  for (std::size_t at = 0; at < file.size(); ++at) {
    std::vector<std::uint8_t> damaged = file;
    damaged[at] ^= 1u << (at % 8);
    dump(path, damaged);
    EXPECT_THROW((void)readFramedFile(path), CheckpointCorruption)
        << "bit flip at byte " << at << " went undetected";
  }
}

TEST(FramedFile, DetectsTruncationAndBadMagic) {
  TempDir dir("trunc");
  const std::string path = (dir.path / "blob.dpc").string();
  BinaryWriter w;
  w.u64(123456789);
  writeFramedFile(path, w.payload());
  const std::vector<std::uint8_t> file = slurp(path);

  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{19},
                           file.size() - 1}) {
    dump(path, {file.begin(), file.begin() + static_cast<long>(keep)});
    EXPECT_THROW((void)readFramedFile(path), CheckpointCorruption)
        << "truncation to " << keep << " bytes went undetected";
  }

  std::vector<std::uint8_t> badMagic = file;
  badMagic[0] = 'X';
  dump(path, badMagic);
  EXPECT_THROW((void)readFramedFile(path), CheckpointCorruption);

  EXPECT_THROW((void)readFramedFile((dir.path / "missing.dpc").string()),
               CheckpointCorruption);
}

TEST(FramedFile, OversizedDeclaredPayloadFailsBeforeAllocation) {
  TempDir dir("oversize");
  const std::string path = (dir.path / "blob.dpc").string();
  BinaryWriter w;
  w.u64(42);
  writeFramedFile(path, w.payload());

  // Hand-craft a header whose size field (offset 8, little-endian u64)
  // declares an absurd ~1 TiB payload. The reader must reject it against
  // the frame cap instead of letting the declared size drive an allocation
  // (the file is 28 bytes; resize(1 TiB) would throw bad_alloc or OOM).
  const std::vector<std::uint8_t> intact = slurp(path);
  std::vector<std::uint8_t> oversized = intact;
  const std::uint64_t huge = std::uint64_t{1} << 40;
  for (int i = 0; i < 8; ++i) {
    oversized[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  }
  dump(path, oversized);
  try {
    (void)readFramedFile(path);
    FAIL() << "oversized declared payload went undetected";
  } catch (const CheckpointCorruption& e) {
    EXPECT_NE(std::string(e.what()).find("frame cap"), std::string::npos)
        << e.what();
  }

  // A caller-supplied cap tightens the default: the intact 8-byte payload
  // is over a 4-byte budget.
  dump(path, intact);
  EXPECT_EQ(readFramedFile(path), std::vector<std::uint8_t>(w.payload().begin(),
                                                            w.payload().end()));
  EXPECT_THROW((void)readFramedFile(path, nullptr, /*maxPayloadBytes=*/4),
               CheckpointCorruption);
}

TEST(FramedFile, TamperHookCorruptsAfterChecksum) {
  TempDir dir("tamper");
  const std::string path = (dir.path / "blob.dpc").string();
  BinaryWriter w;
  w.str("bytes that will be damaged in flight");
  writeFramedFile(path, w.payload(), [](std::vector<std::uint8_t>& blob) {
    blob[blob.size() / 2] ^= 0xFF;
  });
  // The CRC was computed over the intact payload, so the read must fail.
  EXPECT_THROW((void)readFramedFile(path), CheckpointCorruption);
}

TEST(Snapshot, IndexSetRoundTripsRandomized) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    region::IndexSetBuilder b;
    Index at = 0;
    const int runs = static_cast<int>(rng.below(8));
    for (int i = 0; i < runs; ++i) {
      at += static_cast<Index>(1 + rng.below(20));
      const Index len = static_cast<Index>(1 + rng.below(30));
      b.addRun(at, at + len);
      at += len;
    }
    const IndexSet set = b.build();
    BinaryWriter w;
    region::writeIndexSet(w, set);
    BinaryReader r(w.payload());
    EXPECT_EQ(region::readIndexSet(r), set);
    EXPECT_NO_THROW(r.expectEnd());
  }
}

TEST(Snapshot, IndexSetUsesRunLengthFastPath) {
  // A contiguous million-element interval is one run: a few dozen bytes,
  // not a megabyte of indices.
  BinaryWriter w;
  region::writeIndexSet(w, IndexSet::interval(0, 1'000'000));
  EXPECT_LT(w.size(), 100u);
}

TEST(Snapshot, PartitionMapRoundTrips) {
  std::map<std::string, Partition> parts;
  parts.emplace("p_block",
                Partition("R", {IndexSet::interval(0, 10),
                                IndexSet::interval(10, 25)}));
  parts.emplace("p_sparse",
                Partition("S", {IndexSet{1, 3, 5}, IndexSet{},
                                IndexSet::interval(7, 9)}));
  BinaryWriter w;
  region::writePartitionMap(w, parts);
  BinaryReader r(w.payload());
  EXPECT_EQ(region::readPartitionMap(r), parts);
  EXPECT_NO_THROW(r.expectEnd());
}

/// World with every field type, randomized contents.
void buildWorld(World& w, std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const Index nR = 16 + static_cast<Index>(rng.below(48));
  const Index nS = 8 + static_cast<Index>(rng.below(8));
  region::Region& r = w.addRegion("R", nR);
  r.addField("val", FieldType::F64);
  r.addField("owner", FieldType::Idx);
  region::Region& s = w.addRegion("S", nS);
  s.addField("acc", FieldType::F64);
  s.addField("span", FieldType::Range);
  w.defineFieldFn("R", "owner", "S");
  auto val = w.region("R").f64("val");
  auto owner = w.region("R").idx("owner");
  for (Index i = 0; i < nR; ++i) {
    val[static_cast<std::size_t>(i)] = rng.uniform() * 100 - 50;
    owner[static_cast<std::size_t>(i)] =
        static_cast<Index>(rng.below(static_cast<std::uint64_t>(nS)));
  }
  auto acc = w.region("S").f64("acc");
  auto span = w.region("S").range("span");
  for (Index i = 0; i < nS; ++i) {
    acc[static_cast<std::size_t>(i)] = rng.uniform();
    const Index lo = static_cast<Index>(rng.below(static_cast<std::uint64_t>(nR)));
    span[static_cast<std::size_t>(i)] =
        Run{lo, lo + static_cast<Index>(rng.below(5))};
  }
}

void scramble(World& w, std::uint64_t seed) {
  Rng rng(seed);
  for (const std::string& rn : w.regionNames()) {
    region::Region& r = w.region(rn);
    for (const std::string& f : r.fieldNames()) {
      switch (r.fieldType(f)) {
        case FieldType::F64:
          for (double& v : r.f64(f)) v = rng.uniform() * 1e6;
          break;
        case FieldType::Idx:
          for (Index& v : r.idx(f)) v = static_cast<Index>(rng.below(1000));
          break;
        case FieldType::Range:
          for (Run& v : r.range(f)) v = Run{0, static_cast<Index>(rng.below(9))};
          break;
      }
    }
  }
}

void expectWorldsBitwiseEqual(const World& want, const World& got) {
  ASSERT_EQ(want.regionNames(), got.regionNames());
  for (const std::string& rn : want.regionNames()) {
    const region::Region& a = want.region(rn);
    const region::Region& b = got.region(rn);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.fieldNames(), b.fieldNames());
    for (const std::string& f : a.fieldNames()) {
      ASSERT_EQ(a.fieldType(f), b.fieldType(f));
      switch (a.fieldType(f)) {
        case FieldType::F64: {
          auto ca = a.f64(f);
          auto cb = b.f64(f);
          for (std::size_t i = 0; i < ca.size(); ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(ca[i]),
                      std::bit_cast<std::uint64_t>(cb[i]))
                << rn << "." << f << "[" << i << "]";
          }
          break;
        }
        case FieldType::Idx: {
          auto ca = a.idx(f);
          auto cb = b.idx(f);
          for (std::size_t i = 0; i < ca.size(); ++i) {
            EXPECT_EQ(ca[i], cb[i]) << rn << "." << f << "[" << i << "]";
          }
          break;
        }
        case FieldType::Range: {
          auto ca = a.range(f);
          auto cb = b.range(f);
          for (std::size_t i = 0; i < ca.size(); ++i) {
            EXPECT_EQ(ca[i], cb[i]) << rn << "." << f << "[" << i << "]";
          }
          break;
        }
      }
    }
  }
}

TEST(Snapshot, WorldRoundTripsBitwise) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    World original;
    buildWorld(original, seed);
    BinaryWriter w;
    region::snapshotWorld(w, original);

    // Same structure, different data: the restore must overwrite all of it.
    World target;
    buildWorld(target, seed);
    scramble(target, seed + 99);

    BinaryReader r(w.payload());
    region::restoreWorld(r, target);
    expectWorldsBitwiseEqual(original, target);
  }
}

TEST(Snapshot, FixedPayloadCrcIsPinned) {
  // Size and CRC-32 of this payload as the per-value encoder wrote it:
  // the bulk column codec must leave every byte where it was.
  World w;
  buildWorld(w, 13);
  BinaryWriter payload;
  region::snapshotWorld(payload, w);
  EXPECT_EQ(payload.size(), 743u);
  EXPECT_EQ(crc32(payload.payload()), 0x11C1CA7Cu);
}

TEST(Snapshot, StructureMismatchThrowsWithoutPartialRestore) {
  World original;
  buildWorld(original, 1);
  BinaryWriter w;
  region::snapshotWorld(w, original);

  // Different region size.
  {
    World other;
    other.addRegion("R", 5).addField("val", FieldType::F64);
    BinaryReader r(w.payload());
    EXPECT_THROW(region::restoreWorld(r, other), CheckpointCorruption);
  }
  // Same regions, different field type.
  {
    World other;
    buildWorld(other, 1);
    scramble(other, 7);
    // Truncate the payload: decode must fail before any column is written.
    const auto full = w.payload();
    BinaryReader r(full.subspan(0, full.size() / 2));
    const std::vector<double> before(other.region("R").f64("val").begin(),
                                     other.region("R").f64("val").end());
    EXPECT_THROW(region::restoreWorld(r, other), CheckpointCorruption);
    const std::vector<double> after(other.region("R").f64("val").begin(),
                                    other.region("R").f64("val").end());
    EXPECT_EQ(before, after) << "failed restore must not touch the World";
  }
}

TEST(CheckpointManager, RetainsLastKAndWritesManifest) {
  TempDir dir("mgr");
  World w;
  buildWorld(w, 3);
  std::map<std::string, Partition> externals;
  externals.emplace("p_ext", Partition("R", {w.region("R").indexSpace()}));

  runtime::CheckpointManager mgr(dir.str(), /*retain=*/3);
  for (std::uint64_t launch = 1; launch <= 5; ++launch) {
    mgr.write(w, externals, launch, /*planHash=*/42, /*pieces=*/4);
  }
  EXPECT_EQ(mgr.generations(), 3u);
  EXPECT_EQ(mgr.latestGeneration(), 5u);

  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("ckpt-")) ++files;
  }
  EXPECT_EQ(files, 3u);

  std::ifstream manifest(dir.path / "MANIFEST");
  ASSERT_TRUE(manifest.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(manifest, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("launch=3"), std::string::npos) << lines[0];
  EXPECT_NE(lines[2].find("launch=5"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("plan=42"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("pieces=4"), std::string::npos) << lines[2];
}

TEST(CheckpointManager, RestoresLatestAndSurvivesRestart) {
  TempDir dir("restore");
  World w;
  buildWorld(w, 4);
  std::map<std::string, Partition> externals;
  externals.emplace("p_ext", Partition("R", {w.region("R").indexSpace()}));

  {
    runtime::CheckpointManager mgr(dir.str());
    mgr.write(w, externals, /*launchIndex=*/7, /*planHash=*/9, /*pieces=*/2);
  }

  // A brand-new manager (fresh process) must find the generation on disk.
  runtime::CheckpointManager mgr(dir.str());
  EXPECT_EQ(mgr.generations(), 1u);

  World target;
  buildWorld(target, 4);
  scramble(target, 11);
  const auto restored = mgr.restoreLatest(target, /*planHash=*/9);
  EXPECT_EQ(restored.meta.launchIndex, 7u);
  EXPECT_EQ(restored.meta.pieces, 2u);
  EXPECT_EQ(restored.fallbacks, 0);
  EXPECT_EQ(restored.externals, externals);
  expectWorldsBitwiseEqual(w, target);
}

TEST(CheckpointManager, FallsBackPastCorruptGenerations) {
  TempDir dir("fallback");
  World w;
  buildWorld(w, 5);
  const std::vector<double> launch1Val(w.region("R").f64("val").begin(),
                                       w.region("R").f64("val").end());

  runtime::CheckpointManager mgr(dir.str(), /*retain=*/4);
  mgr.write(w, {}, 1, 0, 2);
  scramble(w, 21);  // generation 2 checkpoints different data
  mgr.write(w, {}, 2, 0, 2);

  // Corrupt the newest generation on disk (flip payload bytes).
  const std::string newest = (dir.path / "ckpt-000002.dpc").string();
  std::vector<std::uint8_t> file = slurp(newest);
  ASSERT_GT(file.size(), 64u);
  for (std::size_t i = 40; i < 48; ++i) file[i] ^= 0xFF;
  dump(newest, file);

  World target;
  buildWorld(target, 5);
  scramble(target, 33);
  const auto restored = mgr.restoreLatest(target);
  EXPECT_EQ(restored.meta.launchIndex, 1u);
  EXPECT_EQ(restored.fallbacks, 1);
  const std::vector<double> got(target.region("R").f64("val").begin(),
                                target.region("R").f64("val").end());
  EXPECT_EQ(got, launch1Val);
}

TEST(CheckpointManager, ThrowsWhenEveryGenerationIsCorrupt) {
  TempDir dir("allbad");
  World w;
  buildWorld(w, 6);
  runtime::CheckpointManager mgr(dir.str());
  mgr.write(w, {}, 1, 0, 2);
  mgr.write(w, {}, 2, 0, 2);

  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("ckpt-")) continue;
    std::vector<std::uint8_t> file = slurp(entry.path().string());
    file.resize(file.size() / 2);  // truncate
    dump(entry.path().string(), file);
  }
  World target;
  buildWorld(target, 6);
  EXPECT_THROW((void)mgr.restoreLatest(target), CheckpointCorruption);
}

TEST(CheckpointManager, SkipsGenerationsFromOtherPlans) {
  TempDir dir("planhash");
  World w;
  buildWorld(w, 8);
  runtime::CheckpointManager mgr(dir.str());
  mgr.write(w, {}, 1, /*planHash=*/100, 2);
  mgr.write(w, {}, 2, /*planHash=*/200, 2);  // e.g. a different binary

  World target;
  buildWorld(target, 8);
  scramble(target, 1);
  const auto restored = mgr.restoreLatest(target, /*planHash=*/100);
  EXPECT_EQ(restored.meta.launchIndex, 1u);
  EXPECT_EQ(restored.fallbacks, 1);
}

TEST(CheckpointManager, CorruptCheckpointFaultIsCaughtOnRestore) {
  TempDir dir("inject");
  World w;
  buildWorld(w, 9);
  const std::vector<double> cleanVal(w.region("R").f64("val").begin(),
                                     w.region("R").f64("val").end());

  FaultInjector inj(123);
  FaultSpec corrupt;
  corrupt.kind = FaultKind::CorruptCheckpoint;
  corrupt.afterArrivals = 1;
  corrupt.maxFires = 1;
  inj.arm("checkpoint:write:2", corrupt);

  runtime::CheckpointManager mgr(dir.str());
  mgr.write(w, {}, 1, 0, 2, &inj);
  scramble(w, 5);
  mgr.write(w, {}, 2, 0, 2, &inj);  // silently damaged on the way to disk
  EXPECT_EQ(inj.totalFires(), 1u);

  World target;
  buildWorld(target, 9);
  scramble(target, 77);
  const auto restored = mgr.restoreLatest(target);
  EXPECT_EQ(restored.fallbacks, 1) << "damaged generation must be skipped";
  EXPECT_EQ(restored.meta.launchIndex, 1u);
  const std::vector<double> got(target.region("R").f64("val").begin(),
                                target.region("R").f64("val").end());
  EXPECT_EQ(got, cleanVal);
}

// Builds a version-1 framed file by hand: same magic / size / CRC framing,
// but header version 1 and the pre-hybrid flat run-length IndexSet payload
// (no container tag byte). This is byte-for-byte what a pre-hybrid build
// wrote to disk.
void dumpV1Frame(const std::string& path,
                 std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> file = {'D', 'P', 'C', 'K'};
  const auto putU32 = [&file](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      file.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const auto putU64 = [&file](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      file.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  putU32(1);  // pre-hybrid format version
  putU64(payload.size());
  putU32(crc32(payload));
  file.insert(file.end(), payload.begin(), payload.end());
  dump(path, file);
}

// Namespace-scope (TEST bodies can't name Run: it collides with the
// inherited testing::Test::Run member): singleton runs {i, i+1} for
// i = lo, lo+2, ... below hi.
std::vector<Run> alternatingSingletons(Index lo, Index hi) {
  std::vector<Run> out;
  for (Index i = lo; i < hi; i += 2) out.push_back(Run{i, i + 1});
  return out;
}

void writeV1IndexSet(BinaryWriter& w, const IndexSet& set) {
  const auto runs = set.runs();
  w.u64(runs.size());
  for (const Run& run : runs) {
    w.i64(run.lo);
    w.i64(run.hi);
  }
}

TEST(CheckpointManager, PreHybridV1StreamRestoresBitExactly) {
  TempDir dir("v1compat");
  World w;
  buildWorld(w, 13);
  const Index nR = w.region("R").size();

  // Externals include a fragmented (alternating-singleton) subregion, the
  // shape most affected by the hybrid container switch on decode.
  std::map<std::string, Partition> externals;
  externals.emplace(
      "p_frag",
      Partition("R", {IndexSet::fromRuns(alternatingSingletons(0, nR)),
                      IndexSet::fromRuns(alternatingSingletons(1, nR))}));

  // v1 payload layout: meta, partition map (flat run lists), world snapshot.
  BinaryWriter payload;
  payload.u64(1);   // meta.generation
  payload.u64(7);   // meta.launchIndex
  payload.u64(21);  // meta.planHash
  payload.u64(2);   // meta.pieces
  payload.u64(externals.size());
  for (const auto& [name, part] : externals) {
    payload.str(name);
    payload.str(part.regionName());
    payload.u64(part.count());
    for (const IndexSet& sub : part.subregions()) {
      writeV1IndexSet(payload, sub);
    }
  }
  region::snapshotWorld(payload, w);  // field columns: unchanged since v1
  dumpV1Frame((dir.path / "ckpt-000001.dpc").string(), payload.payload());

  runtime::CheckpointManager mgr(dir.str());
  ASSERT_EQ(mgr.generations(), 1u);
  World target;
  buildWorld(target, 13);
  scramble(target, 31);
  const auto restored = mgr.restoreLatest(target, /*planHash=*/21);
  EXPECT_EQ(restored.fallbacks, 0);
  EXPECT_EQ(restored.meta.launchIndex, 7u);
  EXPECT_EQ(restored.meta.pieces, 2u);
  EXPECT_EQ(restored.externals, externals);
  expectWorldsBitwiseEqual(w, target);
}

}  // namespace
}  // namespace dpart
