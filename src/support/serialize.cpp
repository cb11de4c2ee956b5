#include "support/serialize.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>

namespace dpart {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'D', 'P', 'C', 'K'};

// Header: magic[4] | version u32 | payload size u64 | crc32 u32.
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic byte-at-a-time table; tables[k][b] advances the
// CRC of byte b through k more zero bytes, so eight lookups fold 8 bytes.
CrcTables makeCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

// Little-endian load of a U from possibly unaligned bytes.
template <class U>
U load(const std::uint8_t* p) {
  U v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) v |= U(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const CrcTables t = makeCrcTables();
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load<std::uint32_t>(p);
    const std::uint32_t hi = load<std::uint32_t>(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void BinaryWriter::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void BinaryWriter::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void BinaryReader::fail(const std::string& what) const {
  throw CheckpointCorruption("truncated or malformed serialized stream: " +
                             what + " at offset " + std::to_string(pos_) +
                             " of " + std::to_string(data_.size()));
}

std::uint8_t BinaryReader::u8() {
  if (pos_ + 1 > data_.size()) fail("u8 past end");
  return data_[pos_++];
}

std::uint32_t BinaryReader::u32() {
  if (pos_ + 4 > data_.size()) fail("u32 past end");
  const auto v = load<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t BinaryReader::u64() {
  if (pos_ + 8 > data_.size()) fail("u64 past end");
  const auto v = load<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::size_t BinaryReader::count(std::size_t minElementBytes) {
  DPART_CHECK(minElementBytes > 0, "element encodings take at least a byte");
  const std::uint64_t n = u64();
  if (n > remaining() / minElementBytes) {
    fail("count " + std::to_string(n) + " of elements of at least " +
         std::to_string(minElementBytes) + " byte(s)");
  }
  return static_cast<std::size_t>(n);
}

double BinaryReader::f64() { return std::bit_cast<double>(u64()); }

std::string BinaryReader::str() {
  const std::uint64_t n = u64();
  if (n > remaining()) fail("string of length " + std::to_string(n));
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void BinaryReader::expectEnd() const {
  if (pos_ != data_.size()) {
    throw CheckpointCorruption(
        "serialized stream has " + std::to_string(data_.size() - pos_) +
        " unexpected trailing byte(s)");
  }
}

namespace {

// Writes `parts` back to back into `path + ".tmp"`, then renames it over
// `path` (rename within one directory is atomic on POSIX).
void writePartsAtomic(
    const std::string& path,
    std::initializer_list<std::span<const std::uint8_t>> parts) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    DPART_CHECK(out.good(), "cannot open '" + tmp + "' for writing");
    for (const std::span<const std::uint8_t> part : parts) {
      out.write(reinterpret_cast<const char*>(part.data()),
                static_cast<std::streamsize>(part.size()));
    }
    out.flush();
    DPART_CHECK(out.good(), "short write to '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  DPART_CHECK(!ec, "rename '" + tmp + "' -> '" + path + "': " + ec.message());
}

}  // namespace

void writeFileAtomic(const std::string& path,
                     std::span<const std::uint8_t> contents) {
  writePartsAtomic(path, {contents});
}

void writeFramedFile(
    const std::string& path, std::span<const std::uint8_t> payload,
    const std::function<void(std::vector<std::uint8_t>&)>& tamper) {
  BinaryWriter header;
  header.bytes(kMagic.data(), kMagic.size());
  header.u32(kSerializeVersion);
  header.u64(payload.size());
  header.u32(crc32(payload));
  if (tamper) {
    // Silent-corruption model: the checksum above was computed from the
    // intact payload, then the blob is damaged before reaching disk — so a
    // read must detect the mismatch instead of trusting the bytes.
    std::vector<std::uint8_t> damaged(payload.begin(), payload.end());
    tamper(damaged);
    writePartsAtomic(path, {header.payload(), damaged});
  } else {
    writePartsAtomic(path, {header.payload(), payload});
  }
}

std::vector<std::uint8_t> readFramedFile(const std::string& path,
                                         std::uint32_t* versionOut,
                                         std::uint64_t maxPayloadBytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) {
    throw CheckpointCorruption("cannot open checkpoint file '" + path + "'");
  }
  const std::streamoff fileSize = in.tellg();
  in.seekg(0);
  std::array<std::uint8_t, kHeaderSize> header{};
  if (fileSize < static_cast<std::streamoff>(kHeaderSize) ||
      !in.read(reinterpret_cast<char*>(header.data()), kHeaderSize)) {
    throw CheckpointCorruption(
        "checkpoint file '" + path + "' truncated: " +
        std::to_string(std::max<std::streamoff>(fileSize, 0)) + " byte(s)");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), header.begin())) {
    throw CheckpointCorruption("checkpoint file '" + path + "' has bad magic");
  }
  const auto version = load<std::uint32_t>(header.data() + 4);
  if (version < kMinSerializeVersion || version > kSerializeVersion) {
    throw CheckpointCorruption("checkpoint file '" + path +
                               "' has unsupported version " +
                               std::to_string(version));
  }
  if (versionOut != nullptr) *versionOut = version;
  const auto size = load<std::uint64_t>(header.data() + 8);
  // Cap check first: a corrupt length prefix must fail on its declared
  // size, before that size is compared to anything or used to size a
  // buffer (the "1 TiB header on a 1 KiB file" case).
  if (size > maxPayloadBytes) {
    throw CheckpointCorruption(
        "checkpoint file '" + path + "' declares a " + std::to_string(size) +
        "-byte payload, exceeding the " + std::to_string(maxPayloadBytes) +
        "-byte frame cap");
  }
  const auto stored = static_cast<std::uint64_t>(fileSize) - kHeaderSize;
  if (size != stored) {
    throw CheckpointCorruption(
        "checkpoint file '" + path + "' truncated: payload " +
        std::to_string(stored) + " of " + std::to_string(size) + " byte(s)");
  }
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(payload.data()),
                           static_cast<std::streamsize>(size))) {
    throw CheckpointCorruption("checkpoint file '" + path +
                               "' shrank while being read");
  }
  const auto want = load<std::uint32_t>(header.data() + 16);
  if (crc32(payload) != want) {
    throw CheckpointCorruption("checkpoint file '" + path +
                               "' failed CRC32 check");
  }
  return payload;
}

}  // namespace dpart
