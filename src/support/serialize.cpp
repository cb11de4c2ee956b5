#include "support/serialize.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace dpart {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'D', 'P', 'C', 'K'};

// Header: magic[4] | version u32 | payload size u64 | crc32 u32.
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t getU32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(in[at + i]) << (8 * i);
  return v;
}

std::uint64_t getU64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(in[at + i]) << (8 * i);
  return v;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void BinaryWriter::u32(std::uint32_t v) { putU32(buf_, v); }
void BinaryWriter::u64(std::uint64_t v) { putU64(buf_, v); }
void BinaryWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

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
  const std::uint32_t v = getU32(data_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t BinaryReader::u64() {
  if (pos_ + 8 > data_.size()) fail("u64 past end");
  const std::uint64_t v = getU64(data_, pos_);
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

void writeFileAtomic(const std::string& path,
                     std::span<const std::uint8_t> contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    DPART_CHECK(out.good(), "cannot open '" + tmp + "' for writing");
    out.write(reinterpret_cast<const char*>(contents.data()),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    DPART_CHECK(out.good(), "short write to '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  DPART_CHECK(!ec, "rename '" + tmp + "' -> '" + path + "': " + ec.message());
}

void writeFramedFile(
    const std::string& path, std::span<const std::uint8_t> payload,
    const std::function<void(std::vector<std::uint8_t>&)>& tamper) {
  std::vector<std::uint8_t> file;
  file.reserve(kHeaderSize + payload.size());
  file.insert(file.end(), kMagic.begin(), kMagic.end());
  putU32(file, kSerializeVersion);
  putU64(file, payload.size());
  putU32(file, crc32(payload));
  if (tamper) {
    // Silent-corruption model: the checksum above was computed from the
    // intact payload, then the blob is damaged before reaching disk — so a
    // read must detect the mismatch instead of trusting the bytes.
    std::vector<std::uint8_t> damaged(payload.begin(), payload.end());
    tamper(damaged);
    file.insert(file.end(), damaged.begin(), damaged.end());
  } else {
    file.insert(file.end(), payload.begin(), payload.end());
  }
  writeFileAtomic(path, file);
}

std::vector<std::uint8_t> readFramedFile(const std::string& path,
                                         std::uint32_t* versionOut,
                                         std::uint64_t maxPayloadBytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw CheckpointCorruption("cannot open checkpoint file '" + path + "'");
  }
  std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  if (file.size() < kHeaderSize) {
    throw CheckpointCorruption("checkpoint file '" + path + "' truncated: " +
                               std::to_string(file.size()) + " byte(s)");
  }
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (file[i] != kMagic[i]) {
      throw CheckpointCorruption("checkpoint file '" + path +
                                 "' has bad magic");
    }
  }
  const std::uint32_t version = getU32(file, 4);
  if (version < kMinSerializeVersion || version > kSerializeVersion) {
    throw CheckpointCorruption("checkpoint file '" + path +
                               "' has unsupported version " +
                               std::to_string(version));
  }
  if (versionOut != nullptr) *versionOut = version;
  const std::uint64_t size = getU64(file, 8);
  // Cap check first: a corrupt length prefix must fail on its declared
  // size, before that size is compared to anything or used to size a
  // buffer (the "1 TiB header on a 1 KiB file" case).
  if (size > maxPayloadBytes) {
    throw CheckpointCorruption(
        "checkpoint file '" + path + "' declares a " + std::to_string(size) +
        "-byte payload, exceeding the " + std::to_string(maxPayloadBytes) +
        "-byte frame cap");
  }
  if (size != file.size() - kHeaderSize) {
    throw CheckpointCorruption(
        "checkpoint file '" + path + "' truncated: payload " +
        std::to_string(file.size() - kHeaderSize) + " of " +
        std::to_string(size) + " byte(s)");
  }
  const std::uint32_t want = getU32(file, 16);
  std::vector<std::uint8_t> payload(file.begin() + kHeaderSize, file.end());
  const std::uint32_t got = crc32(payload);
  if (got != want) {
    throw CheckpointCorruption("checkpoint file '" + path +
                               "' failed CRC32 check");
  }
  return payload;
}

}  // namespace dpart
