#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace dpart {

/// On-disk format version of the checkpoint framing. Bumped whenever the
/// payload layout produced by region/snapshot or runtime/checkpoint changes;
/// readFramedFile accepts [kMinSerializeVersion, kSerializeVersion] and
/// reports the file's version so readers can branch, rejecting anything else
/// as CheckpointCorruption (a restart then falls back to re-initialization
/// rather than misinterpreting bytes).
///
/// v1: flat run-length IndexSet encoding.
/// v2: hybrid chunked IndexSet encoding (run or raw-bitmap containers behind
///     a tag byte); everything else unchanged. v1 files remain readable.
inline constexpr std::uint32_t kSerializeVersion = 2;
inline constexpr std::uint32_t kMinSerializeVersion = 1;

/// Default ceiling on a framed payload's *declared* size. A corrupt or
/// malicious length prefix larger than this is rejected as
/// CheckpointCorruption before any buffer is sized from it, so framing
/// errors cannot turn into multi-terabyte allocation attempts. The wire
/// transport (runtime/distributed) applies its own configurable cap
/// (DistributedOptions::maxFrameBytes) with the same
/// check-before-allocate rule.
inline constexpr std::uint64_t kMaxFramePayloadBytes = std::uint64_t{1}
                                                       << 30;  // 1 GiB

/// CRC-32 (IEEE 802.3 polynomial, as in zip/png) over a byte span.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Append-only little-endian binary stream. All multi-byte values are
/// written byte-by-byte, so payloads are portable across hosts regardless
/// of native endianness.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);

  /// Length-prefixed string (may contain embedded NULs).
  void str(const std::string& s);

  void bytes(const void* data, std::size_t n);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> payload() const { return buf_; }

  /// Consumes the writer.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a serialized payload. Every read past the end
/// of the buffer throws CheckpointCorruption ("truncated"), so a clipped
/// checkpoint file fails loudly instead of yielding garbage values.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Format version of the frame this payload came from (defaults to the
  /// current version for payloads that never hit disk). Decoders branch on
  /// this to keep reading older streams.
  [[nodiscard]] std::uint32_t formatVersion() const { return version_; }
  void setFormatVersion(std::uint32_t v) { version_ = v; }

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(u64());
  }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  [[nodiscard]] std::size_t remaining() const {
    return data_.size() - pos_;
  }

  /// Reads the element count of a sequence whose elements each encode to
  /// at least `minElementBytes` bytes, and throws CheckpointCorruption when
  /// the rest of the payload cannot hold that many. Decoders read every
  /// count through this before sizing a buffer or looping on it, so a
  /// hostile count fails as corruption instead of driving a huge
  /// allocation.
  [[nodiscard]] std::size_t count(std::size_t minElementBytes);

  /// Throws CheckpointCorruption when trailing bytes remain — a payload
  /// that parsed "successfully" but was longer than the schema expects is
  /// as suspect as a truncated one.
  void expectEnd() const;

 private:
  [[noreturn]] void fail(const std::string& what) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint32_t version_ = kSerializeVersion;
};

/// Writes `contents` to `path` atomically: the bytes land in `path + ".tmp"`
/// first and are renamed over `path`, so readers never observe a
/// half-written file (rename within one directory is atomic on POSIX).
void writeFileAtomic(const std::string& path,
                     std::span<const std::uint8_t> contents);

/// Frames a payload for durable storage: magic, kSerializeVersion, payload
/// size, CRC-32 of the payload, then the payload itself — written via
/// writeFileAtomic. `tamper`, when set, is applied to a copy of the payload
/// AFTER the checksum is computed (and before the bytes hit disk): this is
/// the hook FaultKind::CorruptCheckpoint uses to model silent media
/// corruption that the checksum must catch on read.
void writeFramedFile(
    const std::string& path, std::span<const std::uint8_t> payload,
    const std::function<void(std::vector<std::uint8_t>&)>& tamper = {});

/// Reads a framed file back, validating magic, version, length and CRC-32.
/// Versions in [kMinSerializeVersion, kSerializeVersion] are accepted; the
/// file's version is stored through `versionOut` when non-null so the caller
/// can seed BinaryReader::setFormatVersion. The header's declared payload
/// size is checked against `maxPayloadBytes` *before* any other use, so a
/// hand-crafted header declaring terabytes fails with a clear message
/// instead of driving downstream buffer sizing. Any mismatch — unreadable
/// file, truncation, oversized declaration, bad magic, out-of-range
/// version, checksum failure — throws CheckpointCorruption naming the file
/// and the defect.
[[nodiscard]] std::vector<std::uint8_t> readFramedFile(
    const std::string& path, std::uint32_t* versionOut = nullptr,
    std::uint64_t maxPayloadBytes = kMaxFramePayloadBytes);

}  // namespace dpart
