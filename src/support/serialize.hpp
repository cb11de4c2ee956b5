#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <type_traits>
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
/// Computed slice-by-8 (eight table lookups per 8-byte load); the values are
/// those of the classic byte-at-a-time table loop.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "serialized streams need a little- or big-endian host");

/// A column element the bulk codec can move as raw bytes: trivially
/// copyable and made of whole 8-byte words (double, int64, uint64, or a
/// struct of those with no padding, such as region::Run — its layout is
/// pinned by a static_assert next to its codec). Each word is encoded as
/// one little-endian 8-byte value, exactly as u64()/i64()/f64() would.
template <class T>
concept WordColumn = std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0;

/// Append-only binary stream. Every multi-byte value is little-endian
/// whatever the host, so payloads are portable. On little-endian hosts a
/// scalar is one fixed-size store and a column() is one memcpy of the
/// column's bytes; big-endian hosts take a per-value byte loop that writes
/// the same bytes.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// Appends the values of a column back to back (no count prefix): the
  /// bytes of one u64()/i64()/f64() call per 8-byte word, in order.
  template <WordColumn T>
  void column(std::span<const T> values) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(values.data(), values.size_bytes());
    } else {
      for (const T& v : values) {
        std::array<std::uint64_t, sizeof(T) / 8> words;
        std::memcpy(words.data(), &v, sizeof(T));
        for (const std::uint64_t word : words) u64(word);
      }
    }
  }

  /// Length-prefixed string (may contain embedded NULs).
  void str(const std::string& s);

  void bytes(const void* data, std::size_t n);

  /// Sizes the buffer for `n` more bytes, so an encoder that knows its
  /// exact output size grows the buffer once.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> payload() const { return buf_; }

  /// Consumes the writer.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <class U>
  void put(U v) {
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t at = buf_.size();
      buf_.resize(at + sizeof(U));
      std::memcpy(buf_.data() + at, &v, sizeof(U));
    } else {
      for (std::size_t i = 0; i < sizeof(U); ++i) {
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
  }

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

  /// Reads `n` column values written by BinaryWriter::column and appends
  /// them to `out`. Throws CheckpointCorruption when the rest of the
  /// payload cannot hold `n` values, before `out` grows, so a hostile
  /// declared length never drives an allocation.
  template <WordColumn T>
  void column(std::size_t n, std::vector<T>& out) {
    if (n > remaining() / sizeof(T)) {
      fail("column of " + std::to_string(n) + " " +
           std::to_string(sizeof(T)) + "-byte value(s)");
    }
    const std::size_t at = out.size();
    out.resize(at + n);
    if constexpr (std::endian::native == std::endian::little) {
      if (n > 0) {
        std::memcpy(out.data() + at, data_.data() + pos_, n * sizeof(T));
      }
      pos_ += n * sizeof(T);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::array<std::uint64_t, sizeof(T) / 8> words;
        for (std::uint64_t& word : words) word = u64();
        std::memcpy(&out[at + i], words.data(), sizeof(T));
      }
    }
  }

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
/// size, CRC-32 of the payload, then the payload itself — written with the
/// same tmp + rename as writeFileAtomic, header and payload straight from
/// their buffers (no concatenated copy). `tamper`, when set, is applied to a
/// copy of the payload AFTER the checksum is computed (and before the bytes
/// hit disk): this is the hook FaultKind::CorruptCheckpoint uses to model
/// silent media corruption that the checksum must catch on read.
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
