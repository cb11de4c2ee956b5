#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace dpart::framing {

/// The shared "DPMG" CRC-framed wire layer.
///
/// One implementation of the frame discipline both socket protocols speak —
/// the multi-process backend (runtime/distributed/wire) and the plan service
/// (service/protocol):
///
///   magic[4] "DPMG" | type u8 | payload size u64 | crc32 u32 | payload
///
/// The same header discipline as the durable checkpoint framing
/// (support/serialize.hpp), reusing its CRC-32. Hardened against corrupt or
/// hostile peers: the declared payload size is checked against a cap BEFORE
/// any buffer is sized from it, and every read runs under a poll(2)
/// deadline, so a bad frame can cause neither an unbounded allocation nor an
/// unbounded hang. Protocol-level message types are opaque u8 values here;
/// each protocol supplies its own valid range and payload codecs.

/// Header size on the wire: magic[4] | type u8 | size u64 | crc32 u32.
inline constexpr std::size_t kFrameHeaderSize = 4 + 1 + 8 + 4;

/// One received frame: the protocol's type byte plus the verified payload.
struct RawFrame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// Send/receive tallies of one endpoint. The coordinator publishes its own
/// as executor.net.* metrics and PlanClient exposes its own; the plan
/// server keeps none.
struct NetCounters {
  std::uint64_t bytesSent = 0;
  std::uint64_t bytesRecv = 0;
  std::uint64_t messagesSent = 0;
  std::uint64_t messagesRecv = 0;
};

/// Writes one frame to `fd`. `node` only labels the TransportError thrown
/// on a send failure (EPIPE to a dead peer, etc.). `tamper`, when set, is
/// applied to a copy of the payload AFTER the checksum is computed — the
/// hook "net:" Poison fault sites use to put a genuinely corrupt frame on
/// the wire that the receiver must reject by CRC.
void sendFrame(int fd, std::uint8_t type, std::span<const std::uint8_t> payload,
               std::size_t node, NetCounters* counters = nullptr,
               const std::function<void(std::vector<std::uint8_t>&)>& tamper =
                   {});

/// Reads one frame from `fd` under a deadline. Returns std::nullopt on a
/// clean EOF at a frame boundary (peer closed between messages). Throws
/// TransportError(node) on: poll timeout (`timeoutMicros`; 0 = wait
/// forever), EOF mid-frame, socket error, bad magic, a type byte outside
/// [minType, maxType], a declared payload size above `maxFrameBytes`
/// (checked before allocation), or CRC mismatch.
[[nodiscard]] std::optional<RawFrame> recvFrame(
    int fd, std::uint64_t timeoutMicros, std::uint64_t maxFrameBytes,
    std::size_t node, std::uint8_t minType, std::uint8_t maxType,
    NetCounters* counters = nullptr);

}  // namespace dpart::framing
