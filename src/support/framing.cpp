#include "support/framing.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "support/check.hpp"
#include "support/serialize.hpp"

namespace dpart::framing {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'D', 'P', 'M', 'G'};

void putU32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void putU64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t getU32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(in[i]) << (8 * i);
  return v;
}

std::uint64_t getU64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(in[i]) << (8 * i);
  return v;
}

[[noreturn]] void transportFail(std::size_t node, const std::string& what) {
  ErrorContext ctx;
  ctx.piece = -1;
  throw TransportError(node, "transport: " + what + " (node " +
                                 std::to_string(node) + ")",
                       std::move(ctx));
}

std::uint64_t nowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Reads exactly n bytes under the deadline. Returns false on EOF before
/// the first byte when allowEof; throws TransportError otherwise.
bool readFully(int fd, std::uint8_t* buf, std::size_t n,
               std::uint64_t timeoutMicros, std::size_t node, bool allowEof) {
  const std::uint64_t deadline =
      timeoutMicros == 0 ? 0 : nowMicros() + timeoutMicros;
  std::size_t got = 0;
  while (got < n) {
    int waitMs = -1;
    if (deadline != 0) {
      const std::uint64_t now = nowMicros();
      if (now >= deadline) {
        transportFail(node, "recv timed out after " +
                                std::to_string(timeoutMicros) + "us (" +
                                std::to_string(got) + "/" +
                                std::to_string(n) + " bytes)");
      }
      waitMs = static_cast<int>((deadline - now) / 1000 + 1);
    }
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, waitMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      transportFail(node, std::string("poll: ") + std::strerror(errno));
    }
    if (pr == 0) continue;  // re-check the deadline
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      transportFail(node, std::string("recv: ") + std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && allowEof) return false;
      transportFail(node, "peer closed mid-frame (" + std::to_string(got) +
                              "/" + std::to_string(n) + " bytes)");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

void sendFrame(int fd, std::uint8_t type, std::span<const std::uint8_t> payload,
               std::size_t node, NetCounters* counters,
               const std::function<void(std::vector<std::uint8_t>&)>& tamper) {
  std::array<std::uint8_t, kFrameHeaderSize> header{};
  std::memcpy(header.data(), kMagic.data(), kMagic.size());
  header[4] = type;
  putU64(header.data() + 5, payload.size());
  putU32(header.data() + 13, crc32(payload));
  std::vector<std::uint8_t> damaged;
  if (tamper) {
    // Silent-corruption model, as in writeFramedFile: the checksum was
    // computed from the intact payload, then the bytes on the wire are
    // damaged — the receiver must catch the mismatch.
    damaged.assign(payload.begin(), payload.end());
    tamper(damaged);
    damaged.resize(payload.size());  // tamper may not change the length
    payload = damaged;
  }
  // Header and payload leave in one sendmsg, so a loopback-TCP frame is not
  // split into two segments by Nagle's algorithm.
  std::array<iovec, 2> iov{
      iovec{header.data(), header.size()},
      iovec{const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov.data();
  msg.msg_iovlen = iov.size();
  std::size_t left = header.size() + payload.size();
  while (left > 0) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE (-> TransportError) instead of
    // killing the process with SIGPIPE.
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      transportFail(node, std::string("send: ") + std::strerror(errno));
    }
    // Skip what was written: drop finished iovecs, advance the partial one.
    left -= static_cast<std::size_t>(r);
    for (auto sent = static_cast<std::size_t>(r); sent > 0;) {
      iovec& front = *msg.msg_iov;
      const std::size_t step = std::min(sent, front.iov_len);
      front.iov_base = static_cast<std::uint8_t*>(front.iov_base) + step;
      front.iov_len -= step;
      sent -= step;
      if (front.iov_len == 0) {
        ++msg.msg_iov;
        --msg.msg_iovlen;
      }
    }
  }
  if (counters != nullptr) {
    counters->bytesSent += header.size() + payload.size();
    ++counters->messagesSent;
  }
}

std::optional<RawFrame> recvFrame(int fd, std::uint64_t timeoutMicros,
                                  std::uint64_t maxFrameBytes,
                                  std::size_t node, std::uint8_t minType,
                                  std::uint8_t maxType,
                                  NetCounters* counters) {
  std::array<std::uint8_t, kFrameHeaderSize> header;
  if (!readFully(fd, header.data(), header.size(), timeoutMicros, node,
                 /*allowEof=*/true)) {
    return std::nullopt;
  }
  if (std::memcmp(header.data(), kMagic.data(), kMagic.size()) != 0) {
    transportFail(node, "bad frame magic");
  }
  const std::uint8_t type = header[4];
  if (type < minType || type > maxType) {
    transportFail(node, "unknown frame type " + std::to_string(type));
  }
  const std::uint64_t size = getU64(header.data() + 5);
  // Cap check BEFORE the allocation the declared size would drive.
  if (size > maxFrameBytes) {
    transportFail(node, "frame declares " + std::to_string(size) +
                            " payload bytes, exceeding the " +
                            std::to_string(maxFrameBytes) + "-byte cap");
  }
  const std::uint32_t want = getU32(header.data() + 13);
  RawFrame frame;
  frame.type = type;
  frame.payload.resize(static_cast<std::size_t>(size));
  if (size > 0) {
    readFully(fd, frame.payload.data(), frame.payload.size(), timeoutMicros,
              node, /*allowEof=*/false);
  }
  if (crc32(frame.payload) != want) {
    transportFail(node, "frame failed CRC32 check (type " +
                            std::to_string(type) + ")");
  }
  if (counters != nullptr) {
    counters->bytesRecv += kFrameHeaderSize + frame.payload.size();
    ++counters->messagesRecv;
  }
  return frame;
}

}  // namespace dpart::framing
