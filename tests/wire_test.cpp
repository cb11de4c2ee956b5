// Wire-protocol unit tests (runtime/distributed/wire): frame round trips
// over a real socketpair, oversized declared payloads rejected before any
// allocation, truncation and bit flips surfacing as TransportError carrying
// the worker id, and the message codecs round-tripping bit-exactly.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "region/index_set.hpp"
#include "runtime/distributed/wire.hpp"
#include "support/check.hpp"
#include "support/serialize.hpp"

namespace dpart::runtime::dist {
namespace {

using region::IndexSet;

/// A connected AF_UNIX stream pair, closed on destruction.
struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void closeA() {
    ::close(a);
    a = -1;
  }
  int a = -1;
  int b = -1;
};

constexpr std::uint64_t kCap = 1 << 20;
constexpr std::uint64_t kTimeout = 2'000'000;

TEST(Wire, FrameRoundTripsWithCounters) {
  SocketPair s;
  NetCounters sendC;
  NetCounters recvC;
  std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};
  sendFrame(s.a, MsgType::Task, payload, /*node=*/7, &sendC);
  auto frame = recvFrame(s.b, kTimeout, kCap, 7, &recvC);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::Task);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_EQ(sendC.messagesSent, 1u);
  EXPECT_EQ(recvC.messagesRecv, 1u);
  EXPECT_EQ(sendC.bytesSent, recvC.bytesRecv);
  EXPECT_GT(sendC.bytesSent, payload.size());

  // Empty payloads are legal (Ping/Pong/Shutdown).
  sendFrame(s.a, MsgType::Ping, {}, 7);
  frame = recvFrame(s.b, kTimeout, kCap, 7);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::Ping);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(Wire, CleanEofAtFrameBoundaryIsNullopt) {
  SocketPair s;
  s.closeA();
  EXPECT_FALSE(recvFrame(s.b, kTimeout, kCap, 3).has_value());
}

TEST(Wire, EofMidFrameThrowsWithNodeId) {
  SocketPair s;
  // A valid header promising 100 payload bytes, then silence and EOF.
  std::vector<std::uint8_t> header = {'D', 'P', 'M', 'G',
                                      static_cast<std::uint8_t>(MsgType::Task),
                                      100, 0, 0, 0, 0, 0, 0, 0,
                                      0,   0, 0, 0};
  ASSERT_EQ(::send(s.a, header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));
  s.closeA();
  try {
    (void)recvFrame(s.b, kTimeout, kCap, /*node=*/5);
    FAIL() << "mid-frame EOF went undetected";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.node(), 5u);
    EXPECT_NE(std::string(e.what()).find("mid-frame"), std::string::npos);
  }
}

TEST(Wire, OversizedDeclarationRejectedBeforeAllocation) {
  SocketPair s;
  // Declares ~1 TiB; the cap check must fire off the header alone — no
  // payload bytes follow, so any attempt to read (or allocate) them would
  // hang or die instead of failing fast.
  std::vector<std::uint8_t> header = {'D', 'P', 'M', 'G',
                                      static_cast<std::uint8_t>(MsgType::Task),
                                      0, 0, 0, 0, 0, 1, 0, 0,
                                      0, 0, 0, 0};
  ASSERT_EQ(::send(s.a, header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));
  try {
    (void)recvFrame(s.b, kTimeout, kCap, /*node=*/2);
    FAIL() << "oversized declaration went undetected";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.node(), 2u);
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos);
  }
}

TEST(Wire, BadMagicAndUnknownTypeRejected) {
  for (bool badMagic : {true, false}) {
    SocketPair s;
    std::vector<std::uint8_t> header(17, 0);
    header[0] = badMagic ? 'X' : 'D';
    header[1] = 'P';
    header[2] = 'M';
    header[3] = 'G';
    header[4] = badMagic ? static_cast<std::uint8_t>(MsgType::Task) : 99;
    ASSERT_EQ(::send(s.a, header.data(), header.size(), 0),
              static_cast<ssize_t>(header.size()));
    EXPECT_THROW((void)recvFrame(s.b, kTimeout, kCap, 0), TransportError);
  }
}

TEST(Wire, TamperedPayloadFailsCrc) {
  std::vector<std::uint8_t> payload(64, 0xAB);
  for (std::size_t flip = 0; flip < payload.size(); flip += 7) {
    SocketPair s;
    sendFrame(s.a, MsgType::Result, payload, /*node=*/4, nullptr,
              [flip](std::vector<std::uint8_t>& bytes) {
                bytes[flip] ^= 0x01;
              });
    try {
      (void)recvFrame(s.b, kTimeout, kCap, 4);
      FAIL() << "bit flip at " << flip << " went undetected";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.node(), 4u);
      EXPECT_NE(std::string(e.what()).find("CRC32"), std::string::npos);
    }
  }
}

TEST(Wire, RecvTimesOutOnSilentPeer) {
  SocketPair s;
  // One header byte, then silence: the deadline must fire.
  const std::uint8_t d = 'D';
  ASSERT_EQ(::send(s.a, &d, 1, 0), 1);
  try {
    (void)recvFrame(s.b, /*timeoutMicros=*/50'000, kCap, /*node=*/9);
    FAIL() << "silent peer did not time out";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.node(), 9u);
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
}

TEST(Wire, TaskMessageRoundTripsBitExactly) {
  TaskMsg m;
  m.seq = 41;
  m.loop = "flux";
  m.piece = 3;
  FieldSlice slice;
  slice.region = "R";
  slice.field = "val";
  slice.indices = IndexSet::fromIndices({0, 1, 5, 6, 7, 100});
  slice.values = {1.5, -0.0, std::bit_cast<double>(std::uint64_t{0x7ff8000000000001ULL}),
                  1e-300, 3.25, -7.0};
  m.refresh.push_back(slice);

  const std::vector<std::uint8_t> taskBytes = encodeTask(m);
  BinaryReader r(taskBytes);
  const TaskMsg got = decodeTask(r);
  EXPECT_EQ(got.seq, m.seq);
  EXPECT_EQ(got.loop, m.loop);
  EXPECT_EQ(got.piece, m.piece);
  ASSERT_EQ(got.refresh.size(), 1u);
  EXPECT_EQ(got.refresh[0].indices, slice.indices);
  ASSERT_EQ(got.refresh[0].values.size(), slice.values.size());
  for (std::size_t i = 0; i < slice.values.size(); ++i) {
    // Bit patterns, not value equality: NaNs and signed zeros must survive.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.refresh[0].values[i]),
              std::bit_cast<std::uint64_t>(slice.values[i]));
  }
  EXPECT_EQ(sliceElements(m.refresh), 6u);
}

TEST(Wire, ResultAndTaskErrorRoundTrip) {
  ResultMsg m;
  m.seq = 8;
  m.piece = 2;
  BufferedReduce rs;
  rs.stmtId = 12;
  rs.op = ir::ReduceOp::Min;
  rs.entries = {{3, 0.5}, {9, -2.25}};
  m.reduces.push_back(rs);
  m.taskSeconds = 0.125;
  const std::vector<std::uint8_t> resultBytes = encodeResult(m);
  BinaryReader r(resultBytes);
  const ResultMsg got = decodeResult(r);
  EXPECT_EQ(got.seq, 8u);
  EXPECT_EQ(got.piece, 2u);
  ASSERT_EQ(got.reduces.size(), 1u);
  EXPECT_EQ(got.reduces[0].stmtId, 12);
  EXPECT_EQ(got.reduces[0].op, ir::ReduceOp::Min);
  EXPECT_EQ(got.reduces[0].entries, rs.entries);
  EXPECT_EQ(got.taskSeconds, 0.125);

  TaskErrorMsg e{7, 1, "TaskFailure", "injected fault",
                 ErrorCode::TaskFailure};
  const std::vector<std::uint8_t> errBytes = encodeTaskError(e);
  BinaryReader er(errBytes);
  const TaskErrorMsg gotE = decodeTaskError(er);
  EXPECT_EQ(gotE.kind, "TaskFailure");
  EXPECT_EQ(gotE.what, "injected fault");
  EXPECT_EQ(gotE.code, ErrorCode::TaskFailure);

  // Truncated payloads must fail decoding, not read garbage.
  std::vector<std::uint8_t> bytes = encodeResult(m);
  bytes.resize(bytes.size() / 2);
  BinaryReader bad(bytes);
  EXPECT_THROW((void)decodeResult(bad), CheckpointCorruption);

  // A ~30-byte payload declaring 2^62 write-back slices must fail as
  // corruption before any buffer is sized from the count.
  BinaryWriter huge;
  huge.u64(8);
  huge.u64(2);
  huge.u64(std::uint64_t{1} << 62);
  huge.u32(0);
  BinaryReader hugeReader(huge.payload());
  EXPECT_THROW((void)decodeResult(hugeReader), CheckpointCorruption);

  // A reduce-op byte past ReduceOp::Max is rejected at decode, before the
  // coordinator could merge with it. Layout: seq, piece, slice count,
  // buffer count, stmt id, then the op byte.
  std::vector<std::uint8_t> badOp = encodeResult(m);
  badOp[5 * sizeof(std::uint64_t)] = 7;
  BinaryReader badOpReader(badOp);
  EXPECT_THROW((void)decodeResult(badOpReader), CheckpointCorruption);
}

}  // namespace
}  // namespace dpart::runtime::dist
