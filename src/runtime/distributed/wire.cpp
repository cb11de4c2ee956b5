#include "runtime/distributed/wire.hpp"

#include <limits>

#include "region/snapshot.hpp"
#include "support/check.hpp"

namespace dpart::runtime::dist {

namespace {

void writeSlices(BinaryWriter& w, const std::vector<FieldSlice>& slices) {
  w.u64(slices.size());
  for (const FieldSlice& s : slices) {
    w.str(s.region);
    w.str(s.field);
    region::writeIndexSet(w, s.indices);
    DPART_CHECK(s.values.size() ==
                    static_cast<std::size_t>(s.indices.size()),
                "field slice value/index count mismatch");
    w.column(std::span<const double>(s.values));
  }
}

std::vector<FieldSlice> readSlices(BinaryReader& r) {
  // Smallest slice: region name, field name, empty index set.
  const std::size_t n = r.count(2 * 8 + region::kMinIndexSetBytes);
  std::vector<FieldSlice> slices;
  slices.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FieldSlice s;
    s.region = r.str();
    s.field = r.str();
    s.indices = region::readIndexSet(r);
    // A few runs can declare an index set far larger than its values:
    // column() rejects that as corruption before sizing the values.
    r.column(static_cast<std::size_t>(s.indices.size()), s.values);
    slices.push_back(std::move(s));
  }
  return slices;
}

}  // namespace

const char* toString(MsgType t) {
  switch (t) {
    case MsgType::Hello: return "Hello";
    case MsgType::Task: return "Task";
    case MsgType::Result: return "Result";
    case MsgType::TaskError: return "TaskError";
    case MsgType::Ping: return "Ping";
    case MsgType::Pong: return "Pong";
    case MsgType::Shutdown: return "Shutdown";
  }
  return "?";
}

void sendFrame(int fd, MsgType type, std::span<const std::uint8_t> payload,
               std::size_t node, NetCounters* counters,
               const std::function<void(std::vector<std::uint8_t>&)>& tamper) {
  framing::sendFrame(fd, static_cast<std::uint8_t>(type), payload, node,
                     counters, tamper);
}

std::optional<Frame> recvFrame(int fd, std::uint64_t timeoutMicros,
                               std::uint64_t maxFrameBytes, std::size_t node,
                               NetCounters* counters) {
  std::optional<framing::RawFrame> raw = framing::recvFrame(
      fd, timeoutMicros, maxFrameBytes, node,
      static_cast<std::uint8_t>(MsgType::Hello),
      static_cast<std::uint8_t>(MsgType::Shutdown), counters);
  if (!raw) return std::nullopt;
  Frame frame;
  frame.type = static_cast<MsgType>(raw->type);
  frame.payload = std::move(raw->payload);
  return frame;
}

std::vector<std::uint8_t> encodeTask(const TaskMsg& m) {
  BinaryWriter w;
  w.u64(m.seq);
  w.str(m.loop);
  w.u64(m.piece);
  writeSlices(w, m.refresh);
  return w.take();
}

TaskMsg decodeTask(BinaryReader& r) {
  TaskMsg m;
  m.seq = r.u64();
  m.loop = r.str();
  m.piece = r.u64();
  m.refresh = readSlices(r);
  r.expectEnd();
  return m;
}

std::vector<std::uint8_t> encodeResult(const ResultMsg& m) {
  BinaryWriter w;
  w.u64(m.seq);
  w.u64(m.piece);
  writeSlices(w, m.writes);
  w.u64(m.reduces.size());
  for (const BufferedReduce& br : m.reduces) {
    w.i64(br.stmtId);
    w.u8(static_cast<std::uint8_t>(br.op));
    w.u64(br.entries.size());
    for (const auto& [target, value] : br.entries) {
      w.i64(target);
      w.f64(value);
    }
  }
  w.f64(m.taskSeconds);
  return w.take();
}

ResultMsg decodeResult(BinaryReader& r) {
  ResultMsg m;
  m.seq = r.u64();
  m.piece = r.u64();
  m.writes = readSlices(r);
  // Smallest buffer: stmt id, op byte, entry count.
  const std::size_t nReduces = r.count(8 + 1 + 8);
  m.reduces.reserve(nReduces);
  for (std::size_t i = 0; i < nReduces; ++i) {
    BufferedReduce br;
    const std::int64_t stmtId = r.i64();
    if (stmtId < 0 || stmtId > std::numeric_limits<int>::max()) {
      throw CheckpointCorruption("reduction buffer has bad stmt id");
    }
    br.stmtId = static_cast<int>(stmtId);
    const std::uint8_t op = r.u8();
    if (op > static_cast<std::uint8_t>(ir::ReduceOp::Max)) {
      throw CheckpointCorruption("reduction buffer has unknown reduce op " +
                                 std::to_string(op));
    }
    br.op = static_cast<ir::ReduceOp>(op);
    const std::size_t nEntries = r.count(2 * 8);
    br.entries.reserve(nEntries);
    for (std::size_t k = 0; k < nEntries; ++k) {
      const region::Index target = r.i64();
      const double value = r.f64();
      br.entries.emplace_back(target, value);
    }
    m.reduces.push_back(std::move(br));
  }
  m.taskSeconds = r.f64();
  r.expectEnd();
  return m;
}

std::vector<std::uint8_t> encodeTaskError(const TaskErrorMsg& m) {
  BinaryWriter w;
  w.u64(m.seq);
  w.u64(m.piece);
  w.str(m.kind);
  w.str(m.what);
  w.u32(static_cast<std::uint32_t>(m.code));
  return w.take();
}

TaskErrorMsg decodeTaskError(BinaryReader& r) {
  TaskErrorMsg m;
  m.seq = r.u64();
  m.piece = r.u64();
  m.kind = r.str();
  m.what = r.str();
  m.code = static_cast<ErrorCode>(r.u32());
  r.expectEnd();
  return m;
}

std::uint64_t sliceElements(const std::vector<FieldSlice>& s) {
  std::uint64_t total = 0;
  for (const FieldSlice& slice : s) {
    total += static_cast<std::uint64_t>(slice.indices.size());
  }
  return total;
}

}  // namespace dpart::runtime::dist
