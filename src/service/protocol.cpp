#include "service/protocol.hpp"

namespace dpart::service {

namespace {

constexpr int kMaxInnerDepth = 4;

// Fewest encoded bytes of each repeated element (a string is at least its
// u64 length), the sizes decoders pass to BinaryReader::count.
constexpr std::size_t kStrBytes = 8;
// kind, id, six strings, op, arg count, loop var, range var, body count.
constexpr std::size_t kStmtBytes = 1 + 8 + 6 * kStrBytes + 1 + 8 +
                                   2 * kStrBytes + 8;

void writeStmt(BinaryWriter& w, const ir::Stmt& s, int depth) {
  DPART_CHECK(depth < kMaxInnerDepth, "inner loops nested too deeply");
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.i64(s.id);
  w.str(s.var);
  w.str(s.region);
  w.str(s.field);
  w.str(s.idxVar);
  w.str(s.src);
  w.str(s.fn);
  w.u8(static_cast<std::uint8_t>(s.op));
  w.u64(s.args.size());
  for (const std::string& a : s.args) w.str(a);
  w.str(s.loopVar);
  w.str(s.rangeVar);
  w.u64(s.body.size());
  for (const ir::Stmt& b : s.body) writeStmt(w, b, depth + 1);
}

ir::Stmt readStmt(BinaryReader& r, int depth) {
  if (depth >= kMaxInnerDepth) {
    throw BadRequest("request declares inner loops nested deeper than " +
                     std::to_string(kMaxInnerDepth));
  }
  ir::Stmt s;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(ir::StmtKind::InnerLoop)) {
    throw BadRequest("unknown statement kind " + std::to_string(kind));
  }
  s.kind = static_cast<ir::StmtKind>(kind);
  s.id = static_cast<int>(r.i64());
  s.var = r.str();
  s.region = r.str();
  s.field = r.str();
  s.idxVar = r.str();
  s.src = r.str();
  s.fn = r.str();
  const std::uint8_t op = r.u8();
  if (op > static_cast<std::uint8_t>(ir::ReduceOp::Max)) {
    throw BadRequest("unknown reduce op " + std::to_string(op));
  }
  s.op = static_cast<ir::ReduceOp>(op);
  const std::size_t nArgs = r.count(kStrBytes);
  s.args.reserve(nArgs);
  for (std::size_t i = 0; i < nArgs; ++i) s.args.push_back(r.str());
  if (s.kind == ir::StmtKind::Compute) {
    // Closures do not travel. The pipeline only consults a Compute's args
    // (dataflow); the placeholder keeps the statement evaluable should a
    // diagnostic path ever call it.
    s.compute = [](std::span<const double>) { return 0.0; };
  }
  s.loopVar = r.str();
  s.rangeVar = r.str();
  const std::size_t nBody = r.count(kStmtBytes);
  s.body.reserve(nBody);
  for (std::size_t i = 0; i < nBody; ++i) {
    s.body.push_back(readStmt(r, depth + 1));
  }
  return s;
}

}  // namespace

const char* toString(MsgType t) {
  switch (t) {
    case MsgType::Request: return "Request";
    case MsgType::Response: return "Response";
    case MsgType::ErrorReply: return "ErrorReply";
    case MsgType::StatsRequest: return "StatsRequest";
    case MsgType::StatsReply: return "StatsReply";
    case MsgType::Shutdown: return "Shutdown";
  }
  return "?";
}

void throwServiceError(ErrorCode code, const std::string& what) {
  switch (code) {
    case ErrorCode::Overloaded: throw Overloaded(what);
    case ErrorCode::Infeasible: throw constraint::InfeasibleError(what);
    default: throwErrorCode(code, what);
  }
}

WorldShape WorldShape::describe(const region::World& world) {
  WorldShape shape;
  for (const std::string& name : world.regionNames()) {
    const region::Region& r = world.region(name);
    RegionShape rs;
    rs.name = name;
    rs.size = r.size();
    for (const std::string& field : r.fieldNames()) {
      rs.fields.push_back(FieldShape{field, r.fieldType(field)});
    }
    shape.regions.push_back(std::move(rs));
  }
  for (const std::string& id : world.fnIds()) {
    const region::FnDef& fn = world.fn(id);
    shape.fns.push_back(FnShape{fn.id, fn.kind, fn.domainRegion,
                                fn.rangeRegion, fn.field});
  }
  return shape;
}

region::World WorldShape::materialize(region::Index maxElements) const {
  region::World world;
  for (const RegionShape& rs : regions) {
    if (rs.size < 0 || rs.size > maxElements) {
      throw BadRequest("region '" + rs.name + "' declares " +
                       std::to_string(rs.size) +
                       " elements, exceeding the server cap of " +
                       std::to_string(maxElements));
    }
    if (world.hasRegion(rs.name)) {
      throw BadRequest("duplicate region '" + rs.name + "'");
    }
    region::Region& r = world.addRegion(rs.name, rs.size);
    for (const FieldShape& fs : rs.fields) r.addField(fs.name, fs.type);
  }
  for (const FnShape& fs : fns) {
    if (!world.hasRegion(fs.domainRegion) || !world.hasRegion(fs.rangeRegion)) {
      throw BadRequest("fn '" + fs.id + "' references an unknown region");
    }
    switch (fs.kind) {
      case region::FnKind::FieldPtr:
        world.defineFieldFn(fs.domainRegion, fs.field, fs.rangeRegion);
        break;
      case region::FnKind::FieldRange:
        world.defineRangeFn(fs.domainRegion, fs.field, fs.rangeRegion);
        break;
      case region::FnKind::Affine:
        // The body never travels; the solver is symbolic, so an identity
        // placeholder under the requester's id preserves the plan.
        world.defineAffineFn(fs.id, fs.domainRegion, fs.rangeRegion,
                             [](region::Index i) { return i; });
        break;
      case region::FnKind::Identity:
        throw BadRequest("the identity fn is implicit and cannot be defined");
    }
  }
  return world;
}

std::vector<std::uint8_t> encodeRequest(const PlanRequest& m) {
  BinaryWriter w;
  w.str(m.tenant);
  w.u64(m.pieces);
  std::uint8_t flags = 0;
  if (m.enableRelaxation) flags |= 1;
  if (m.enableDisjointReduction) flags |= 2;
  if (m.enablePrivateSubPartitions) flags |= 4;
  if (m.enableUnification) flags |= 8;
  w.u8(flags);
  w.u64(m.world.regions.size());
  for (const RegionShape& rs : m.world.regions) {
    w.str(rs.name);
    w.i64(rs.size);
    w.u64(rs.fields.size());
    for (const FieldShape& fs : rs.fields) {
      w.str(fs.name);
      w.u8(static_cast<std::uint8_t>(fs.type));
    }
  }
  w.u64(m.world.fns.size());
  for (const FnShape& fs : m.world.fns) {
    w.str(fs.id);
    w.u8(static_cast<std::uint8_t>(fs.kind));
    w.str(fs.domainRegion);
    w.str(fs.rangeRegion);
    w.str(fs.field);
  }
  w.str(m.program.name);
  w.u64(m.program.loops.size());
  for (const ir::Loop& loop : m.program.loops) {
    w.str(loop.name);
    w.str(loop.loopVar);
    w.str(loop.iterRegion);
    w.u64(loop.body.size());
    for (const ir::Stmt& s : loop.body) writeStmt(w, s, 0);
  }
  w.u64(m.vocab.capacities.size());
  for (const constraint::CapacityBound& cb : m.vocab.capacities) {
    w.str(cb.region);
    w.u64(cb.maxPerPiece);
  }
  w.u64(m.vocab.affinities.size());
  for (const constraint::FieldAffinity& fa : m.vocab.affinities) {
    w.str(fa.fieldA);
    w.str(fa.fieldB);
    w.u8(fa.together ? 1 : 0);
  }
  w.u64(m.vocab.replications.size());
  for (const constraint::ReplicationBound& rb : m.vocab.replications) {
    w.str(rb.region);
    w.f64(rb.minFactor);
    w.f64(rb.maxFactor);
  }
  return w.take();
}

namespace {

PlanRequest readRequest(BinaryReader& r) {
  PlanRequest m;
  m.tenant = r.str();
  m.pieces = r.u64();
  const std::uint8_t flags = r.u8();
  m.enableRelaxation = (flags & 1) != 0;
  m.enableDisjointReduction = (flags & 2) != 0;
  m.enablePrivateSubPartitions = (flags & 4) != 0;
  m.enableUnification = (flags & 8) != 0;
  // Region: name, size, field count.
  const std::size_t nRegions = r.count(kStrBytes + 8 + 8);
  m.world.regions.reserve(nRegions);
  for (std::size_t i = 0; i < nRegions; ++i) {
    RegionShape rs;
    rs.name = r.str();
    rs.size = r.i64();
    const std::size_t nFields = r.count(kStrBytes + 1);  // name, type
    rs.fields.reserve(nFields);
    for (std::size_t k = 0; k < nFields; ++k) {
      FieldShape fs;
      fs.name = r.str();
      const std::uint8_t type = r.u8();
      if (type > static_cast<std::uint8_t>(region::FieldType::Range)) {
        throw BadRequest("unknown field type " + std::to_string(type));
      }
      fs.type = static_cast<region::FieldType>(type);
      rs.fields.push_back(std::move(fs));
    }
    m.world.regions.push_back(std::move(rs));
  }
  // Fn: id, kind, domain, range, field.
  const std::size_t nFns = r.count(kStrBytes + 1 + 3 * kStrBytes);
  m.world.fns.reserve(nFns);
  for (std::size_t i = 0; i < nFns; ++i) {
    FnShape fs;
    fs.id = r.str();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(region::FnKind::FieldRange)) {
      throw BadRequest("unknown fn kind " + std::to_string(kind));
    }
    fs.kind = static_cast<region::FnKind>(kind);
    fs.domainRegion = r.str();
    fs.rangeRegion = r.str();
    fs.field = r.str();
    m.world.fns.push_back(std::move(fs));
  }
  m.program.name = r.str();
  // Loop: name, loop var, iteration region, statement count.
  const std::size_t nLoops = r.count(3 * kStrBytes + 8);
  m.program.loops.reserve(nLoops);
  for (std::size_t i = 0; i < nLoops; ++i) {
    ir::Loop loop;
    loop.name = r.str();
    loop.loopVar = r.str();
    loop.iterRegion = r.str();
    const std::size_t nStmts = r.count(kStmtBytes);
    loop.body.reserve(nStmts);
    for (std::size_t k = 0; k < nStmts; ++k) {
      loop.body.push_back(readStmt(r, 0));
    }
    m.program.loops.push_back(std::move(loop));
  }
  const std::size_t nCaps = r.count(kStrBytes + 8);  // region, bound
  m.vocab.capacities.reserve(nCaps);
  for (std::size_t i = 0; i < nCaps; ++i) {
    constraint::CapacityBound cb;
    cb.region = r.str();
    cb.maxPerPiece = static_cast<std::size_t>(r.u64());
    m.vocab.capacities.push_back(std::move(cb));
  }
  const std::size_t nAff = r.count(2 * kStrBytes + 1);  // fields, flag
  m.vocab.affinities.reserve(nAff);
  for (std::size_t i = 0; i < nAff; ++i) {
    constraint::FieldAffinity fa;
    fa.fieldA = r.str();
    fa.fieldB = r.str();
    fa.together = r.u8() != 0;
    m.vocab.affinities.push_back(std::move(fa));
  }
  const std::size_t nRep = r.count(kStrBytes + 2 * 8);  // region, bounds
  m.vocab.replications.reserve(nRep);
  for (std::size_t i = 0; i < nRep; ++i) {
    constraint::ReplicationBound rb;
    rb.region = r.str();
    rb.minFactor = r.f64();
    rb.maxFactor = r.f64();
    m.vocab.replications.push_back(std::move(rb));
  }
  r.expectEnd();
  return m;
}

}  // namespace

PlanRequest decodeRequest(BinaryReader& r) {
  try {
    return readRequest(r);
  } catch (const CheckpointCorruption& e) {
    // A structurally valid frame with a malformed request inside.
    throw BadRequest(std::string("malformed request payload: ") + e.what());
  }
}

std::vector<std::uint8_t> encodeResponse(const PlanResponse& m) {
  BinaryWriter w;
  w.u64(m.cacheKey);
  w.u8(m.cacheHit ? 1 : 0);
  w.f64(m.inferMs);
  w.f64(m.canonMs);
  w.f64(m.unifyMs);
  w.f64(m.solveMs);
  w.f64(m.rewriteMs);
  w.i64(m.parallelLoops);
  w.f64(m.serverMs);
  w.str(m.dpl);
  w.u64(m.loops.size());
  for (const LoopPlanInfo& lp : m.loops) {
    w.str(lp.name);
    w.str(lp.iterPartition);
    w.u8(lp.relaxed ? 1 : 0);
  }
  w.u64(m.externalSymbols.size());
  for (const std::string& s : m.externalSymbols) w.str(s);
  w.u64(m.propagations);
  w.u64(m.prunes);
  w.u64(m.branches);
  w.u64(m.backtracks);
  w.u64(m.restarts);
  return w.take();
}

PlanResponse decodeResponse(BinaryReader& r) {
  PlanResponse m;
  m.cacheKey = r.u64();
  m.cacheHit = r.u8() != 0;
  m.inferMs = r.f64();
  m.canonMs = r.f64();
  m.unifyMs = r.f64();
  m.solveMs = r.f64();
  m.rewriteMs = r.f64();
  m.parallelLoops = static_cast<int>(r.i64());
  m.serverMs = r.f64();
  m.dpl = r.str();
  // Loop: name, iteration partition, relaxed flag.
  const std::size_t nLoops = r.count(2 * kStrBytes + 1);
  m.loops.reserve(nLoops);
  for (std::size_t i = 0; i < nLoops; ++i) {
    LoopPlanInfo lp;
    lp.name = r.str();
    lp.iterPartition = r.str();
    lp.relaxed = r.u8() != 0;
    m.loops.push_back(std::move(lp));
  }
  const std::size_t nExternal = r.count(kStrBytes);
  m.externalSymbols.reserve(nExternal);
  for (std::size_t i = 0; i < nExternal; ++i) {
    m.externalSymbols.push_back(r.str());
  }
  m.propagations = r.u64();
  m.prunes = r.u64();
  m.branches = r.u64();
  m.backtracks = r.u64();
  m.restarts = r.u64();
  r.expectEnd();
  return m;
}

std::vector<std::uint8_t> encodeError(const ErrorReplyMsg& m) {
  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(m.code));
  w.str(m.what);
  return w.take();
}

ErrorReplyMsg decodeError(BinaryReader& r) {
  ErrorReplyMsg m;
  m.code = static_cast<ErrorCode>(r.u32());
  m.what = r.str();
  r.expectEnd();
  return m;
}

std::vector<std::uint8_t> encodeString(const std::string& s) {
  BinaryWriter w;
  w.str(s);
  return w.take();
}

std::string decodeString(BinaryReader& r) {
  std::string s = r.str();
  r.expectEnd();
  return s;
}

}  // namespace dpart::service
