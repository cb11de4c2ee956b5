#include "service_load.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <thread>

#include "ir/ir.hpp"
#include "runtime/session.hpp"
#include "service/client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = dpart::service;
using dpart::ir::LoopBuilder;
using dpart::region::FieldType;

namespace {

// ---- The program family -------------------------------------------------
//
// Member m has kLoopKinds digit counts in base kPerKind: how many loops of
// each kind it holds. Different counts give non-isomorphic constraint
// graphs, so every member is a distinct plan-cache key; renaming every
// region, field and loop of a member gives an isomorphic program with the
// same key.
constexpr int kLoopKinds = 4;
constexpr int kPerKind = 8;  // 0..7 loops of each kind
constexpr int kFamily = kPerKind * kPerKind * kPerKind * kPerKind;
constexpr std::size_t kWarmPrograms = 64;
// Mix: share of exact repeats and renamed programs; the rest is novel.
// The shares, the family's shape (0-7 loops of each kind over regions of
// 4096 and 2048 elements) and the warm-program count are assumptions, not
// measured traffic: no recorded request mix exists to draw them from.
// printKinds() reports each kind's cost so a result can be reweighted.
constexpr double kExactShare = 0.3;
constexpr double kRenamedShare = 0.4;

void loopCounts(int member, int (&counts)[kLoopKinds]) {
  for (int k = 0; k < kLoopKinds; ++k, member /= kPerKind) {
    counts[k] = member % kPerKind;
  }
}

int loopCount(int member) {
  int counts[kLoopKinds];
  loopCounts(member, counts);
  int total = 0;
  for (int c : counts) total += c;
  return total;
}

svc::PlanRequest familyProgram(int member, const std::string& tag) {
  int counts[kLoopKinds];
  loopCounts(member, counts);
  const std::string A = "A" + tag;
  const std::string B = "B" + tag;
  const std::string val = "val" + tag, out = "out" + tag;
  const std::string acc = "acc" + tag, w = "w" + tag;

  dpart::region::World world;
  auto& a = world.addRegion(A, 4096);
  auto& b = world.addRegion(B, 2048);
  a.addField(val, FieldType::F64);
  a.addField(out, FieldType::F64);
  b.addField(acc, FieldType::F64);
  b.addField(w, FieldType::F64);
  auto pointer = [&](const std::string& from, const std::string& field,
                     const std::string& to) {
    world.region(from).addField(field, FieldType::Idx);
    world.defineFieldFn(from, field, to);
  };

  dpart::ir::Program prog;
  prog.name = "family" + std::to_string(member) + tag;
  auto loopName = [&](const char* kind, int l) {
    return std::string(kind) + std::to_string(l) + tag;
  };
  // Kind 0: reduce through a pointer (uncentered reduction into B).
  for (int l = 0; l < counts[0]; ++l) {
    const std::string p = "pr" + std::to_string(l) + tag;
    pointer(A, p, B);
    prog.loops.push_back(LoopBuilder(loopName("scatter", l), "i", A)
                             .loadF64("x", A, val, "i")
                             .loadIdx("j", A, p, "i")
                             .reduce(B, acc, "j", "x")
                             .build());
  }
  // Kind 1: gather through a pointer (uncentered read of B).
  for (int l = 0; l < counts[1]; ++l) {
    const std::string p = "pg" + std::to_string(l) + tag;
    pointer(A, p, B);
    prog.loops.push_back(LoopBuilder(loopName("gather", l), "i", A)
                             .loadIdx("j", A, p, "i")
                             .loadF64("y", B, w, "j")
                             .store(A, out, "i", "y")
                             .build());
  }
  // Kind 2: centered update of B.
  for (int l = 0; l < counts[2]; ++l) {
    prog.loops.push_back(LoopBuilder(loopName("local", l), "k", B)
                             .loadF64("z", B, w, "k")
                             .reduce(B, acc, "k", "z")
                             .build());
  }
  // Kind 3: a CSR-style inner loop over a range of B per element of A.
  for (int l = 0; l < counts[3]; ++l) {
    const std::string r = "rg" + std::to_string(l) + tag;
    a.addField(r, FieldType::Range);
    world.defineRangeFn(A, r, B);
    prog.loops.push_back(LoopBuilder(loopName("rows", l), "i", A)
                             .loadRange("r", A, r, "i")
                             .beginInner("k", "r")
                             .loadF64("y", B, w, "k")
                             .reduce(A, out, "i", "y")
                             .endInner()
                             .build());
  }

  svc::PlanRequest req;
  req.pieces = kPieces;
  req.world = svc::WorldShape::describe(world);
  req.program = std::move(prog);
  return req;
}

const char* kindName(RequestKind k) {
  switch (k) {
    case RequestKind::Exact:
      return "exact";
    case RequestKind::Renamed:
      return "renamed";
    case RequestKind::Novel:
      return "novel";
  }
  return "?";
}

svc::ServerOptions serverOptions() {
  svc::ServerOptions o;
  o.tcpPort = 0;  // loopback, kernel-assigned port
  // Both cache levels hold every entry of a run: exact repeats must stay
  // L1 hits however many distinct requests come between them.
  o.responseCacheCapacity = std::size_t{1} << 16;
  o.cacheCapacity = std::size_t{1} << 16;
  o.recvTimeoutMicros = 120'000'000;
  return o;
}

}  // namespace

ServiceLoad::ServiceLoad(std::uint64_t seed, double seconds, double rate)
    : rate_(rate) {
  std::mt19937_64 rng(seed);
  // Warm programs: an even stride through the family ordered by size, at a
  // seeded offset, so every seed's renamed requests cost about the same.
  std::vector<int> bySize;
  for (int m = 1; m < kFamily; ++m) bySize.push_back(m);
  std::stable_sort(bySize.begin(), bySize.end(), [](int a, int b) {
    return loopCount(a) < loopCount(b);
  });
  const std::size_t stride = bySize.size() / kWarmPrograms;
  const std::size_t offset = rng() % stride;
  std::vector<int> members;  // warm programs first, then the novel order
  std::vector<int> rest;
  for (std::size_t i = 0; i < bySize.size(); ++i) {
    (i % stride == offset && members.size() < kWarmPrograms ? members : rest)
        .push_back(bySize[i]);
  }
  std::shuffle(rest.begin(), rest.end(), rng);
  members.insert(members.end(), rest.begin(), rest.end());

  warmCount_ = kWarmPrograms;
  for (std::size_t i = 0; i < warmCount_; ++i) {
    programs_.push_back(familyProgram(members[i], ""));
  }
  std::size_t nextNovel = warmCount_;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const auto n = static_cast<std::size_t>(std::ceil(seconds * rate));
  for (std::size_t i = 0; i < n; ++i) {
    Request r{};
    r.dueMs = 1000.0 * static_cast<double>(i) / rate;
    const double c = coin(rng);
    if (c < kExactShare) {
      r.kind = RequestKind::Exact;
      r.program = rng() % warmCount_;
    } else if (c < kExactShare + kRenamedShare ||
               nextNovel == members.size()) {
      r.kind = RequestKind::Renamed;
      programs_.push_back(familyProgram(members[rng() % warmCount_],
                                        "_r" + std::to_string(i)));
      r.program = programs_.size() - 1;
    } else {
      r.kind = RequestKind::Novel;
      programs_.push_back(familyProgram(members[nextNovel++], ""));
      r.program = programs_.size() - 1;
    }
    schedule_.push_back(r);
  }
  if (nextNovel == members.size()) {
    std::fprintf(stderr,
                 "service: program family exhausted; later novel requests "
                 "were sent as renamed ones\n");
  }
}

ServiceLoad::~ServiceLoad() { tearDown(); }

void ServiceLoad::setUp() {
  tearDown();
  server_ = std::make_unique<svc::PlanServer>(serverOptions());
  server_->start();
  svc::PlanClient client = svc::PlanClient::connectTcp(server_->port());
  for (std::size_t i = 0; i < warmCount_; ++i) {
    (void)client.parallelize(programs_[i]);
  }
}

void ServiceLoad::tearDown() {
  if (server_ != nullptr) server_->stop();
  server_.reset();
}

std::vector<RequestRecord> ServiceLoad::play(dpart::Tracer* tracer) {
  std::vector<RequestRecord> records(schedule_.size());
  std::atomic<std::size_t> next{0};
  const std::uint16_t port = server_->port();
  const auto start = Clock::now();

  auto clientLoop = [&] {
    std::unique_ptr<svc::PlanClient> client;
    for (std::size_t i = next++; i < schedule_.size(); i = next++) {
      const Request& req = schedule_[i];
      RequestRecord& rec = records[i];
      rec.kind = req.kind;
      rec.request = req.program;
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       req.dueMs));
      const auto free = Clock::now();
      if (free < due) std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      rec.clientWaitMs = std::max(0.0, msBetween(due, free));
      rec.genLateMs = msBetween(std::max(due, free), sent);
      try {
        dpart::TraceSpan span(tracer, "bench", "service.request");
        span.annotate(std::string("\"kind\":\"") + kindName(req.kind) +
                      "\",\"request\":" + std::to_string(i));
        if (client == nullptr) {
          client = std::make_unique<svc::PlanClient>(
              svc::PlanClient::connectTcp(port));
        }
        rec.response = client->parallelize(programs_[req.program]);
        rec.ok = true;
      } catch (const std::exception& e) {
        rec.error = e.what();
        client.reset();  // reconnect for the next request
      }
      const auto done = Clock::now();
      rec.roundTripMs = msBetween(sent, done);
      rec.latencyMs = rec.ok ? msBetween(due, done)
                             : std::numeric_limits<double>::infinity();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kServiceClients; ++c) {
    threads.emplace_back(clientLoop);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = msSince(start) / 1000.0;
  std::fprintf(stderr, "service: %zu requests in %.2f s (%.1f/s offered %.1f/s)\n",
               records.size(), elapsed,
               static_cast<double>(records.size()) / elapsed, rate_);
  return records;
}

void ServiceLoad::verify(const std::vector<RequestRecord>& records,
                         Report& report) {
  // One direct compile, without any cache, per distinct program answered;
  // spread over kServiceClients threads because a run answers thousands.
  std::vector<std::string> direct(programs_.size());
  std::vector<char> wanted(programs_.size(), 0);
  for (const RequestRecord& r : records) wanted[r.request] |= r.ok;
  std::atomic<std::size_t> next{0};
  auto compileLoop = [&] {
    for (std::size_t i = next++; i < programs_.size(); i = next++) {
      if (!wanted[i]) continue;
      const svc::PlanRequest& req = programs_[i];
      dpart::region::World world =
          req.world.materialize(dpart::region::Index(1) << 28);
      direct[i] = dpart::Session::parallelize(req.program)
                      .pieces(req.pieces)
                      .compile(world)
                      .parallelPlan()
                      .dpl.toString();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kServiceClients; ++c) {
    threads.emplace_back(compileLoop);
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    report.attempt();
    const std::string what =
        std::string("service request ") + std::to_string(i) + " (" +
        kindName(r.kind) + ")";
    if (!r.ok) {
      report.fail(what + ": " + r.error);
      continue;
    }
    const svc::PlanResponse& resp = r.response;
    // An L1 memo hit runs no compile phase; an L2 hit still infers and
    // canonicalizes before it finds the solve.
    const bool compiled = resp.inferMs + resp.canonMs > 0;
    const bool kindOk =
        (r.kind == RequestKind::Exact && resp.cacheHit && !compiled) ||
        (r.kind == RequestKind::Renamed && resp.cacheHit && compiled) ||
        (r.kind == RequestKind::Novel && !resp.cacheHit);
    if (!kindOk) {
      report.fail(what + ": cacheHit=" + (resp.cacheHit ? "1" : "0") +
                  " compiled=" + (compiled ? "1" : "0") +
                  " disagrees with the request kind");
    } else if (resp.dpl != direct[r.request]) {
      report.fail(what + ": DPL differs from a direct compile");
    }
  }
}

void printKinds(const std::vector<RequestRecord>& records) {
  std::fprintf(stderr,
               "service by kind (the 30/40/30 mix is assumed; reweight "
               "with these): kind n server_ms_p50 req_ms_p50 req_ms_p90\n");
  for (RequestKind k :
       {RequestKind::Exact, RequestKind::Renamed, RequestKind::Novel}) {
    std::vector<double> server, latency;
    for (const RequestRecord& r : records) {
      if (r.kind != k) continue;
      latency.push_back(r.latencyMs);
      if (r.ok) server.push_back(r.response.serverMs);
    }
    std::fprintf(stderr, "  %-8s %5zu %9.3f %9.3f %9.3f\n", kindName(k),
                 latency.size(), quantile(server, 0.5),
                 quantile(latency, 0.5), quantile(latency, 0.9));
  }
}

std::vector<double> latencies(const std::vector<RequestRecord>& records) {
  std::vector<double> out;
  for (const RequestRecord& r : records) out.push_back(r.latencyMs);
  return out;
}

void runService(const Options& opts, Report& report) {
  ServiceLoad load(opts.seed, opts.seconds, kServiceRate);
  timedSetup(report, [&] { load.setUp(); });
  const double cpu0 = selfCpuMs();
  const std::vector<RequestRecord> records = load.play(nullptr);
  const double cpuMs = selfCpuMs() - cpu0;
  reportOp(report, "req", latencies(records), cpuMs);
  printKinds(records);
  load.tearDown();
  report.add("peak_rss_mb", peakRssMb(getpid()), "MB");
  load.verify(records, report);
}

}  // namespace perfbench
