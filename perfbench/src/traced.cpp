// The traced run: drives every layer one public call at a time — compile,
// prepare, runLoop per loop, checkpoint write and restore, the serial
// interpreter and the cluster model — recording a span around each call in
// a benchmark-owned Tracer, then derives every per-layer metric from those
// spans. The library's own tracing stays off.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/checkpoint.hpp"
#include "runtime/distributed/coordinator.hpp"
#include "runtime/rebalance.hpp"
#include "service_load.hpp"
#include "sim/cluster.hpp"
#include "suite.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dpart::TraceSpan;
using dpart::Tracer;

constexpr const char* kCat = "bench";
/// Traced suites and steps per run: at least kMinRounds each, then more
/// while the run's time share for them lasts, at most kMaxRounds.
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxRounds = 30;

std::string kv(const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%.17g", key, v);
  return buf;
}
std::string kv(const char* key, const std::string& v) {
  return std::string("\"") + key + "\":\"" + v + "\"";
}
std::string join(std::initializer_list<std::string> parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : ",") + p;
  return out;
}

double argNum(const std::string& args, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto at = args.find(pat);
  return at == std::string::npos ? 0.0
                                 : std::strtod(args.c_str() + at + pat.size(),
                                               nullptr);
}
std::string argStr(const std::string& args, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const auto at = args.find(pat);
  if (at == std::string::npos) return "";
  const auto from = at + pat.size();
  return args.substr(from, args.find('"', from) - from);
}

/// One finished span, rebuilt from the tracer's Begin/End events.
struct SpanRec {
  std::string name;
  std::string args;  ///< Begin args + End args
  double ms = 0;
  double childMs = 0;     ///< time covered by direct children
  std::size_t root = 0;   ///< index of its top-level span
  std::string rootName;   ///< "suite", "step", "extras", ...
};

std::vector<SpanRec> collectSpans(const Tracer& tracer) {
  std::vector<SpanRec> spans;
  std::map<std::uint32_t, std::vector<std::pair<std::size_t, double>>> open;
  for (const dpart::TraceEvent& e : tracer.events()) {
    auto& stack = open[e.tid];
    const double ts = static_cast<double>(e.tsMicros);
    if (e.phase == dpart::TraceEvent::Phase::Begin) {
      SpanRec r;
      r.name = e.name;
      r.args = e.args;
      r.root = stack.empty() ? spans.size() : spans[stack.front().first].root;
      r.rootName = stack.empty() ? e.name : spans[r.root].name;
      spans.push_back(std::move(r));
      stack.emplace_back(spans.size() - 1, ts);
    } else if (e.phase == dpart::TraceEvent::Phase::End && !stack.empty()) {
      const auto [idx, start] = stack.back();
      stack.pop_back();
      SpanRec& r = spans[idx];
      r.ms = (ts - start) / 1000.0;
      if (!e.args.empty()) r.args += (r.args.empty() ? "" : ",") + e.args;
      if (!stack.empty()) spans[stack.back().first].childMs += r.ms;
    }
  }
  return spans;
}

/// Newest checkpoint generation file in `dir`, in bytes.
double newestCheckpointBytes(const std::string& dir) {
  std::string newest;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    const std::string name = f.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".dpc" &&
        name > newest) {
      newest = name;
    }
  }
  return newest.empty()
             ? 0.0
             : static_cast<double>(std::filesystem::file_size(
                   std::filesystem::path(dir) / newest));
}

/// One app of the traced run, with the session and checkpoint directory
/// its steps reuse.
struct TracedApp {
  App app;
  /// Multi-process backend with a checkpoint after every launch (the
  /// durable workload's configuration); otherwise in-process, no
  /// checkpoints inside a step.
  bool durable = false;
  /// Not part of the workload's operation (on durable, the apps it does
  /// not run): steps once in extras() for its per-app layers, in-process
  /// at Small scale, and neither checkpoints nor restores.
  bool side = false;
  std::optional<dpart::Session> session;
  std::unique_ptr<dpart::runtime::CheckpointManager> ckpt;
  std::uint64_t planHash = 0;  ///< CheckpointManager::hashPlan, once
  std::uint64_t launch = 0;
};

/// Traces one launch of `loop` and the counters around it.
void tracedLaunch(Tracer* tr, TracedApp& ta,
                  const dpart::parallelize::PlannedLoop& loop) {
  dpart::runtime::PlanExecutor& exec = ta.session->executor();
  const std::string& loopName = loop.loop->name;
  dpart::MetricsRegistry& mx = ta.session->metrics();
  std::vector<double> before(exec.pieces());
  for (std::size_t j = 0; j < before.size(); ++j) {
    before[j] = dpart::runtime::taskSecondsGauge(mx, loopName, j).value();
  }
  const double buffered0 = static_cast<double>(exec.bufferedElements());
  auto wire = [&] {
    const auto* coord = exec.coordinator();
    if (coord == nullptr) return 0.0;
    const auto& n = coord->netCounters();
    return static_cast<double>(n.bytesSent + n.bytesRecv);
  };
  const double wire0 = wire();

  TraceSpan span(tr, kCat, "runtime.launch",
                 join({kv("app", ta.app.name), kv("loop", loopName),
                       kv("backend", ta.durable ? "multi" : "inproc")}));
  exec.runLoop(loop);
  double crit = 0, total = 0;
  for (std::size_t j = 0; j < before.size(); ++j) {
    const double s =
        dpart::runtime::taskSecondsGauge(mx, loopName, j).value() - before[j];
    crit = std::max(crit, s);
    total += s;
  }
  double ghostElems = 0, ghostMsgs = 0;
  if (const auto* coord = exec.coordinator()) {
    const auto it = coord->lastGhostTraffic().find(loopName);
    if (it != coord->lastGhostTraffic().end()) {
      ghostElems = static_cast<double>(it->second.first);
      ghostMsgs = static_cast<double>(it->second.second);
    }
  }
  span.annotate(join(
      {kv("iters", static_cast<double>(
                       exec.partition(loop.iterPartition).totalElements())),
       kv("buffered",
          static_cast<double>(exec.bufferedElements()) - buffered0),
       kv("crit_ms", crit * 1000.0),
       kv("mean_ms", total * 1000.0 / static_cast<double>(before.size())),
       kv("ghost_elems", ghostElems), kv("ghost_msgs", ghostMsgs),
       kv("wire_bytes", wire() - wire0)}));
}

/// Cold compile + prepare of one app; returns the executing session.
dpart::Session compileAndPrepare(Tracer* tr, const TracedApp& ta) {
  const std::string tag = kv("app", ta.app.name);
  dpart::Plan plan;
  {
    TraceSpan span(tr, kCat, "parallelize.compile", tag);
    plan = compileCold(ta.app);
    const dpart::parallelize::CompileStats& st = plan.stats();
    span.annotate(join(
        {kv("infer_ms", st.inferMs), kv("canon_ms", st.canonMs),
         kv("unify_ms", st.unifyMs), kv("solve_ms", st.solveMs),
         kv("rewrite_ms", st.rewriteMs),
         kv("loops", static_cast<double>(st.parallelLoops)),
         kv("propagations", static_cast<double>(st.solve.propagations)),
         kv("backtracks", static_cast<double>(st.solve.backtracks))}));
  }
  dpart::Session session = dpart::Session::execute(
      std::move(plan), *ta.app.world,
      ta.durable ? multiProcessOptions() : inProcessOptions());
  {
    TraceSpan span(tr, kCat, "dpl.materialize", tag);
    session.executor().preparePartitions();
    const auto& c = session.executor().counters();
    span.annotate(join({kv("cache_hits", static_cast<double>(c.cacheHits)),
                        kv("cache_misses",
                           static_cast<double>(c.cacheMisses))}));
  }
  return session;
}

void tracedCheckpoint(Tracer* tr, TracedApp& ta) {
  TraceSpan span(tr, kCat, "runtime.checkpoint", kv("app", ta.app.name));
  ta.ckpt->write(*ta.app.world, {}, ta.launch, ta.planHash, kPieces);
  span.annotate(kv("bytes", newestCheckpointBytes(ta.ckpt->dir())));
}

/// One step: runLoop per loop, plus a checkpoint after every launch for a
/// durable app.
void tracedStep(Tracer* tr, TracedApp& ta) {
  for (const dpart::parallelize::PlannedLoop& loop :
       ta.session->plan().loops) {
    tracedLaunch(tr, ta, loop);
    ++ta.launch;
    if (ta.durable) tracedCheckpoint(tr, ta);
  }
}

/// Builds the app's persistent session and checkpoint directory, and runs
/// two untraced warm-up steps (the first spawns a multi-process fleet).
void prepareApp(TracedApp& ta, const std::string& ckptDir) {
  ta.session.emplace(compileAndPrepare(nullptr, ta));
  ta.planHash =
      dpart::runtime::CheckpointManager::hashPlan(ta.session->plan());
  if (!ta.side) {
    freshDir(ckptDir);
    ta.ckpt = std::make_unique<dpart::runtime::CheckpointManager>(ckptDir);
  }
  for (int i = 0; i < 2; ++i) tracedStep(nullptr, ta);
}

/// The layers outside the step, once per app, with the output oracles: one
/// step checked against ir::runSerial, a checkpoint that must restore the
/// live World (not for a side app), and the cluster model of the same plan.
void extras(Tracer* tr, TracedApp& ta, Report& report) {
  const App& app = ta.app;
  // The pre-step state: the restore below must overwrite all of it.
  dpart::region::World target = *app.world;
  report.attempt();
  if (const std::string d =
          checkedVsSerial(app, [&] { tracedStep(tr, ta); }, tr);
      !d.empty()) {
    report.fail("traced step: " + d);
  }
  if (!ta.side) {
    if (!ta.durable) tracedCheckpoint(tr, ta);
    {
      TraceSpan span(tr, kCat, "runtime.restore", kv("app", app.name));
      (void)ta.ckpt->restoreLatest(target, ta.planHash);
    }
    report.attempt();
    if (const std::string d = worldDiff(*app.world, target, -1); !d.empty()) {
      report.fail(app.name + " restoreLatest vs live world: " + d);
    }
  }
  {
    TraceSpan span(tr, kCat, "sim.model", kv("app", app.name));
    const dpart::apps::SimSetup setup = app.simSetup();
    dpart::sim::ClusterSim sim(*app.world, dpart::sim::MachineConfig{});
    for (const auto& [region, owner] : setup.owners) sim.setOwner(region, owner);
    const auto depths = dpart::sim::ClusterSim::depthsOf(setup.plan.dpl);
    double seconds = 0;
    for (const auto& loop : setup.plan.loops) {
      seconds += sim.simulateLoop(loop, setup.partitions, depths).seconds;
    }
    span.annotate(kv("modelled_ms", seconds * 1000.0));
  }
}

/// The five apps: on durable, the durable apps at their scale on the
/// multi-process backend and the others as side apps; elsewhere all five at
/// the workload's scale, in-process.
std::vector<TracedApp> tracedApps(const Options& opts) {
  const bool durable = opts.workload == "durable";
  std::vector<TracedApp> out;
  for (const std::string& name : appNames()) {
    TracedApp ta;
    ta.durable = durable && isDurableApp(name);
    ta.side = durable && !ta.durable;
    const Scale scale = opts.workload == "timestep" ? Scale::Step
                        : ta.durable                ? Scale::Durable
                                                    : Scale::Small;
    ta.app = makeApp(name, scale, opts.seed);
    out.push_back(std::move(ta));
  }
  return out;
}

/// Per-root sums of metrics, reported as the median over roots.
class PerRoot {
 public:
  void add(const std::string& metric, std::size_t root, double v) {
    values_[metric][root] += v;
  }
  [[nodiscard]] bool has(const std::string& metric) const {
    return values_.count(metric) != 0;
  }
  [[nodiscard]] double median(const std::string& metric) const {
    const auto it = values_.find(metric);
    if (it == values_.end()) return 0;
    std::vector<double> v;
    for (const auto& [root, x] : it->second) v.push_back(x);
    return perfbench::median(v);
  }

 private:
  std::map<std::string, std::map<std::size_t, double>> values_;
};

/// Runs `round` (given whether the tracer records) at least kMinRounds and
/// at most kMaxRounds times, until `untilMs` after `start`. With `paired`,
/// each traced round follows an untraced one; returns the median timings
/// {traced, untraced}.
std::pair<double, double> rounds(Tracer& tracer, Clock::time_point start,
                                 double untilMs, bool paired,
                                 const std::function<void()>& round) {
  std::vector<double> on, off;
  while (on.size() < kMinRounds ||
         (on.size() < kMaxRounds && msSince(start) < untilMs)) {
    if (paired) {
      tracer.disable();
      const auto t0 = Clock::now();
      round();
      off.push_back(msSince(t0));
    }
    tracer.enable();
    const auto t0 = Clock::now();
    round();
    on.push_back(msSince(t0));
  }
  return {median(on), median(off)};
}

/// Derives every per-layer metric from the traced run's spans and service
/// records, and prints the Table 1 and measured-vs-modelled views.
void reportLayers(const std::vector<SpanRec>& spans,
                  const std::vector<RequestRecord>& records,
                  const std::string& w, Report& report) {
  const bool stepOp = w == "timestep" || w == "durable";
  PerRoot per;
  double coveredMs = 0, opMs = 0, cacheHits = 0, cacheLookups = 0;
  const std::string opRoot = stepOp ? "step" : "suite";
  const std::string ckptRoot = w == "durable" ? "step" : "extras";
  std::map<std::string, std::vector<std::vector<double>>> table1;
  for (const SpanRec& s : spans) {
    const std::string app = argStr(s.args, "app");
    const std::string& rn = s.rootName;
    if (s.name == opRoot) {
      coveredMs += s.childMs;
      opMs += s.ms;
    } else if (rn == "suite" && s.name == "parallelize.compile") {
      const double phases[] = {argNum(s.args, "infer_ms"),
                               argNum(s.args, "canon_ms"),
                               argNum(s.args, "unify_ms"),
                               argNum(s.args, "solve_ms"),
                               argNum(s.args, "rewrite_ms")};
      const char* names[] = {"analysis.infer_ms", "constraint.canon_ms",
                             "constraint.unify_ms", "constraint.solve_ms",
                             "parallelize.rewrite_ms"};
      double sum = 0;
      for (int k = 0; k < 5; ++k) {
        per.add(names[k], s.root, phases[k]);
        sum += phases[k];
      }
      per.add("parallelize.compile_ms." + app, s.root, s.ms);
      per.add("parallelize.unaccounted_ms", s.root, s.ms - sum);
      per.add("constraint.propagations", s.root,
              argNum(s.args, "propagations"));
      per.add("constraint.backtracks", s.root, argNum(s.args, "backtracks"));
      table1[app].push_back({phases[0], phases[1], phases[2], phases[3],
                             phases[4], argNum(s.args, "loops"), s.ms,
                             s.ms - sum});
    } else if (rn == "suite" && s.name == "dpl.materialize") {
      per.add("dpl.materialize_ms." + app, s.root, s.ms);
      cacheHits += argNum(s.args, "cache_hits");
      cacheLookups +=
          argNum(s.args, "cache_hits") + argNum(s.args, "cache_misses");
    } else if (s.name == "runtime.launch") {
      if (rn == "step") {
        per.add("runtime.iters", s.root, argNum(s.args, "iters"));
        per.add("runtime.buffered_elems", s.root, argNum(s.args, "buffered"));
        // Zero unless the step runs on the multi-process backend.
        per.add("runtime.dist.ghost_elems", s.root,
                argNum(s.args, "ghost_elems"));
        per.add("runtime.dist.ghost_msgs", s.root,
                argNum(s.args, "ghost_msgs"));
        per.add("runtime.dist.wire_bytes", s.root,
                argNum(s.args, "wire_bytes"));
      } else if (rn != "extras") {
        continue;
      }
      // Per-app launch layers: from the steps, or for a side app from its
      // one step in extras.
      per.add(rn + ":launch." + app, s.root, s.ms);
      per.add(rn + ":crit." + app, s.root, argNum(s.args, "crit_ms"));
      per.add(rn + ":mean." + app, s.root, argNum(s.args, "mean_ms"));
    } else if (s.name == "runtime.checkpoint" && rn == ckptRoot) {
      per.add("runtime.checkpoint_ms", s.root, s.ms);
      per.add("runtime.checkpoint_bytes", s.root, argNum(s.args, "bytes"));
    } else if (rn != "extras") {
      continue;
    } else if (s.name == "ir.serial") {
      per.add("ir.serial_ms." + app, s.root, s.ms);
    } else if (s.name == "runtime.restore") {
      per.add("runtime.restore_ms", s.root, s.ms);
    } else if (s.name == "sim.model") {
      per.add("sim.launch_ms." + app, s.root, argNum(s.args, "modelled_ms"));
    }
  }

  auto emit = [&](const std::string& name, const char* unit) {
    report.add(name, per.median(name), unit);
  };
  for (const std::string& app : appNames()) {
    emit("parallelize.compile_ms." + app, "ms");
  }
  for (const char* m : {"analysis.infer_ms", "constraint.canon_ms",
                        "constraint.unify_ms", "constraint.solve_ms",
                        "parallelize.rewrite_ms", "parallelize.unaccounted_ms"}) {
    emit(m, "ms");
  }
  emit("constraint.propagations", "count");
  emit("constraint.backtracks", "count");
  for (const std::string& app : appNames()) {
    emit("dpl.materialize_ms." + app, "ms");
  }
  report.add("dpl.cache_hit_ratio",
             cacheLookups > 0 ? cacheHits / cacheLookups : 0.0, "ratio");
  std::map<std::string, double> launchMs;
  for (const std::string& app : appNames()) {
    const std::string from = per.has("step:launch." + app) ? "step:" : "extras:";
    launchMs[app] = per.median(from + "launch." + app);
    report.add("runtime.launch_ms." + app, launchMs[app], "ms");
    const double mean = per.median(from + "mean." + app);
    report.add("runtime.imbalance." + app,
               mean > 0 ? per.median(from + "crit." + app) / mean : 1.0,
               "ratio");
    emit("ir.serial_ms." + app, "ms");
    emit("sim.launch_ms." + app, "ms");
  }
  emit("runtime.iters", "count");
  emit("runtime.buffered_elems", "count");
  emit("runtime.checkpoint_ms", "ms");
  emit("runtime.checkpoint_bytes", "bytes");
  emit("runtime.restore_ms", "ms");
  emit("runtime.dist.ghost_elems", "count");
  emit("runtime.dist.ghost_msgs", "count");
  emit("runtime.dist.wire_bytes", "bytes");

  // Service layers, from the traced window's requests.
  std::vector<double> server, transport, wait, exact, renamed, cold;
  double hits = 0, late = 0;
  for (const RequestRecord& r : records) {
    if (!r.ok) continue;
    server.push_back(r.response.serverMs);
    transport.push_back(r.roundTripMs - r.response.serverMs);
    wait.push_back(r.clientWaitMs);
    late = std::max(late, r.genLateMs);
    hits += r.response.cacheHit ? 1 : 0;
    (r.kind == RequestKind::Exact     ? exact
     : r.kind == RequestKind::Renamed ? renamed
                                      : cold)
        .push_back(r.response.serverMs);
  }
  report.add("service.server_ms_p50", quantile(server, 0.5), "ms");
  report.add("service.transport_ms_p50", quantile(transport, 0.5), "ms");
  report.add("service.client_wait_ms_p90", quantile(wait, 0.9), "ms");
  report.add("service.hit_ratio",
             records.empty() ? 0.0 : hits / static_cast<double>(records.size()),
             "ratio");
  report.add("service.exact_ms_p50", quantile(exact, 0.5), "ms");
  report.add("service.renamed_ms_p50", quantile(renamed, 0.5), "ms");
  report.add("service.cold_ms_p50", quantile(cold, 0.5), "ms");
  report.add("service.gen_late_ms_max", late, "ms");
  report.add("trace.coverage", opMs > 0 ? coveredMs / opMs : 0.0, "ratio");

  // Human-readable views on stderr.
  std::fprintf(stderr,
               "Table 1 (median over %zu cold compiles, ms): app infer canon "
               "unify solve rewrite loops | compile unaccounted\n",
               table1[appNames()[0]].size());
  for (const std::string& app : appNames()) {
    std::vector<double> col[8];
    for (const auto& row : table1[app]) {
      for (int k = 0; k < 8; ++k) col[k].push_back(row[k]);
    }
    double m[8];
    for (int k = 0; k < 8; ++k) m[k] = median(col[k]);
    std::fprintf(stderr,
                 "  %-9s %7.2f %7.2f %7.2f %7.2f %7.2f %5.0f | %7.2f %7.2f\n",
                 app.c_str(), m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]);
  }
  std::fprintf(stderr,
               "launch per step (ms): app measured | sim (modelled, default "
               "MachineConfig, %zu pieces)\n",
               kPieces);
  for (const std::string& app : appNames()) {
    std::fprintf(stderr, "  %-9s %9.3f | %9.5f\n", app.c_str(), launchMs[app],
                 per.median("sim.launch_ms." + app));
  }
}

}  // namespace

void runTraced(const Options& opts, Report& report) {
  Tracer tracer(std::size_t{1} << 18);
  Tracer* tr = &tracer;
  const std::string root =
      opts.workDir + "/traced-" + std::to_string(getpid());
  const std::string& w = opts.workload;
  const bool stepOp = w == "timestep" || w == "durable";
  std::vector<TracedApp> apps = tracedApps(opts);
  double overhead = 0;
  const auto start = Clock::now();

  // 1. Cold compile + materialization suites (the compile workload's op).
  const auto suite = rounds(tracer, start, 0.3 * opts.seconds * 1000.0,
                            w == "compile", [&] {
                              TraceSpan s(tr, kCat, "suite");
                              for (const TracedApp& ta : apps) {
                                (void)compileAndPrepare(tr, ta);
                              }
                            });
  if (w == "compile") overhead = suite.first / suite.second - 1.0;

  // 2. Steps on persistent, warmed sessions (the step workloads' op).
  tracer.disable();
  for (TracedApp& ta : apps) prepareApp(ta, root + "/" + ta.app.name);
  const auto step = rounds(tracer, start, 0.7 * opts.seconds * 1000.0, stepOp,
                           [&] {
                             TraceSpan s(tr, kCat, "step");
                             for (TracedApp& ta : apps) {
                               if (!ta.side) tracedStep(tr, ta);
                             }
                           });
  if (stepOp) overhead = step.first / step.second - 1.0;

  // 3. Serial baseline, checkpoint/restore and the cluster model, once.
  tracer.enable();
  {
    TraceSpan s(tr, kCat, "extras");
    for (TracedApp& ta : apps) extras(tr, ta, report);
  }
  apps.clear();  // stops any worker fleets

  // 4. Plan-service traffic: the rest of the run on `service` (untraced
  // then traced halves), one second elsewhere.
  std::vector<RequestRecord> records;
  {
    const bool service = w == "service";
    ServiceLoad load(opts.seed, service ? opts.seconds / 2 : 1.0,
                     kServiceRate);
    load.setUp();
    if (service) {
      tracer.disable();
      const std::vector<RequestRecord> untraced = load.play(nullptr);
      load.setUp();  // the traced half starts from the same cache state
      tracer.enable();
      records = load.play(tr);
      overhead = median(latencies(records)) / median(latencies(untraced)) - 1.0;
    } else {
      records = load.play(tr);
    }
    load.tearDown();
    load.verify(records, report);
  }
  tracer.disable();
  std::filesystem::remove_all(root);

  const std::vector<SpanRec> spans = collectSpans(tracer);
  reportLayers(spans, records, w, report);
  report.add("trace.overhead_frac", overhead, "ratio");
  std::fprintf(stderr, "trace: %zu spans, %llu events dropped -> %s\n",
               spans.size(),
               static_cast<unsigned long long>(tracer.droppedEvents()),
               opts.traceOut.c_str());
  const auto dir = std::filesystem::path(opts.traceOut).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  tracer.writeChromeTrace(opts.traceOut);
}

}  // namespace perfbench
