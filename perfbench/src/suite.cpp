#include "suite.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "common.hpp"
#include "ir/interp.hpp"

namespace perfbench {

namespace apps = dpart::apps;

const std::vector<std::string>& appNames() {
  static const std::vector<std::string> names{"spmv", "stencil", "circuit",
                                              "miniaero", "pennant"};
  return names;
}

const std::vector<std::string>& durableAppNames() {
  static const std::vector<std::string> names{"spmv", "pennant"};
  return names;
}

bool isDurableApp(const std::string& name) {
  const auto& d = durableAppNames();
  return std::find(d.begin(), d.end(), name) != d.end();
}

namespace {

template <typename T, typename Params>
App wrap(const std::string& name, Params params) {
  auto app = std::make_shared<T>(params);
  App out;
  out.name = name;
  out.world = &app->world();
  out.program = &app->program();
  out.simSetup = [raw = app.get()] { return raw->autoSetup(); };
  out.holder = app;
  return out;
}

// Scale tables: {Small, Step[, Durable]}. Step sizes put each app at
// roughly a fifth of a ~100 ms in-process suite step on 4 threads.
template <typename T>
T pick(Scale s, T small, T step, T durable) {
  switch (s) {
    case Scale::Small:
      return small;
    case Scale::Step:
      return step;
    case Scale::Durable:
      return durable;
  }
  return small;
}
template <typename T>
T pick(Scale s, T small, T step) {
  return s == Scale::Step ? step : small;  // makeApp rejects Durable
}

}  // namespace

App makeApp(const std::string& name, Scale scale, std::uint64_t seed) {
  if (scale == Scale::Durable && !isDurableApp(name)) {
    throw std::invalid_argument("app '" + name + "' has no durable scale");
  }
  if (name == "spmv") {
    apps::SpmvApp::Params p;
    p.pieces = kPieces;
    p.rowsPerPiece = pick<dpart::region::Index>(scale, 1024, 16384, 4096);
    p.nnzPerRow = 8;
    return wrap<apps::SpmvApp>(name, p);
  }
  if (name == "stencil") {
    apps::StencilApp::Params p;
    p.pieces = kPieces;
    p.rowsPerPiece = 64;
    p.cols = pick<dpart::region::Index>(scale, 64, 768);
    return wrap<apps::StencilApp>(name, p);
  }
  if (name == "circuit") {
    apps::CircuitApp::Params p;
    p.pieces = kPieces;
    p.seed = seed;
    p.nodesPerCluster = pick<dpart::region::Index>(scale, 1024, 8192);
    p.wiresPerCluster = pick<dpart::region::Index>(scale, 4096, 32768);
    return wrap<apps::CircuitApp>(name, p);
  }
  if (name == "miniaero") {
    apps::MiniAeroApp::Params p;
    p.pieces = kPieces;
    p.nx = pick<dpart::region::Index>(scale, 8, 16);
    p.ny = pick<dpart::region::Index>(scale, 8, 16);
    p.nzPerPiece = pick<dpart::region::Index>(scale, 8, 16);
    return wrap<apps::MiniAeroApp>(name, p);
  }
  if (name == "pennant") {
    apps::PennantApp::Params p;
    p.pieces = kPieces;
    p.zx = pick<dpart::region::Index>(scale, 24, 72, 14);
    p.zyPerPiece = pick<dpart::region::Index>(scale, 24, 72, 14);
    return wrap<apps::PennantApp>(name, p);
  }
  throw std::invalid_argument("unknown app '" + name + "'");
}

dpart::Plan compileCold(const App& app) {
  return dpart::Session::parallelize(*app.program)
      .pieces(kPieces)
      .compile(*app.world);
}

dpart::runtime::ExecOptions inProcessOptions() {
  dpart::runtime::ExecOptions opts;
  opts.threads = kPieces;
  return opts;
}

dpart::runtime::ExecOptions multiProcessOptions() {
  dpart::runtime::ExecOptions opts = inProcessOptions();
  opts.distributed.backend = dpart::runtime::ExecBackend::MultiProcess;
  return opts;
}

dpart::runtime::ExecOptions durableOptions(const std::string& ckptDir) {
  dpart::runtime::ExecOptions opts = multiProcessOptions();
  opts.checkpoint.dir = ckptDir;
  return opts;
}

std::string checkedVsSerial(const App& app, const std::function<void()>& step,
                            dpart::Tracer* tracer) {
  const std::string tag = "\"app\":\"" + app.name + "\"";
  dpart::region::World serial;
  {
    dpart::TraceSpan span(tracer, "bench", "bench.copy", tag);
    serial = *app.world;
  }
  step();
  {
    dpart::TraceSpan span(tracer, "bench", "ir.serial", tag);
    dpart::ir::runSerial(serial, *app.program);
  }
  const std::string diff = worldDiff(serial, *app.world, 1e-9);
  return diff.empty() ? "" : app.name + " vs runSerial: " + diff;
}

std::string checkedStepVsInProcess(dpart::Session& session, const App& app) {
  dpart::region::World local = *app.world;
  session.run();
  dpart::Session inproc =
      dpart::Session::execute(session.compiledPlan(), local,
                              inProcessOptions());
  inproc.run();
  const std::string diff = worldDiff(local, *app.world, -1);
  return diff.empty() ? "" : app.name + " vs in-process run: " + diff;
}

}  // namespace perfbench
