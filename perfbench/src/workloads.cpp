#include "workloads.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "runtime/checkpoint.hpp"
#include "runtime/distributed/coordinator.hpp"
#include "suite.hpp"

namespace perfbench {

void timedSetup(Report& report, const std::function<void()>& setup) {
  std::vector<double> seconds;
  const auto start = Clock::now();
  while (seconds.size() < kMinSetupRepeats ||
         msSince(start) < kMinSetupSeconds * 1000.0) {
    const auto t0 = Clock::now();
    setup();
    seconds.push_back(msSince(t0) / 1000.0);
  }
  report.add("setup_s", median(seconds), "s");
}

std::vector<double> closedLoop(double seconds,
                               const std::function<double()>& sample) {
  std::vector<double> samples;
  const auto start = Clock::now();
  do {
    samples.push_back(sample());
  } while (msSince(start) < seconds * 1000.0 ||
           (samples.size() < kMinSamples &&
            msSince(start) < kMaxSecondsFactor * seconds * 1000.0));
  return samples;
}

void reportOp(Report& report, const char* what,
              const std::vector<double>& samplesMs, double cpuMs) {
  const double perOp = cpuMs / static_cast<double>(samplesMs.size());
  report.add("op_cpu_ms", perOp, "ms");
  std::fprintf(stderr,
               "%s_ms_p50=%.3f %s_ms_p90=%.3f samples=%zu cpu_ms/op=%.3f\n",
               what, quantile(samplesMs, 0.5), what, quantile(samplesMs, 0.9),
               samplesMs.size(), perOp);
}

namespace {

void reportSelfRss(Report& report) {
  report.add("peak_rss_mb", peakRssMb(getpid()), "MB");
}

std::vector<App> makeApps(const std::vector<std::string>& names, Scale scale,
                          std::uint64_t seed) {
  std::vector<App> apps;
  for (const std::string& n : names) apps.push_back(makeApp(n, scale, seed));
  return apps;
}

/// Apps plus one prepared session per app, executing a precompiled plan.
struct Prepared {
  std::vector<App> apps;
  std::vector<dpart::Session> sessions;
  std::vector<std::vector<double>> appMs;  ///< per app, per timed step
};

std::unique_ptr<Prepared> prepare(
    const std::vector<std::string>& names, Scale scale, std::uint64_t seed,
    const std::function<dpart::runtime::ExecOptions(const App&)>& options) {
  auto p = std::make_unique<Prepared>();
  p->apps = makeApps(names, scale, seed);
  for (const App& app : p->apps) {
    p->sessions.push_back(
        dpart::Session::execute(compileCold(app), *app.world, options(app)));
    p->sessions.back().executor().preparePartitions();
  }
  return p;
}

double suiteStep(Prepared& p) {
  p.appMs.resize(p.sessions.size());
  const auto t0 = Clock::now();
  auto last = t0;
  for (std::size_t i = 0; i < p.sessions.size(); ++i) {
    p.sessions[i].run();
    const auto now = Clock::now();
    p.appMs[i].push_back(msBetween(last, now));
    last = now;
  }
  return msBetween(t0, last);
}

void printAppMedians(const Prepared& p) {
  for (std::size_t i = 0; i < p.appMs.size(); ++i) {
    std::fprintf(stderr, "  %-9s %8.3f ms/step (median)\n",
                 p.apps[i].name.c_str(), median(p.appMs[i]));
  }
}

}  // namespace

void runCompile(const Options& opts, Report& report) {
  std::vector<App> apps;
  timedSetup(report, [&] {
    apps.clear();
    apps = makeApps(appNames(), Scale::Small, opts.seed);
  });

  // The first sample's DPL programs are the reference: every later cold
  // compile must synthesize the same partitions.
  std::vector<std::string> firstDpl;
  std::vector<dpart::Plan> lastPlans;
  const double cpu0 = selfCpuMs();
  const std::vector<double> samples = closedLoop(opts.seconds, [&] {
    std::vector<dpart::Plan> plans;
    std::vector<dpart::Session> sessions;
    const auto t0 = Clock::now();
    for (const App& app : apps) {
      plans.push_back(compileCold(app));
      sessions.push_back(dpart::Session::execute(plans.back(), *app.world,
                                                 inProcessOptions()));
      sessions.back().executor().preparePartitions();
    }
    const double ms = msSince(t0);
    report.attempt();
    for (std::size_t i = 0; i < apps.size(); ++i) {
      const std::string dpl = plans[i].parallelPlan().dpl.toString();
      if (firstDpl.size() < apps.size()) {
        firstDpl.push_back(dpl);
      } else if (dpl != firstDpl[i]) {
        report.fail(apps[i].name + ": cold compile synthesized another plan");
      }
    }
    lastPlans = std::move(plans);
    return ms;
  });
  const double cpuMs = selfCpuMs() - cpu0;
  reportOp(report, "suite", samples, cpuMs);

  // Oracle: the last sample's plans, executed for one step, match
  // ir::runSerial from the same starting state.
  for (std::size_t i = 0; i < apps.size(); ++i) {
    report.attempt();
    dpart::Session session = dpart::Session::execute(
        lastPlans[i], *apps[i].world, inProcessOptions());
    const std::string diff =
        checkedVsSerial(apps[i], [&] { session.run(); });
    if (!diff.empty()) report.fail(diff);
  }
  reportSelfRss(report);
}

void runTimestep(const Options& opts, Report& report) {
  std::unique_ptr<Prepared> p;
  timedSetup(report, [&] {
    p.reset();
    p = prepare(appNames(), Scale::Step, opts.seed,
                [](const App&) { return inProcessOptions(); });
  });
  std::fprintf(stderr, "timestep working set: %.1f MiB (computed)\n",
               [&] {
                 double b = 0;
                 for (const App& a : p->apps) b += worldBytes(*a.world);
                 return b / (1 << 20);
               }());

  auto check = [&] {
    for (std::size_t i = 0; i < p->apps.size(); ++i) {
      report.attempt();
      const std::string diff =
          checkedVsSerial(p->apps[i], [&] { p->sessions[i].run(); });
      if (!diff.empty()) report.fail(diff);
    }
  };
  check();  // also warms every executor before timing
  const double cpu0 = selfCpuMs();
  const std::vector<double> samples = closedLoop(opts.seconds, [&] {
    report.attempt();
    return suiteStep(*p);
  });
  const double cpuMs = selfCpuMs() - cpu0;
  reportOp(report, "step", samples, cpuMs);
  printAppMedians(*p);
  check();
  reportSelfRss(report);
}

void runDurable(const Options& opts, Report& report) {
  const std::string root = opts.workDir + "/durable-" + std::to_string(getpid());
  std::unique_ptr<Prepared> p;
  timedSetup(report, [&] {
    p.reset();
    freshDir(root);
    p = prepare(durableAppNames(), Scale::Durable, opts.seed,
                [&](const App& app) { return durableOptions(root + "/" + app.name); });
  });
  // Pristine copies: restore targets for the checkpoint oracle.
  std::vector<dpart::region::World> initial;
  double bytes = 0;
  for (const App& a : p->apps) {
    initial.push_back(*a.world);
    bytes += worldBytes(*a.world);
  }
  std::fprintf(stderr, "durable working set: %.1f MiB (computed)\n",
               bytes / (1 << 20));

  auto check = [&] {
    for (std::size_t i = 0; i < p->apps.size(); ++i) {
      report.attempt();
      const std::string diff =
          checkedStepVsInProcess(p->sessions[i], p->apps[i]);
      if (!diff.empty()) report.fail(diff);
    }
  };
  check();  // also spawns the worker fleets before timing
  std::vector<pid_t> workers;
  for (dpart::Session& s : p->sessions) {
    if (auto* coord = s.executor().coordinator()) {
      for (std::size_t j = 0; j < s.executor().pieces(); ++j) {
        if (coord->workerPid(j) > 0) workers.push_back(coord->workerPid(j));
      }
    }
  }
  auto cpuMs = [&] {
    double ms = selfCpuMs();
    for (pid_t w : workers) ms += processCpuMs(w);
    return ms;
  };
  const double cpu0 = cpuMs();
  const std::vector<double> samples = closedLoop(opts.seconds, [&] {
    report.attempt();
    return suiteStep(*p);
  });
  const double used = cpuMs() - cpu0;
  reportOp(report, "step", samples, used);
  printAppMedians(*p);
  check();

  // Peak memory of the coordinator plus the private pages of every worker:
  // the pages a worker shares copy-on-write with the coordinator are
  // already in the coordinator's peak.
  double rss = peakRssMb(getpid());
  for (pid_t w : workers) rss += privateMb(w);
  report.add("peak_rss_mb", rss, "MB");

  // Oracle: the newest checkpoint generation restores the live World.
  for (std::size_t i = 0; i < p->apps.size(); ++i) {
    report.attempt();
    try {
      dpart::runtime::CheckpointManager mgr(root + "/" + p->apps[i].name);
      const auto restored = mgr.restoreLatest(
          initial[i], dpart::runtime::CheckpointManager::hashPlan(
                          p->sessions[i].plan()));
      const std::string diff = worldDiff(*p->apps[i].world, initial[i], -1);
      if (!diff.empty()) {
        report.fail(p->apps[i].name + " restoreLatest: " + diff);
      } else if (restored.meta.launchIndex !=
                 p->sessions[i].executor().launchesDone()) {
        report.fail(p->apps[i].name +
                    " restoreLatest: generation is not the last launch");
      }
    } catch (const std::exception& e) {
      report.fail(p->apps[i].name + " restoreLatest: " + e.what());
    }
  }
  p.reset();
  std::filesystem::remove_all(root);
}

}  // namespace perfbench
