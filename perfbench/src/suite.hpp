// The five Fig. 14 applications at the benchmark's data scales, and the
// calls every workload makes on them through the public API.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_common.hpp"
#include "ir/ir.hpp"
#include "region/world.hpp"
#include "runtime/options.hpp"
#include "runtime/session.hpp"
#include "support/trace.hpp"

namespace perfbench {

/// Data scale of an app instance.
///  - Small: Table 1 sizes; compile time dominates everything else.
///  - Step: one in-process suite step (all five apps) takes ~100 ms.
///  - Durable: the multi-process checkpointed subset (durableAppNames()
///    only).
enum class Scale { Small, Step, Durable };

/// One generated application instance: its World, its loop program, and
/// the app's own auto setup (used only for the simulator's data placement).
struct App {
  std::string name;
  dpart::region::World* world = nullptr;
  const dpart::ir::Program* program = nullptr;
  std::function<dpart::apps::SimSetup()> simSetup;
  std::shared_ptr<void> holder;  ///< owns the app object behind the pointers
};

/// spmv, stencil, circuit, miniaero, pennant — the Fig. 14 order.
[[nodiscard]] const std::vector<std::string>& appNames();

/// The apps the durable workload runs: large state and many messages.
[[nodiscard]] const std::vector<std::string>& durableAppNames();

/// Whether `name` is one of durableAppNames().
[[nodiscard]] bool isDurableApp(const std::string& name);

/// Builds app `name` at `scale`; `seed` drives the generators that take
/// one (CircuitApp::Params::seed). Scale::Durable exists only for the
/// durable apps.
[[nodiscard]] App makeApp(const std::string& name, Scale scale,
                          std::uint64_t seed);

/// Cold compile (no solve cache) at kPieces pieces.
[[nodiscard]] dpart::Plan compileCold(const App& app);

/// In-process execution with kPieces threads.
[[nodiscard]] dpart::runtime::ExecOptions inProcessOptions();

/// Multi-process execution (one forked worker per piece), no checkpoints.
[[nodiscard]] dpart::runtime::ExecOptions multiProcessOptions();

/// Multi-process execution with default CheckpointOptions in `ckptDir`
/// (a checkpoint after every launch).
[[nodiscard]] dpart::runtime::ExecOptions durableOptions(
    const std::string& ckptDir);

/// Runs `step` (one step of `app` on its World) and ir::runSerial on a copy
/// of the starting state, and compares the two within 1e-9 relative (the
/// apps_test tolerance). Returns "" or the first mismatch. With an enabled
/// `tracer`, the copy and the serial run are recorded as "bench.copy" and
/// "ir.serial" spans.
[[nodiscard]] std::string checkedVsSerial(const App& app,
                                          const std::function<void()>& step,
                                          dpart::Tracer* tracer = nullptr);

/// Runs one step of `session` (multi-process) and checks it bit for bit
/// against an in-process run of the same plan from the same starting state.
[[nodiscard]] std::string checkedStepVsInProcess(dpart::Session& session,
                                                 const App& app);

}  // namespace perfbench
