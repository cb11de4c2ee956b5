// Table 1: compilation-time breakdown of the auto-parallelizer on the five
// benchmark programs — constraint inference, canonical cache-key
// construction, unification, constraint solving (including the relaxation
// analysis), and the parallel-code rewrite — plus the number of
// auto-parallelized loops. The paper's "binary generation" row has no analog
// here (we emit execution plans, not CUDA binaries); the key claim this
// table reproduces is that inference + solving + rewriting stay small in
// absolute terms (milliseconds) and grow with program size.
//
// Paper reference (Piz Daint, Regent compiler):
//            SpMV   Stencil  Circuit  MiniAero  PENNANT
//   infer    1.7ms  5.0ms    28.4ms   58.5ms    110.7ms
//   solver   1.7ms  4.0ms    4.3ms    5.8ms     13.1ms
//   rewrite  49ms   0.3s     0.3s     1.6s      1.9s
//   loops    1      2        3        26        37

#include <benchmark/benchmark.h>

#include <iomanip>
#include <iostream>

#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "parallelize/parallelize.hpp"

namespace {

using dpart::parallelize::AutoParallelizer;
using dpart::parallelize::CompileStats;

struct Row {
  std::string name;
  CompileStats stats;
};

std::vector<Row>& rows() {
  static std::vector<Row> r;
  return r;
}

template <typename MakeApp>
void benchCompile(benchmark::State& state, const std::string& name,
                  MakeApp make) {
  CompileStats last{};
  for (auto _ : state) {
    auto app = make();
    AutoParallelizer ap(app->world());
    auto plan = ap.plan(app->program());
    last = plan.stats;
    benchmark::DoNotOptimize(plan);
  }
  state.counters["infer_ms"] = last.inferMs;
  state.counters["canon_ms"] = last.canonMs;
  state.counters["unify_ms"] = last.unifyMs;
  state.counters["solve_ms"] = last.solveMs;
  state.counters["rewrite_ms"] = last.rewriteMs;
  state.counters["loops"] = last.parallelLoops;
  rows().push_back(Row{name, last});
}

void BM_Spmv(benchmark::State& state) {
  benchCompile(state, "SpMV", [] {
    dpart::apps::SpmvApp::Params p;
    p.rowsPerPiece = 1024;
    p.pieces = 4;
    return std::make_unique<dpart::apps::SpmvApp>(p);
  });
}

void BM_Stencil(benchmark::State& state) {
  benchCompile(state, "Stencil", [] {
    dpart::apps::StencilApp::Params p;
    p.rowsPerPiece = 64;
    p.cols = 64;
    p.pieces = 4;
    return std::make_unique<dpart::apps::StencilApp>(p);
  });
}

void BM_Circuit(benchmark::State& state) {
  benchCompile(state, "Circuit", [] {
    dpart::apps::CircuitApp::Params p;
    p.pieces = 4;
    return std::make_unique<dpart::apps::CircuitApp>(p);
  });
}

void BM_MiniAero(benchmark::State& state) {
  benchCompile(state, "MiniAero", [] {
    dpart::apps::MiniAeroApp::Params p;
    p.nx = 8;
    p.ny = 8;
    p.nzPerPiece = 8;
    p.pieces = 4;
    return std::make_unique<dpart::apps::MiniAeroApp>(p);
  });
}

void BM_Pennant(benchmark::State& state) {
  benchCompile(state, "PENNANT", [] {
    dpart::apps::PennantApp::Params p;
    p.pieces = 4;
    return std::make_unique<dpart::apps::PennantApp>(p);
  });
}

BENCHMARK(BM_Spmv)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Stencil)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Circuit)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MiniAero)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Pennant)->Unit(benchmark::kMillisecond);

void printTable() {
  std::cout << "\n== Table 1: compilation time breakdown (this repro) ==\n";
  std::cout << std::left << std::setw(12) << "app" << std::setw(14)
            << "inference" << std::setw(14) << "canon" << std::setw(14)
            << "unify" << std::setw(14)
            << "solver" << std::setw(14) << "rewrite" << std::setw(8)
            << "loops" << '\n';
  // Keep only the last measurement per app (benchmark reruns accumulate).
  std::map<std::string, Row> dedup;
  for (const Row& r : rows()) dedup[r.name] = r;
  for (const char* name :
       {"SpMV", "Stencil", "Circuit", "MiniAero", "PENNANT"}) {
    auto it = dedup.find(name);
    if (it == dedup.end()) continue;
    const CompileStats& s = it->second.stats;
    std::cout << std::setw(12) << name << std::setw(14)
              << (std::to_string(s.inferMs) + "ms") << std::setw(14)
              << (std::to_string(s.canonMs) + "ms") << std::setw(14)
              << (std::to_string(s.unifyMs) + "ms") << std::setw(14)
              << (std::to_string(s.solveMs) + "ms") << std::setw(14)
              << (std::to_string(s.rewriteMs) + "ms") << std::setw(8)
              << s.parallelLoops << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printTable();
  return 0;
}
