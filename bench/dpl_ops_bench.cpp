// Microbenchmark for the DPL operator kernels: times each operator at
// several region sizes and piece counts, serial vs pooled, and emits one
// machine-readable JSON line per measurement (the seed for the BENCH_*.json
// perf trajectory). Also times raw IndexSet set algebra across density
// variants (interval-shaped, blocky, sparse, dense-random, alternating
// singletons) — the rows the hybrid-representation speedup target and the
// tools/bench_check CI regression gate are judged on — and demonstrates the
// evaluator's expression memo cache on a program with shared subexpressions.
//
// Run: dpl_ops_bench [--quick]

#include <algorithm>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dpl/evaluator.hpp"
#include "region/dpl_ops.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace {

using dpart::Rng;
using dpart::ThreadPool;
using dpart::Timer;
using dpart::region::FieldType;
using dpart::region::Index;
using dpart::region::IndexSet;
using dpart::region::Partition;
using dpart::region::Region;
using dpart::region::Run;
using dpart::region::World;

struct Workload {
  std::unique_ptr<World> world;
  Partition src;  // equal partition of Src, the operand of image/set-ops
  Partition dst;  // equal partition of Dst, the operand of preimage
};

// Src -> Dst via a clustered pointer field (CSR-flavoured locality with a
// sprinkle of remote references, like the circuit generator) plus a
// range-valued field for the generalized IMAGE/PREIMAGE path.
Workload makeWorkload(Index n, std::size_t pieces) {
  Workload w;
  w.world = std::make_unique<World>();
  Region& src = w.world->addRegion("Src", n);
  w.world->addRegion("Dst", n);
  src.addField("to", FieldType::Idx);
  src.addField("span", FieldType::Range);
  auto to = src.idx("to");
  auto span = src.range("span");
  Rng rng(0x5eed);
  for (Index i = 0; i < n; ++i) {
    const bool remote = rng.chance(0.05);
    to[static_cast<std::size_t>(i)] =
        remote ? rng.range(0, n) : std::min<Index>(n - 1, i + rng.range(0, 16));
    const Index lo = std::min<Index>(n - 1, i);
    span[static_cast<std::size_t>(i)] = Run{lo, std::min<Index>(n, lo + 4)};
  }
  w.world->defineFieldFn("Src", "to", "Dst");
  w.world->defineRangeFn("Src", "span", "Dst");
  w.src = dpart::region::equalPartition(*w.world, "Src", pieces);
  w.dst = dpart::region::equalPartition(*w.world, "Dst", pieces);
  return w;
}

double bestOfMs(int reps, const std::function<Partition()>& op,
                std::uint64_t* runsOut) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    Partition p = op();
    best = std::min(best, t.millis());
    std::uint64_t runs = 0;
    for (std::size_t j = 0; j < p.count(); ++j) runs += p.sub(j).runCount();
    *runsOut = runs;
  }
  return best;
}

void emit(const std::string& op, Index n, std::size_t pieces,
          std::size_t threads, const char* mode, double ms,
          std::uint64_t runs) {
  std::cout << "{\"bench\":\"dpl_ops\",\"op\":\"" << op << "\",\"n\":" << n
            << ",\"pieces\":" << pieces << ",\"threads\":" << threads
            << ",\"mode\":\"" << mode << "\",\"ms\":" << ms
            << ",\"runs\":" << runs << "}\n";
}

struct Speedup {
  std::string op;
  double serialMs = 0;
  double parallelMs = 0;
};

void benchSize(Index n, std::size_t pieces, ThreadPool& pool, int reps,
               std::vector<Speedup>& table) {
  Workload w = makeWorkload(n, pieces);
  const World& world = *w.world;
  const std::size_t threads = pool.threadCount();

  struct OpCase {
    std::string name;
    std::function<Partition(ThreadPool*)> run;
  };
  const Partition shifted = dpart::region::imagePartition(
      world, w.src, "Src[.].to", "Dst");  // a second, fragmented operand
  std::vector<OpCase> cases;
  cases.push_back({"image", [&](ThreadPool* p) {
                     return dpart::region::imagePartition(world, w.src,
                                                          "Src[.].to", "Dst", p);
                   }});
  cases.push_back({"IMAGE", [&](ThreadPool* p) {
                     return dpart::region::imagePartition(
                         world, w.src, "Src[.].span", "Dst", p);
                   }});
  cases.push_back({"preimage", [&](ThreadPool* p) {
                     return dpart::region::preimagePartition(
                         world, "Src", "Src[.].to", w.dst, p);
                   }});
  cases.push_back({"PREIMAGE", [&](ThreadPool* p) {
                     return dpart::region::preimagePartition(
                         world, "Src", "Src[.].span", w.dst, p);
                   }});
  cases.push_back({"union", [&](ThreadPool* p) {
                     return dpart::region::unionPartitions(w.dst, shifted, p);
                   }});
  cases.push_back({"intersect", [&](ThreadPool* p) {
                     return dpart::region::intersectPartitions(w.dst, shifted,
                                                               p);
                   }});
  cases.push_back({"subtract", [&](ThreadPool* p) {
                     return dpart::region::subtractPartitions(w.dst, shifted,
                                                              p);
                   }});

  for (const OpCase& c : cases) {
    std::uint64_t runsSerial = 0;
    std::uint64_t runsParallel = 0;
    const double serialMs =
        bestOfMs(reps, [&] { return c.run(nullptr); }, &runsSerial);
    const double parallelMs =
        bestOfMs(reps, [&] { return c.run(&pool); }, &runsParallel);
    if (runsSerial != runsParallel) {
      std::cerr << "MISMATCH: " << c.name << " serial/parallel runs differ\n";
      std::exit(1);
    }
    emit(c.name, n, pieces, 1, "serial", serialMs, runsSerial);
    emit(c.name, n, pieces, threads, "parallel", parallelMs, runsParallel);
    table.push_back({c.name, serialMs, parallelMs});
  }
}

// ---- Raw IndexSet set algebra across density variants ----
//
// The DPL kernels above measure whole-partition materialization; these rows
// isolate the per-IndexSet set-op cost at the representation level. The
// "dense" and "alt" variants are the regimes where a flat run vector
// degenerates to one run per element or two.

struct SetPair {
  IndexSet a;
  IndexSet b;
};

SetPair makeSetPair(const std::string& variant, Index n) {
  Rng rng(0xa15e ^ static_cast<std::uint64_t>(n));
  if (variant == "interval") {
    // One run each, large overlap: the shape equal/affine partitions take.
    return {IndexSet::interval(0, n - n / 4), IndexSet::interval(n / 4, n)};
  }
  if (variant == "blocks") {
    // Mesh-ish: medium runs with partial overlap between the operands.
    dpart::region::IndexSetBuilder ba;
    dpart::region::IndexSetBuilder bb;
    for (Index lo = 0; lo < n; lo += 256) {
      ba.addRun(lo, std::min<Index>(n, lo + 192));
      bb.addRun(std::min<Index>(n, lo + 96), std::min<Index>(n, lo + 288));
    }
    return {ba.build(), bb.build()};
  }
  if (variant == "sparse") {
    // ~1.5% density scattered singletons (GRAPHOPT-style remote references).
    dpart::region::IndexSetBuilder ba;
    dpart::region::IndexSetBuilder bb;
    for (Index i = 0; i < n; ++i) {
      if (rng.chance(1.0 / 64)) ba.add(i);
      if (rng.chance(1.0 / 64)) bb.add(i);
    }
    return {ba.build(), bb.build()};
  }
  if (variant == "dense") {
    // ~50% density random membership: worst case for run-length encoding.
    dpart::region::IndexSetBuilder ba;
    dpart::region::IndexSetBuilder bb;
    for (Index i = 0; i < n; ++i) {
      if (rng.chance(0.5)) ba.add(i);
      if (rng.chance(0.5)) bb.add(i);
    }
    return {ba.build(), bb.build()};
  }
  if (variant == "alt") {
    // Adversarial alternating singletons: n/2 runs per operand.
    dpart::region::IndexSetBuilder ba;
    dpart::region::IndexSetBuilder bb;
    for (Index i = 0; i < n; i += 2) {
      ba.add(i);
      bb.add(i + 1);
    }
    return {ba.build(), bb.build()};
  }
  std::cerr << "unknown set variant " << variant << '\n';
  std::exit(1);
}

void emitSetRow(const std::string& op, const std::string& variant, Index n,
                double ms, Index card, std::uint64_t runs) {
  std::cout << "{\"bench\":\"set_algebra\",\"op\":\"" << op << "\",\"variant\":\""
            << variant << "\",\"n\":" << n << ",\"ms\":" << ms
            << ",\"card\":" << card << ",\"runs\":" << runs << "}\n";
}

void benchSetAlgebra(Index n, int reps) {
  const std::vector<std::string> variants = {"interval", "blocks", "sparse",
                                             "dense", "alt"};
  for (const std::string& variant : variants) {
    const SetPair p = makeSetPair(variant, n);
    const IndexSet sup = p.a.unionWith(p.b);          // superset of both
    const IndexSet disjoint = p.b.subtract(p.a);      // shares nothing with a

    struct SetCase {
      std::string op;
      std::function<std::pair<Index, std::uint64_t>()> run;  // {card, runs}
    };
    std::vector<SetCase> cases;
    cases.push_back({"union", [&] {
                       const IndexSet r = p.a.unionWith(p.b);
                       return std::make_pair(r.size(),
                                             std::uint64_t(r.runCount()));
                     }});
    cases.push_back({"intersect", [&] {
                       const IndexSet r = p.a.intersectWith(p.b);
                       return std::make_pair(r.size(),
                                             std::uint64_t(r.runCount()));
                     }});
    cases.push_back({"subtract", [&] {
                       const IndexSet r = p.a.subtract(p.b);
                       return std::make_pair(r.size(),
                                             std::uint64_t(r.runCount()));
                     }});
    // True containment: the scan cannot bail early, so this is the full
    // per-element (seed) vs word-at-a-time (hybrid) comparison.
    cases.push_back({"containsAll", [&] {
                       const bool ok = sup.containsAll(p.a);
                       return std::make_pair(Index(ok ? 1 : 0),
                                             std::uint64_t(0));
                     }});
    // Provably-disjoint probe: intersects() must scan everything to say no.
    cases.push_back({"intersects", [&] {
                       const bool hit = p.a.intersects(disjoint);
                       return std::make_pair(Index(hit ? 1 : 0),
                                             std::uint64_t(0));
                     }});

    for (const SetCase& c : cases) {
      double best = 1e300;
      Index card = 0;
      std::uint64_t runs = 0;
      for (int r = 0; r < reps; ++r) {
        Timer t;
        const auto [cardNow, runsNow] = c.run();
        best = std::min(best, t.millis());
        card = cardNow;
        runs = runsNow;
      }
      emitSetRow(c.op, variant, n, best, card, runs);
    }
  }
}

// A program whose RHSs share subtrees the way unified constraint graphs do;
// evaluating it twice shows the memo cache short-circuiting the second pass.
void benchMemoization(Index n, std::size_t pieces, std::size_t threads) {
  Workload w = makeWorkload(n, pieces);
  dpart::dpl::Program prog;
  using namespace dpart::dpl;
  prog.append("PD", equalOf("Dst"));
  prog.append("P1", preimage("Src", "Src[.].to", symbol("PD")));
  prog.append("P2", unionOf(preimage("Src", "Src[.].to", symbol("PD")),
                            preimage("Src", "Src[.].span", symbol("PD"))));
  prog.append("P3", intersectOf(image(symbol("P2"), "Src[.].to", "Dst"),
                                image(symbol("P2"), "Src[.].to", "Dst")));

  Evaluator cold(*w.world, pieces);
  cold.setMemoize(false);
  Timer tCold;
  cold.run(prog);
  const double coldMs = tCold.millis();

  dpart::MetricsRegistry registry;
  Evaluator warm(*w.world, pieces, threads);
  warm.setMetrics(&registry);
  Timer tWarm;
  warm.run(prog);
  const double warmMs = tWarm.millis();

  bool identical = true;
  for (const auto& [name, part] : cold.env()) {
    identical = identical && part == warm.partition(name);
  }

  // The counters object reads the evaluator's registry snapshot: the
  // dpl.op.* gauges grouped by op label, and the dpl.indexset.* pair.
  std::map<std::string, std::map<std::string, double>> ops;
  std::map<std::string, double> indexset;
  for (const auto& e : registry.snapshot().entries) {
    if (e.name.starts_with("dpl.op.")) {
      ops[e.labels.at("op")][e.name.substr(7)] = e.value;
    } else if (e.name.starts_with("dpl.indexset.")) {
      indexset[e.name.substr(13)] = e.value;
    }
  }
  const auto count = [](double v) { return static_cast<std::uint64_t>(v); };
  const dpart::dpl::EvalCounters& ev = warm.counters();
  std::ostringstream counters;
  counters << "{\"cache_hits\":" << ev.cacheHits
           << ",\"cache_misses\":" << ev.cacheMisses
           << ",\"injected_stall_us\":" << ev.injectedStallMicros
           << ",\"container_switches\":"
           << count(indexset["container_switches"])
           << ",\"bitmap_op_words\":" << count(indexset["bitmap_op_words"])
           << ",\"ops\":{";
  // Fixed schema: every operator appears even at zero calls, so the perf
  // trajectory scrapers never see a moving column set.
  const char* sep = "";
  for (const char* op :
       {"equal", "image", "preimage", "union", "intersect", "subtract"}) {
    const auto it = ops.find(op);
    if (it == ops.end() || it->second.size() != 4) {
      std::cerr << "SCHEMA: the evaluator did not register the four "
                   "dpl.op.* gauges for op="
                << op << '\n';
      std::exit(1);
    }
    std::map<std::string, double>& f = it->second;
    counters << sep << '"' << op << "\":{\"calls\":" << count(f["calls"])
             << ",\"ms\":" << f["ms"] << ",\"elements\":"
             << count(f["elements"]) << ",\"runs\":" << count(f["runs"])
             << '}';
    sep = ",";
  }
  counters << "}}";

  std::cout << "{\"bench\":\"dpl_memo\",\"n\":" << n
            << ",\"pieces\":" << pieces << ",\"threads\":" << threads
            << ",\"serial_nomemo_ms\":" << coldMs
            << ",\"parallel_memo_ms\":" << warmMs
            << ",\"cache_hits\":" << ev.cacheHits
            << ",\"cache_misses\":" << ev.cacheMisses
            << ",\"injected_stall_us\":" << ev.injectedStallMicros
            << ",\"identical\":" << (identical ? "true" : "false")
            << ",\"counters\":" << counters.str() << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick =
      argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  ThreadPool pool(0);  // hardware concurrency
  const int reps = quick ? 2 : 3;

  std::vector<Speedup> table;
  struct Config {
    Index n;
    std::size_t pieces;
  };
  // --quick runs a subset of the full configuration grid (same keys), so a
  // quick run's rows can be compared against a committed full-run baseline.
  std::vector<Config> configs = quick
      ? std::vector<Config>{{1 << 16, 16}}
      : std::vector<Config>{{1 << 16, 16}, {1 << 18, 16}, {1 << 20, 16},
                            {1 << 20, 64}};
  for (const Config& cfg : configs) {
    benchSize(cfg.n, cfg.pieces, pool, reps, table);
  }
  benchSetAlgebra(1 << 18, reps);
  if (!quick) benchSetAlgebra(1 << 20, reps);
  benchMemoization(quick ? 1 << 16 : 1 << 20, 16, pool.threadCount());

  double serialTotal = 0;
  double parallelTotal = 0;
  for (const Speedup& s : table) {
    serialTotal += s.serialMs;
    parallelTotal += s.parallelMs;
  }
  std::cout << "{\"bench\":\"dpl_ops_summary\",\"threads\":"
            << pool.threadCount() << ",\"serial_total_ms\":" << serialTotal
            << ",\"parallel_total_ms\":" << parallelTotal
            << ",\"speedup\":" << (serialTotal / std::max(1e-9, parallelTotal))
            << "}\n";
  return 0;
}
