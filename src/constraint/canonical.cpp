#include "constraint/canonical.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace dpart::constraint {

namespace {

// The identity function id (region::kIdentityFnId). Redefined here rather
// than included so the constraint layer keeps depending only on dpl.
const std::string kIdentityFn = "f_ID";

// --- 64-bit FNV-1a, the same primitive the Evaluator's memo cache uses. ---

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv64(const std::string& s,
                    std::uint64_t h = kFnvOffset) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

// Order-sensitive combine ending in the splitmix64 finalizer: signature sums
// add these values, so each must be well spread over all 64 bits.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = (h * kFnvPrime) ^ (v + 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- Graph nodes ------------------------------------------------------------

enum class NodeKind : std::uint8_t { Sym, Region, Fn, Loop };

struct NodeKey {
  NodeKind kind{};
  // Sym/Region/Fn: the name; Loop: the system's index rendered as text (loop
  // tags have no request-visible name — they exist only to keep conjuncts of
  // different loops from mingling during refinement).
  std::string name;

  bool operator<(const NodeKey& o) const {
    if (kind != o.kind) return kind < o.kind;
    return name < o.name;
  }
  bool operator==(const NodeKey& o) const {
    return kind == o.kind && name == o.name;
  }
};

struct Canonicalizer {
  std::vector<CanonicalLoop> loops;    // loop systems then externals
  std::set<std::string> rangeFns;
  std::uint64_t optionBits = 0;
  std::string extraKey;
  std::size_t externalStart = 0;       // index of first external system

  std::vector<NodeKey> nodes;          // stable order: sorted by key
  std::map<NodeKey, std::size_t> nodeIndex;
  // The ordered partition: `cells` lists the nodes cell by cell, a node's
  // color is the start position of its cell and `cellEnd[start]` is one past
  // the cell's last position. `key` is what cells split by: the kind hash at
  // first, then per node the commutative sum of mix(signature, position)
  // over its incident conjuncts, updated in place as signatures change.
  std::vector<std::uint64_t> color, key;
  std::vector<std::size_t> cells, cellEnd;
  std::vector<std::vector<std::size_t>> incident;  // node -> its conjuncts
  // Per-pass dedup stamps (conjunct index, cell start); all scratch state is
  // owned by this instance, so concurrent canonicalize() calls share nothing.
  std::vector<std::size_t> conjStamp, cellStamp;
  std::size_t epoch = 0;

  /// One step of a compiled conjunct-signature program: mix a constant
  /// (colorOf < 0) or the current color of a node (colorOf >= 0) into the
  /// running signature.
  struct Token {
    std::int64_t colorOf = -1;
    std::uint64_t value = 0;
  };

  /// One conjunct, compiled once: refinement replays the token program
  /// against the current coloring whenever a node it mentions changes cell,
  /// instead of re-walking expression trees and name maps. `mentions` holds
  /// every node the tokens read (the loop node included) with its position.
  struct Compiled {
    std::uint64_t tag = 0;
    std::uint64_t sig = 0;  // signature under the current coloring
    std::vector<Token> tokens;
    std::vector<std::pair<std::size_t, std::uint64_t>> mentions;
  };
  std::vector<Compiled> conjuncts;

  std::size_t node(NodeKind kind, const std::string& name) {
    auto it = nodeIndex.find(NodeKey{kind, name});
    DPART_CHECK(it != nodeIndex.end(),
                "canonicalize: unregistered graph node '" + name + "'");
    return it->second;
  }

  void registerNode(NodeKind kind, const std::string& name) {
    NodeKey key{kind, name};
    if (!nodeIndex.contains(key)) nodeIndex.emplace(key, 0);
  }

  void registerExprNodes(const dpl::ExprPtr& e) {
    if (!e) return;
    switch (e->kind) {
      case dpl::ExprKind::Symbol:
        registerNode(NodeKind::Sym, e->name);
        return;
      case dpl::ExprKind::Union:
      case dpl::ExprKind::Intersect:
      case dpl::ExprKind::Subtract:
        registerExprNodes(e->lhs);
        registerExprNodes(e->rhs);
        return;
      case dpl::ExprKind::Image:
      case dpl::ExprKind::Preimage:
        registerExprNodes(e->arg);
        registerNode(NodeKind::Fn, e->fn);
        registerNode(NodeKind::Region, e->region);
        return;
      case dpl::ExprKind::Equal:
        registerNode(NodeKind::Region, e->region);
        return;
    }
    DPART_UNREACHABLE("bad ExprKind");
  }

  void collectNodes() {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      registerNode(NodeKind::Loop, std::to_string(i));
      const System& sys = *loops[i].system;
      for (const std::string& s : sys.symbols()) {
        registerNode(NodeKind::Sym, s);
        registerNode(NodeKind::Region, sys.regionOf(s));
      }
      for (const Pred& p : sys.preds()) {
        registerExprNodes(p.expr);
        if (!p.region.empty()) registerNode(NodeKind::Region, p.region);
      }
      for (const Subset& sc : sys.subsets()) {
        registerExprNodes(sc.lhs);
        registerExprNodes(sc.rhs);
      }
      for (const std::string& t : loops[i].reduceTargets) {
        registerNode(NodeKind::Sym, t);
      }
    }
    // Freeze: node index = rank in sorted key order. This order is input-name
    // dependent and is used only as a stable working order; canonical ranks
    // come from colors alone.
    nodes.reserve(nodeIndex.size());
    for (auto& [key, idx] : nodeIndex) {
      idx = nodes.size();
      nodes.push_back(key);
    }
  }

  /// Kind-intrinsic initial key, independent of any input name; the initial
  /// cells group equal keys in key order. `f_ID` is the one exception: it is
  /// structural (every program has it; it is never renamed), so it gets a
  /// reserved key of its own.
  void initColors() {
    key.assign(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeKey& k = nodes[i];
      std::uint64_t c = fnv64("kind");
      c = mix(c, static_cast<std::uint64_t>(k.kind));
      switch (k.kind) {
        case NodeKind::Sym:
          break;  // fixedness enters via declaration conjuncts per system
        case NodeKind::Region:
          break;
        case NodeKind::Fn:
          c = mix(c, k.name == kIdentityFn ? 2
                     : rangeFns.contains(k.name) ? 1
                                                 : 0);
          break;
        case NodeKind::Loop: {
          const std::size_t li = std::stoul(k.name);
          c = mix(c, loops[li].relaxed ? 1 : 0);
          c = mix(c, li >= externalStart ? 1 : 0);
          break;
        }
      }
      key[i] = c;
    }
  }

  /// Compiles an expression into tokens: constants marking the structure,
  /// color references at every node position. Only how the values compare
  /// matters downstream: cells split and order by them, canonical ranks come
  /// from cell positions and the rendering from ranks.
  void compileExpr(const dpl::ExprPtr& e, std::uint64_t path, Compiled& out) {
    DPART_CHECK(e != nullptr, "canonicalize: null expression");
    out.tokens.push_back(
        Token{-1, mix(fnv64("expr"), static_cast<std::uint64_t>(e->kind))});
    switch (e->kind) {
      case dpl::ExprKind::Symbol: {
        const std::size_t n = node(NodeKind::Sym, e->name);
        out.mentions.emplace_back(n, path);
        out.tokens.push_back(Token{static_cast<std::int64_t>(n), 0});
        return;
      }
      case dpl::ExprKind::Union:
      case dpl::ExprKind::Intersect:
      case dpl::ExprKind::Subtract:
        compileExpr(e->lhs, mix(path, 1), out);
        compileExpr(e->rhs, mix(path, 2), out);
        return;
      case dpl::ExprKind::Image:
      case dpl::ExprKind::Preimage: {
        compileExpr(e->arg, mix(path, 1), out);
        const std::size_t fn = node(NodeKind::Fn, e->fn);
        const std::size_t rg = node(NodeKind::Region, e->region);
        out.mentions.emplace_back(fn, mix(path, 3));
        out.mentions.emplace_back(rg, mix(path, 4));
        out.tokens.push_back(Token{static_cast<std::int64_t>(fn), 0});
        out.tokens.push_back(Token{static_cast<std::int64_t>(rg), 0});
        return;
      }
      case dpl::ExprKind::Equal: {
        const std::size_t rg = node(NodeKind::Region, e->region);
        out.mentions.emplace_back(rg, mix(path, 4));
        out.tokens.push_back(Token{static_cast<std::int64_t>(rg), 0});
        return;
      }
    }
    DPART_UNREACHABLE("bad ExprKind");
  }

  void compileConjunct(std::uint64_t tag, std::size_t loopIdx,
                       const std::vector<const dpl::ExprPtr*>& exprs,
                       const std::vector<std::size_t>& extraNodes) {
    Compiled c;
    c.tag = tag;
    const std::size_t loopNode = node(NodeKind::Loop, std::to_string(loopIdx));
    c.mentions.emplace_back(loopNode, fnv64("@loop"));
    c.tokens.push_back(Token{static_cast<std::int64_t>(loopNode), 0});
    std::uint64_t slot = fnv64("slot");
    for (const dpl::ExprPtr* e : exprs) {
      slot = mix(slot, 1);
      c.tokens.push_back(Token{-1, slot});
      compileExpr(*e, slot, c);
    }
    for (std::size_t n : extraNodes) {
      slot = mix(slot, 2);
      c.mentions.emplace_back(n, slot);
      c.tokens.push_back(Token{static_cast<std::int64_t>(n), 0});
    }
    conjuncts.push_back(std::move(c));
  }

  void compileAllConjuncts() {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const System& sys = *loops[i].system;
      for (const std::string& s : sys.symbols()) {
        std::uint64_t tag = fnv64("decl");
        tag = mix(tag, sys.isFixed(s) ? 1 : 0);
        compileConjunct(tag, i, {},
                        {node(NodeKind::Sym, s),
                         node(NodeKind::Region, sys.regionOf(s))});
      }
      for (const Pred& p : sys.preds()) {
        // Symbol PART preds are implied by declarations; skip them so the
        // graph does not double-count what `decl` conjuncts already carry.
        if (p.kind == Pred::Kind::Part &&
            p.expr->kind == dpl::ExprKind::Symbol) {
          continue;
        }
        std::uint64_t tag = fnv64("pred");
        tag = mix(tag, static_cast<std::uint64_t>(p.kind));
        tag = mix(tag, p.assumed ? 1 : 0);
        std::vector<std::size_t> extra;
        if (!p.region.empty()) extra.push_back(node(NodeKind::Region, p.region));
        compileConjunct(tag, i, {&p.expr}, extra);
      }
      for (const Subset& sc : sys.subsets()) {
        std::uint64_t tag = fnv64("subset");
        tag = mix(tag, sc.assumed ? 1 : 0);
        compileConjunct(tag, i, {&sc.lhs, &sc.rhs}, {});
      }
      for (const std::string& t : loops[i].reduceTargets) {
        compileConjunct(fnv64("reduce-target"), i, {},
                        {node(NodeKind::Sym, t)});
      }
    }
  }

  std::uint64_t sign(const Compiled& c) const {
    std::uint64_t sig = c.tag;
    for (const Token& t : c.tokens) {
      sig = mix(sig, t.colorOf >= 0
                         ? color[static_cast<std::size_t>(t.colorOf)]
                         : t.value);
    }
    return sig;
  }

  /// Splits the cell starting at `b` by `key`, sub-cells in key order. The
  /// first sub-cell keeps the cell's color; every other member is recolored
  /// to its sub-cell's start and appended to `moved`.
  void split(std::size_t b, std::vector<std::size_t>& moved) {
    const std::size_t e = cellEnd[b];
    if (e - b < 2) return;
    std::sort(cells.begin() + static_cast<std::ptrdiff_t>(b),
              cells.begin() + static_cast<std::ptrdiff_t>(e),
              [&](std::size_t x, std::size_t y) { return key[x] < key[y]; });
    std::size_t start = b;
    for (std::size_t p = b; p < e; ++p) {
      const std::size_t n = cells[p];
      if (key[n] != key[cells[start]]) cellEnd[std::exchange(start, p)] = p;
      if (start != b) {
        color[n] = start;
        moved.push_back(n);
      }
    }
    cellEnd[start] = e;
  }

  /// Refines to the coarsest stable partition below the current one, given
  /// the nodes whose color just changed: re-signs only the conjuncts that
  /// mention a moved node, updates the key sums of the nodes incident on
  /// them, and splits only the cells those nodes sit in. Each pass splits by
  /// keys computed from one coloring, so the outcome is the same as a full
  /// synchronous round, whatever order the worklist is visited in.
  void refine(std::vector<std::size_t> moved) {
    std::vector<std::size_t> dirty;
    while (!moved.empty()) {
      ++epoch;
      dirty.clear();
      for (std::size_t n : moved) {
        for (std::size_t ci : incident[n]) {
          if (std::exchange(conjStamp[ci], epoch) == epoch) continue;
          Compiled& c = conjuncts[ci];
          const std::uint64_t sig = sign(c);
          if (sig == c.sig) continue;
          for (const auto& [m, pos] : c.mentions) {
            key[m] += mix(sig, pos) - mix(c.sig, pos);
            const std::size_t cell = color[m];
            if (std::exchange(cellStamp[cell], epoch) != epoch) {
              dirty.push_back(cell);
            }
          }
          c.sig = sig;
        }
      }
      moved.clear();
      for (std::size_t b : dirty) split(b, moved);
    }
  }

  /// Builds the initial cells from the kind hashes (ordered by hash value),
  /// then refines them against the conjunct signatures.
  void partition() {
    const std::size_t n = nodes.size();
    color.assign(n, 0);
    cells.resize(n);
    for (std::size_t i = 0; i < n; ++i) cells[i] = i;
    cellEnd.assign(n + 1, n);  // one cell; the extra slot serves n == 0
    std::vector<std::size_t> moved;
    split(0, moved);
    key.assign(n, 0);
    incident.assign(n, {});
    for (std::size_t ci = 0; ci < conjuncts.size(); ++ci) {
      Compiled& c = conjuncts[ci];
      c.sig = sign(c);
      for (const auto& [m, pos] : c.mentions) {
        key[m] += mix(c.sig, pos);
        incident[m].push_back(ci);
      }
    }
    conjStamp.assign(conjuncts.size(), 0);
    cellStamp.assign(n, 0);
    moved.clear();
    for (std::size_t b = 0; b < n; b = cellEnd[b]) split(b, moved);
    refine(std::move(moved));
  }

  /// Splits residual ties one node at a time: the first member in input-name
  /// order of the first non-singleton cell moves to a singleton cell at the
  /// cell's end, and refinement proceeds from that one move. The member
  /// choice is a heuristic: a "wrong" choice can only make two isomorphic
  /// inputs land on different canonical forms (a cache miss, caught by the
  /// rendering guard) — never on the same form, because the rendering is a
  /// faithful image of the input.
  void individualize() {
    for (std::size_t b = 0; b < cells.size();) {
      const std::size_t e = cellEnd[b];
      if (e - b < 2) {
        b = e;
        continue;
      }
      const auto first = cells.begin() + static_cast<std::ptrdiff_t>(b);
      const auto last = cells.begin() + static_cast<std::ptrdiff_t>(e);
      std::iter_swap(std::min_element(first, last), last - 1);
      cellEnd[b] = e - 1;
      cellEnd[e - 1] = e;
      color[cells[e - 1]] = e - 1;
      refine({cells[e - 1]});
    }
  }

  CanonicalForm finish() {
    CanonicalForm out;
    // Canonical names: rank nodes of each kind by final color. All colors
    // are distinct after individualization.
    struct Ranked {
      std::uint64_t color;
      std::size_t idx;
    };
    std::map<NodeKind, std::vector<Ranked>> byKind;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      byKind[nodes[i].kind].push_back(Ranked{color[i], i});
    }
    std::vector<std::string> loopNames(loops.size());
    for (auto& [kind, ranked] : byKind) {
      std::sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                                 const Ranked& b) {
        return a.color < b.color;
      });
      std::size_t rank = 0;
      for (const Ranked& r : ranked) {
        const std::string& name = nodes[r.idx].name;
        switch (kind) {
          case NodeKind::Sym:
            out.toCanonical.symbols[name] = "s" + std::to_string(rank);
            break;
          case NodeKind::Region:
            out.toCanonical.regions[name] = "r" + std::to_string(rank);
            break;
          case NodeKind::Fn:
            if (name != kIdentityFn) {
              out.toCanonical.fns[name] = "f" + std::to_string(rank);
            }
            break;
          case NodeKind::Loop:
            loopNames[std::stoul(name)] = "L" + std::to_string(rank);
            break;
        }
        ++rank;
      }
    }

    // Rendering: the full canonicalized constraint state, loops in canonical
    // order, conjuncts sorted textually. Byte-equality of two renderings is
    // byte-equality of the inputs' canonical images — the collision guard.
    std::vector<std::string> loopTexts(loops.size());
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const System& sys = *loops[i].system;
      std::ostringstream os;
      os << "loop " << loopNames[i] << " relaxed=" << (loops[i].relaxed ? 1 : 0)
         << " external=" << (i >= externalStart ? 1 : 0) << '\n';
      std::vector<std::string> lines;
      for (const std::string& s : sys.symbols()) {
        lines.push_back("  decl " + out.toCanonical.symbol(s) + " : " +
                        out.toCanonical.region(sys.regionOf(s)) +
                        (sys.isFixed(s) ? " fixed" : ""));
      }
      for (const Pred& p : sys.preds()) {
        if (p.kind == Pred::Kind::Part &&
            p.expr->kind == dpl::ExprKind::Symbol) {
          continue;
        }
        Pred q = p;
        q.expr = mapExpr(p.expr, out.toCanonical);
        q.region = out.toCanonical.region(p.region);
        lines.push_back(std::string("  pred ") + (q.assumed ? "assumed " : "") +
                        q.toString());
      }
      for (const Subset& sc : sys.subsets()) {
        Subset q = sc;
        q.lhs = mapExpr(sc.lhs, out.toCanonical);
        q.rhs = mapExpr(sc.rhs, out.toCanonical);
        lines.push_back(std::string("  sub ") + (q.assumed ? "assumed " : "") +
                        q.toString());
      }
      std::vector<std::string> targets;
      targets.reserve(loops[i].reduceTargets.size());
      for (const std::string& t : loops[i].reduceTargets) {
        targets.push_back(out.toCanonical.symbol(t));
      }
      std::sort(targets.begin(), targets.end());
      for (const std::string& t : targets) lines.push_back("  reduce " + t);
      std::sort(lines.begin(), lines.end());
      for (const std::string& l : lines) os << l << '\n';
      loopTexts[i] = os.str();
    }
    std::sort(loopTexts.begin(), loopTexts.end());

    std::ostringstream os;
    os << "options " << optionBits << '\n';
    // Caller-supplied key material outside the constraint graph (external
    // vocabulary, pieces, region sizes); raw names, not canonicalized.
    if (!extraKey.empty()) os << "extra " << extraKey << '\n';
    std::vector<std::string> rf;
    for (const std::string& f : rangeFns) {
      // Range fns the systems never mention cannot affect the solve.
      if (out.toCanonical.fns.contains(f)) {
        rf.push_back(out.toCanonical.fn(f));
      }
    }
    std::sort(rf.begin(), rf.end());
    os << "rangefns";
    for (const std::string& f : rf) os << ' ' << f;
    os << '\n';
    for (const std::string& t : loopTexts) os << t;
    out.rendering = os.str();
    out.hash = fnv64(out.rendering);
    return out;
  }
};

}  // namespace

const std::string& NameMaps::symbol(const std::string& name) const {
  auto it = symbols.find(name);
  return it == symbols.end() ? name : it->second;
}

const std::string& NameMaps::region(const std::string& name) const {
  auto it = regions.find(name);
  return it == regions.end() ? name : it->second;
}

const std::string& NameMaps::fn(const std::string& name) const {
  auto it = fns.find(name);
  return it == fns.end() ? name : it->second;
}

NameMaps NameMaps::inverted() const {
  NameMaps out;
  auto invert = [](const std::map<std::string, std::string>& m,
                   std::map<std::string, std::string>& into) {
    for (const auto& [k, v] : m) {
      DPART_CHECK(into.emplace(v, k).second,
                  "NameMaps::inverted: non-injective map at '" + v + "'");
    }
  };
  invert(symbols, out.symbols);
  invert(regions, out.regions);
  invert(fns, out.fns);
  return out;
}

dpl::ExprPtr mapExpr(const dpl::ExprPtr& e, const NameMaps& m) {
  DPART_CHECK(e != nullptr, "mapExpr: null expression");
  switch (e->kind) {
    case dpl::ExprKind::Symbol:
      return dpl::symbol(m.symbol(e->name));
    case dpl::ExprKind::Union:
      return dpl::unionOf(mapExpr(e->lhs, m), mapExpr(e->rhs, m));
    case dpl::ExprKind::Intersect:
      return dpl::intersectOf(mapExpr(e->lhs, m), mapExpr(e->rhs, m));
    case dpl::ExprKind::Subtract:
      return dpl::subtractOf(mapExpr(e->lhs, m), mapExpr(e->rhs, m));
    case dpl::ExprKind::Image:
      return dpl::image(mapExpr(e->arg, m), m.fn(e->fn), m.region(e->region));
    case dpl::ExprKind::Preimage:
      return dpl::preimage(m.region(e->region), m.fn(e->fn),
                           mapExpr(e->arg, m));
    case dpl::ExprKind::Equal:
      return dpl::equalOf(m.region(e->region));
  }
  DPART_UNREACHABLE("bad ExprKind");
}

System mapSystem(const System& s, const NameMaps& m) {
  System out;
  for (const std::string& sym : s.symbols()) {
    out.declareSymbol(m.symbol(sym), m.region(s.regionOf(sym)),
                      s.isFixed(sym));
  }
  for (const Pred& p : s.preds()) {
    // Symbol PART preds were re-added by declareSymbol above.
    if (p.kind == Pred::Kind::Part && p.expr->kind == dpl::ExprKind::Symbol) {
      continue;
    }
    switch (p.kind) {
      case Pred::Kind::Part:
        out.addPart(mapExpr(p.expr, m), m.region(p.region), p.assumed);
        break;
      case Pred::Kind::Disj:
        out.addDisj(mapExpr(p.expr, m), p.assumed);
        break;
      case Pred::Kind::Comp:
        out.addComp(mapExpr(p.expr, m), m.region(p.region), p.assumed);
        break;
    }
  }
  for (const Subset& sc : s.subsets()) {
    out.addSubset(mapExpr(sc.lhs, m), mapExpr(sc.rhs, m), sc.assumed);
  }
  return out;
}

CanonicalForm canonicalize(const std::vector<CanonicalLoop>& loops,
                           const std::vector<const System*>& externals,
                           const std::set<std::string>& rangeFns,
                           std::uint64_t optionBits,
                           const std::string& extraKey) {
  Canonicalizer c;
  c.loops = loops;
  c.externalStart = loops.size();
  for (const System* ext : externals) {
    c.loops.push_back(CanonicalLoop{ext, false, {}});
  }
  c.rangeFns = rangeFns;
  c.optionBits = optionBits;
  c.extraKey = extraKey;
  c.collectNodes();
  c.initColors();
  c.compileAllConjuncts();
  c.partition();
  c.individualize();
  return c.finish();
}

}  // namespace dpart::constraint
