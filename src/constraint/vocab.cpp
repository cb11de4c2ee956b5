#include "constraint/vocab.hpp"

#include <algorithm>
#include <sstream>

namespace dpart::constraint {

std::string Vocabulary::rendered() const {
  std::vector<std::string> lines;
  for (const CapacityBound& c : capacities) {
    lines.push_back("capacity " + c.region + " " +
                    std::to_string(c.maxPerPiece));
  }
  for (const FieldAffinity& a : affinities) {
    // Normalize pair order so {A,B} and {B,A} render identically.
    const std::string& lo = std::min(a.fieldA, a.fieldB);
    const std::string& hi = std::max(a.fieldA, a.fieldB);
    lines.push_back(std::string(a.together ? "colocate " : "anti ") + lo +
                    " " + hi);
  }
  for (const ReplicationBound& r : replications) {
    std::ostringstream os;
    os << "replicate " << r.region << " " << r.minFactor << " "
       << r.maxFactor;
    lines.push_back(os.str());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

void Vocabulary::validate(const std::set<std::string>& regionNames,
                          const std::set<std::string>& accessedFields,
                          std::size_t pieces) const {
  auto require = [](bool ok, const std::string& what) {
    if (!ok) throw BadRequest(what);
  };
  for (const CapacityBound& cb : capacities) {
    require(regionNames.contains(cb.region),
            "capacity bound names unknown region '" + cb.region + "'");
    require(cb.maxPerPiece > 0,
            "capacity bound on '" + cb.region + "' must be positive");
  }
  for (const ReplicationBound& rb : replications) {
    require(regionNames.contains(rb.region),
            "replication bound names unknown region '" + rb.region + "'");
    require(rb.minFactor >= 0, "replication floor on '" + rb.region +
                                   "' must be non-negative");
    require(rb.maxFactor <= 0 || rb.maxFactor >= rb.minFactor,
            "replication bounds on '" + rb.region + "' are inverted");
  }
  for (const FieldAffinity& fa : affinities) {
    for (const std::string& f : {fa.fieldA, fa.fieldB}) {
      const auto dot = f.find('.');
      require(dot != std::string::npos && dot > 0 && dot + 1 < f.size() &&
                  regionNames.contains(f.substr(0, dot)),
              "affinity field '" + f +
                  "' must name an existing 'region.field'");
      require(accessedFields.contains(f),
              "affinity field '" + f + "' matches no access in the program");
    }
  }
  require(pieces > 0 || (capacities.empty() && replications.empty()),
          "pieces must be set when capacity or replication bounds are present");
}

}  // namespace dpart::constraint
