#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

using dpart::region::FieldType;
using dpart::region::Region;
using dpart::region::World;

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::fail(const std::string& why) {
  failures_.push_back(why);
}

std::string Report::json() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (failures_.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": "
     << failures_.size() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // JSON has no inf or nan; report such a value as -1, which no metric
    // of this benchmark takes.
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(samples[hi])) return frac > 0 ? samples[hi] : samples[lo];
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double peakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double privateMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/smaps_rollup");
  std::string line;
  double kb = 0;
  while (std::getline(in, line)) {
    if (line.rfind("Private_Clean:", 0) == 0 ||
        line.rfind("Private_Dirty:", 0) == 0) {
      std::istringstream fields(line.substr(line.find(':') + 1));
      double v = 0;
      fields >> v;
      kb += v;
    }
  }
  return kb / 1024.0;
}

double selfCpuMs() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(r.ru_utime) + ms(r.ru_stime);
}

double processCpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int f = 3; f < 14; ++f) fields >> skip;
  double utime = 0, stime = 0;
  fields >> utime >> stime;
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void freshDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

namespace {

template <typename T>
bool sameBits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

std::string where(const Region& r, const std::string& field) {
  return r.name() + "." + field;
}

}  // namespace

std::string worldDiff(const World& want, const World& got, double relTol) {
  if (want.regionNames() != got.regionNames()) return "region sets differ";
  for (const std::string& name : want.regionNames()) {
    const Region& a = want.region(name);
    const Region& b = got.region(name);
    if (a.fieldNames() != b.fieldNames()) return name + ": field sets differ";
    for (const std::string& f : a.fieldNames()) {
      switch (a.fieldType(f)) {
        case FieldType::F64: {
          const auto x = a.f64(f);
          const auto y = b.f64(f);
          if (x.size() != y.size()) return where(a, f) + ": sizes differ";
          if (relTol < 0) {
            if (!sameBits(x, y)) return where(a, f) + ": bits differ";
            break;
          }
          for (std::size_t i = 0; i < x.size(); ++i) {
            if (!(std::abs(x[i] - y[i]) <= relTol * (1.0 + std::abs(x[i])))) {
              std::ostringstream os;
              os << where(a, f) << "[" << i << "]: want " << x[i] << " got "
                 << y[i];
              return os.str();
            }
          }
          break;
        }
        case FieldType::Idx:
          if (!sameBits(a.idx(f), b.idx(f))) return where(a, f) + " differs";
          break;
        case FieldType::Range:
          if (!sameBits(a.range(f), b.range(f))) {
            return where(a, f) + " differs";
          }
          break;
      }
    }
  }
  return "";
}

double worldBytes(const World& world) {
  double bytes = 0;
  for (const std::string& name : world.regionNames()) {
    const Region& r = world.region(name);
    for (const std::string& f : r.fieldNames()) {
      const double elem = r.fieldType(f) == FieldType::Range ? 16.0 : 8.0;
      bytes += elem * static_cast<double>(r.size());
    }
  }
  return bytes;
}

}  // namespace perfbench
