#include "metrics_scrape.h"

#include <cstdlib>
#include <sstream>

namespace perfbench {

double MetricsSnapshot::Get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

MetricsSnapshot ParsePrometheus(const std::string& text) {
  MetricsSnapshot snap;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; labels may not contain one here,
    // but searching from the back keeps a quoted space harmless.
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) continue;
    snap.values[line.substr(0, space)] = v;
  }
  return snap;
}

double MetricsDelta::Counter(const std::string& name) const {
  return after_.Get(name) - before_.Get(name);
}

double MetricsDelta::CacheHitRatio() const {
  const double hits = Counter("galaxy_cache_hits_total");
  const double misses = Counter("galaxy_cache_misses_total");
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

double MetricsDelta::Qps() const {
  const double dt = after_.taken_s - before_.taken_s;
  return dt > 0 ? Counter("galaxy_http_requests_total") / dt : 0.0;
}

}  // namespace perfbench
