#pragma once

// Scrapes galaxy_served's GET /metrics (Prometheus text format) and takes
// counter deltas around a phase.
//
// The server's exposition has known mistypes that the scraper tolerates:
// galaxy_cache_evictions_total and galaxy_cache_invalidations_total are
// exported as gauges but only ever grow, so they are differenced like
// counters; galaxy_qps and galaxy_cache_hit_ratio_percent are derived
// since-start values, so they are ignored and recomputed from counter
// deltas instead.

#include <map>
#include <string>

namespace perfbench {

/// One scrape: sample name (labels included, e.g.
/// `galaxy_http_responses_total{code="429"}`) -> value.
struct MetricsSnapshot {
  std::map<std::string, double> values;
  double taken_s = 0;  ///< steady-clock seconds when the scrape was taken

  double Get(const std::string& name) const;
};

/// Parses Prometheus text: comment lines skipped, `name[{labels}] value`.
MetricsSnapshot ParsePrometheus(const std::string& text);

/// Counter movement between two scrapes of the same server.
class MetricsDelta {
 public:
  MetricsDelta(const MetricsSnapshot& before, const MetricsSnapshot& after)
      : before_(before), after_(after) {}

  /// after - before for a monotonic series (counters, histogram _count and
  /// _sum, and the two mistyped cumulative gauges).
  double Counter(const std::string& name) const;
  /// Hits / (hits + misses) over the interval; 0 with no lookups.
  double CacheHitRatio() const;
  /// Requests per second over the interval.
  double Qps() const;

 private:
  const MetricsSnapshot& before_;
  const MetricsSnapshot& after_;
};

}  // namespace perfbench
