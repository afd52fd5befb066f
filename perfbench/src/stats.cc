#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

size_t SamplesBeyond(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const size_t k = static_cast<size_t>(std::max(rank, 0.0));
  return k >= n ? 0 : n - k;
}

double TailPercentile(size_t n) {
  for (double p : kTailCandidates) {
    if (SamplesBeyond(n, p) >= kTailSamples) return p;
  }
  return 0.0;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()) -
                                1e-9);
  size_t k = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  if (k > sorted.size()) k = sorted.size();
  return sorted[k - 1];
}

double LatencyMs(const OpTiming& t) {
  if (!t.ok) return std::numeric_limits<double>::infinity();
  return static_cast<double>(t.done_ns - t.scheduled_ns) / 1e6;
}

double LatenessMs(const OpTiming& t) {
  const int64_t ready = std::max(t.scheduled_ns, t.free_ns);
  return static_cast<double>(std::max<int64_t>(t.sent_ns - ready, 0)) / 1e6;
}

LatencySummary Summarize(const std::vector<OpTiming>& ops,
                         double latency_limit_ms) {
  LatencySummary s;
  s.count = ops.size();
  std::vector<double> lat;
  lat.reserve(ops.size());
  for (const OpTiming& t : ops) {
    const double ms = LatencyMs(t);
    if (!t.ok) ++s.failed;
    if (!(ms <= latency_limit_ms)) ++s.over_limit;
    lat.push_back(ms);
  }
  std::sort(lat.begin(), lat.end());
  s.p50_ms = Percentile(lat, 50.0);
  s.tail_p = TailPercentile(lat.size());
  s.tail_ms = Percentile(lat, s.tail_p);
  s.p99_valid = SamplesBeyond(lat.size(), 99.0) >= kTailSamples;
  return s;
}

double WindowedLatencyMs(const std::vector<OpTiming>& ops, double p,
                         size_t window, double over) {
  if (ops.empty()) return 0.0;
  window = std::max<size_t>(std::min(window, ops.size()), 1);
  const size_t stride = std::max<size_t>(window / 2, 1);
  std::vector<double> per_window;
  std::vector<double> lat;
  for (size_t start = 0; start + window <= ops.size(); start += stride) {
    lat.clear();
    for (size_t i = start; i < start + window; ++i) {
      lat.push_back(LatencyMs(ops[i]));
    }
    std::sort(lat.begin(), lat.end());
    per_window.push_back(Percentile(lat, p));
  }
  std::sort(per_window.begin(), per_window.end());
  return Percentile(per_window, over);
}

double ChunkedOpsPerSecond(const std::vector<OpTiming>& ops, size_t chunks,
                           double over) {
  if (ops.empty()) return 0.0;
  chunks = std::max<size_t>(std::min(chunks, ops.size()), 1);
  std::vector<double> rates;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t lo = ops.size() * c / chunks;
    const size_t hi = ops.size() * (c + 1) / chunks;
    int64_t begin = ops[lo].free_ns;
    int64_t end = ops[lo].done_ns;
    size_t ok = 0;
    for (size_t i = lo; i < hi; ++i) {
      begin = std::min(begin, ops[i].free_ns);
      end = std::max(end, ops[i].done_ns);
      ok += ops[i].ok ? 1 : 0;
    }
    if (end > begin) {
      rates.push_back(static_cast<double>(ok) /
                      (static_cast<double>(end - begin) / 1e9));
    }
  }
  std::sort(rates.begin(), rates.end());
  return Percentile(rates, over);
}

std::string CheckGeneratorLag(double late_p99_ms, double bound_ms) {
  if (late_p99_ms <= bound_ms) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "generator lagged: loadgen.late_p99_ms = %.3f exceeds its "
                "bound of %.3f ms, so the offered rate was not met",
                late_p99_ms, bound_ms);
  return buf;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace perfbench
