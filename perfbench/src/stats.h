#pragma once

// Latency accounting for the load generator: percentiles with the tail
// rule, latency timed from each op's scheduled send, and the validity
// check on how late the generator itself ran.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A run's tail is reported at the highest of these percentiles that still
/// leaves at least kTailSamples samples beyond it.
inline constexpr double kTailCandidates[] = {99.9, 99.0, 95.0, 90.0, 75.0,
                                             50.0};
inline constexpr size_t kTailSamples = 10;

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// The highest candidate percentile with at least kTailSamples samples
/// beyond it; 0 when even the median leaves fewer.
double TailPercentile(size_t n);

/// Nearest-rank percentile of an ascending sample vector (empty -> 0).
double Percentile(const std::vector<double>& sorted, double p);

/// One op as the generator saw it. Times are nanoseconds on the steady
/// clock, relative to the phase start.
struct OpTiming {
  int64_t scheduled_ns = 0;  ///< when the op was due (open loop)
  int64_t free_ns = 0;       ///< when a connection became free to take it
  int64_t sent_ns = 0;       ///< when its first byte was written
  int64_t done_ns = 0;       ///< when its full response was read
  bool ok = false;           ///< answered 2xx with a correct body
};

/// Latency charged to an op: from its scheduled send to its response, so a
/// stall also charges the ops queued behind it. An op that failed, was
/// refused or answered wrongly misses every latency limit: +infinity.
double LatencyMs(const OpTiming& t);

/// How late the generator itself sent the op: from the moment both the op
/// was due and a connection was free, to the send. Waiting for a busy
/// connection is server time and counts in LatencyMs, not here.
double LatenessMs(const OpTiming& t);

/// Percentile summary of one op type in one phase.
struct LatencySummary {
  size_t count = 0;
  size_t failed = 0;
  double p50_ms = 0;
  double tail_p = 0;      ///< the percentile TailPercentile chose
  double tail_ms = 0;     ///< latency at tail_p (infinite if failures reach it)
  bool p99_valid = false; ///< at least kTailSamples samples beyond p99
  size_t over_limit = 0;  ///< ops over the latency limit, failures included
};

LatencySummary Summarize(const std::vector<OpTiming>& ops,
                         double latency_limit_ms);

/// The `p`-th percentile latency of each window of `window` consecutive ops
/// (windows overlap by half), then the `over`-th percentile of those
/// per-window values. On a shared host, neighbours slow whole stretches of
/// a run; a low `over` reports the stretches they left alone. Windows
/// shorter than `window` are not formed; with fewer ops than `window` the
/// whole set is one window.
double WindowedLatencyMs(const std::vector<OpTiming>& ops, double p,
                         size_t window, double over);

/// Closed-loop throughput: the ops are cut into `chunks` consecutive
/// chunks in dispatch order; each chunk's correctly answered ops divided by
/// the time from its first dispatch to its last response; the `over`-th
/// percentile of those rates.
double ChunkedOpsPerSecond(const std::vector<OpTiming>& ops, size_t chunks,
                           double over);

/// Empty when the generator kept its schedule (p99 lateness within
/// `bound_ms`); otherwise why the run is invalid.
std::string CheckGeneratorLag(double late_p99_ms, double bound_ms);

/// Median of an unsorted vector (empty -> 0).
double Median(std::vector<double> values);

}  // namespace perfbench
