// perfbench_driver — the repository's serving benchmark (see
// perfbench/README.md). Normally started through perfbench/run.py, which
// builds it first:
//
//   perfbench_driver --workload hot_cached|nba_skyline|imdb_live
//                    --seed N --seconds S --trace 0|1
//                    --served PATH/galaxy_served --work-dir DIR
//
// Boots galaxy_served on a catalog generated from the seed, drives the
// workload's seeded op stream over HTTP (an open-loop phase at the
// workload's Poisson rate, then a closed-loop phase of a fixed op count),
// checks every answer, and prints one JSON object as the last stdout line:
// the end-to-end metrics with --trace 0, the per-layer metrics (from
// /metrics deltas and an in-process traced replay) with --trace 1.
//
// Exit status: 0 with a result; 1 when an answer was wrong (the result is
// printed with "correct": false); 2 on usage errors; 3 when the run is
// invalid (set-up failed, the generator lagged, too few tail samples).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "loadgen.h"
#include "metrics_scrape.h"
#include "relation/csv.h"
#include "served_process.h"
#include "server/http.h"
#include "server/server.h"
#include "stats.h"
#include "traced_replay.h"
#include "workload.h"

namespace {

using namespace perfbench;

// galaxy_served is launched this many times; setup_s is the median.
constexpr int kLaunches = 5;
// Distinct reporting texts re-checked against the in-process replay after
// an imdb_live run.
constexpr size_t kFinalChecks = 24;
// Open-loop windows (of each op type's samples) and closed-loop chunks per
// run; see stats.h.
constexpr size_t kWindows = 16;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string served;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string name = argv[i];
    if (name.rfind("--", 0) != 0) return false;
    flags[name.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "served", "work-dir"}) {
    if (flags.count(required) == 0) return false;
  }
  args->workload = flags["workload"];
  char* end = nullptr;
  args->seed = std::strtoull(flags["seed"].c_str(), &end, 10);
  if (*end != '\0') return false;
  args->seconds = std::strtod(flags["seconds"].c_str(), &end);
  if (*end != '\0' || !(args->seconds >= 1 && args->seconds <= 60)) {
    return false;
  }
  args->trace = flags["trace"] == "1" ? 1 : flags["trace"] == "0" ? 0 : -1;
  args->served = flags["served"];
  args->work_dir = flags["work-dir"];
  return args->trace >= 0;
}

int Invalid(const std::string& why) {
  std::fprintf(stderr, "perfbench: run invalid: %s\n", why.c_str());
  return 3;
}

void Scrape(uint16_t port, MetricsSnapshot* out) {
  std::string body;
  HttpGet(port, "/metrics", &body);
  *out = ParsePrometheus(body);
  out->taken_s = static_cast<double>(SteadyNowNs()) / 1e9;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct MetricOut {
  std::string name;
  double value;
  const char* unit;
};

// Post-run imdb_live checks: the final table, a sample of reporting
// answers and the drained skyline view against an in-process replay of
// the whole stream.
bool CheckLiveFinalState(const Workload& w, const std::string& csv_path,
                         uint16_t port, std::string* error) {
  auto table = galaxy::ReadCsvFile(csv_path);
  if (!table.ok()) {
    *error = table.status().message();
    return false;
  }
  galaxy::sql::Database db;
  db.Register(w.spec.table, *std::move(table));
  galaxy::server::Server replay(&db, galaxy::server::ServerOptions{});
  auto handle = [&](const std::string& raw) {
    galaxy::server::HttpRequest request;
    galaxy::server::ParseHttpRequest(raw, &request);
    return replay.Handle(request);
  };
  for (const Op& op : w.stream) {
    if (op.type != OpType::kUpdate) continue;
    galaxy::server::HttpResponse r = handle(op.request);
    if (r.status != 200) {
      *error = "in-process replay refused an update: " + r.body;
      return false;
    }
  }
  std::vector<std::string> requests;
  QueryText count;
  count.sql = "SELECT count(*) AS n FROM " + w.spec.table;
  requests.push_back(QueryRequest(count));
  std::vector<uint8_t> seen(w.texts.size(), 0);
  for (const Op& op : w.stream) {
    if (op.text < 0 || seen[static_cast<size_t>(op.text)]) continue;
    seen[static_cast<size_t>(op.text)] = 1;
    requests.push_back(QueryRequest(w.texts[static_cast<size_t>(op.text)]));
    if (requests.size() > kFinalChecks) break;
  }
  HttpClient client(port);
  for (const std::string& raw : requests) {
    HttpReply reply;
    int64_t sent = 0;
    if (!client.RoundTrip(raw, &reply, &sent)) {
      *error = "final check: transport failure";
      return false;
    }
    const galaxy::server::HttpResponse expected = handle(raw);
    if (reply.status != 200 || reply.body != expected.body) {
      *error = "final answer differs from the in-process replay for: " +
               raw.substr(raw.find("\r\n\r\n") + 4);
      return false;
    }
  }
  std::string body;
  if (HttpGet(port, "/skyline", &body) != 200) {
    *error = "final GET /skyline failed";
    return false;
  }
  SkylineShape shape;
  shape.group_column = "Director";
  shape.attrs = {"Pop", "Qual"};
  shape.gamma = 0.6;
  auto oracle = OracleLabels(db, w.spec.table, shape);
  if (!oracle.ok()) {
    *error = oracle.status().message();
    return false;
  }
  if (!SameLabels(SkylineBodyLabels(body), *oracle)) {
    *error = "drained /skyline differs from the Definition-3 oracle on the "
             "final table";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --served PATH --work-dir DIR\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "perfbench: unknown workload %s (known:%s)\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  const size_t threads = std::min<size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  const std::string run_dir = args.work_dir + "/" + spec.name + "-" +
                              std::to_string(::getpid());
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{run_dir};

  // ---- Inputs and expected answers (outside timing). ----------------------
  const std::string csv_path = run_dir + "/catalog.csv";
  Workload w;
  std::string error;
  if (!BuildWorkload(spec, args.seed, args.seconds, csv_path, &w, &error)) {
    return Invalid(error);
  }
  std::vector<std::string> bodies;
  if (!spec.live &&
      !ExpectedBodies(w, csv_path, threads, &bodies, &error)) {
    std::fprintf(stderr, "perfbench: in-process answer check failed: %s\n",
                 error.c_str());
    return 1;
  }

  // ---- Set-up: launch galaxy_served kLaunches times, keep the last. -------
  ServedProcess server;
  std::vector<double> setups;
  std::string data_dir;
  for (int k = 0; k < kLaunches; ++k) {
    std::vector<std::string> flags = {"--csv", csv_path, "--table",
                                      spec.table, "--port", "0"};
    if (spec.live) {
      data_dir = run_dir + "/data" + std::to_string(k);
      flags.push_back("--data-dir");
      flags.push_back(data_dir);
    }
    flags.insert(flags.end(), spec.server_flags.begin(),
                 spec.server_flags.end());
    ServedProcess attempt;
    ServedProcess& target = k + 1 == kLaunches ? server : attempt;
    double setup = 0;
    if (!target.Start(args.served, flags, 120.0, &setup, &error)) {
      return Invalid(error);
    }
    setups.push_back(setup);
  }
  const double setup_s = Median(setups);
  const uint16_t port = server.port();

  // ---- Checks applied to every answer. ------------------------------------
  // Removes wait for their insert's ack, so the table never shrinks below
  // its start; above it are the live inserts plus whatever is in flight.
  const size_t max_rows = w.initial_rows + w.max_live_inserts +
                          threads * kClosedLoopPipelineDepth;
  auto op_at = [&](size_t i) -> const Op& {
    return i < w.stream.size() ? w.stream[i] : w.warmup[i - w.stream.size()];
  };
  AnswerCheck right = [&](size_t i, const HttpReply& reply) {
    const Op& op = op_at(i);
    if (!spec.live) {
      return reply.body == bodies[static_cast<size_t>(op.text)];
    }
    switch (op.type) {
      case OpType::kQuery:
        return LooksLikeQueryAnswer(
            reply.body, w.texts[static_cast<size_t>(op.text)].csv);
      case OpType::kUpdate: {
        const long long rows = AckNumRows(reply.body);
        return rows >= static_cast<long long>(w.initial_rows) &&
               rows <= static_cast<long long>(max_rows);
      }
      case OpType::kSkyline:
        return reply.body.find("\"skyline\": [") != std::string::npos;
    }
    return false;
  };
  // The first wrong answer is described on stderr when the run ends.
  std::mutex wrong_mutex;
  std::string first_wrong;
  auto note_wrong = [&](size_t i, const HttpReply& reply) {
    const std::string& request = op_at(i).request;
    std::lock_guard<std::mutex> lock(wrong_mutex);
    if (!first_wrong.empty()) return;
    first_wrong = "op " + std::to_string(i) + " (" +
                  request.substr(request.find("\r\n\r\n") + 4) +
                  ") answered " + std::to_string(reply.status) + ": " +
                  reply.body.substr(0, 300);
  };
  AnswerCheck check = [&](size_t i, const HttpReply& reply) {
    if (right(i, reply)) return true;
    note_wrong(i, reply);
    return false;
  };

  // ---- Cache warm-up (hot_cached), outside timing. --------------------------
  size_t warm_wrong = 0;
  {
    HttpClient client(port);
    for (size_t k = 0; k < w.warmup.size(); ++k) {
      HttpReply reply;
      int64_t sent = 0;
      if (!client.RoundTrip(w.warmup[k].request, &reply, &sent)) {
        reply.status = 0;  // transport failure
      }
      if (reply.status != 200 || !check(w.stream.size() + k, reply)) {
        if (reply.status != 200) note_wrong(w.stream.size() + k, reply);
        ++warm_wrong;
      }
    }
  }

  // ---- Timed phases. ------------------------------------------------------
  AckBoard acks(w.stream.size());
  MetricsSnapshot m0, m1, m2;
  PhaseResult open;
  Scrape(port, &m0);
  {
    // The open loop leaves CPUs idle between arrivals; the closed loop
    // keeps them busy and is measured without spinners.
    IdleSpinners spinners(std::max(1u, std::thread::hardware_concurrency()));
    open = RunOpenLoop(port, w.stream, 0, w.schedule_ns, threads, check,
                       &acks);
  }
  Scrape(port, &m1);
  PhaseResult closed = RunClosedLoop(port, w.stream, w.open_ops,
                                     w.stream.size() - w.open_ops, threads,
                                     check, &acks);
  Scrape(port, &m2);

  bool final_ok = true;
  if (spec.live && !CheckLiveFinalState(w, csv_path, port, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    final_ok = false;
  }
  const double rss_mb = server.PeakRssMb();
  server.Stop();
  if (!first_wrong.empty()) {
    std::fprintf(stderr, "perfbench: first wrong answer: %s\n",
                 first_wrong.c_str());
  }

  // ---- Summaries. -----------------------------------------------------------
  // Open-loop samples count once the warm-up window has passed.
  std::vector<OpTiming> by_type[kNumOpTypes];
  std::vector<double> lateness;
  size_t measured_open = 0;
  for (size_t i = 0; i < w.open_ops; ++i) {
    const OpTiming& t = open.timings[i];
    if (t.scheduled_ns < w.warm_ns) continue;
    ++measured_open;
    by_type[static_cast<int>(w.stream[i].type)].push_back(t);
    lateness.push_back(LatenessMs(t));
  }
  LatencySummary summary[kNumOpTypes];
  // Reported latencies come from windows of the open loop (stats.h): the
  // p50 is the lower quartile of the window medians, the p99 the median of
  // the window p99s, so stretches a busy host slowed do not decide them.
  double p50_ms[kNumOpTypes] = {0, 0, 0};
  double p99_ms[kNumOpTypes] = {0, 0, 0};
  std::sort(lateness.begin(), lateness.end());
  const double late_p99 = Percentile(lateness, 99.0);
  UntracedMedians untraced;
  std::printf("perfbench %s seed=%llu seconds=%g threads=%zu\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, threads);
  for (int type = 0; type < kNumOpTypes; ++type) {
    if (by_type[type].empty()) continue;
    summary[type] = Summarize(by_type[type], spec.latency_limit_ms);
    const LatencySummary& s = summary[type];
    p50_ms[type] = WindowedLatencyMs(
        by_type[type], 50.0, std::max<size_t>(s.count / kWindows, 400), 25.0);
    p99_ms[type] = WindowedLatencyMs(
        by_type[type], 99.0, std::max<size_t>(s.count / kWindows, 1000), 50.0);
    untraced.has[type] = true;
    untraced.p50_ms[type] = p50_ms[type];
    std::printf(
        "  open loop %-7s n=%zu failed=%zu p50=%.4f ms p%g=%.4f ms "
        "(%zu beyond) over %.0f ms limit: %zu; windowed p50=%.4f "
        "p99=%.4f ms\n",
        OpTypeName(static_cast<OpType>(type)), s.count, s.failed, s.p50_ms,
        s.tail_p, s.tail_ms, SamplesBeyond(s.count, s.tail_p),
        spec.latency_limit_ms, s.over_limit, p50_ms[type], p99_ms[type]);
    if (!s.p99_valid) {
      return Invalid(std::string("fewer than 10 ") +
                     OpTypeName(static_cast<OpType>(type)) +
                     " samples beyond p99 in the open loop");
    }
  }
  // hot_cached answers every timed query from the warmed cache.
  if (spec.name == "hot_cached" && untraced.has[0]) {
    untraced.has_hits = true;
    untraced.hit_p50_ms = p50_ms[0];
  }
  const std::string lag = CheckGeneratorLag(late_p99, spec.late_bound_ms);
  if (!lag.empty()) return Invalid(lag);

  const size_t attempted = open.timings.size() + closed.timings.size();
  const size_t wrong = open.wrong + closed.wrong + warm_wrong;
  const size_t failed = wrong + open.refused + closed.refused +
                        open.transport_errors + closed.transport_errors +
                        open.other_status + closed.other_status;
  const double capacity = ChunkedOpsPerSecond(closed.timings, kWindows, 75.0);
  const MetricsDelta timed(m0, m2);
  const double offered =
      static_cast<double>(measured_open) /
      (static_cast<double>(w.schedule_ns.back() - w.warm_ns) / 1e9);
  const MetricsDelta open_delta(m0, m1);
  const MetricsDelta closed_delta(m1, m2);
  std::printf(
      "  closed loop n=%zu in %.3f s: %.1f ops/s (upper quartile of chunks); "
      "open loop offered %.1f ops/s, late p99 %.4f ms; setup %.4f s "
      "(median of %d); rss %.1f MiB\n",
      closed.timings.size(), closed.elapsed_s, capacity,
      offered, late_p99, setup_s,
      kLaunches, rss_mb);
  std::printf("  answers: %zu wrong\n", wrong);
  std::printf(
      "  /metrics: open qps %.1f hit %.3f | closed qps %.1f hit %.3f | "
      "evictions %.0f invalidations %.0f\n",
      open_delta.Qps(), open_delta.CacheHitRatio(), closed_delta.Qps(),
      closed_delta.CacheHitRatio(),
      timed.Counter("galaxy_cache_evictions_total"),
      timed.Counter("galaxy_cache_invalidations_total"));

  std::vector<MetricOut> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"query_p50_ms", p50_ms[0], "ms"},
        {"capacity_ops_s", capacity, "ops/s"},
        {"server_rss_mb", rss_mb, "MiB"},
    };
  } else {
    const double deltas = timed.Counter("galaxy_view_deltas_total");
    const double refreshes = timed.Counter("galaxy_view_refreshes_total");
    const double appends = timed.Counter("galaxy_wal_appends_total");
    uint64_t user_bytes = std::filesystem::file_size(csv_path);
    for (const Op& op : w.stream) user_bytes += op.row_csv.size();
    metrics = {
        {"query_p99_ms", p99_ms[0], "ms"},
        {"update_p50_ms", p50_ms[1], "ms"},
        {"update_p99_ms", p99_ms[1], "ms"},
        {"skyline_p50_ms", p50_ms[2], "ms"},
        {"skyline_p99_ms", p99_ms[2], "ms"},
        {"error_rate", static_cast<double>(failed) / attempted, "ratio"},
        {"server.cache_hit_ratio", timed.CacheHitRatio(), "ratio"},
        {"server.rejected", timed.Counter("galaxy_admission_rejected_total"),
         "count"},
        {"core.deltas_per_refresh", refreshes > 0 ? deltas / refreshes : 0,
         "count"},
        {"storage.wal_bytes_per_update",
         appends > 0 ? timed.Counter("galaxy_wal_bytes_total") / appends : 0,
         "bytes"},
        {"storage.fsyncs", timed.Counter("galaxy_wal_fsync_seconds_count"),
         "count"},
        {"storage.disk_bytes_per_user_byte",
         spec.live ? static_cast<double>(DirBytes(data_dir)) /
                         static_cast<double>(user_bytes)
                   : 0,
         "ratio"},
        {"loadgen.late_p99_ms", late_p99, "ms"},
        {"loadgen.offered_ops_s", offered, "ops/s"},
    };
    TraceResult traced;
    const std::string spans_dir = args.work_dir + "/../perfbench_trace";
    std::filesystem::create_directories(spans_dir);
    const std::string spans_path = spans_dir + "/" + spec.name + "-seed" +
                                   std::to_string(args.seed) + ".tsv";
    if (!RunTracedReplay(w, csv_path, run_dir + "/traced", spans_path,
                         args.seconds * 0.5, untraced, &traced, &error)) {
      std::fprintf(stderr, "perfbench: traced replay: %s\n", error.c_str());
      final_ok = false;
    }
    std::fputs(traced.report.c_str(), stdout);
    static const std::map<std::string, const char*> kUnits = {
        {"server.http_parse_us", "us"},   {"server.cache_lookup_us", "us"},
        {"server.handle_us", "us"},       {"server.transport_us", "us"},
        {"sql.parse_us", "us"},           {"sql.execute_ms", "ms"},
        {"sql.register_us", "us"},        {"sql.hash_joins", "count"},
        {"sql.vectorized_predicates", "count"},
        {"sql.vectorized_folds", "count"}, {"sql.gather_cells", "count"},
        {"core.skyline_ms", "ms"},        {"core.record_comparisons", "count"},
        {"core.group_pairs", "count"},    {"core.stopped_early_ratio", "ratio"},
        {"core.mbb_shortcut_ratio", "ratio"},
        {"core.comparisons_per_s", "1/s"}, {"core.view_drain_ms", "ms"},
        {"core.view_build_s", "s"},       {"relation.row_parse_us", "us"},
        {"relation.install_ms", "ms"},
        {"relation.rows_copied_per_update", "count"},
        {"relation.csv_load_s", "s"},     {"storage.wal_append_us", "us"},
        {"storage.snapshot_ms", "ms"},    {"storage.bootstrap_s", "s"},
    };
    for (const auto& [name, unit] : kUnits) {
      auto it = traced.metrics.find(name);
      metrics.push_back({name, it == traced.metrics.end() ? 0 : it->second,
                         unit});
    }
  }

  const bool correct = wrong == 0 && final_ok;
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
