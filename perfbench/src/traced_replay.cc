#include "traced_replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "checks.h"
#include "core/aggregate_skyline.h"
#include "core/incremental.h"
#include "relation/csv.h"
#include "server/http.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "stats.h"
#include "storage/durability.h"
#include "storage/env.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace server = galaxy::server;
namespace sql = galaxy::sql;
namespace storage = galaxy::storage;
namespace core = galaxy::core;

// Mirrors galaxy_served's flags for imdb_live (workload.cc).
constexpr uint64_t kSnapshotEvery = 500;
constexpr double kViewGamma = 0.6;
constexpr const char* kLayers[] = {"server", "sql", "core", "relation",
                                   "storage"};
constexpr int kNumLayers = 5;
// Ops replayed at most, so spans of a fast workload stay small in memory.
constexpr size_t kMaxTracedOps = 50000;

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

storage::DurabilityOptions LiveDurability() {
  storage::DurabilityOptions options;
  options.wal.policy = storage::FsyncPolicy::kInterval;
  options.wal.fsync_interval = std::chrono::milliseconds(100);
  return options;
}

// The replica's skyline view: the same incremental maintainer the server's
// view wraps, fed from outside.
struct ReplicaView {
  core::IncrementalAggregateSkyline inc{2, kViewGamma};
  std::map<std::string, uint32_t> ids;
  std::vector<std::pair<std::string, std::pair<bool, galaxy::Point>>> pending;

  galaxy::Status Apply(const std::string& label, bool insert,
                       const galaxy::Point& point) {
    auto it = ids.find(label);
    if (it == ids.end()) it = ids.emplace(label, inc.AddGroup(label)).first;
    return insert ? inc.AddRecord(it->second, point)
                  : inc.RemoveRecord(it->second, point);
  }
};

struct LayerSample {
  double ns[kNumLayers] = {0, 0, 0, 0, 0};
  double total() const {
    double t = 0;
    for (double v : ns) t += v;
    return t;
  }
};

// The server's result-cache key for a query text (server.cc).
std::string CacheKey(const QueryText& text) {
  return server::NormalizeSql(text.sql) + (text.csv ? "\ncsv" : "\njson");
}

// The referenced tables' current versions: what the server records with a
// cached answer.
std::vector<std::pair<std::string, uint64_t>> CacheDeps(
    const sql::Database& db, const sql::SelectStmt& stmt) {
  std::vector<std::pair<std::string, uint64_t>> deps;
  for (const std::string& table : server::CollectReferencedTables(stmt)) {
    galaxy::Result<uint64_t> version = db.TableVersion(table);
    if (version.ok()) deps.emplace_back(table, *version);
  }
  return deps;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

}  // namespace

bool RunTracedReplay(const Workload& w, const std::string& csv_path,
                     const std::string& work_dir,
                     const std::string& spans_path, double budget_s,
                     const UntracedMedians& untraced, TraceResult* out,
                     std::string* error) {
  std::map<std::string, double>& m = out->metrics;
  const std::string& table_name = w.spec.table;

  // ---- Set-up, timed per layer. -------------------------------------------
  auto t = std::chrono::steady_clock::now();
  galaxy::Result<galaxy::Table> loaded = galaxy::ReadCsvFile(csv_path);
  m["relation.csv_load_s"] = SecondsSince(t);
  if (!loaded.ok()) {
    *error = loaded.status().message();
    return false;
  }
  sql::Database db;
  sql::Database replica;
  server::ServerOptions options;
  if (w.spec.live) options.snapshot_every = kSnapshotEvery;
  server::Server srv(&db, options);
  std::unique_ptr<storage::DurabilityManager> durability;
  std::unique_ptr<storage::DurabilityManager> replica_durability;
  ReplicaView view;
  m["storage.bootstrap_s"] = 0;
  m["core.view_build_s"] = 0;
  if (w.spec.live) {
    std::filesystem::create_directories(work_dir + "/served");
    std::filesystem::create_directories(work_dir + "/replica");
    t = std::chrono::steady_clock::now();
    auto opened = storage::DurabilityManager::Open(
        storage::Env::Default(), work_dir + "/served", &db, LiveDurability(),
        srv.DurabilityHooks());
    if (!opened.ok()) {
      *error = opened.status().message();
      return false;
    }
    durability = std::move(*opened);
    db.Register(table_name, *loaded);
    galaxy::Status boot = durability->Bootstrap();
    m["storage.bootstrap_s"] = SecondsSince(t);
    if (!boot.ok()) {
      *error = boot.message();
      return false;
    }
    srv.AttachDurability(durability.get());
    server::SkylineViewConfig config;
    config.table = table_name;
    config.group_column = "Director";
    config.attrs = {"Pop", "Qual"};
    config.gamma = kViewGamma;
    t = std::chrono::steady_clock::now();
    galaxy::Status built = srv.EnableSkylineView(config);
    m["core.view_build_s"] = SecondsSince(t);
    if (!built.ok()) {
      *error = built.message();
      return false;
    }
    auto replica_opened = storage::DurabilityManager::Open(
        storage::Env::Default(), work_dir + "/replica", &replica,
        LiveDurability());
    if (!replica_opened.ok()) {
      *error = replica_opened.status().message();
      return false;
    }
    replica_durability = std::move(*replica_opened);
    replica.Register(table_name, *loaded);
    galaxy::Status replica_boot = replica_durability->Bootstrap();
    if (!replica_boot.ok()) {
      *error = replica_boot.message();
      return false;
    }
    const galaxy::Table& base = *loaded;
    const size_t g = *base.schema().IndexOf("Director");
    const size_t pop = *base.schema().IndexOf("Pop");
    const size_t qual = *base.schema().IndexOf("Qual");
    for (size_t r = 0; r < base.num_rows(); ++r) {
      galaxy::Status s = view.Apply(
          base.at(r, g).ToString(), true,
          {*base.at(r, pop).ToDouble(), *base.at(r, qual).ToDouble()});
      if (!s.ok()) {
        *error = s.message();
        return false;
      }
    }
  } else {
    db.Register(table_name, *loaded);
    replica.Register(table_name, *loaded);
  }
  server::ResultCache cache(options.cache_entries, options.cache_bytes);
  // The HTTP run warms the result cache before timing; so does the replay,
  // on both the server and the replica, outside any span.
  for (const Op& op : w.warmup) {
    server::HttpRequest request;
    server::ParseHttpRequest(op.request, &request);
    const server::HttpResponse response = srv.Handle(request);
    const QueryText& text = w.texts[static_cast<size_t>(op.text)];
    galaxy::Result<std::unique_ptr<sql::SelectStmt>> stmt =
        sql::Parse(text.sql);
    if (response.status != 200 || !stmt.ok()) {
      *error = "warm-up query failed: " + text.sql;
      return false;
    }
    cache.Insert(CacheKey(text), CacheDeps(replica, **stmt),
                 server::CachedResponse{response.body, response.content_type});
  }

  // ---- The replay. ----------------------------------------------------------
  Tracer tracer;
  std::vector<OpType> op_types;
  std::vector<uint8_t> op_hit;
  sql::ExecStats totals;
  core::AggregateSkylineStats sky_totals;
  size_t miss_queries = 0;
  size_t skyline_queries = 0;
  uint64_t rows_copied = 0;
  size_t updates = 0;
  uint64_t since_snapshot = 0;
  std::vector<double> snapshot_ms;
  const auto replay_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < w.stream.size(); ++i) {
    if (SecondsSince(replay_start) > budget_s || i >= kMaxTracedOps) break;
    const Op& op = w.stream[i];
    const int64_t id = static_cast<int64_t>(i);
    op_types.push_back(op.type);
    op_hit.push_back(0);
    ScopedSpan root(&tracer, "op", id);
    server::HttpRequest request;
    {
      ScopedSpan s(&tracer, "server.http_parse", id);
      server::ParseHttpRequest(op.request, &request);
    }
    server::HttpResponse response;
    {
      ScopedSpan s(&tracer, "server.handle", id);
      response = srv.Handle(request);
    }
    if (response.status != 200) {
      *error = "in-process server answered " +
               std::to_string(response.status) + " to op " +
               std::to_string(i) + ": " + response.body;
      return false;
    }
    if (op.type == OpType::kQuery) {
      const QueryText& text = w.texts[static_cast<size_t>(op.text)];
      const std::string key = CacheKey(text);
      std::shared_ptr<const server::CachedResponse> hit;
      {
        ScopedSpan s(&tracer, "server.cache_lookup", id);
        hit = cache.Lookup(key, replica);
      }
      if (hit != nullptr) {
        op_hit.back() = 1;
        continue;
      }
      ++miss_queries;
      galaxy::Result<std::unique_ptr<sql::SelectStmt>> stmt =
          galaxy::Status::Internal("unparsed");
      {
        ScopedSpan s(&tracer, "sql.parse", id);
        stmt = sql::Parse(text.sql);
      }
      if (!stmt.ok()) {
        *error = stmt.status().message();
        return false;
      }
      std::vector<std::pair<std::string, uint64_t>> deps =
          CacheDeps(replica, **stmt);
      sql::ExecStats stats;
      galaxy::Result<galaxy::Table> result = galaxy::Status::Internal("unrun");
      {
        ScopedSpan s(&tracer, "sql.execute", id);
        result = sql::ExecuteSelect(replica, **stmt, sql::ExecOptions{},
                                    &stats);
      }
      if (!result.ok()) {
        *error = result.status().message();
        return false;
      }
      totals.hash_joins += stats.hash_joins;
      totals.vectorized_predicates += stats.vectorized_predicates;
      totals.vectorized_folds += stats.vectorized_folds;
      totals.group_gather_cells += stats.group_gather_cells;
      if (text.is_skyline) {
        // The query's grouped input, gathered outside any layer span.
        std::string input_sql = "SELECT " + text.shape.group_column;
        for (const std::string& a : text.shape.attrs) input_sql += ", " + a;
        input_sql += " FROM " + table_name + " WHERE " +
                     text.shape.filter_column +
                     " >= " + std::to_string(text.shape.filter_min);
        galaxy::Result<galaxy::Table> input = replica.Query(input_sql);
        if (!input.ok()) {
          *error = input.status().message();
          return false;
        }
        auto dataset = core::GroupedDataset::FromTable(
            *input, {text.shape.group_column}, text.shape.attrs);
        if (!dataset.ok()) {
          *error = dataset.status().message();
          return false;
        }
        core::AggregateSkylineOptions sky_options;
        sky_options.gamma = text.shape.gamma;
        sky_options.algorithm = core::Algorithm::kNestedLoop;
        galaxy::Result<core::AggregateSkylineResult> sky =
            galaxy::Status::Internal("unrun");
        {
          ScopedSpan s(&tracer, "core.skyline", id);
          sky = core::ComputeAggregateSkylineBounded(*dataset, sky_options);
        }
        if (!sky.ok()) {
          *error = sky.status().message();
          return false;
        }
        if (!SameLabels(sky->Labels(*dataset), FirstColumn(*result))) {
          *error = "core skyline labels differ from the SQL answer for: " +
                   text.sql;
          return false;
        }
        ++skyline_queries;
        sky_totals.record_comparisons += sky->stats.record_comparisons;
        sky_totals.group_pairs_classified += sky->stats.group_pairs_classified;
        sky_totals.stopped_early += sky->stats.stopped_early;
        sky_totals.mbb_shortcuts += sky->stats.mbb_shortcuts;
      }
      cache.Insert(key, std::move(deps),
                   server::CachedResponse{response.body,
                                          response.content_type});
    } else if (op.type == OpType::kUpdate) {
      ++updates;
      auto snapshot = replica.GetTable(table_name);
      if (!snapshot.ok()) {
        *error = snapshot.status().message();
        return false;
      }
      const galaxy::Table& current = **snapshot;
      galaxy::Result<galaxy::Row> row = galaxy::Status::Internal("unparsed");
      {
        ScopedSpan s(&tracer, "relation.row_parse", id);
        row = galaxy::ParseCsvRowForSchema(current.schema(), op.row_csv);
      }
      if (!row.ok()) {
        *error = row.status().message();
        return false;
      }
      galaxy::Result<galaxy::Table> next = galaxy::Status::Internal("unrun");
      {
        ScopedSpan s(&tracer, "relation.install", id);
        next = op.insert ? current.CopyWithAppended(*row)
                         : current.CopyWithRemoved(*row);
      }
      if (!next.ok()) {
        *error = next.status().message();
        return false;
      }
      rows_copied += next->num_rows();
      if (replica_durability != nullptr) {
        storage::UpdateRecord record;
        record.table = table_name;
        record.insert = op.insert;
        record.row_csv = op.row_csv;
        galaxy::Status logged;
        {
          ScopedSpan s(&tracer, "storage.wal_append", id);
          logged = replica_durability->LogUpdate(record);
        }
        if (!logged.ok()) {
          *error = logged.message();
          return false;
        }
      }
      const size_t g = *current.schema().IndexOf("Director");
      const size_t pop = *current.schema().IndexOf("Pop");
      const size_t qual = *current.schema().IndexOf("Qual");
      view.pending.push_back(
          {(*row)[g].ToString(),
           {op.insert, {*(*row)[pop].ToDouble(), *(*row)[qual].ToDouble()}}});
      {
        ScopedSpan s(&tracer, "sql.register", id);
        replica.Register(table_name, *std::move(next));
      }
      if (replica_durability != nullptr && ++since_snapshot >= kSnapshotEvery) {
        const auto begin = std::chrono::steady_clock::now();
        galaxy::Status rotated;
        {
          ScopedSpan s(&tracer, "storage.snapshot", id);
          rotated = replica_durability->Snapshot();
        }
        snapshot_ms.push_back(SecondsSince(begin) * 1e3);
        if (!rotated.ok()) {
          *error = rotated.message();
          return false;
        }
        since_snapshot = 0;
      }
    } else {
      std::vector<uint32_t> skyline;
      {
        ScopedSpan s(&tracer, "core.view_drain", id);
        for (const auto& [label, change] : view.pending) {
          galaxy::Status applied = view.Apply(label, change.first,
                                              change.second);
          if (!applied.ok()) {
            *error = applied.message();
            return false;
          }
        }
        view.pending.clear();
        skyline = view.inc.Skyline();
      }
      std::vector<std::string> labels;
      for (uint32_t g : skyline) labels.push_back(view.inc.label(g));
      if (!SameLabels(labels, SkylineBodyLabels(response.body))) {
        *error = "replica view differs from GET /skyline at op " +
                 std::to_string(i);
        return false;
      }
    }
  }
  const double replay_s = SecondsSince(replay_start);

  // ---- Attribution. ---------------------------------------------------------
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  const size_t n_ops = op_types.size();
  std::vector<std::map<std::string, double>> per_op(n_ops);
  std::vector<double> harness_ns(n_ops, 0);
  for (size_t s = 0; s < spans.size(); ++s) {
    const size_t op = static_cast<size_t>(spans[s].op_id);
    if (spans[s].parent < 0) {
      harness_ns[op] = static_cast<double>(self[s]);
    } else {
      per_op[op][spans[s].name] += static_cast<double>(self[s]);
    }
  }
  std::vector<LayerSample> layers(n_ops);
  std::map<std::string, std::vector<double>> samples_us;
  std::vector<double> hit_handle_us;
  for (size_t i = 0; i < n_ops; ++i) {
    auto d = [&](const char* name) {
      auto it = per_op[i].find(name);
      return it == per_op[i].end() ? 0.0 : it->second;
    };
    const double core_ns = d("core.skyline") + d("core.view_drain");
    const double sql_ns = d("sql.parse") +
                          std::max(0.0, d("sql.execute") - d("core.skyline")) +
                          d("sql.register");
    const double relation_ns = d("relation.row_parse") + d("relation.install");
    const double storage_ns = d("storage.wal_append") + d("storage.snapshot");
    const double inner = core_ns + sql_ns + relation_ns + storage_ns;
    const double server_ns =
        d("server.http_parse") + std::max(0.0, d("server.handle") - inner);
    layers[i] = LayerSample{{server_ns, sql_ns, core_ns, relation_ns,
                             storage_ns}};
    for (const auto& [name, ns] : per_op[i]) {
      samples_us[name].push_back(ns / 1e3);
    }
    if (op_types[i] == OpType::kQuery && op_hit[i]) {
      hit_handle_us.push_back(d("server.handle") / 1e3);
    }
  }
  auto median_us = [&](const char* name) { return Median(samples_us[name]); };

  m["server.http_parse_us"] = median_us("server.http_parse");
  m["server.cache_lookup_us"] = median_us("server.cache_lookup");
  m["server.handle_us"] = median_us("server.handle");
  m["server.transport_us"] =
      untraced.has_hits && !hit_handle_us.empty()
          ? untraced.hit_p50_ms * 1e3 - Median(hit_handle_us)
          : 0.0;
  m["sql.parse_us"] = median_us("sql.parse");
  {
    std::vector<double> exec_ms;
    for (size_t i = 0; i < n_ops; ++i) {
      auto it = per_op[i].find("sql.execute");
      if (it == per_op[i].end()) continue;
      auto sky = per_op[i].find("core.skyline");
      exec_ms.push_back(
          std::max(0.0, it->second -
                            (sky == per_op[i].end() ? 0.0 : sky->second)) /
          1e6);
    }
    m["sql.execute_ms"] = Median(exec_ms);
  }
  m["sql.register_us"] = median_us("sql.register");
  const double per_miss = miss_queries > 0 ? 1.0 / miss_queries : 0.0;
  m["sql.hash_joins"] = static_cast<double>(totals.hash_joins) * per_miss;
  m["sql.vectorized_predicates"] =
      static_cast<double>(totals.vectorized_predicates) * per_miss;
  m["sql.vectorized_folds"] =
      static_cast<double>(totals.vectorized_folds) * per_miss;
  m["sql.gather_cells"] =
      static_cast<double>(totals.group_gather_cells) * per_miss;
  m["core.skyline_ms"] = median_us("core.skyline") / 1e3;
  const double per_sky = skyline_queries > 0 ? 1.0 / skyline_queries : 0.0;
  m["core.record_comparisons"] =
      static_cast<double>(sky_totals.record_comparisons) * per_sky;
  m["core.group_pairs"] =
      static_cast<double>(sky_totals.group_pairs_classified) * per_sky;
  const double pairs = static_cast<double>(sky_totals.group_pairs_classified);
  m["core.stopped_early_ratio"] =
      pairs > 0 ? static_cast<double>(sky_totals.stopped_early) / pairs : 0.0;
  m["core.mbb_shortcut_ratio"] =
      pairs > 0 ? static_cast<double>(sky_totals.mbb_shortcuts) / pairs : 0.0;
  double skyline_s = 0;
  for (double us : samples_us["core.skyline"]) skyline_s += us / 1e6;
  m["core.comparisons_per_s"] =
      skyline_s > 0
          ? static_cast<double>(sky_totals.record_comparisons) / skyline_s
          : 0.0;
  m["core.view_drain_ms"] = median_us("core.view_drain") / 1e3;
  m["relation.row_parse_us"] = median_us("relation.row_parse");
  m["relation.install_ms"] = median_us("relation.install") / 1e3;
  m["relation.rows_copied_per_update"] =
      updates > 0 ? static_cast<double>(rows_copied) / updates : 0.0;
  m["storage.wal_append_us"] = median_us("storage.wal_append");
  m["storage.snapshot_ms"] = Median(snapshot_ms);

  // ---- Report. --------------------------------------------------------------
  std::string& r = out->report;
  r += "traced replay: " + std::to_string(n_ops) + " ops of " +
       std::to_string(w.stream.size()) + " in " + Fmt("%.2f", replay_s) +
       " s, " + std::to_string(spans.size()) + " spans\n";
  double layer_total[kNumLayers] = {0, 0, 0, 0, 0};
  for (int type = 0; type < kNumOpTypes; ++type) {
    std::vector<double> per_layer[kNumLayers];
    std::vector<double> totals_ms;
    std::vector<double> harness_ms;
    double type_total[kNumLayers] = {0, 0, 0, 0, 0};
    for (size_t i = 0; i < n_ops; ++i) {
      if (static_cast<int>(op_types[i]) != type) continue;
      for (int l = 0; l < kNumLayers; ++l) {
        per_layer[l].push_back(layers[i].ns[l] / 1e6);
        type_total[l] += layers[i].ns[l];
        layer_total[l] += layers[i].ns[l];
      }
      totals_ms.push_back(layers[i].total() / 1e6);
      harness_ms.push_back(harness_ns[i] / 1e6);
    }
    if (totals_ms.empty()) continue;
    r += "  " + std::string(OpTypeName(static_cast<OpType>(type))) + " (" +
         std::to_string(totals_ms.size()) + " ops) median self ms:";
    int dominant = 0;
    for (int l = 0; l < kNumLayers; ++l) {
      r += " " + std::string(kLayers[l]) + "=" +
           Fmt("%.4f", Median(per_layer[l]));
      if (type_total[l] > type_total[dominant]) dominant = l;
    }
    const double traced = Median(totals_ms);
    r += "\n    traced total " + Fmt("%.4f", traced) + " ms";
    if (untraced.has[type]) {
      r += ", untraced end-to-end p50 " + Fmt("%.4f", untraced.p50_ms[type]) +
           " ms, unexplained remainder " +
           Fmt("%.4f", untraced.p50_ms[type] - traced) + " ms";
    }
    r += ", replay harness " + Fmt("%.4f", Median(harness_ms)) +
         " ms; dominant layer " + kLayers[dominant] + "\n";
    if (w.spec.live) {
      const char* predicted = type == static_cast<int>(OpType::kQuery)
                                  ? "sql"
                                  : type == static_cast<int>(OpType::kSkyline)
                                        ? "core"
                                        : "relation/storage/sql";
      const std::string got = kLayers[dominant];
      const bool match = std::string(predicted).find(got) != std::string::npos;
      r += "    predicted " + std::string(predicted) + ": " +
           (match ? "matches" : "DOES NOT match") + "\n";
    }
  }
  int dominant = 0;
  for (int l = 0; l < kNumLayers; ++l) {
    if (layer_total[l] > layer_total[dominant]) dominant = l;
  }
  std::string predicted = w.spec.name == "hot_cached"    ? "server"
                          : w.spec.name == "nba_skyline" ? "core"
                                                         : "";
  r += "  dominant layer overall: " + std::string(kLayers[dominant]);
  if (!predicted.empty()) {
    r += " (predicted " + predicted + ": " +
         (predicted == kLayers[dominant] ? "matches" : "DOES NOT match") + ")";
  }
  r += "\n";
  if (!tracer.WriteTsv(spans_path)) {
    r += "  (could not write spans to " + spans_path + ")\n";
  } else {
    r += "  spans written to " + spans_path + "\n";
  }
  return true;
}

}  // namespace perfbench
