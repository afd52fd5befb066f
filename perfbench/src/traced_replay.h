#pragma once

// The traced run: an in-process replay, without sockets, of the same
// seeded op stream in order, against an in-process Database and Server.
//
// Each op gets a root span. Under it, spans time the calls a request makes
// into each layer's public functions, measured from outside:
//   server.http_parse  server::ParseHttpRequest on the op's request bytes
//   server.handle      Server::Handle (the real in-process request path)
// and, on a replica that mirrors the same state, the work Handle does
// inside, one public call at a time:
//   server.cache_lookup ResultCache::Lookup       (queries)
//   sql.parse           sql::Parse                (cache misses)
//   sql.execute         sql::ExecuteSelect        (cache misses)
//   core.skyline        ComputeAggregateSkylineBounded on the query's
//                       grouped input (kNestedLoop, same gamma)
//   relation.row_parse  ParseCsvRowForSchema      (updates)
//   relation.install    Table::CopyWithAppended / CopyWithRemoved
//   storage.wal_append  DurabilityManager::LogUpdate
//   sql.register        Database::Register
//   storage.snapshot    DurabilityManager::Snapshot (every snapshot cycle)
//   core.view_drain     IncrementalAggregateSkyline Add/RemoveRecord +
//                       Skyline() (GET /skyline)
//
// Layer self time per op: core = core.skyline + core.view_drain; sql =
// sql.parse + (sql.execute - core.skyline) + sql.register; relation and
// storage are their spans; server = server.http_parse plus what
// server.handle spent beyond the decomposed work. The report sets each
// layer's median next to the untraced end-to-end median of the same op
// type; the difference is the unexplained remainder (socket transport,
// reactor, worker handoff, generator).

#include <map>
#include <string>

#include "workload.h"

namespace perfbench {

/// Untraced open-loop medians the report compares against.
struct UntracedMedians {
  double p50_ms[kNumOpTypes] = {0, 0, 0};
  bool has[kNumOpTypes] = {false, false, false};
  double hit_p50_ms = 0;  ///< queries answered from the cache
  bool has_hits = false;
};

struct TraceResult {
  std::map<std::string, double> metrics;  ///< per-layer metrics measured here
  std::string report;                     ///< human-readable breakdown
};

/// Replays stream ops in order until the stream ends or `budget_s` has
/// passed. Durable state goes under `work_dir`; spans are written to
/// `spans_path`. False with `error` when the replay's own answers disagree
/// (skyline labels vs the SQL answer, view vs GET /skyline).
bool RunTracedReplay(const Workload& w, const std::string& csv_path,
                     const std::string& work_dir,
                     const std::string& spans_path, double budget_s,
                     const UntracedMedians& untraced, TraceResult* out,
                     std::string* error);

}  // namespace perfbench
