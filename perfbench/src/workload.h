#pragma once

// The three workloads: their fixed settings, the seeded catalog each
// boots galaxy_served on, and the seeded op stream the generator sends.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class OpType { kQuery = 0, kUpdate = 1, kSkyline = 2 };
inline constexpr int kNumOpTypes = 3;
const char* OpTypeName(OpType type);

/// An aggregate-skyline query's shape, kept so its answer can be checked
/// against the Definition-3 oracle on the same filtered groups.
struct SkylineShape {
  std::string group_column;
  std::vector<std::string> attrs;  ///< all maximized
  double gamma = 0.5;
  std::string filter_column;       ///< rows with filter_column >= filter_min
  int64_t filter_min = 0;
};

/// One distinct query text (SQL plus response format).
struct QueryText {
  std::string sql;
  bool csv = false;  ///< Accept: text/csv instead of JSON
  bool is_skyline = false;
  SkylineShape shape;  ///< valid when is_skyline
};

struct Op {
  OpType type = OpType::kQuery;
  int text = -1;          ///< index into Workload::texts (queries)
  bool insert = true;     ///< updates
  std::string row_csv;    ///< updates: the one-row CSV body
  int64_t depends_on = -1;  ///< removes: stream index of the insert they undo
  std::string request;    ///< the complete HTTP request bytes
};

struct WorkloadSpec {
  std::string name;
  std::string table;
  bool nba = false;           ///< NBA generator instead of the IMDB one
  size_t catalog_rows = 0;
  size_t directors = 0;       ///< IMDB generator only
  bool live = false;          ///< durability, skyline view and /update on
  double open_rate = 0;       ///< offered ops/s in the open-loop phase
  double closed_rate = 0;     ///< expected closed-loop ops/s, sizes its count
  double latency_limit_ms = 0;  ///< limit on each op type's tail
  double late_bound_ms = 0;   ///< loadgen.late_p99_ms above this: invalid
  std::vector<std::string> server_flags;  ///< beyond --csv/--table/--port
};

/// The fixed settings of a named workload; false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);
std::vector<std::string> WorkloadNames();

struct Workload {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::vector<QueryText> texts;
  std::vector<Op> warmup;   ///< issued once before timing (cache warm-up)
  std::vector<Op> stream;   ///< open-loop ops, then closed-loop ops
  size_t open_ops = 0;      ///< stream[0, open_ops) is the open loop
  std::vector<int64_t> schedule_ns;  ///< open-loop send offsets (Poisson)
  int64_t warm_ns = 0;      ///< open-loop ops due before this are not measured
  size_t initial_rows = 0;  ///< catalog rows (the table size updates keep)
  size_t max_live_inserts = 0;  ///< inserts not yet removed, at most
};

/// Writes the seeded catalog CSV to `csv_path` and builds the op stream
/// for a run of `seconds` seconds. Deterministic in (spec, seed, seconds).
bool BuildWorkload(const WorkloadSpec& spec, uint64_t seed, double seconds,
                   const std::string& csv_path, Workload* out,
                   std::string* error);

/// Raw HTTP request bytes for each endpoint.
std::string QueryRequest(const QueryText& text);
std::string UpdateRequest(const std::string& table, bool insert,
                          const std::string& row_csv);
std::string SkylineRequest();

}  // namespace perfbench
