#pragma once

// Answer checks that feed error_rate and the run's `correct` flag.
//
// Static workloads (hot_cached, nba_skyline): every distinct query text is
// answered once in-process (Server::Handle, no sockets) before timing, and
// every skyline text's answer is compared with the Definition-3 oracle
// (testing::ComputeOracle) on the same filtered groups. During the run each
// HTTP body must equal the in-process body for its text.
//
// imdb_live: update acks must report a table size consistent with the
// stream; after the run the final table, the reporting answers and the
// drained /skyline are compared with an in-process replay of the stream.

#include <cstddef>
#include <string>
#include <vector>

#include "relation/table.h"
#include "sql/catalog.h"
#include "workload.h"

namespace perfbench {

/// Labels of the aggregate skyline of `shape` over `table` in `db`, by the
/// exhaustive Definition-3 oracle.
galaxy::Result<std::vector<std::string>> OracleLabels(
    const galaxy::sql::Database& db, const std::string& table,
    const SkylineShape& shape);

/// The first column of a result, as strings.
std::vector<std::string> FirstColumn(const galaxy::Table& table);

/// Same labels, order ignored.
bool SameLabels(std::vector<std::string> a, std::vector<std::string> b);

/// For each text the stream or warm-up uses, the in-process response body
/// (other entries stay empty); skyline answers are oracle-checked. Uses up
/// to `threads` threads. False with `error` on any mismatch.
bool ExpectedBodies(const Workload& w, const std::string& csv_path,
                    size_t threads, std::vector<std::string>* bodies,
                    std::string* error);

/// Parses `"num_rows": N` from an /update ack; -1 if absent.
long long AckNumRows(const std::string& body);

/// The quoted labels of a GET /skyline body's "skyline" array.
std::vector<std::string> SkylineBodyLabels(const std::string& body);

/// True for a well-formed /query answer in the requested format.
bool LooksLikeQueryAnswer(const std::string& body, bool csv);

}  // namespace perfbench
