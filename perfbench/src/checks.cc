#include "checks.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "core/gamma.h"
#include "core/group.h"
#include "relation/csv.h"
#include "server/http.h"
#include "server/server.h"
#include "testing/oracle.h"

namespace perfbench {

namespace {

// The shape's grouped input: its filtered rows, grouped, attributes MAX.
galaxy::Result<galaxy::core::GroupedDataset> ShapeInput(
    const galaxy::sql::Database& db, const std::string& table,
    const SkylineShape& shape) {
  std::string sql = "SELECT " + shape.group_column;
  for (const std::string& a : shape.attrs) sql += ", " + a;
  sql += " FROM " + table;
  if (!shape.filter_column.empty()) {
    sql += " WHERE " + shape.filter_column +
           " >= " + std::to_string(shape.filter_min);
  }
  GALAXY_ASSIGN_OR_RETURN(galaxy::Table filtered, db.Query(sql));
  return galaxy::core::GroupedDataset::FromTable(
      filtered, {shape.group_column}, shape.attrs);
}

}  // namespace

galaxy::Result<std::vector<std::string>> OracleLabels(
    const galaxy::sql::Database& db, const std::string& table,
    const SkylineShape& shape) {
  GALAXY_ASSIGN_OR_RETURN(galaxy::core::GroupedDataset dataset,
                          ShapeInput(db, table, shape));
  const galaxy::testing::OracleResult oracle = galaxy::testing::ComputeOracle(
      dataset, galaxy::core::GammaThresholds::FromGamma(shape.gamma));
  std::vector<std::string> labels;
  for (uint32_t id : oracle.skyline) {
    labels.push_back(dataset.group(id).label());
  }
  return labels;
}

std::vector<std::string> FirstColumn(const galaxy::Table& table) {
  std::vector<std::string> out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    out.push_back(table.at(r, 0).ToString());
  }
  return out;
}

bool SameLabels(std::vector<std::string> a, std::vector<std::string> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

bool ExpectedBodies(const Workload& w, const std::string& csv_path,
                    size_t threads, std::vector<std::string>* bodies,
                    std::string* error) {
  galaxy::Result<galaxy::Table> table = galaxy::ReadCsvFile(csv_path);
  if (!table.ok()) {
    *error = table.status().message();
    return false;
  }
  galaxy::sql::Database db;
  db.Register(w.spec.table, *std::move(table));
  galaxy::server::Server server(&db, galaxy::server::ServerOptions{});

  std::vector<uint8_t> used(w.texts.size(), 0);
  for (const std::vector<Op>* ops : {&w.warmup, &w.stream}) {
    for (const Op& op : *ops) {
      if (op.text >= 0) used[static_cast<size_t>(op.text)] = 1;
    }
  }
  bodies->assign(w.texts.size(), "");
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  std::string first_error;
  auto worker = [&]() {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= w.texts.size()) return;
      if (!used[i]) continue;
      const QueryText& text = w.texts[i];
      std::string problem;
      galaxy::server::HttpRequest request;
      const std::string raw = QueryRequest(text);
      if (galaxy::server::ParseHttpRequest(raw, &request).state !=
          galaxy::server::ParseState::kDone) {
        problem = "request does not parse";
      } else {
        galaxy::server::HttpResponse response = server.Handle(request);
        if (response.status != 200) {
          problem = "in-process status " + std::to_string(response.status) +
                    ": " + response.body;
        } else {
          (*bodies)[i] = std::move(response.body);
        }
      }
      if (problem.empty() && text.is_skyline) {
        galaxy::Result<galaxy::Table> answer = db.Query(text.sql);
        galaxy::Result<std::vector<std::string>> oracle =
            OracleLabels(db, w.spec.table, text.shape);
        if (!answer.ok() || !oracle.ok()) {
          problem = "oracle or answer failed";
        } else if (!SameLabels(FirstColumn(*answer), *oracle)) {
          problem = "skyline answer differs from the Definition-3 oracle";
        }
      }
      if (!problem.empty()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.empty()) first_error = problem + " for: " + text.sql;
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t k = 0; k < std::max<size_t>(threads, 1); ++k) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) t.join();
  if (!first_error.empty()) {
    *error = first_error;
    return false;
  }
  return true;
}

long long AckNumRows(const std::string& body) {
  const std::string key = "\"num_rows\": ";
  const size_t at = body.find(key);
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + key.size());
}

std::vector<std::string> SkylineBodyLabels(const std::string& body) {
  std::vector<std::string> labels;
  size_t at = body.find("\"skyline\": [");
  if (at == std::string::npos) return labels;
  at += 12;
  while (at < body.size() && body[at] != ']') {
    if (body[at] == '"') {
      const size_t end = body.find('"', at + 1);
      if (end == std::string::npos) break;
      labels.push_back(body.substr(at + 1, end - at - 1));
      at = end + 1;
    } else {
      ++at;
    }
  }
  return labels;
}

bool LooksLikeQueryAnswer(const std::string& body, bool csv) {
  if (csv) return !body.empty() && body.find('\n') != std::string::npos;
  return body.rfind("{\"columns\": [", 0) == 0 &&
         body.find("\"row_count\": ") != std::string::npos;
}

}  // namespace perfbench
