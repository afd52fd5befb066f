#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "common/rng.h"
#include "common/zipf.h"
#include "datagen/imdb_gen.h"
#include "nba/nba_gen.h"
#include "relation/csv.h"

namespace perfbench {

namespace {

using galaxy::Rng;

// Inserts kept live before imdb_live starts removing them again, so the
// table size stays within [rows, rows + kLiveInserts].
constexpr size_t kLiveInserts = 8;
// Shares of --seconds: open-loop warm-up (not measured), measured open
// loop; the closed loop is sized to take the rest.
constexpr double kWarmShare = 0.1;
constexpr double kOpenShare = 0.55;
// Hot query texts in hot_cached; every one is warmed into the cache.
constexpr size_t kHotTexts = 24;
// Distinct aggregate-skyline texts in nba_skyline: well above the server's
// default 256-entry result cache, so most queries miss.
constexpr size_t kNbaPool = 1000;

std::vector<WorkloadSpec> Specs() {
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec s;
    s.name = "hot_cached";
    s.table = "movies";
    s.catalog_rows = 20000;
    s.directors = 2500;
    s.open_rate = 10000;
    s.closed_rate = 60000;
    s.latency_limit_ms = 5;
    s.late_bound_ms = 5;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "nba_skyline";
    s.table = "nba";
    s.nba = true;
    s.catalog_rows = 3000;
    s.open_rate = 150;
    s.closed_rate = 650;
    s.latency_limit_ms = 1000;
    s.late_bound_ms = 20;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "imdb_live";
    s.table = "movies";
    s.catalog_rows = 4000;
    s.directors = 500;
    s.live = true;
    s.open_rate = 750;
    s.closed_rate = 4000;
    s.latency_limit_ms = 250;
    s.late_bound_ms = 10;
    s.server_flags = {"--fsync", "interval", "--fsync-interval-ms", "100",
                      "--snapshot-every", "500", "--view",
                      "movies:Director:Pop,Qual:0.6"};
    specs.push_back(s);
  }
  return specs;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

// The GAMMA literal a text states, and the double it parses to: the oracle
// and the traced replay must use the value the server reads, not the
// arithmetic that chose it (0.5 + 0.05 * 7 is one ulp above 0.85).
std::string GammaLiteral(double gamma, double* parsed) {
  const std::string literal = Fmt("%.2f", gamma);
  *parsed = std::strtod(literal.c_str(), nullptr);
  return literal;
}

class TextTable {
 public:
  explicit TextTable(std::vector<QueryText>* texts) : texts_(texts) {}
  int Add(QueryText text) {
    const std::string key = text.sql + (text.csv ? "\ncsv" : "\njson");
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    const int id = static_cast<int>(texts_->size());
    texts_->push_back(std::move(text));
    index_.emplace(key, id);
    return id;
  }
  size_t size() const { return texts_->size(); }

 private:
  std::vector<QueryText>* texts_;
  std::map<std::string, int> index_;
};

QueryText MovieSkylineText(int64_t year, double gamma, bool csv) {
  QueryText t;
  t.sql = "SELECT Director FROM movies WHERE Year >= " + std::to_string(year) +
          " GROUP BY Director SKYLINE OF Pop MAX, Qual MAX GAMMA " +
          GammaLiteral(gamma, &t.shape.gamma);
  t.csv = csv;
  t.is_skyline = true;
  t.shape.group_column = "Director";
  t.shape.attrs = {"Pop", "Qual"};
  t.shape.filter_column = "Year";
  t.shape.filter_min = year;
  return t;
}

// Single-table reporting SQL with filters, GROUP BY and ORDER BY/LIMIT.
// Every ORDER BY is total and every aggregate exact, so the answer does
// not depend on the order rows were appended in.
QueryText MovieReportText(Rng& rng, const std::vector<std::string>& genres,
                          bool csv) {
  QueryText t;
  t.csv = csv;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      t.sql = "SELECT Genre, count(*) AS n, max(Pop) AS top, min(Qual) AS low "
              "FROM movies WHERE Year >= " +
              std::to_string(rng.UniformInt(1950, 2010)) +
              " GROUP BY Genre ORDER BY Genre";
      break;
    case 1:
      t.sql = "SELECT Director, count(*) AS n, sum(Pop) AS votes FROM movies "
              "WHERE Qual >= " +
              Fmt("%.1f",
                  5.0 + 0.5 * static_cast<double>(rng.UniformInt(0, 6))) +
              " GROUP BY Director ORDER BY votes DESC, Director LIMIT 10";
      break;
    default:
      t.sql = "SELECT Year, count(*) AS n, max(Qual) AS best FROM movies "
              "WHERE Genre = '" +
              genres[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(genres.size()) - 1))] +
              "' AND Pop >= " + std::to_string(rng.UniformInt(0, 50)) +
              " GROUP BY Year ORDER BY Year DESC LIMIT 10";
      break;
  }
  return t;
}

// The Director hash self-join: director pairs of recent films.
QueryText MovieJoinText(Rng& rng) {
  QueryText t;
  const std::string year = std::to_string(rng.UniformInt(2008, 2010));
  t.sql = "SELECT a.Director, count(*) AS pairs FROM movies a, movies b "
          "WHERE a.Director = b.Director AND a.Year >= " +
          year + " AND b.Year >= " + year +
          " AND a.Qual > b.Qual GROUP BY a.Director "
          "ORDER BY pairs DESC, a.Director LIMIT 5";
  return t;
}

QueryText NbaSkylineText(Rng& rng) {
  static const char* kGroups[] = {"player", "team", "year", "pos"};
  const std::vector<std::string>& stats = galaxy::nba::StatColumns();
  QueryText t;
  t.is_skyline = true;
  t.shape.group_column = kGroups[rng.UniformInt(0, 3)];
  const size_t dims = static_cast<size_t>(rng.UniformInt(2, 8));
  std::vector<size_t> order(stats.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<size_t>(
                            rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  order.resize(dims);
  std::sort(order.begin(), order.end());
  for (size_t i : order) t.shape.attrs.push_back(stats[i]);
  const double gamma = 0.5 + 0.05 * static_cast<double>(rng.UniformInt(0, 8));
  t.shape.filter_column = "year";
  t.shape.filter_min = rng.UniformInt(1979, 2008);
  t.csv = rng.Bernoulli(0.2);
  t.sql = "SELECT " + t.shape.group_column + " FROM nba WHERE year >= " +
          std::to_string(t.shape.filter_min) + " GROUP BY " +
          t.shape.group_column + " SKYLINE OF ";
  for (size_t i = 0; i < t.shape.attrs.size(); ++i) {
    if (i > 0) t.sql += ", ";
    t.sql += t.shape.attrs[i] + " MAX";
  }
  t.sql += " GAMMA " + GammaLiteral(gamma, &t.shape.gamma);
  return t;
}

std::vector<int64_t> PoissonSchedule(Rng& rng, double rate, double seconds) {
  std::vector<int64_t> out;
  double t = 0;
  while (true) {
    t += rng.Exponential(rate);
    if (t >= seconds) break;
    out.push_back(static_cast<int64_t>(t * 1e9));
  }
  return out;
}

Op QueryOp(int text, const std::vector<QueryText>& texts) {
  Op op;
  op.type = OpType::kQuery;
  op.text = text;
  op.request = QueryRequest(texts[static_cast<size_t>(text)]);
  return op;
}

}  // namespace

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kQuery:
      return "query";
    case OpType::kUpdate:
      return "update";
    case OpType::kSkyline:
      return "skyline";
  }
  return "?";
}

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) {
      *spec = s;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

std::string QueryRequest(const QueryText& text) {
  return "POST /query HTTP/1.1\r\nHost: perfbench\r\n" +
         std::string(text.csv ? "Accept: text/csv\r\n" : "") +
         "Content-Length: " + std::to_string(text.sql.size()) + "\r\n\r\n" +
         text.sql;
}

std::string UpdateRequest(const std::string& table, bool insert,
                          const std::string& row_csv) {
  return "POST /update?table=" + table + "&op=" +
         (insert ? "insert" : "remove") +
         " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
         std::to_string(row_csv.size()) + "\r\n\r\n" + row_csv;
}

std::string SkylineRequest() {
  return "GET /skyline HTTP/1.1\r\nHost: perfbench\r\n\r\n";
}

bool BuildWorkload(const WorkloadSpec& spec, uint64_t seed, double seconds,
                   const std::string& csv_path, Workload* out,
                   std::string* error) {
  Workload& w = *out;
  w.spec = spec;
  w.seed = seed;
  w.initial_rows = spec.catalog_rows;
  const double warm_s = seconds * kWarmShare;
  const double open_s = seconds * kOpenShare;
  const size_t closed_ops = static_cast<size_t>(std::max(
      1.0, spec.closed_rate * seconds * (1.0 - kWarmShare - kOpenShare)));
  Rng rng(seed, /*stream=*/101);
  w.schedule_ns = PoissonSchedule(rng, spec.open_rate, warm_s + open_s);
  w.warm_ns = static_cast<int64_t>(warm_s * 1e9);
  w.open_ops = w.schedule_ns.size();
  const size_t total_ops = w.open_ops + closed_ops;
  TextTable texts(&w.texts);

  galaxy::Table table;
  std::vector<galaxy::datagen::MovieRecord> movies;
  if (spec.nba) {
    // One fixed league, as the paper evaluates one NBA dataset; the seed
    // draws the query stream. Seeded leagues move the median query cost by
    // a fifth from seed to seed, more than any bound the metric could keep.
    galaxy::nba::NbaConfig config;
    config.target_records = spec.catalog_rows;
    table = galaxy::nba::ToTable(galaxy::nba::GenerateLeagueHistory(config));
  } else {
    galaxy::datagen::ImdbConfig config;
    config.target_movies = spec.catalog_rows;
    config.num_directors = spec.directors;
    config.seed = seed;
    movies = galaxy::datagen::GenerateImdbCorpus(config);
    table = galaxy::datagen::ToTable(movies);
  }
  galaxy::Status written = galaxy::WriteCsvFile(table, csv_path);
  if (!written.ok()) {
    *error = "writing the catalog: " + written.message();
    return false;
  }
  std::vector<std::string> genres;
  for (const auto& m : movies) genres.push_back(m.genre);
  std::sort(genres.begin(), genres.end());
  genres.erase(std::unique(genres.begin(), genres.end()), genres.end());

  if (spec.name == "hot_cached") {
    // The hot set: skyline and reporting texts, JSON and CSV, drawn Zipf.
    while (texts.size() < kHotTexts) {
      const bool csv = rng.Bernoulli(0.3);
      if (rng.Bernoulli(0.35)) {
        static const int64_t kYears[] = {1990, 2000, 2005};
        texts.Add(MovieSkylineText(kYears[rng.UniformInt(0, 2)],
                                   0.5 + 0.1 * static_cast<double>(
                                                   rng.UniformInt(0, 4)),
                                   csv));
      } else {
        texts.Add(MovieReportText(rng, genres, csv));
      }
    }
    for (size_t i = 0; i < w.texts.size(); ++i) {
      w.warmup.push_back(QueryOp(static_cast<int>(i), w.texts));
    }
    galaxy::ZipfSampler zipf(static_cast<int64_t>(w.texts.size()), 0.99);
    for (size_t i = 0; i < total_ops; ++i) {
      w.stream.push_back(
          QueryOp(static_cast<int>(zipf.Sample(rng) - 1), w.texts));
    }
  } else if (spec.name == "nba_skyline") {
    while (texts.size() < kNbaPool) texts.Add(NbaSkylineText(rng));
    for (size_t i = 0; i < total_ops; ++i) {
      w.stream.push_back(QueryOp(
          static_cast<int>(rng.UniformInt(0, kNbaPool - 1)), w.texts));
    }
  } else if (spec.name == "imdb_live") {
    std::deque<size_t> live;  // stream indexes of inserts not yet removed
    bool last_insert = false;
    size_t inserted = 0;
    w.max_live_inserts = kLiveInserts;
    for (size_t i = 0; i < total_ops; ++i) {
      const double u = rng.NextDouble();
      Op op;
      if (u < 0.35) {
        op.type = OpType::kUpdate;
        if (live.size() < kLiveInserts || !last_insert) {
          const auto& m = movies[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(movies.size()) - 1))];
          const double votes = std::max(
              1.0, std::round(static_cast<double>(m.votes_thousands) *
                              rng.Uniform(0.5, 1.5)));
          const double rating = std::clamp(
              std::round((m.rating + rng.Gaussian(0, 0.5)) * 10) / 10, 1.0,
              10.0);
          op.insert = true;
          op.row_csv = "Bench " + std::to_string(seed) + " #" +
                       std::to_string(++inserted) + "," + m.director + "," +
                       m.genre + "," + std::to_string(m.year) + "," +
                       Fmt("%.0f", votes) + "," + Fmt("%.1f", rating);
          live.push_back(i);
          last_insert = true;
        } else {
          const size_t target = live.front();
          live.pop_front();
          op.insert = false;
          op.row_csv = w.stream[target].row_csv;
          op.depends_on = static_cast<int64_t>(target);
          last_insert = false;
        }
        op.request = UpdateRequest(spec.table, op.insert, op.row_csv);
      } else if (u < 0.70) {
        const bool csv = rng.Bernoulli(0.2);
        QueryText t = rng.Bernoulli(0.02) ? MovieJoinText(rng)
                                          : MovieReportText(rng, genres, csv);
        op = QueryOp(texts.Add(std::move(t)), w.texts);
      } else {
        op.type = OpType::kSkyline;
        op.request = SkylineRequest();
      }
      w.stream.push_back(std::move(op));
    }
  } else {
    *error = "no op stream for workload " + spec.name;
    return false;
  }
  return true;
}

}  // namespace perfbench
