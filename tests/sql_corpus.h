// Shared golden-query corpus for the SQL engine tests.
//
// The corpus lives in tests/queries/: one <name>.sql per query and a
// <name>.expected golden holding the canonical (sorted, pipe-joined)
// result. Both sql_engine_test.cc (the engine against the goldens) and
// sql_differential_test.cc (the engine against the oracle) load it through
// this header, so a query added to the directory is automatically held to
// byte-identical results by both.
//
// Regenerate goldens with SQLINK_UPDATE_GOLDENS=1 (writes into the source
// tree; inspect the diff before committing).

#ifndef SQLINK_TESTS_SQL_CORPUS_H_
#define SQLINK_TESTS_SQL_CORPUS_H_

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fs_util.h"
#include "common/random.h"
#include "sql/engine.h"
#include "table/table.h"

#ifndef SQLINK_QUERY_DIR
#error "compile with -DSQLINK_QUERY_DIR=\"<path to tests/queries>\""
#endif

namespace sqlink {

struct CorpusQuery {
  std::string name;           ///< File stem, e.g. "join_basic".
  std::string sql;            ///< The query text.
  std::string expected_path;  ///< Sibling .expected golden file.
};

/// All corpus queries, sorted by name for stable test ordering.
inline std::vector<CorpusQuery> LoadQueryCorpus() {
  std::vector<CorpusQuery> corpus;
  const std::filesystem::path dir(SQLINK_QUERY_DIR);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".sql") continue;
    CorpusQuery query;
    query.name = entry.path().stem().string();
    auto text = ReadFileToString(entry.path().string());
    if (!text.ok()) continue;
    query.sql = *text;
    std::filesystem::path expected = entry.path();
    expected.replace_extension(".expected");
    query.expected_path = expected.string();
    corpus.push_back(std::move(query));
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const CorpusQuery& a, const CorpusQuery& b) {
              return a.name < b.name;
            });
  return corpus;
}

/// One row rendered canonically: values pipe-joined, NULLs explicit.
inline std::string CanonicalRow(const Row& row) {
  std::string out;
  for (const Value& value : row) {
    out += value.is_null() ? "NULL" : value.ToString();
    out += "|";
  }
  return out;
}

/// A whole result rendered canonically: one line per row, sorted, so two
/// evaluators producing the same multiset render byte-identically.
inline std::string CanonicalResult(const std::vector<Row>& rows) {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const Row& row : rows) lines.push_back(CanonicalRow(row));
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

/// Registers the deterministic corpus tables on `engine`:
///  - events tables `e0`, `e1`, `e1023`, `e1024`, `e1025` (named by row
///    count, bracketing the executor's 1024-row batch size) with schema
///    (k INT, v DOUBLE, s STRING, flag BOOL) and ~12% NULLs per column;
///  - dimension table `dims` (k INT, label STRING) with NULL keys mixed in.
inline void RegisterCorpusTables(SqlEngine* engine) {
  const auto events_schema = Schema::Make({{"k", DataType::kInt64},
                                           {"v", DataType::kDouble},
                                           {"s", DataType::kString},
                                           {"flag", DataType::kBool}});
  static const char* const kStrings[] = {"alpha", "beta",  "gamma", "delta",
                                         "",      "pipe|", "x"};
  for (const size_t rows : {size_t{0}, size_t{1}, size_t{1023}, size_t{1024},
                            size_t{1025}}) {
    Random rng(42 + rows);
    auto table = engine->MakeTable("e" + std::to_string(rows), events_schema);
    for (size_t i = 0; i < rows; ++i) {
      Row row;
      row.push_back(rng.Bernoulli(0.12)
                        ? Value::Null()
                        : Value::Int64(rng.UniformInt(0, 31)));
      row.push_back(rng.Bernoulli(0.12)
                        ? Value::Null()
                        : Value::Double(rng.UniformInt(-500, 500) / 10.0));
      row.push_back(rng.Bernoulli(0.12)
                        ? Value::Null()
                        : Value::String(kStrings[rng.Uniform(7)]));
      row.push_back(rng.Bernoulli(0.12) ? Value::Null()
                                        : Value::Bool(rng.Bernoulli(0.5)));
      table->AppendRow(i % table->num_partitions(), std::move(row));
    }
    engine->catalog()->PutTable(table);
  }

  Random rng(7);
  const auto dims_schema =
      Schema::Make({{"k", DataType::kInt64}, {"label", DataType::kString}});
  auto dims = engine->MakeTable("dims", dims_schema);
  for (size_t i = 0; i < 40; ++i) {
    Row row;
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null()
                      : Value::Int64(rng.UniformInt(0, 47)));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null()
                      : Value::String(kStrings[rng.Uniform(7)]));
    dims->AppendRow(i % dims->num_partitions(), std::move(row));
  }
  engine->catalog()->PutTable(dims);
}

}  // namespace sqlink

#endif  // SQLINK_TESTS_SQL_CORPUS_H_
