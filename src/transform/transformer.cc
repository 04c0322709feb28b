#include "transform/transformer.h"

#include "common/logging.h"
#include "common/status_macros.h"
#include "common/string_util.h"
#include "transform/udfs.h"

namespace sqlink {

InSqlTransformer::InSqlTransformer(SqlEnginePtr engine)
    : engine_(std::move(engine)) {
  SQLINK_CHECK_OK(RegisterTransformUdfs(engine_.get()));
}

std::string InSqlTransformer::BuildRecodeMapSql(
    const std::string& prep_query, const std::vector<std::string>& columns) {
  const std::string column_list = JoinStrings(columns, ",");
  return "SELECT * FROM TABLE(recode_assign((SELECT DISTINCT colname, colval "
         "FROM TABLE(recode_local_distinct((" +
         prep_query + "), '" + column_list +
         "')) ORDER BY colname, colval)))";
}

Result<RecodeMap> InSqlTransformer::ComputeRecodeMap(
    const std::string& prep_query, const std::vector<std::string>& columns,
    const std::string& register_as) {
  if (columns.empty()) {
    return Status::InvalidArgument("no columns to recode");
  }
  const std::string sql = BuildRecodeMapSql(prep_query, columns);
  ASSIGN_OR_RETURN(TablePtr table, engine_->ExecuteSql(sql, "recode_map"));
  ASSIGN_OR_RETURN(RecodeMap map, RecodeMap::FromTable(*table));
  if (!register_as.empty()) {
    engine_->catalog()->PutTable(
        map.ToTable(register_as, static_cast<size_t>(engine_->num_workers())));
  }
  return map;
}

Result<RecodeMap> InSqlTransformer::ComputeRecodeMapPerColumnSql(
    const std::string& prep_query, const std::vector<std::string>& columns,
    const std::string& register_as) {
  if (columns.empty()) {
    return Status::InvalidArgument("no columns to recode");
  }
  RecodeMap map;
  for (const std::string& column : columns) {
    // One full pass over the prepared data per column.
    const std::string sql = "SELECT DISTINCT " + column + " FROM (" +
                            prep_query + ") prep ORDER BY " + column;
    ASSIGN_OR_RETURN(TablePtr table, engine_->ExecuteSql(sql, "distinct_col"));
    int code = 0;
    Row row;
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      for (const ColumnBatch& chunk : table->chunks(p)) {
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          chunk.EmitRow(r, &row);
          if (row[0].is_null()) continue;
          if (!row[0].is_string()) {
            return Status::InvalidArgument("recoding a non-STRING column: " +
                                           column);
          }
          RETURN_IF_ERROR(map.Add(column, row[0].string_value(), ++code));
        }
      }
    }
  }
  if (!register_as.empty()) {
    engine_->catalog()->PutTable(
        map.ToTable(register_as, static_cast<size_t>(engine_->num_workers())));
  }
  return map;
}

}  // namespace sqlink
