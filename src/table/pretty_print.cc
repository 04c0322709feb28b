#include "table/pretty_print.h"

#include <algorithm>
#include <vector>

namespace sqlink {

namespace {

std::string Truncate(std::string text, size_t max_width) {
  if (text.size() <= max_width) return text;
  return text.substr(0, max_width - 3) + "...";
}

}  // namespace

std::string PrettyPrintTable(const Table& table,
                             const PrettyPrintOptions& options) {
  const Schema& schema = *table.schema();
  const size_t columns = static_cast<size_t>(schema.num_fields());

  // Collect the visible rows.
  std::vector<std::vector<std::string>> cells;
  const size_t total_rows = table.TotalRows();
  Row row;
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    for (const ColumnBatch& chunk : table.chunks(p)) {
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        if (cells.size() >= options.max_rows) break;
        chunk.EmitRow(r, &row);
        std::vector<std::string> rendered;
        rendered.reserve(columns);
        for (size_t c = 0; c < columns && c < row.size(); ++c) {
          rendered.push_back(
              Truncate(row[c].is_null() ? "NULL" : row[c].ToString(),
                       options.max_column_width));
        }
        cells.push_back(std::move(rendered));
      }
    }
  }

  std::vector<size_t> widths(columns);
  for (size_t c = 0; c < columns; ++c) {
    widths[c] = Truncate(schema.field(static_cast<int>(c)).name,
                         options.max_column_width)
                    .size();
  }
  for (const auto& row : cells) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto separator = [&] {
    std::string line = "+";
    for (size_t c = 0; c < columns; ++c) {
      line += std::string(widths[c] + 2, '-');
      line += "+";
    }
    line += "\n";
    return line;
  };
  auto format_row = [&](const std::vector<std::string>& row, bool numeric_right) {
    std::string line = "|";
    for (size_t c = 0; c < columns; ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      const DataType type = schema.field(static_cast<int>(c)).type;
      const bool right = numeric_right && (type == DataType::kInt64 ||
                                           type == DataType::kDouble);
      const size_t pad = widths[c] - cell.size();
      line += " ";
      if (right) line += std::string(pad, ' ');
      line += cell;
      if (!right) line += std::string(pad, ' ');
      line += " |";
    }
    line += "\n";
    return line;
  };

  std::string out = separator();
  std::vector<std::string> header;
  for (size_t c = 0; c < columns; ++c) {
    header.push_back(Truncate(schema.field(static_cast<int>(c)).name,
                              options.max_column_width));
  }
  out += format_row(header, /*numeric_right=*/false);
  out += separator();
  for (const auto& row : cells) {
    out += format_row(row, /*numeric_right=*/true);
  }
  out += separator();
  out += "(" + std::to_string(total_rows) + " row" +
         (total_rows == 1 ? "" : "s");
  if (total_rows > cells.size()) {
    out += ", showing first " + std::to_string(cells.size());
  }
  out += ")\n";
  return out;
}

}  // namespace sqlink
