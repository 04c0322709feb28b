#include "sql/batch_kernels.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <string_view>

namespace sqlink {

namespace {

/// Writes the indices of the rows keep(i) accepts, in row order, without a
/// branch per row: every index is written, and only kept ones advance.
template <typename Keep>
void SelectRows(size_t num_rows, std::vector<int32_t>* sel, Keep keep) {
  sel->resize(num_rows);
  int32_t* out = sel->data();
  size_t count = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    out[count] = static_cast<int32_t>(i);
    count += keep(i) ? 1 : 0;
  }
  sel->resize(count);
}

}  // namespace

void FilterToSelection(const Column& pred, size_t num_rows,
                       std::vector<int32_t>* sel) {
  sel->clear();
  if (pred.type != DataType::kBool) return;
  const uint8_t* values = pred.bools.data();
  if (!pred.has_nulls()) {
    SelectRows(num_rows, sel, [values](size_t i) { return values[i] != 0; });
    return;
  }
  SelectRows(num_rows, sel, [values, &pred](size_t i) {
    return values[i] != 0 && !pred.IsNull(i);
  });
}

namespace {

constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;

inline uint64_t Mix(uint64_t h, uint64_t v) {
  // boost::hash_combine-style mixing keeps per-column order significant.
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

// The hash of one non-NULL cell, by type. Equal values hash equal: strings
// by content, +0.0 and -0.0 alike (they compare equal).
inline uint64_t BoolHash(uint8_t b) { return b != 0 ? 1 : 0; }
inline uint64_t Int64Hash(int64_t v) { return std::hash<int64_t>{}(v); }
inline uint64_t DoubleHash(double d) {
  return d == 0.0 ? 0 : std::hash<double>{}(d);
}
inline uint64_t StringHash(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

uint64_t ColumnCellHash(const Column& c, size_t row) {
  if (c.IsNull(row)) return kNullHash;
  switch (c.type) {
    case DataType::kBool:
      return BoolHash(c.bools[row]);
    case DataType::kInt64:
      return Int64Hash(c.ints[row]);
    case DataType::kDouble:
      return DoubleHash(c.doubles[row]);
    case DataType::kString:
      return StringHash(c.dict[c.codes[row]]);
  }
  return 0;
}

/// hashes[r] = Mix(hashes[r], cell hash of row r) for the first n rows,
/// NULLs as kNullHash; the NULL test only runs when the column has NULLs.
template <typename CellHash>
void MixCells(const Column& col, size_t n, uint64_t* hashes, CellHash cell) {
  if (!col.has_nulls()) {
    for (size_t r = 0; r < n; ++r) hashes[r] = Mix(hashes[r], cell(r));
    return;
  }
  for (size_t r = 0; r < n; ++r) {
    hashes[r] = Mix(hashes[r], col.IsNull(r) ? kNullHash : cell(r));
  }
}

/// One column's step of BatchRowHash for every row at once, with the type
/// dispatch outside the row loop. A string column whose dictionary is no
/// larger than the batch hashes each entry once and looks it up by code.
void MixColumnHashes(const Column& col, size_t n, uint64_t* hashes) {
  switch (col.type) {
    case DataType::kBool: {
      const uint8_t* v = col.bools.data();
      MixCells(col, n, hashes, [v](size_t r) { return BoolHash(v[r]); });
      return;
    }
    case DataType::kInt64: {
      const int64_t* v = col.ints.data();
      MixCells(col, n, hashes, [v](size_t r) { return Int64Hash(v[r]); });
      return;
    }
    case DataType::kDouble: {
      const double* v = col.doubles.data();
      MixCells(col, n, hashes, [v](size_t r) { return DoubleHash(v[r]); });
      return;
    }
    case DataType::kString: {
      const int32_t* codes = col.codes.data();
      if (static_cast<size_t>(col.dict.size()) <= n) {
        std::vector<uint64_t> entry(static_cast<size_t>(col.dict.size()));
        for (int32_t id = 0; id < col.dict.size(); ++id) {
          entry[static_cast<size_t>(id)] = StringHash(col.dict[id]);
        }
        const uint64_t* e = entry.data();
        MixCells(col, n, hashes, [e, codes](size_t r) { return e[codes[r]]; });
      } else {
        MixCells(col, n, hashes, [&col, codes](size_t r) {
          return StringHash(col.dict[codes[r]]);
        });
      }
      return;
    }
  }
}

/// Key hashes of every row of `batch`, column at a time, and whether each
/// row has a NULL key.
void KeyHashes(const ColumnBatch& batch, const std::vector<int>& keys,
               std::vector<uint64_t>* hashes, std::vector<uint8_t>* null_key) {
  const size_t n = batch.num_rows();
  hashes->assign(n, 0);
  null_key->assign(n, 0);
  for (const int k : keys) {
    const Column& col = batch.column(static_cast<size_t>(k));
    MixColumnHashes(col, n, hashes->data());
    if (!col.has_nulls()) continue;
    for (size_t r = 0; r < n; ++r) (*null_key)[r] |= col.IsNull(r) ? 1 : 0;
  }
}

/// Non-NULL cells of two `kType` columns: equal payload (dictionary strings
/// by content; 0.0 equals -0.0).
template <DataType kType>
bool ValuesEqual(const Column& a, size_t ra, const Column& b, size_t rb) {
  if constexpr (kType == DataType::kBool) {
    return (a.bools[ra] != 0) == (b.bools[rb] != 0);
  } else if constexpr (kType == DataType::kInt64) {
    return a.ints[ra] == b.ints[rb];
  } else if constexpr (kType == DataType::kDouble) {
    return a.doubles[ra] == b.doubles[rb];
  } else {
    return a.dict[a.codes[ra]] == b.dict[b.codes[rb]];
  }
}

/// ValuesEqual, plus NULL equals NULL and nothing else.
template <DataType kType>
bool CellsOrNullsEqual(const Column& a, size_t ra, const Column& b,
                       size_t rb) {
  const bool null = a.IsNull(ra);
  if (null != b.IsNull(rb)) return false;
  return null || ValuesEqual<kType>(a, ra, b, rb);
}

template <DataType kType>
CellEquality EqualityOf(bool check_nulls) {
  return check_nulls ? &CellsOrNullsEqual<kType> : &ValuesEqual<kType>;
}

}  // namespace

CellEquality CellEqualityFor(DataType type, bool check_nulls) {
  switch (type) {
    case DataType::kBool:
      return EqualityOf<DataType::kBool>(check_nulls);
    case DataType::kInt64:
      return EqualityOf<DataType::kInt64>(check_nulls);
    case DataType::kDouble:
      return EqualityOf<DataType::kDouble>(check_nulls);
    case DataType::kString:
      return EqualityOf<DataType::kString>(check_nulls);
  }
  return nullptr;
}

uint64_t BatchRowHash(const ColumnBatch& batch, size_t row) {
  uint64_t h = 0;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    h = Mix(h, ColumnCellHash(batch.column(c), row));
  }
  return h;
}

void BatchRowHashes(const ColumnBatch& batch, std::vector<uint64_t>* hashes) {
  const size_t n = batch.num_rows();
  hashes->assign(n, 0);
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    MixColumnHashes(batch.column(c), n, hashes->data());
  }
}

bool BatchRowsEqual(const ColumnBatch& a, size_t ra, const ColumnBatch& b,
                    size_t rb) {
  if (a.num_columns() != b.num_columns()) return false;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    if (ca.type != cb.type) {
      // Only two NULLs are equal across types.
      if (!ca.IsNull(ra) || !cb.IsNull(rb)) return false;
      continue;
    }
    if (!CellEqualityFor(ca.type, /*check_nulls=*/true)(ca, ra, cb, rb)) {
      return false;
    }
  }
  return true;
}

JoinIndex::JoinIndex(ColumnBatch build, std::vector<int> keys)
    : build_(std::move(build)), keys_(std::move(keys)) {
  for (const int k : keys_) {
    key_equal_.push_back(CellEqualityFor(
        build_.column(static_cast<size_t>(k)).type, /*check_nulls=*/false));
  }
  std::vector<uint8_t> null_key;
  KeyHashes(build_, keys_, &hashes_, &null_key);
  const size_t n = build_.num_rows();
  const size_t capacity = std::max<size_t>(16, std::bit_ceil(2 * n));
  shift_ = 64 - std::countr_zero(capacity);
  heads_.assign(capacity, -1);
  next_.assign(n, -1);
  // Pushing rows in descending order onto the front of their slot's chain
  // leaves every chain in ascending row order.
  for (size_t r = n; r-- > 0;) {
    if (null_key[r] != 0) continue;  // NULL keys never match.
    int32_t& head = heads_[SlotOf(hashes_[r])];
    next_[r] = head;
    head = static_cast<int32_t>(r);
  }
}

void JoinIndex::Probe(const ColumnBatch& probe,
                      const std::vector<int>& probe_keys, Scratch* scratch,
                      std::vector<int32_t>* probe_rows,
                      std::vector<int32_t>* build_rows) const {
  probe_rows->clear();
  build_rows->clear();
  for (size_t k = 0; k < keys_.size(); ++k) {
    // Key columns of different types never match.
    if (probe.column(static_cast<size_t>(probe_keys[k])).type !=
        build_.column(static_cast<size_t>(keys_[k])).type) {
      return;
    }
  }
  KeyHashes(probe, probe_keys, &scratch->hashes, &scratch->null_key);
  const uint64_t* hashes = scratch->hashes.data();
  const uint8_t* null_key = scratch->null_key.data();
  for (size_t r = 0; r < probe.num_rows(); ++r) {
    if (null_key[r] != 0) continue;
    const uint64_t h = hashes[r];
    for (int32_t b = heads_[SlotOf(h)]; b >= 0;
         b = next_[static_cast<size_t>(b)]) {
      const size_t build_row = static_cast<size_t>(b);
      if (hashes_[build_row] != h) continue;
      bool equal = true;
      for (size_t k = 0; k < keys_.size() && equal; ++k) {
        // Both cells are non-NULL: NULL-keyed rows never get here.
        equal = key_equal_[k](probe.column(static_cast<size_t>(probe_keys[k])),
                              r, build_.column(static_cast<size_t>(keys_[k])),
                              build_row);
      }
      if (!equal) continue;
      probe_rows->push_back(static_cast<int32_t>(r));
      build_rows->push_back(b);
    }
  }
}

}  // namespace sqlink
