#include "sql/batch_kernels.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <string_view>

namespace sqlink {

void FilterToSelection(const Column& pred, size_t num_rows,
                       std::vector<int32_t>* sel) {
  sel->clear();
  if (pred.type != DataType::kBool) return;
  for (size_t i = 0; i < num_rows; ++i) {
    if (pred.bools[i] != 0 && !pred.IsNull(i)) {
      sel->push_back(static_cast<int32_t>(i));
    }
  }
}

namespace {

constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;

inline uint64_t Mix(uint64_t h, uint64_t v) {
  // boost::hash_combine-style mixing keeps per-column order significant.
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

uint64_t ColumnCellHash(const Column& c, size_t row) {
  if (c.IsNull(row)) return kNullHash;
  switch (c.type) {
    case DataType::kBool:
      return c.bools[row] != 0 ? 1 : 0;
    case DataType::kInt64:
      return std::hash<int64_t>{}(c.ints[row]);
    case DataType::kDouble: {
      const double d = c.doubles[row];
      // +0.0 and -0.0 compare equal, so they must hash equal.
      return d == 0.0 ? 0 : std::hash<double>{}(d);
    }
    case DataType::kString:
      return std::hash<std::string_view>{}(c.dict[c.codes[row]]);
  }
  return 0;
}

/// Non-NULL cells of equal type and payload (dictionary strings by
/// content).
bool CellsEqual(const Column& a, size_t ra, const Column& b, size_t rb) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case DataType::kBool:
      return (a.bools[ra] != 0) == (b.bools[rb] != 0);
    case DataType::kInt64:
      return a.ints[ra] == b.ints[rb];
    case DataType::kDouble:
      return a.doubles[ra] == b.doubles[rb];
    case DataType::kString:
      return a.dict[a.codes[ra]] == b.dict[b.codes[rb]];
  }
  return false;
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
    for (size_t r = 0; r < n; ++r) {
      (*hashes)[r] = Mix((*hashes)[r], ColumnCellHash(col, r));
      (*null_key)[r] |= col.IsNull(r) ? 1 : 0;
    }
  }
}

}  // namespace

uint64_t BatchRowHash(const ColumnBatch& batch, size_t row) {
  uint64_t h = 0;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    h = Mix(h, ColumnCellHash(batch.column(c), row));
  }
  return h;
}

bool BatchRowsEqual(const ColumnBatch& a, size_t ra, const ColumnBatch& b,
                    size_t rb) {
  if (a.num_columns() != b.num_columns()) return false;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    const bool na = ca.IsNull(ra);
    const bool nb = cb.IsNull(rb);
    if (na != nb) return false;
    if (!na && !CellsEqual(ca, ra, cb, rb)) return false;
  }
  return true;
}

JoinIndex::JoinIndex(ColumnBatch build, std::vector<int> keys)
    : build_(std::move(build)), keys_(std::move(keys)) {
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
                      const std::vector<int>& probe_keys,
                      std::vector<int32_t>* probe_rows,
                      std::vector<int32_t>* build_rows) const {
  probe_rows->clear();
  build_rows->clear();
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> null_key;
  KeyHashes(probe, probe_keys, &hashes, &null_key);
  for (size_t r = 0; r < probe.num_rows(); ++r) {
    if (null_key[r] != 0) continue;
    const uint64_t h = hashes[r];
    for (int32_t b = heads_[SlotOf(h)]; b >= 0;
         b = next_[static_cast<size_t>(b)]) {
      const size_t build_row = static_cast<size_t>(b);
      if (hashes_[build_row] != h) continue;
      bool equal = true;
      for (size_t k = 0; k < keys_.size() && equal; ++k) {
        equal = CellsEqual(probe.column(static_cast<size_t>(probe_keys[k])), r,
                           build_.column(static_cast<size_t>(keys_[k])),
                           build_row);
      }
      if (!equal) continue;
      probe_rows->push_back(static_cast<int32_t>(r));
      build_rows->push_back(b);
    }
  }
}

}  // namespace sqlink
