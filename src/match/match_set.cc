#include "match/match_set.h"

#include <algorithm>
#include <cassert>

#include "graph/serialize.h"

namespace ppsm {

namespace {
constexpr uint32_t kMatchSetMagic = 0x3153544d;  // "MTS1"
}  // namespace

void MatchSet::Append(std::span<const VertexId> match) {
  assert(match.size() == arity_);
  flat_.insert(flat_.end(), match.begin(), match.end());
}

void MatchSet::AppendAll(const MatchSet& other) {
  assert(other.arity_ == arity_);
  flat_.insert(flat_.end(), other.flat_.begin(), other.flat_.end());
}

void MatchSet::ReserveAdditional(size_t rows) {
  flat_.reserve(flat_.size() + rows * arity_);
}

std::span<const VertexId> MatchSet::Get(size_t row) const {
  assert(row < NumMatches());
  return {flat_.data() + row * arity_, arity_};
}

void MatchSet::SortDedup() {
  if (arity_ == 0 || flat_.empty()) return;
  const size_t rows = NumMatches();
  std::vector<size_t> order(rows);
  for (size_t i = 0; i < rows; ++i) order[i] = i;
  const auto row_less = [this](size_t a, size_t b) {
    return std::lexicographical_compare(
        flat_.begin() + a * arity_, flat_.begin() + (a + 1) * arity_,
        flat_.begin() + b * arity_, flat_.begin() + (b + 1) * arity_);
  };
  const auto row_equal = [this](size_t a, size_t b) {
    return std::equal(flat_.begin() + a * arity_,
                      flat_.begin() + (a + 1) * arity_,
                      flat_.begin() + b * arity_);
  };
  std::sort(order.begin(), order.end(), row_less);
  order.erase(std::unique(order.begin(), order.end(), row_equal),
              order.end());
  std::vector<VertexId> sorted;
  sorted.reserve(order.size() * arity_);
  for (const size_t row : order) {
    sorted.insert(sorted.end(), flat_.begin() + row * arity_,
                  flat_.begin() + (row + 1) * arity_);
  }
  flat_ = std::move(sorted);
}

MatchSet MatchSet::Project(const std::vector<size_t>& columns) const {
  MatchSet projected(columns.size());
  std::vector<VertexId> row(columns.size());
  for (size_t r = 0; r < NumMatches(); ++r) {
    const auto source = Get(r);
    for (size_t c = 0; c < columns.size(); ++c) {
      assert(columns[c] < arity_);
      row[c] = source[columns[c]];
    }
    projected.Append(row);
  }
  projected.SortDedup();
  return projected;
}

bool MatchSet::HasDuplicateVertices(std::span<const VertexId> match) {
  // Matches are tiny (query size); quadratic scan beats hashing here.
  for (size_t i = 0; i < match.size(); ++i) {
    for (size_t j = i + 1; j < match.size(); ++j) {
      if (match[i] == match[j]) return true;
    }
  }
  return false;
}

std::vector<uint8_t> MatchSet::Serialize() const {
  BinaryWriter writer;
  writer.PutU32(kMatchSetMagic);
  writer.PutVarint(arity_);
  writer.PutVarint(NumMatches());
  for (const VertexId v : flat_) writer.PutVarint(v);
  return writer.TakeBytes();
}

Result<MatchSet> MatchSet::Deserialize(std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint32_t magic, reader.GetU32());
  if (magic != kMatchSetMagic) {
    return Status::InvalidArgument("bad match-set magic");
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t arity, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const uint64_t rows, reader.GetVarint());
  if (arity * rows > reader.remaining()) {
    // Every id costs at least one byte; reject absurd headers early.
    return Status::OutOfRange("match-set count exceeds payload size");
  }
  MatchSet set(arity);
  set.flat_.reserve(arity * rows);
  for (uint64_t i = 0; i < arity * rows; ++i) {
    PPSM_ASSIGN_OR_RETURN(const uint64_t v, reader.GetVarint());
    if (v > UINT32_MAX) return Status::InvalidArgument("vertex id overflow");
    set.flat_.push_back(static_cast<VertexId>(v));
  }
  return set;
}

bool MatchSet::EquivalentUnordered(const MatchSet& a, const MatchSet& b) {
  if (a.arity_ != b.arity_) return false;
  MatchSet sa = a;
  MatchSet sb = b;
  sa.SortDedup();
  sb.SortDedup();
  return sa == sb;
}

}  // namespace ppsm
