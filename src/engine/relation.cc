#include "engine/relation.h"

#include <algorithm>
#include <cstdlib>

namespace secureblox::engine {

namespace {

/// "Value absent from this column's dictionary" sentinel in lookup-only
/// encodings (EncodeLookup). Never a real code: dictionaries would need
/// 2^32 distinct values in one column first.
constexpr uint32_t kNoCode = 0xFFFFFFFFu;

/// Extra mixing over the tuple-content hash so shard choice is not
/// correlated with the bucket placement inside the per-shard hash maps
/// (both start from Value::Hash).
size_t MixShardHash(size_t h) {
  uint64_t x = static_cast<uint64_t>(h);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return static_cast<size_t>(x);
}

size_t HashValues(const Tuple& t, uint32_t mask) {
  size_t h = 0x811C9DC5;
  for (size_t i = 0; i < t.size() && i < 32; ++i) {
    if (mask & (1u << i)) {
      h ^= t[i].Hash() + 0x9E3779B9 + (h << 6) + (h >> 2);
    }
  }
  return h;
}

bool SingleColumnMask(uint32_t mask) {
  return mask != 0 && (mask & (mask - 1)) == 0;
}

size_t MaskColumn(uint32_t mask) {
  size_t col = 0;
  while (!(mask & (1u << col))) ++col;
  return col;
}

/// Hash of the codes code(0) .. code(n - 1).
template <typename CodeAt>
uint32_t HashCodesBy(size_t n, CodeAt code) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ code(i)) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 32;
  }
  return static_cast<uint32_t>(h);
}

/// HashCodes of the first `n` codes of row `slot`, read from the columns.
uint32_t HashRow(const std::vector<std::vector<uint32_t>>& cols, size_t n,
                 size_t slot) {
  return HashCodesBy(n, [&](size_t i) { return cols[i][slot]; });
}

/// Approximate heap bytes of one unordered_map: the bucket array plus a
/// node per entry (payload + two pointers of allocator/link overhead).
size_t MapBytes(size_t bucket_count, size_t entries, size_t entry_payload) {
  return bucket_count * sizeof(void*) +
         entries * (entry_payload + 2 * sizeof(void*));
}

}  // namespace

uint32_t HashCodes(const uint32_t* codes, size_t n) {
  return HashCodesBy(n, [&](size_t i) { return codes[i]; });
}

uint32_t ShardKeyMask(const datalog::PredicateDecl& decl) {
  const size_t arity = decl.arity();
  if (decl.functional && arity >= 2) {
    // FD key columns: everything but the value column.
    return (arity - 1 < 32) ? ((1u << (arity - 1)) - 1) : ~0u;
  }
  if (!decl.functional && arity >= 1) {
    // Join-key convention: route on the first column.
    return 1u;
  }
  // Zero-key cases (arity 0, functional arity 1) hash an empty projection:
  // every tuple lands in one shard and probes never fan out.
  return 0;
}

Relation::Relation(const datalog::PredicateDecl* decl, size_t shards)
    : decl_(decl), shard_key_mask_(ShardKeyMask(*decl)) {
  shards_.resize(std::max<size_t>(1, shards));
  const size_t arity = decl_->arity();
  if (arity >= 1 && arity <= 32) {
    whole_mask_ = arity == 32 ? ~0u : (1u << arity) - 1;
  }
  dicts_.resize(arity);
  for (Shard& s : shards_) s.cols.resize(arity);
}

size_t Relation::ShardKeyHash(const Tuple& t) const {
  return MixShardHash(HashValues(t, shard_key_mask_));
}

size_t Relation::ShardOf(const Tuple& t) const {
  // Hash of the shard-key *values*, never their codes: codes depend on a
  // relation's insertion history, so only values place a tuple in the
  // same shard on every workspace (the determinism contract).
  return shards_.size() == 1 ? 0 : ShardKeyHash(t) % shards_.size();
}

size_t Relation::ShardOfProbeKey(uint32_t mask, const Tuple& key) const {
  // `key` holds the bound values in column order; pick out the shard-key
  // columns and hash them exactly as ShardKeyHash does on a full tuple.
  size_t h = 0x811C9DC5;
  size_t ki = 0;
  for (size_t i = 0; i < 32; ++i) {
    if (!(mask & (1u << i))) continue;
    if (ki >= key.size()) break;
    if (shard_key_mask_ & (1u << i)) {
      h ^= key[ki].Hash() + 0x9E3779B9 + (h << 6) + (h >> 2);
    }
    ++ki;
  }
  return MixShardHash(h) % shards_.size();
}

int Relation::ProbeShardOf(uint32_t mask, const Tuple& key) const {
  if (shards_.size() == 1) return 0;
  if ((mask & shard_key_mask_) != shard_key_mask_) return -1;
  return static_cast<int>(ShardOfProbeKey(mask, key));
}

void Relation::EncodeLookup(const Tuple& t, CodeKey* out) const {
  out->clear();
  out->reserve(t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    const ColumnDict& d = dicts_[i];
    auto it = d.codes.find(t[i]);
    out->push_back(it == d.codes.end() ? kNoCode : it->second);
  }
}

uint32_t Relation::SlotTable::Find(
    const std::vector<std::vector<uint32_t>>& cols, size_t width,
    uint32_t hash, const uint32_t* key) const {
  if (entries_.empty()) return kNone;
  const size_t mask = entries_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Entry& e = entries_[i];
    if (e.slot == kNone) return kNone;
    if (e.hash != hash) continue;
    size_t c = 0;
    while (c < width && cols[c][e.slot] == key[c]) ++c;
    if (c == width) return e.slot;
  }
}

void Relation::SlotTable::Insert(uint32_t hash, uint32_t slot) {
  if (2 * (size_ + 1) > entries_.size()) {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(std::max<size_t>(16, 2 * old.size()), Entry{});
    size_ = 0;
    for (const Entry& e : old) {
      if (e.slot != kNone) Insert(e.hash, e.slot);
    }
  }
  const size_t mask = entries_.size() - 1;
  size_t i = hash & mask;
  while (entries_[i].slot != kNone) i = (i + 1) & mask;
  entries_[i] = {slot, hash};
  ++size_;
}

size_t Relation::SlotTable::Position(uint32_t hash, uint32_t slot) const {
  const size_t mask = entries_.size() - 1;
  size_t i = hash & mask;
  while (entries_[i].slot != slot) {
    // Every stored slot has an entry on its probe run; reaching a free
    // entry first means the table no longer matches the columns.
    if (entries_[i].slot == kNone) std::abort();
    i = (i + 1) & mask;
  }
  return i;
}

void Relation::SlotTable::Erase(uint32_t hash, uint32_t slot) {
  const size_t mask = entries_.size() - 1;
  size_t hole = Position(hash, slot);
  // Backward shift: move each later entry of the probe run into the hole
  // unless its home position lies cyclically in (hole, i], where a probe
  // for it would stop before reaching the hole.
  for (size_t i = (hole + 1) & mask; entries_[i].slot != kNone;
       i = (i + 1) & mask) {
    const size_t home = entries_[i].hash & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      entries_[hole] = entries_[i];
      hole = i;
    }
  }
  entries_[hole] = Entry{};
  --size_;
}

void Relation::SlotTable::Repoint(uint32_t hash, uint32_t from, uint32_t to) {
  entries_[Position(hash, from)].slot = to;
}

std::optional<RowRef> Relation::Find(const Tuple& t) const {
  thread_local CodeKey ck;  // per-thread: const reads may run on workers
  EncodeLookup(t, &ck);
  if (std::find(ck.begin(), ck.end(), kNoCode) != ck.end()) {
    return std::nullopt;
  }
  return FindCodes(ShardOf(t), ck.data());
}

std::optional<RowRef> Relation::Locate(const Tuple& t) {
  ++mutation_encodes_;
  return Find(t);
}

std::optional<RowRef> Relation::FindCodes(size_t shard,
                                          const uint32_t* codes) const {
  const Shard& s = shards_[shard];
  const size_t n = dicts_.size();
  const uint32_t slot = s.index_.Find(s.cols, n, HashCodes(codes, n), codes);
  if (slot == SlotTable::kNone) return std::nullopt;
  return RowRef{static_cast<uint32_t>(shard), slot};
}

RowRef Relation::AppendRow(size_t sh, const uint32_t* codes, uint32_t hash) {
  Shard& s = shards_[sh];
  const auto slot = static_cast<uint32_t>(s.counts.size());
  for (size_t i = 0; i < dicts_.size(); ++i) {
    ColumnDict& d = dicts_[i];
    if (d.refs[codes[i]]++ == 0) ++d.live;  // new, or erased-out and revived
    s.cols[i].push_back(codes[i]);
  }
  s.counts.push_back(0);
  s.index_.Insert(hash, slot);
  if (decl_->functional) {
    s.fd_index_.Insert(HashCodes(codes, fd_width()), slot);
  }
  if (!key_stats_.empty()) StatsInsert(sh, slot);
  ++total_size_;
  ++version_;
  return RowRef{static_cast<uint32_t>(sh), slot};
}

InsertResult Relation::Insert(const Tuple& t) {
  const size_t sh = ShardOf(t);
  ++mutation_encodes_;
  // Phase A — lookup-only encode. A tuple of known values is checked and
  // stored by its codes; a kNoCode anywhere means the full tuple cannot
  // already be present, and a kNoCode in a key column means no FD
  // conflict is possible. No dictionary state changes until the row is
  // known to commit, so a rejected insert leaves refcounts and live
  // counts untouched.
  thread_local CodeKey ck;  // mutations are single-threaded; reused buffer
  EncodeLookup(t, &ck);
  const size_t n = ck.size();
  const size_t known = std::find(ck.begin(), ck.end(), kNoCode) - ck.begin();
  if (known == n) return InsertCodes(sh, ck.data());
  if (decl_->functional && known >= fd_width()) {
    const uint32_t slot = FdOccupant(sh, ck.data());
    if (slot != SlotTable::kNone) {
      return {InsertOutcome::kFdConflict, {static_cast<uint32_t>(sh), slot}};
    }
  }
  // Phase B — commit: allocate codes for novel values, then append the
  // row (AppendRow takes the live references).
  for (size_t i = known; i < n; ++i) {
    if (ck[i] != kNoCode) continue;
    ColumnDict& d = dicts_[i];
    ck[i] = static_cast<uint32_t>(d.values.size());
    d.values.push_back(t[i]);
    d.codes.emplace(t[i], ck[i]);
    d.refs.push_back(0);
  }
  return {InsertOutcome::kInserted,
          AppendRow(sh, ck.data(), HashCodes(ck.data(), n))};
}

uint32_t Relation::FdOccupant(size_t shard, const uint32_t* codes) const {
  const Shard& s = shards_[shard];
  return s.fd_index_.Find(s.cols, fd_width(), HashCodes(codes, fd_width()),
                          codes);
}

InsertResult Relation::InsertCodes(size_t shard, const uint32_t* codes) {
  const Shard& s = shards_[shard];
  const size_t n = dicts_.size();
  const uint32_t hash = HashCodes(codes, n);
  uint32_t slot = s.index_.Find(s.cols, n, hash, codes);
  if (slot != SlotTable::kNone) {
    return {InsertOutcome::kDuplicate, {static_cast<uint32_t>(shard), slot}};
  }
  if (decl_->functional) {
    slot = FdOccupant(shard, codes);
    if (slot != SlotTable::kNone) {
      return {InsertOutcome::kFdConflict,
              {static_cast<uint32_t>(shard), slot}};
    }
  }
  return {InsertOutcome::kInserted, AppendRow(shard, codes, hash)};
}

bool Relation::Erase(const Tuple& t) {
  const std::optional<RowRef> row = Locate(t);
  if (!row) return false;
  EraseRow(*row);
  return true;
}

void Relation::EraseRow(RowRef row) {
  Shard& s = shards_[row.shard];
  const size_t slot = row.slot;
  const size_t last = s.counts.size() - 1;
  const size_t n = dicts_.size();
  if (!key_stats_.empty()) StatsErase(row.shard, slot);
  // Drop the erased row from built secondary buckets before the swap
  // clobbers row `slot`, preserving bucket order so enumeration order does
  // not depend on erase history beyond the erase itself.
  for (auto& [mask, idx] : s.secondary_) {
    if (slot >= idx.rows_indexed) continue;
    auto bit = idx.buckets.find(ProjectCodes(s, slot, mask));
    if (bit == idx.buckets.end()) continue;
    auto& rows = bit->second;
    rows.erase(std::remove(rows.begin(), rows.end(), slot), rows.end());
    if (rows.empty()) idx.buckets.erase(bit);
  }
  s.index_.Erase(HashRow(s.cols, n, slot), row.slot);
  if (decl_->functional) {
    s.fd_index_.Erase(HashRow(s.cols, fd_width(), slot), row.slot);
  }
  // Release this row's dictionary references. Codes are never reclaimed —
  // only the live counts (the planner's distinct statistics) move.
  for (size_t i = 0; i < n; ++i) {
    ColumnDict& d = dicts_[i];
    if (--d.refs[s.cols[i][slot]] == 0) --d.live;
  }
  // Swap-remove within the shard's column segments; re-point the moved
  // row's slot-table entries. The moved row belongs to the same shard by
  // construction, so no cross-shard bookkeeping is needed.
  if (slot != last) {
    const auto from = static_cast<uint32_t>(last);
    s.index_.Repoint(HashRow(s.cols, n, last), from, row.slot);
    if (decl_->functional) {
      s.fd_index_.Repoint(HashRow(s.cols, fd_width(), last), from, row.slot);
    }
    for (auto& col : s.cols) col[slot] = col[last];
    s.counts[slot] = s.counts[last];
  }
  for (auto& col : s.cols) col.pop_back();
  s.counts.pop_back();
  // Re-point the moved row (old index `last`, now at `slot`) in each built
  // secondary index; an unindexed tail row moving into the indexed prefix
  // is indexed now so the prefix invariant holds.
  for (auto& [mask, idx] : s.secondary_) {
    if (slot != last) {
      const CodeKey moved_key = ProjectCodes(s, slot, mask);
      if (last < idx.rows_indexed) {
        auto bit = idx.buckets.find(moved_key);
        if (bit != idx.buckets.end()) {
          // Re-insert the moved row at its sort position instead of
          // patching in place: buckets stay sorted ascending, so a probe
          // emits slots in the order a full scan would. `last` is the
          // shard's final row, so its entry — when indexed — is the
          // bucket's back element.
          auto& rows = bit->second;
          auto lit = std::find(rows.begin(), rows.end(), last);
          if (lit != rows.end()) {
            rows.erase(lit);
            rows.insert(std::lower_bound(rows.begin(), rows.end(), slot),
                        slot);
          }
        }
      } else if (slot < idx.rows_indexed) {
        auto& rows = idx.buckets[moved_key];
        rows.insert(std::lower_bound(rows.begin(), rows.end(), slot), slot);
      }
    }
    idx.rows_indexed = std::min(idx.rows_indexed, s.counts.size());
  }
  --total_size_;
  ++version_;
}

uint32_t Relation::SupportCount(const Tuple& t) const {
  const std::optional<RowRef> row = Find(t);
  return row ? support(*row) : 0;
}

void Relation::AppendRowCodes(RowRef row, std::vector<uint32_t>* out) const {
  for (const auto& col : shards_[row.shard].cols) {
    out->push_back(col[row.slot]);
  }
}

Tuple Relation::DecodeCodes(const uint32_t* codes) const {
  Tuple out;
  out.reserve(dicts_.size());
  for (size_t c = 0; c < dicts_.size(); ++c) {
    out.push_back(dicts_[c].values[codes[c]]);
  }
  return out;
}

std::optional<Tuple> Relation::ReplaceFunctional(const Tuple& t) {
  Tuple keys(t.begin(), t.end() - 1);
  // The FD keys are the shard key, so the displaced tuple (same keys)
  // lives in the same shard the replacement inserts into.
  Tuple scratch;
  const Tuple* existing = LookupByKeys(keys, &scratch);
  std::optional<Tuple> displaced;
  if (existing) {
    displaced = *existing;
    if (*displaced == t) return std::nullopt;  // no change
    Erase(*displaced);
  }
  Insert(t);
  return displaced;
}

bool Relation::Contains(const Tuple& t) const { return Find(t).has_value(); }

const Tuple* Relation::LookupByKeys(const Tuple& keys, Tuple* scratch) const {
  // `keys` is exactly the shard-key projection of the row it names.
  const Shard& s =
      shards_.size() == 1
          ? shards_[0]
          : shards_[MixShardHash(HashValues(keys, ~0u)) % shards_.size()];
  thread_local CodeKey ck;
  EncodeLookup(keys, &ck);
  if (std::find(ck.begin(), ck.end(), kNoCode) != ck.end()) return nullptr;
  const uint32_t slot = s.fd_index_.Find(
      s.cols, ck.size(), HashCodes(ck.data(), ck.size()), ck.data());
  if (slot == SlotTable::kNone) return nullptr;
  scratch->clear();
  scratch->reserve(s.cols.size());
  for (size_t c = 0; c < s.cols.size(); ++c) {
    scratch->push_back(dicts_[c].values[s.cols[c][slot]]);
  }
  return scratch;
}

Tuple Relation::MaterializeTuple(size_t shard, size_t slot) const {
  const Shard& s = shards_[shard];
  Tuple out;
  out.reserve(s.cols.size());
  for (size_t c = 0; c < s.cols.size(); ++c) {
    out.push_back(dicts_[c].values[s.cols[c][slot]]);
  }
  return out;
}

std::vector<Tuple> Relation::AllTuples() const {
  std::vector<Tuple> out;
  out.reserve(total_size_);
  for (size_t sh = 0; sh < shards_.size(); ++sh) {
    const size_t rows = shards_[sh].counts.size();
    for (size_t r = 0; r < rows; ++r) out.push_back(MaterializeTuple(sh, r));
  }
  return out;
}

std::optional<uint32_t> Relation::CodeOf(size_t col,
                                         const datalog::Value& v) const {
  const ColumnDict& d = dicts_[col];
  auto it = d.codes.find(v);
  if (it == d.codes.end()) return std::nullopt;
  return it->second;
}

bool Relation::EncodeTuple(const Tuple& t, std::vector<uint32_t>* out) const {
  const size_t base = out->size();
  for (size_t i = 0; i < t.size(); ++i) {
    const ColumnDict& d = dicts_[i];
    auto it = d.codes.find(t[i]);
    if (it == d.codes.end()) {
      out->resize(base);
      return false;
    }
    out->push_back(it->second);
  }
  return true;
}

Relation::CodeKey Relation::ProjectCodes(const Shard& s, size_t slot,
                                         uint32_t mask) {
  CodeKey out;
  for (size_t i = 0; i < s.cols.size() && i < 32; ++i) {
    if (mask & (1u << i)) out.push_back(s.cols[i][slot]);
  }
  return out;
}

void Relation::EnsureShardIndex(Shard& shard, uint32_t mask) {
  if (WholeTuple(mask)) return;  // the set index answers it
  SecondaryIndex& idx = shard.secondary_[mask];
  if (idx.built_at_version == version_) return;
  const size_t rows = shard.counts.size();
  // Erases are patched in place, so only the appended tail is missing.
  if (idx.rows_indexed == 0 && rows != 0) {
    ++index_builds_;
    idx.buckets.reserve(rows);
  }
  for (size_t i = idx.rows_indexed; i < rows; ++i) {
    idx.buckets[ProjectCodes(shard, i, mask)].push_back(i);
  }
  idx.rows_indexed = rows;
  idx.built_at_version = version_;
}

void Relation::EnsureIndex(uint32_t mask) {
  for (Shard& s : shards_) EnsureShardIndex(s, mask);
}

const std::vector<size_t>& Relation::ProbeShard(size_t shard, uint32_t mask,
                                                const Tuple& key) {
  static const std::vector<size_t> kEmpty;
  Shard& s = shards_[shard];
  // Encode the probe key through the column dictionaries. A value absent
  // from its column's dictionary proves no row matches — answered here,
  // before any index is consulted or built (the selective-filter fast
  // negative). Pure dictionary reads, safe under concurrent probing.
  thread_local CodeKey ck;  // per-thread: workers probe concurrently
  ck.clear();
  size_t ki = 0;
  for (size_t i = 0; i < 32 && ki < key.size(); ++i) {
    if (!(mask & (1u << i))) continue;
    auto code = CodeOf(i, key[ki++]);
    if (!code) return kEmpty;
    ck.push_back(*code);
  }
  if (WholeTuple(mask)) {
    // A membership test: the shard's set index holds the one possible
    // row, so no secondary index duplicates it (per-thread result, see
    // the reference-stability contract).
    const uint32_t slot = s.index_.Find(
        s.cols, ck.size(), HashCodes(ck.data(), ck.size()), ck.data());
    if (slot == SlotTable::kNone) return kEmpty;
    thread_local std::vector<size_t> one(1);
    one[0] = slot;
    return one;
  }
  auto sit = s.secondary_.find(mask);
  if (sit == s.secondary_.end() ||
      sit->second.built_at_version != version_) {
    EnsureShardIndex(s, mask);  // single-threaded phases only
    sit = s.secondary_.find(mask);
  }
  const SecondaryIndex& idx = sit->second;
  auto it = idx.buckets.find(ck);
  return it == idx.buckets.end() ? kEmpty : it->second;
}

size_t Relation::RowValueHash(size_t shard, size_t slot, uint32_t mask) const {
  // HashValues over the row's decoded values, read in place.
  size_t h = 0x811C9DC5;
  for (size_t i = 0; i < dicts_.size() && i < 32; ++i) {
    if (mask & (1u << i)) {
      h ^= At(shard, slot, i).Hash() + 0x9E3779B9 + (h << 6) + (h >> 2);
    }
  }
  return h;
}

void Relation::StatsInsert(size_t shard, size_t slot) {
  for (auto& [mask, stat] : key_stats_) {
    ++stat.counts[RowValueHash(shard, slot, mask)];
  }
}

void Relation::StatsErase(size_t shard, size_t slot) {
  for (auto& [mask, stat] : key_stats_) {
    auto it = stat.counts.find(RowValueHash(shard, slot, mask));
    if (it == stat.counts.end()) continue;  // collision-safety: never go negative
    if (--it->second == 0) stat.counts.erase(it);
  }
}

void Relation::EnsureKeyStat(uint32_t mask) {
  // A single bound column is covered exactly by that column's dictionary
  // live count — no hashed statistic to maintain.
  if (SingleColumnMask(mask) && MaskColumn(mask) < dicts_.size()) return;
  if (WholeTuple(mask) || key_stats_.count(mask)) return;
  KeyStat& stat = key_stats_[mask];
  stat.counts.reserve(total_size_);
  // Seed with the same value hash StatsInsert/StatsErase maintain.
  for (size_t sh = 0; sh < shards_.size(); ++sh) {
    const size_t rows = shards_[sh].counts.size();
    for (size_t r = 0; r < rows; ++r) ++stat.counts[RowValueHash(sh, r, mask)];
  }
}

std::optional<size_t> Relation::DistinctKeys(uint32_t mask) const {
  if (SingleColumnMask(mask)) {
    const size_t col = MaskColumn(mask);
    if (col < dicts_.size()) return dicts_[col].live;
  }
  if (WholeTuple(mask)) return total_size_;  // every row is distinct
  auto it = key_stats_.find(mask);
  if (it == key_stats_.end()) return std::nullopt;
  return it->second.counts.size();
}

double Relation::EstimateMatches(uint32_t mask) const {
  if (mask == 0 || total_size_ == 0) {
    return static_cast<double>(total_size_);
  }
  auto distinct = DistinctKeys(mask);
  if (!distinct || *distinct == 0) {
    return static_cast<double>(total_size_);
  }
  return static_cast<double>(total_size_) / static_cast<double>(*distinct);
}

EstimateSource Relation::EstimateSourceFor(uint32_t mask) const {
  if (mask == 0 || total_size_ == 0) return EstimateSource::kSize;
  if (SingleColumnMask(mask) && MaskColumn(mask) < dicts_.size()) {
    return EstimateSource::kDict;
  }
  if (WholeTuple(mask)) return EstimateSource::kStat;
  auto it = key_stats_.find(mask);
  if (it == key_stats_.end() || it->second.counts.empty()) {
    return EstimateSource::kSize;
  }
  return EstimateSource::kStat;
}

Relation::MemoryFootprint Relation::Memory() const {
  // Capacity-based approximation, O(containers) not O(rows): dictionary
  // values are counted at sizeof(Value) (string heap excluded) and bucket
  // vectors at one size_t per indexed row. Good enough for the relative
  // comparisons the EngineStats gauges exist for.
  MemoryFootprint m;
  for (const ColumnDict& d : dicts_) {
    m.dict_bytes += d.values.capacity() * sizeof(datalog::Value);
    m.dict_bytes += d.refs.capacity() * sizeof(uint32_t);
    m.dict_bytes += MapBytes(d.codes.bucket_count(), d.codes.size(),
                             sizeof(datalog::Value) + sizeof(uint32_t));
  }
  for (const Shard& s : shards_) {
    for (const auto& col : s.cols) {
      m.column_bytes += col.capacity() * sizeof(uint32_t);
    }
    m.column_bytes += s.counts.capacity() * sizeof(uint32_t);
    m.index_bytes += s.index_.bytes() + s.fd_index_.bytes();
    for (const auto& [mask, idx] : s.secondary_) {
      const size_t key_cols =
          static_cast<size_t>(__builtin_popcount(mask));
      m.index_bytes +=
          MapBytes(idx.buckets.bucket_count(), idx.buckets.size(),
                   sizeof(std::vector<size_t>) + key_cols * sizeof(uint32_t));
      m.index_bytes += idx.rows_indexed * sizeof(size_t);
    }
  }
  return m;
}

const std::vector<size_t>& Relation::Probe(uint32_t mask, const Tuple& key) {
  int only = ProbeShardOf(mask, key);
  probe_scratch_.clear();
  const size_t n = shards_.size();
  size_t begin = only >= 0 ? static_cast<size_t>(only) : 0;
  size_t end = only >= 0 ? static_cast<size_t>(only) + 1 : n;
  for (size_t sh = begin; sh < end; ++sh) {
    for (size_t slot : ProbeShard(sh, mask, key)) {
      probe_scratch_.push_back(slot * n + sh);
    }
  }
  return probe_scratch_;
}

}  // namespace secureblox::engine
