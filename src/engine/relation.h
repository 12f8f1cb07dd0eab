// Relation storage: hash-partitioned shards of dictionary-encoded column
// segments.
//
// Each shard stores its rows as append-ordered column segments, one
// dictionary-encoded column per attribute. A relation-level dictionary per
// column maps each distinct Value to a dense u32 code (codes are
// append-only and never reused; live-row refcounts track exact per-column
// distinct counts), and each shard keeps one contiguous code vector per
// column. All indexes key on code vectors, so probes hash and compare u32
// codes instead of values, and a probe value missing from a column's
// dictionary answers the probe (empty) before any shard or index is
// touched. Row-at-a-time consumers read through the accessor layer (At /
// MaterializeTuple / AllTuples / row), which decodes on demand.
//
// Sharding (scale-out seam): every tuple lives in exactly one shard,
// chosen by a hash of the declared *shard-key columns* — the functional-
// dependency key columns for functional predicates, the first column
// otherwise (the join key in the paper's hash-join tables and path-vector
// route sets). The shard hash is computed from the tuple's values, never
// its codes. A probe whose bound-column mask covers the shard key touches
// exactly one shard; unbound scans iterate shards in ascending order.
// Shard count is fixed per relation at construction
// (FixpointOptions::shards / SB_SHARDS); 1 shard reproduces the unsharded
// layout exactly. Because set membership, support counts, and FD slots are
// per-tuple properties, the logical content of a relation is independent
// of the shard count — only storage order changes.
//
// Each row additionally carries a derivation-support count used by the
// counting-based incremental deletion path — the number of rule
// instantiations currently deriving the tuple — and a base bit, set while
// the tuple is asserted as a base fact. Aggregate outputs keep a count of
// zero; their liveness is recompute-managed.
//
// Row identity: each shard keeps two slot tables — the set index (every
// column) and, for functional predicates, the FD index (the key columns)
// — open-addressing arrays of slots keyed by the codes the column
// segments hold at each slot, so no row owns a key copy. Mutation paths
// locate a row once and then act on its RowRef; a RowRef is valid only
// until the next mutation, because swap-remove erasure moves rows.
//
// Concurrency contract (parallel fixpoint): all mutations are
// single-threaded. Concurrent Probe() calls are safe only for masks whose
// index is current (EnsureIndex pre-warms every shard before a parallel
// phase); a current index makes Probe a pure read. Dictionary lookups
// (CodeOf, ProbeShard's internal key encoding) are pure reads of maps that
// only mutations grow, so they share the same contract.
//
// Reference-stability contract: ProbeShard() returns a reference to a
// bucket vector inside one shard's secondary index. The reference (and
// iterators into it) stays valid across further ProbeShard()/Probe()/
// EnsureIndex() calls while the relation's version() is unchanged — those
// are pure reads on an up-to-date index — and across index builds for
// *other* masks or *other* shards (bucket maps are node-based, so foreign
// inserts never move this mask's vectors). Any mutation (Insert,
// InsertCodes, Erase, EraseRow, ReplaceFunctional) or an EnsureIndex
// that catches an index up to a newer version may reallocate buckets and
// invalidates it. The
// executor relies on exactly the safe window: a rule body holds probe
// results across nested probes of the same enumeration, and the fixpoint
// drivers never mutate relations while an enumeration runs (derived heads
// are buffered and applied between runs). A whole-tuple probe (a mask that
// binds every column) is a membership test answered from the shard's set
// index instead: its result — at most one slot — lives in a per-thread
// buffer that stays valid only until the calling thread's next
// ProbeShard() call on any relation; the executor uses each probe result
// up (copies the slots it keeps) before it probes again. Probe() — the
// flat convenience used by tests and debug paths — additionally gathers
// matches across shards into an internal scratch buffer, so its reference
// is only valid until the *next* Probe() call on this relation; do not
// use it where nested probes of the same relation can occur.
#ifndef SECUREBLOX_ENGINE_RELATION_H_
#define SECUREBLOX_ENGINE_RELATION_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "datalog/catalog.h"
#include "engine/tuple.h"

namespace secureblox::engine {

/// Result of an insertion attempt.
enum class InsertOutcome {
  kInserted,     // new tuple
  kDuplicate,    // already present (set semantics)
  kFdConflict,   // functional dependency violated (same keys, other value)
};

/// A stored row: its shard and shard-local slot. Valid only until the
/// relation's next mutation — swap-remove erasure moves rows — so a
/// handle is used inside one mutation and never kept.
struct RowRef {
  uint32_t shard = 0;
  uint32_t slot = 0;
};

/// An insertion's outcome and the row it concerns: the new row
/// (kInserted), the stored copy (kDuplicate), or the row holding the keys
/// (kFdConflict).
struct InsertResult {
  InsertOutcome outcome = InsertOutcome::kInserted;
  RowRef row;
};

/// Where a cardinality estimate for a bound-column mask comes from
/// (SB_EXPLAIN surfaces this per plan step).
enum class EstimateSource : uint8_t {
  kSize = 0,  // no usable statistic: the full relation size
  kDict,      // exact per-column distinct count from a column dictionary
  kStat,      // content-hashed distinct-key statistic (EnsureKeyStat)
};

/// Columns that route a tuple of `decl` to its shard (bit i = column i): a
/// functional predicate's key columns, otherwise the first column. Static
/// per declaration, so probe strategies fixed from it are identical at
/// every shard count.
uint32_t ShardKeyMask(const datalog::PredicateDecl& decl);

/// Hash of a key of `n` dictionary codes: the key hash of the slot tables.
uint32_t HashCodes(const uint32_t* codes, size_t n);

class Relation {
 public:
  /// Approximate heap bytes by storage component, from container
  /// capacities (string payloads excluded — the estimate is for relative
  /// comparisons, not an allocator audit).
  struct MemoryFootprint {
    size_t dict_bytes = 0;    // dictionaries: values, code maps, refcounts
    size_t column_bytes = 0;  // code columns + support counts
    size_t index_bytes = 0;   // full-tuple/FD indexes + secondary buckets
  };

  /// `shards` is clamped to >= 1 and fixed for the relation's lifetime
  /// (re-hashing live data across a shard-count change is not supported).
  explicit Relation(const datalog::PredicateDecl* decl, size_t shards = 1);

  const datalog::PredicateDecl& decl() const { return *decl_; }

  /// Insert with set semantics and FD checking: one encode and one probe
  /// of each slot table. A new row starts with support 0, not base.
  InsertResult Insert(const Tuple& t);

  /// Remove a tuple; returns true if it was present.
  bool Erase(const Tuple& t);

  /// Remove the row at `row`. Built secondary indexes are patched in
  /// place (swap-remove aware, shard-local), never invalidated; the
  /// shard's last row moves into the freed slot and its slot-table
  /// entries are re-pointed.
  void EraseRow(RowRef row);

  /// The row holding `t`, for a mutation path: the encode counts in
  /// mutation_encodes(). Single-threaded, like all mutations.
  std::optional<RowRef> Locate(const Tuple& t);
  /// The row holding `t`, or nullopt. A pure read (no counter).
  std::optional<RowRef> Find(const Tuple& t) const;

  /// For functional predicates: replace any existing tuple with the same
  /// keys. Returns the displaced tuple if one existed.
  /// (Used by lattice aggregates, which monotonically improve values.)
  std::optional<Tuple> ReplaceFunctional(const Tuple& t);

  bool Contains(const Tuple& t) const;

  /// Functional lookup: full tuple for `keys` (arity-1 values) or nullptr.
  /// The keys determine the shard, so this is a single-shard probe. The
  /// row is materialized into `*scratch` and the result points there —
  /// pass a reusable buffer on hot paths.
  const Tuple* LookupByKeys(const Tuple& keys, Tuple* scratch) const;

  size_t size() const { return total_size_; }
  bool empty() const { return total_size_ == 0; }

  // -- sharded access --------------------------------------------------------

  size_t shard_count() const { return shards_.size(); }
  /// Shard owning `t` (hash of the shard-key columns' values).
  size_t ShardOf(const Tuple& t) const;
  /// Rows in one shard. Slots are in shard-local insertion order (stable
  /// except for swap-remove erasure); full scans iterate shards in order.
  size_t shard_size(size_t shard) const {
    return shards_[shard].counts.size();
  }
  /// One column's value at (shard, slot): a reference into the column
  /// dictionary (stable: dictionaries are append-only).
  const datalog::Value& At(size_t shard, size_t slot, size_t col) const {
    return dicts_[col].values[shards_[shard].cols[col][slot]];
  }
  /// Materialized copy of the row at (shard, slot).
  Tuple MaterializeTuple(size_t shard, size_t slot) const;
  /// Materialized copy of every tuple, shard-by-shard (snapshots, reseeds).
  std::vector<Tuple> AllTuples() const;

  // -- code access -----------------------------------------------------------

  /// Dense dictionary code of `v` in column `col`, or nullopt when the
  /// value was never inserted there — a miss proves no row matches on that
  /// column, the executor's selective-filter fast path. Codes outlive
  /// erasure (they are never reused), so a hit does not imply a live row.
  std::optional<uint32_t> CodeOf(size_t col, const datalog::Value& v) const;
  /// One shard's contiguous code vector for `col` (parallel to slots).
  const std::vector<uint32_t>& shard_codes(size_t shard, size_t col) const {
    return shards_[shard].cols[col];
  }
  /// The value a column code decodes to (reference into the dictionary).
  const datalog::Value& Decode(size_t col, uint32_t code) const {
    return dicts_[col].values[code];
  }
  /// Exact number of distinct values currently live in `col`.
  size_t ColumnDistinct(size_t col) const { return dicts_[col].live; }

  /// Append the codes of the row at `row` (one per column) to `out`.
  void AppendRowCodes(RowRef row, std::vector<uint32_t>* out) const;
  /// The row of `shard` whose codes equal `codes` (arity codes, as
  /// AppendRowCodes wrote them), or nullopt: a probe with no encode.
  std::optional<RowRef> FindCodes(size_t shard, const uint32_t* codes) const;
  /// Insert a row of codes this relation has assigned (Insert's path for
  /// known values, and rollback's restore of an erased row). Codes are
  /// never reclaimed, so nothing is encoded; `shard` must be the shard
  /// the row's values hash to.
  InsertResult InsertCodes(size_t shard, const uint32_t* codes);
  /// The tuple `codes` (arity codes) decode to.
  Tuple DecodeCodes(const uint32_t* codes) const;

  /// Append the dictionary code of each of `t`'s values to `out`. Returns
  /// false — leaving `out` as it was passed in — when any value is absent
  /// from its column's dictionary: such a tuple cannot be stored in this
  /// relation, the executor's exclude-set fast negative.
  bool EncodeTuple(const Tuple& t, std::vector<uint32_t>* out) const;

  // -- derivation support and base bit (counting-based deletion) -------------

  /// Current support of `t`; 0 when absent or purely base.
  uint32_t SupportCount(const Tuple& t) const;
  /// Support of the row at `row` (at most 2^31 - 1).
  uint32_t support(RowRef row) const {
    return shards_[row.shard].counts[row.slot] & ~kBaseBit;
  }
  /// Add one derivation support. Returns the new count.
  uint32_t AddSupport(RowRef row) {
    return ++shards_[row.shard].counts[row.slot] & ~kBaseBit;
  }
  /// Overwrite the support of the row, keeping its base bit.
  void SetSupport(RowRef row, uint32_t count) {
    uint32_t& c = shards_[row.shard].counts[row.slot];
    c = (c & kBaseBit) | (count & ~kBaseBit);
  }
  /// Whether the row is asserted as a base fact.
  bool is_base(RowRef row) const {
    return (shards_[row.shard].counts[row.slot] & kBaseBit) != 0;
  }
  void SetBase(RowRef row, bool base) {
    uint32_t& c = shards_[row.shard].counts[row.slot];
    c = base ? (c | kBaseBit) : (c & ~kBaseBit);
  }
  /// Support and base bit as one word (undo logging saves and restores
  /// both with it).
  uint32_t row_state(RowRef row) const {
    return shards_[row.shard].counts[row.slot];
  }
  void set_row_state(RowRef row, uint32_t state) {
    shards_[row.shard].counts[row.slot] = state;
  }

  /// Monotonically increasing change counter (secondary index freshness).
  uint64_t version() const { return version_; }

  // -- online statistics (cost-based planning) -------------------------------

  /// Start tracking distinct-key statistics for `mask` (no-op when already
  /// tracked): seeds a counting map with one scan, after which Insert and
  /// Erase maintain it incrementally — and symmetrically, so heavy
  /// retraction never leaves inflated cardinalities behind. Counting is by
  /// hash of the projected values (content-based), so the statistics are
  /// independent of shard count and insertion order — the property the
  /// planner's determinism rests on. A single-column mask is already
  /// covered exactly by the column dictionary's live count, and a
  /// whole-tuple mask by size() (every row is distinct); neither is
  /// tracked. Single-threaded, like all mutations.
  void EnsureKeyStat(uint32_t mask);

  /// Distinct projections onto `mask` among the current rows: the exact
  /// dictionary live count for a single-column mask, size() for a
  /// whole-tuple mask, the hashed statistic for a tracked mask, nullopt
  /// otherwise.
  std::optional<size_t> DistinctKeys(uint32_t mask) const;

  /// Estimated rows matching one probe on `mask`: size()/distinct when a
  /// distinct count is available (dictionary or tracked stat), the full
  /// size for mask 0 or an untracked mask.
  double EstimateMatches(uint32_t mask) const;

  /// Which statistic EstimateMatches(mask) would draw on (SB_EXPLAIN).
  EstimateSource EstimateSourceFor(uint32_t mask) const;

  /// Approximate storage footprint by component (EngineStats gauges).
  MemoryFootprint Memory() const;

  // -- secondary-index probing -----------------------------------------------

  /// Shard a bound-column probe resolves to when `mask` covers every
  /// shard-key column (the key tuple holds the bound values in column
  /// order), or -1 when the probe must fan out over all shards.
  int ProbeShardOf(uint32_t mask, const Tuple& key) const;

  /// Rows of `shard` whose columns selected by `mask` (bit i = column i)
  /// equal `key`. Returns shard-local indices into the shard's rows;
  /// see the reference-stability contract in the file comment. The key
  /// values are encoded through the column dictionaries first, and any
  /// dictionary miss returns empty without touching the index. A
  /// whole-tuple mask reads the shard's set index (at most one slot).
  const std::vector<size_t>& ProbeShard(size_t shard, uint32_t mask,
                                        const Tuple& key);

  /// Flat probe across all shards: encoded row ids (decode with row()).
  /// Convenience for tests/debug only — the returned reference aliases an
  /// internal scratch buffer valid until the next Probe() call; hot paths
  /// use ProbeShard()/shard_codes() instead.
  const std::vector<size_t>& Probe(uint32_t mask, const Tuple& key);

  /// Decode a row id produced by Probe() into a materialized tuple. With
  /// one shard the id is the plain row index.
  Tuple row(size_t encoded) const {
    return MaterializeTuple(encoded % shards_.size(),
                            encoded / shards_.size());
  }

  /// Bring every shard's secondary index for `mask` up to the current
  /// version (indexing only the appended tail — erases are patched in
  /// place). Called single-threaded before a parallel phase probes `mask`.
  /// A whole-tuple mask needs none: the set index answers it.
  void EnsureIndex(uint32_t mask);

  /// Bucket-map (re)constructions for this relation: first builds plus any
  /// rebuild after an invalidation, counted per (shard, mask). With
  /// in-place erase maintenance this stays at one per (shard, mask,
  /// relation) — the EngineStats counter benches watch.
  uint64_t index_builds() const { return index_builds_; }

  /// Value-to-code encodes of whole tuples in the mutation entry points
  /// (Insert, Erase, Locate): one per call. The EngineStats counter
  /// benches read to pin encodes per inserted tuple.
  uint64_t mutation_encodes() const { return mutation_encodes_; }

 private:
  /// Row-state bit marking a base fact; the low 31 bits hold the support.
  static constexpr uint32_t kBaseBit = 1u << 31;

  /// Projected dictionary codes, the key of every secondary index.
  using CodeKey = std::vector<uint32_t>;
  struct CodeKeyHash {
    size_t operator()(const CodeKey& k) const {
      size_t h = 0x811C9DC5;
      for (uint32_t c : k) h ^= c + 0x9E3779B9 + (h << 6) + (h >> 2);
      return h;
    }
  };

  /// One column's relation-level dictionary. Codes are dense and
  /// append-only: a value keeps its code across erasure (refs drop to 0),
  /// so codes are comparable across shards and across time within one
  /// relation. `live` counts codes with refs > 0 — the exact distinct
  /// count the planner reads.
  struct ColumnDict {
    std::vector<datalog::Value> values;  // code -> value
    std::unordered_map<datalog::Value, uint32_t, datalog::ValueHash> codes;
    std::vector<uint32_t> refs;  // live rows per code
    size_t live = 0;
  };

  struct SecondaryIndex {
    uint64_t built_at_version = 0;
    /// Rows [0, rows_indexed) of the owning shard are in the buckets; a
    /// grow-only shard (the common case inside a fixpoint round) appends
    /// the tail instead of rebuilding.
    size_t rows_indexed = 0;
    /// Bucket entries are kept sorted ascending (builds append in row
    /// order, erase patching re-inserts at the sort position), so probes
    /// walk each shard's code columns in ascending slot order — forward in
    /// memory — and enumeration order is independent of erase history.
    std::unordered_map<CodeKey, std::vector<size_t>, CodeKeyHash> buckets;
  };

  /// Distinct-key statistics for one tracked mask: rows per projected-key
  /// hash. Relation-level (not per shard), so the counts do not depend on
  /// how keys distribute over shards.
  struct KeyStat {
    std::unordered_map<uint64_t, uint32_t> counts;
  };

  /// Open-addressing table of one shard's slots, keyed by the codes of
  /// each slot's first `width` columns as the column segments hold them:
  /// linear probing over a power-of-two array at most half full, and
  /// backward-shift deletion (no tombstones). An entry keeps its key's
  /// hash, so growth rehashes without reading the columns and a probe
  /// reads them only on a hash match.
  class SlotTable {
   public:
    static constexpr uint32_t kNone = 0xFFFFFFFFu;
    /// Slot whose first `width` codes equal `key`, or kNone.
    uint32_t Find(const std::vector<std::vector<uint32_t>>& cols,
                  size_t width, uint32_t hash, const uint32_t* key) const;
    /// Add `slot` (its key must be absent).
    void Insert(uint32_t hash, uint32_t slot);
    /// Remove `slot`, stored under `hash`.
    void Erase(uint32_t hash, uint32_t slot);
    /// Point the entry for `from`, stored under `hash`, at `to`.
    void Repoint(uint32_t hash, uint32_t from, uint32_t to);
    size_t bytes() const { return entries_.capacity() * sizeof(Entry); }

   private:
    struct Entry {
      uint32_t slot = kNone;
      uint32_t hash = 0;
    };
    /// Index of the entry holding `slot` under `hash`.
    size_t Position(uint32_t hash, uint32_t slot) const;
    std::vector<Entry> entries_;  // empty until the first insert
    size_t size_ = 0;
  };

  /// One hash partition: the pre-shard Relation layout in miniature. All
  /// slot values (indexes, secondary buckets) are shard-local.
  struct Shard {
    std::vector<std::vector<uint32_t>> cols;  // [column][slot] -> code
    std::vector<uint32_t> counts;  // parallel to rows: support | kBaseBit
    SlotTable index_;     // every column -> slot
    SlotTable fd_index_;  // functional: key columns -> slot
    std::unordered_map<uint32_t, SecondaryIndex> secondary_;
  };

  static CodeKey ProjectCodes(const Shard& s, size_t slot, uint32_t mask);
  /// True when `mask` binds every column (a membership test).
  bool WholeTuple(uint32_t mask) const {
    return whole_mask_ != 0 && mask == whole_mask_;
  }
  /// Hash of the shard-key columns of a full tuple.
  size_t ShardKeyHash(const Tuple& t) const;
  /// Shard for a probe key (bound values in column order) — only valid
  /// when the probe mask covers shard_key_mask_.
  size_t ShardOfProbeKey(uint32_t mask, const Tuple& key) const;
  void EnsureShardIndex(Shard& shard, uint32_t mask);
  /// Lookup-only full-tuple encoding: out[i] = code of t[i], or kNoCode
  /// for a value absent from column i's dictionary.
  void EncodeLookup(const Tuple& t, CodeKey* out) const;
  /// Columns in the FD index key (functional predicates only).
  size_t fd_width() const { return dicts_.empty() ? 0 : dicts_.size() - 1; }
  /// Slot of `shard` whose FD key equals the first fd_width() `codes`, or
  /// SlotTable::kNone.
  uint32_t FdOccupant(size_t shard, const uint32_t* codes) const;
  /// Append a row of known codes to shard `sh`: takes a live reference on
  /// every code and enters the row in the slot tables. `hash` is the
  /// set-index hash of `codes`.
  RowRef AppendRow(size_t sh, const uint32_t* codes, uint32_t hash);
  /// HashValues(row, mask) of the row at (shard, slot): the content hash
  /// KeyStat counts by.
  size_t RowValueHash(size_t shard, size_t slot, uint32_t mask) const;
  /// Maintain every tracked KeyStat for the row at (shard, slot), just
  /// inserted / about to be erased.
  void StatsInsert(size_t shard, size_t slot);
  void StatsErase(size_t shard, size_t slot);

  const datalog::PredicateDecl* decl_;
  /// Bit i set = column i participates in the shard key.
  uint32_t shard_key_mask_ = 0;
  /// Every column's bit (0 for arity 0 or above 32: no mask covers it).
  uint32_t whole_mask_ = 0;
  std::vector<Shard> shards_;
  /// Per-column dictionaries. Relation-level — not per shard — so codes
  /// are shard-comparable and the live counts feeding planner estimates
  /// are independent of SB_SHARDS.
  std::vector<ColumnDict> dicts_;
  size_t total_size_ = 0;
  uint64_t version_ = 1;
  uint64_t index_builds_ = 0;
  uint64_t mutation_encodes_ = 0;
  /// Tracked distinct-key statistics by mask (EnsureKeyStat).
  std::unordered_map<uint32_t, KeyStat> key_stats_;
  /// Probe() gather buffer (see reference-stability contract).
  std::vector<size_t> probe_scratch_;
};

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_RELATION_H_
