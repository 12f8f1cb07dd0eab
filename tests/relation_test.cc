// Relation storage: set semantics, functional dependencies, erasure,
// replacement, secondary-index probing, hash-partitioned shards (logical
// content and point lookups are shard-count invariant), and the
// dictionary-encoded column segments checked against a map model.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/relation.h"

namespace secureblox::engine {
namespace {

using datalog::PredicateDecl;
using datalog::Value;

PredicateDecl MakeDecl(size_t arity, bool functional) {
  PredicateDecl d;
  d.name = "t";
  d.arg_types.assign(arity, 0);
  d.functional = functional;
  return d;
}

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value::Int(v));
  return t;
}

// LookupByKeys materializes into caller-provided space; these tests just
// want the pointer.
const Tuple* Lookup(const Relation& r, const Tuple& keys) {
  static Tuple scratch;
  return r.LookupByKeys(keys, &scratch);
}

TEST(RelationTest, InsertAndDuplicate) {
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  EXPECT_EQ(r.Insert(T({1, 2})), InsertOutcome::kInserted);
  EXPECT_EQ(r.Insert(T({1, 2})), InsertOutcome::kDuplicate);
  EXPECT_EQ(r.Insert(T({1, 3})), InsertOutcome::kInserted);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T({1, 2})));
  EXPECT_FALSE(r.Contains(T({9, 9})));
}

TEST(RelationTest, FunctionalDependency) {
  PredicateDecl decl = MakeDecl(2, true);
  Relation r(&decl);
  EXPECT_EQ(r.Insert(T({1, 10})), InsertOutcome::kInserted);
  EXPECT_EQ(r.Insert(T({1, 10})), InsertOutcome::kDuplicate);
  EXPECT_EQ(r.Insert(T({1, 20})), InsertOutcome::kFdConflict);
  EXPECT_EQ(r.Insert(T({2, 20})), InsertOutcome::kInserted);
  const Tuple* found = Lookup(r, T({1}));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->back().AsInt(), 10);
  EXPECT_EQ(Lookup(r, T({3})), nullptr);
}

TEST(RelationTest, EraseMaintainsIndexes) {
  PredicateDecl decl = MakeDecl(2, true);
  Relation r(&decl);
  for (int64_t i = 0; i < 10; ++i) r.Insert(T({i, i * 10}));
  EXPECT_TRUE(r.Erase(T({4, 40})));
  EXPECT_FALSE(r.Erase(T({4, 40})));
  EXPECT_EQ(r.size(), 9u);
  EXPECT_FALSE(r.Contains(T({4, 40})));
  EXPECT_EQ(Lookup(r, T({4})), nullptr);
  // The swap-removed last element is still reachable.
  EXPECT_TRUE(r.Contains(T({9, 90})));
  ASSERT_NE(Lookup(r, T({9})), nullptr);
  // Reinsert after erase works (FD slot freed).
  EXPECT_EQ(r.Insert(T({4, 44})), InsertOutcome::kInserted);
}

TEST(RelationTest, ReplaceFunctional) {
  PredicateDecl decl = MakeDecl(2, true);
  Relation r(&decl);
  r.Insert(T({1, 10}));
  auto displaced = r.ReplaceFunctional(T({1, 5}));
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->back().AsInt(), 10);
  EXPECT_EQ(Lookup(r, T({1}))->back().AsInt(), 5);
  // Replacing with the same value is a no-op.
  EXPECT_FALSE(r.ReplaceFunctional(T({1, 5})).has_value());
  // Replacing a fresh key inserts.
  EXPECT_FALSE(r.ReplaceFunctional(T({2, 7})).has_value());
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, SecondaryIndexProbe) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl);
  for (int64_t i = 0; i < 100; ++i) r.Insert(T({i % 5, i, i % 3}));
  // Probe on column 0.
  const auto& rows = r.Probe(0b001, T({2}));
  EXPECT_EQ(rows.size(), 20u);
  for (size_t row : rows) EXPECT_EQ(r.row(row)[0].AsInt(), 2);
  // Probe on columns 0 and 2.
  const auto& rows2 = r.Probe(0b101, T({2, 1}));
  for (size_t row : rows2) {
    EXPECT_EQ(r.row(row)[0].AsInt(), 2);
    EXPECT_EQ(r.row(row)[2].AsInt(), 1);
  }
  // Missing key: empty result.
  EXPECT_TRUE(r.Probe(0b001, T({77})).empty());
}

TEST(RelationTest, ProbeRebuildsAfterMutation) {
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  r.Insert(T({1, 1}));
  EXPECT_EQ(r.Probe(0b01, T({1})).size(), 1u);
  uint64_t v1 = r.version();
  r.Insert(T({1, 2}));
  EXPECT_GT(r.version(), v1);
  EXPECT_EQ(r.Probe(0b01, T({1})).size(), 2u);
  r.Erase(T({1, 1}));
  EXPECT_EQ(r.Probe(0b01, T({1})).size(), 1u);
}

TEST(RelationTest, ProbeStaysCorrectAcrossGrowthAndErasure) {
  // Grow-only growth appends to the secondary index; erasure (swap-remove
  // shifts row ids) forces a rebuild. Interleave both and re-verify.
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  for (int64_t i = 0; i < 10; ++i) r.Insert(T({i % 2, i}));
  EXPECT_EQ(r.Probe(0b01, T({0})).size(), 5u);
  // Grow after the index was built: the appended rows must be visible.
  for (int64_t i = 10; i < 20; ++i) r.Insert(T({i % 2, i}));
  EXPECT_EQ(r.Probe(0b01, T({0})).size(), 10u);
  // Erase invalidates row ids: results must still be exact.
  r.Erase(T({0, 0}));
  r.Erase(T({1, 19}));
  const auto& rows = r.Probe(0b01, T({0}));
  EXPECT_EQ(rows.size(), 9u);
  for (size_t row : rows) EXPECT_EQ(r.row(row)[0].AsInt(), 0);
  // And grow again after the rebuild.
  r.Insert(T({0, 100}));
  EXPECT_EQ(r.Probe(0b01, T({0})).size(), 10u);
}

TEST(RelationTest, SupportCountsTrackTuples) {
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  EXPECT_EQ(r.SupportCount(T({1, 2})), 0u);  // absent
  r.Insert(T({1, 2}));
  EXPECT_EQ(r.SupportCount(T({1, 2})), 0u);  // present, uncounted
  EXPECT_EQ(r.AddSupport(T({1, 2})), 1u);
  EXPECT_EQ(r.AddSupport(T({1, 2})), 2u);
  EXPECT_EQ(r.AddSupport(T({9, 9})), 0u);  // absent: no-op
  r.SetSupport(T({1, 2}), 7u);
  EXPECT_EQ(r.SupportCount(T({1, 2})), 7u);
  r.Erase(T({1, 2}));
  EXPECT_EQ(r.SupportCount(T({1, 2})), 0u);
}

TEST(RelationTest, SupportCountsSurviveSwapRemove) {
  // Erasing a middle row swap-removes the last one into its slot; the
  // moved row's support must move with it.
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl);
  for (int64_t i = 0; i < 8; ++i) {
    r.Insert(T({i, i + 100}));
    for (int64_t j = 0; j <= i; ++j) r.AddSupport(T({i, i + 100}));
  }
  r.Erase(T({2, 102}));
  r.Erase(T({5, 105}));
  for (int64_t i = 0; i < 8; ++i) {
    if (i == 2 || i == 5) {
      EXPECT_EQ(r.SupportCount(T({i, i + 100})), 0u);
    } else {
      EXPECT_EQ(r.SupportCount(T({i, i + 100})),
                static_cast<uint32_t>(i + 1));
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded storage: logical content is shard-count invariant.
// ---------------------------------------------------------------------------

std::multiset<std::string> Contents(const Relation& r) {
  std::multiset<std::string> out;
  for (size_t sh = 0; sh < r.shard_count(); ++sh) {
    for (size_t slot = 0; slot < r.shard_size(sh); ++slot) {
      Tuple t = r.MaterializeTuple(sh, slot);
      std::string line;
      for (const Value& v : t) line += v.ToString() + ",";
      line += "#" + std::to_string(r.SupportCount(t));
      out.insert(std::move(line));
    }
  }
  return out;
}

TEST(ShardedRelationTest, ContentIdenticalAcrossShardCounts) {
  PredicateDecl decl = MakeDecl(3, false);
  auto fill = [&](Relation* r) {
    for (int64_t i = 0; i < 200; ++i) {
      r->Insert(T({i % 11, i, i % 3}));
      if (i % 4 == 0) r->AddSupport(T({i % 11, i, i % 3}));
    }
    for (int64_t i = 0; i < 200; i += 5) r->Erase(T({i % 11, i, i % 3}));
  };
  Relation base(&decl, 1);
  fill(&base);
  for (size_t shards : {size_t{4}, size_t{7}}) {
    Relation r(&decl, shards);
    EXPECT_EQ(r.shard_count(), shards);
    fill(&r);
    EXPECT_EQ(r.size(), base.size());
    EXPECT_EQ(Contents(r), Contents(base)) << "shards=" << shards;
    // Point lookups agree with the unsharded layout.
    for (int64_t i = 0; i < 200; ++i) {
      EXPECT_EQ(r.Contains(T({i % 11, i, i % 3})),
                base.Contains(T({i % 11, i, i % 3})));
    }
  }
}

TEST(ShardedRelationTest, BoundKeyProbeTouchesExactlyOneShard) {
  // Non-functional: the shard key is the first column, so a probe binding
  // column 0 resolves to one shard; probes missing it fan out.
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 4);
  for (int64_t i = 0; i < 100; ++i) r.Insert(T({i % 5, i, i % 3}));
  for (int64_t k = 0; k < 5; ++k) {
    int shard = r.ProbeShardOf(0b001, T({k}));
    ASSERT_GE(shard, 0);
    EXPECT_EQ(static_cast<size_t>(shard), r.ShardOf(T({k, 0, 0})));
    // All matches live in that one shard.
    const auto& rows = r.ProbeShard(static_cast<size_t>(shard), 0b001,
                                    T({k}));
    EXPECT_EQ(rows.size(), 20u);
    for (size_t slot : rows) {
      EXPECT_EQ(r.At(static_cast<size_t>(shard), slot, 0).AsInt(), k);
    }
  }
  // Column 1 alone does not cover the shard key: fan-out.
  EXPECT_EQ(r.ProbeShardOf(0b010, T({42})), -1);
  // The flat convenience probe gathers across shards; encoded ids decode.
  const auto& rows = r.Probe(0b010, T({42}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(r.row(rows[0])[1].AsInt(), 42);
}

TEST(ShardedRelationTest, FunctionalShardsByKeysAndReplaces) {
  PredicateDecl decl = MakeDecl(3, true);  // keys = columns 0..1
  Relation r(&decl, 7);
  for (int64_t i = 0; i < 60; ++i) r.Insert(T({i, i % 4, i * 10}));
  // LookupByKeys is a single-shard probe and agrees with Contains.
  for (int64_t i = 0; i < 60; ++i) {
    const Tuple* row = Lookup(r, T({i, i % 4}));
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->back().AsInt(), i * 10);
  }
  // FD conflicts are detected across the sharded layout.
  EXPECT_EQ(r.Insert(T({3, 3, 999})), InsertOutcome::kFdConflict);
  // Replacement lands in the displaced row's shard (same keys, same
  // shard) and keeps the FD index exact.
  auto displaced = r.ReplaceFunctional(T({3, 3, 31}));
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->back().AsInt(), 30);
  EXPECT_EQ(Lookup(r, T({3, 3}))->back().AsInt(), 31);
  EXPECT_EQ(r.size(), 60u);
}

TEST(ShardedRelationTest, EraseHeavyChurnPatchesPerShardIndexes) {
  // Swap-remove erasure must patch each shard's built buckets in place:
  // the build counter stays at the initial per-(shard, mask) builds no
  // matter how much churn the probes see.
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl, 4);
  for (int64_t i = 0; i < 120; ++i) r.Insert(T({i % 6, i}));
  // A bound-key probe builds only its own shard's index lazily; warm all
  // shards (what the fixpoint's pre-parallel phase does) so the counter
  // below reflects the full initial build.
  EXPECT_EQ(r.Probe(0b01, T({0})).size(), 20u);
  EXPECT_GE(r.index_builds(), 1u);
  r.EnsureIndex(0b01);
  uint64_t builds = r.index_builds();
  EXPECT_EQ(builds, r.shard_count());
  for (int64_t i = 0; i < 60; ++i) r.Erase(T({i % 6, i}));
  for (int64_t k = 0; k < 6; ++k) {
    const auto& rows = r.Probe(0b01, T({k}));
    EXPECT_EQ(rows.size(), 10u);
    for (size_t row : rows) EXPECT_EQ(r.row(row)[0].AsInt(), k);
  }
  // Reinsert into patched buckets (tail append, no rebuild).
  for (int64_t i = 0; i < 60; ++i) r.Insert(T({i % 6, i}));
  for (int64_t k = 0; k < 6; ++k) {
    EXPECT_EQ(r.Probe(0b01, T({k})).size(), 20u);
  }
  EXPECT_EQ(r.index_builds(), builds)
      << "erase churn forced a per-shard bucket rebuild";
}

TEST(ShardedRelationTest, ProbeShardReferenceSurvivesForeignIndexWork) {
  // The reference-stability contract (relation.h): a ProbeShard reference
  // stays valid across probes of other masks and other shards while the
  // version is unchanged. This mirrors how the executor nests probes
  // inside one enumeration.
  PredicateDecl decl = MakeDecl(2, false);
  Relation r(&decl, 4);
  for (int64_t i = 0; i < 64; ++i) r.Insert(T({i % 4, i}));
  int shard = r.ProbeShardOf(0b01, T({1}));
  ASSERT_GE(shard, 0);
  const auto& rows = r.ProbeShard(static_cast<size_t>(shard), 0b01, T({1}));
  const size_t before = rows.size();
  ASSERT_GT(before, 0u);
  const size_t first = rows[0];
  // Foreign index work: a different mask (new index built on every
  // shard) and different keys on other shards.
  r.EnsureIndex(0b10);
  for (size_t sh = 0; sh < r.shard_count(); ++sh) {
    (void)r.ProbeShard(sh, 0b10, T({7}));
    (void)r.ProbeShard(sh, 0b01, T({2}));
  }
  EXPECT_EQ(rows.size(), before);
  EXPECT_EQ(rows[0], first);
  EXPECT_EQ(r.At(static_cast<size_t>(shard), rows[0], 0).AsInt(), 1);
}

TEST(ShardedRelationTest, WholeTupleProbeReadsTheSetIndex) {
  // A probe binding every column is a membership test: it answers from
  // the shard's set index with at most one slot, agrees with Contains
  // through insert/erase churn, and builds no secondary index.
  constexpr uint32_t kWhole = 0b111;
  PredicateDecl decl = MakeDecl(3, false);
  for (size_t shards : {size_t{1}, size_t{7}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Relation r(&decl, shards);
    const uint64_t builds = r.index_builds();
    uint64_t seed = 0x5eedULL;
    auto draw = [&seed] {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      return seed >> 33;
    };
    auto pick = [&] {
      const uint64_t d = draw();
      return T({static_cast<int64_t>(d % 6), static_cast<int64_t>(d / 6 % 5),
                static_cast<int64_t>(d / 30 % 3)});
    };
    for (int op = 0; op < 600; ++op) {
      const Tuple t = pick();
      if (draw() % 3 == 0) {
        r.Erase(t);
      } else {
        r.Insert(t);
      }
      const Tuple probe = pick();
      const size_t want = r.Contains(probe) ? 1 : 0;
      size_t hits = 0;
      for (size_t sh = 0; sh < r.shard_count(); ++sh) {
        for (size_t slot : r.ProbeShard(sh, kWhole, probe)) {
          EXPECT_EQ(r.MaterializeTuple(sh, slot), probe);
          ++hits;
        }
      }
      EXPECT_EQ(hits, want);
      EXPECT_EQ(r.Probe(kWhole, probe).size(), want);
    }
    r.EnsureIndex(kWhole);
    EXPECT_EQ(r.index_builds(), builds)
        << "a whole-tuple probe built a secondary index";
    ASSERT_FALSE(r.empty());
    EXPECT_EQ(r.DistinctKeys(kWhole), r.size());
    EXPECT_EQ(r.EstimateSourceFor(kWhole), EstimateSource::kStat);
    EXPECT_DOUBLE_EQ(r.EstimateMatches(kWhole), 1.0);
  }
}

// ---------------------------------------------------------------------------
// Column segments: codes round-trip through the dictionaries, live counts
// stay exact, and content matches a plain map model under churn, at every
// shard count.
// ---------------------------------------------------------------------------

Tuple Mixed(int64_t k, int64_t tag) {
  Tuple t;
  t.push_back(Value::Int(k));
  t.push_back(Value::Str("name-" + std::to_string(k % 9)));
  t.push_back(Value::Int(tag));
  return t;
}

TEST(ColumnarRelationTest, DictionaryRoundTripUnderChurn) {
  PredicateDecl decl = MakeDecl(3, false);
  for (size_t shards : {size_t{1}, size_t{4}, size_t{7}}) {
    Relation r(&decl, shards);
    for (int64_t i = 0; i < 150; ++i) r.Insert(Mixed(i, i % 5));
    // Every stored code decodes back to the value the accessor reports,
    // and MaterializeTuple reassembles the logical row.
    for (size_t sh = 0; sh < r.shard_count(); ++sh) {
      for (size_t slot = 0; slot < r.shard_size(sh); ++slot) {
        Tuple t = r.MaterializeTuple(sh, slot);
        ASSERT_EQ(t.size(), 3u);
        for (size_t col = 0; col < t.size(); ++col) {
          uint32_t code = r.shard_codes(sh, col)[slot];
          EXPECT_EQ(r.Decode(col, code), t[col]);
          EXPECT_EQ(r.At(sh, slot, col), t[col]);
          auto back = r.CodeOf(col, t[col]);
          ASSERT_TRUE(back.has_value());
          EXPECT_EQ(*back, code);
        }
        EXPECT_TRUE(r.Contains(t));
      }
    }
    // Erase a stride (middle rows force swap-remove repointing), then
    // verify content and codes again, then reinsert.
    for (int64_t i = 0; i < 150; i += 3) EXPECT_TRUE(r.Erase(Mixed(i, i % 5)));
    EXPECT_EQ(r.size(), 100u);
    for (int64_t i = 0; i < 150; ++i) {
      EXPECT_EQ(r.Contains(Mixed(i, i % 5)), i % 3 != 0) << "i=" << i;
    }
    for (int64_t i = 0; i < 150; i += 3) {
      EXPECT_EQ(r.Insert(Mixed(i, i % 5)), InsertOutcome::kInserted);
    }
    EXPECT_EQ(r.size(), 150u);
    for (size_t sh = 0; sh < r.shard_count(); ++sh) {
      for (size_t slot = 0; slot < r.shard_size(sh); ++slot) {
        Tuple t = r.MaterializeTuple(sh, slot);
        for (size_t col = 0; col < t.size(); ++col) {
          EXPECT_EQ(r.Decode(col, r.shard_codes(sh, col)[slot]), t[col]);
        }
      }
    }
  }
}

TEST(ColumnarRelationTest, ColumnDistinctTracksLiveValuesExactly) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 4);
  auto expect_distinct = [&](int64_t upto) {
    std::set<std::string> c0, c1, c2;
    for (size_t sh = 0; sh < r.shard_count(); ++sh) {
      for (size_t slot = 0; slot < r.shard_size(sh); ++slot) {
        c0.insert(r.At(sh, slot, 0).ToString());
        c1.insert(r.At(sh, slot, 1).ToString());
        c2.insert(r.At(sh, slot, 2).ToString());
      }
    }
    EXPECT_EQ(r.ColumnDistinct(0), c0.size()) << "upto=" << upto;
    EXPECT_EQ(r.ColumnDistinct(1), c1.size()) << "upto=" << upto;
    EXPECT_EQ(r.ColumnDistinct(2), c2.size()) << "upto=" << upto;
  };
  for (int64_t i = 0; i < 120; ++i) r.Insert(Mixed(i, i % 7));
  expect_distinct(120);
  // Erase churn must decay live counts exactly: erasing the only row
  // using a value frees it; shared values stay live.
  for (int64_t i = 0; i < 120; i += 2) r.Erase(Mixed(i, i % 7));
  expect_distinct(60);
  // Reinserting erased values revives retired codes (refcount 0 -> 1).
  for (int64_t i = 0; i < 120; i += 2) r.Insert(Mixed(i, i % 7));
  expect_distinct(120);
}

TEST(ColumnarRelationTest, ContentMatchesModelAcrossShardCounts) {
  // The oracle is a map from tuple to support count, driven by the same
  // operation stream: Insert adds an absent tuple at support 0, AddSupport
  // counts only present tuples, Erase drops the tuple with its support.
  // The stream revisits a small domain, so it produces duplicate inserts,
  // supports on absent tuples, erases of absent tuples and reinserts of
  // erased ones (which must come back at support 0).
  PredicateDecl decl = MakeDecl(3, false);
  for (size_t shards : {size_t{1}, size_t{4}, size_t{7}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Relation r(&decl, shards);
    std::map<Tuple, uint32_t> model;
    auto check = [&] {
      EXPECT_EQ(r.size(), model.size());
      std::multiset<std::string> want;
      for (const auto& [t, support] : model) {
        std::string line;
        for (const Value& v : t) line += v.ToString() + ",";
        want.insert(line + "#" + std::to_string(support));
      }
      EXPECT_EQ(Contents(r), want);
      for (int64_t k = 0; k < 23; ++k) {
        for (int64_t tag = 0; tag < 6; ++tag) {
          const Tuple t = Mixed(k, tag);
          auto it = model.find(t);
          EXPECT_EQ(r.Contains(t), it != model.end());
          EXPECT_EQ(r.SupportCount(t), it != model.end() ? it->second : 0u);
        }
      }
    };
    uint64_t seed = 0x5eedULL;
    for (int op = 0; op < 600; ++op) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t draw = seed >> 33;
      const Tuple t = Mixed(static_cast<int64_t>(draw % 23),
                            static_cast<int64_t>((draw / 23) % 6));
      auto it = model.find(t);
      switch ((draw / 138) % 5) {
        case 0:
        case 1:
          EXPECT_EQ(r.Insert(t), it == model.end() ? InsertOutcome::kInserted
                                                   : InsertOutcome::kDuplicate);
          model.emplace(t, 0);
          break;
        case 2:
        case 3:
          EXPECT_EQ(r.AddSupport(t), it == model.end() ? 0u : ++it->second);
          break;
        default:
          EXPECT_EQ(r.Erase(t), it != model.end());
          if (it != model.end()) model.erase(it);
          break;
      }
      if (op % 100 == 99) check();
    }
    ASSERT_FALSE(model.empty());
  }
}

TEST(ColumnarRelationTest, FunctionalReplaceAndSupportSurviveSwapRemove) {
  PredicateDecl decl = MakeDecl(3, true);  // keys = columns 0..1
  Relation r(&decl, 7);
  for (int64_t i = 0; i < 60; ++i) r.Insert(Mixed(i, i * 10));
  EXPECT_EQ(r.Insert(Mixed(3, 999)), InsertOutcome::kFdConflict);
  for (int64_t i = 0; i < 60; ++i) {
    const Tuple* row = Lookup(r, {Value::Int(i),
                                  Value::Str("name-" + std::to_string(i % 9))});
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->back().AsInt(), i * 10);
  }
  auto displaced = r.ReplaceFunctional(Mixed(3, 31));
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->back().AsInt(), 30);
  EXPECT_EQ(r.size(), 60u);
  // Support moves with swap-removed rows.
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j <= i; ++j) r.AddSupport(Mixed(i, i * 10));
  }
  r.Erase(r.MaterializeTuple(r.ShardOf(Mixed(2, 20)), 0));  // arbitrary row
  for (int64_t i = 4; i < 8; ++i) {
    if (!r.Contains(Mixed(i, i * 10))) continue;
    EXPECT_EQ(r.SupportCount(Mixed(i, i * 10)), static_cast<uint32_t>(i + 1));
  }
}

TEST(ColumnarRelationTest, ProbeComparesCodesAndMissesFast) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 4);
  for (int64_t i = 0; i < 100; ++i) r.Insert(Mixed(i % 5, i));
  const auto& rows = r.Probe(0b001, T({2}));
  EXPECT_EQ(rows.size(), 20u);
  for (size_t row : rows) EXPECT_EQ(r.row(row)[0].AsInt(), 2);
  // A key absent from the dictionary answers without touching buckets.
  EXPECT_TRUE(r.Probe(0b001, T({77})).empty());
  EXPECT_FALSE(r.CodeOf(0, Value::Int(77)).has_value());
  // Bound-key single-shard probes route by the values' shard hash.
  int shard = r.ProbeShardOf(0b001, T({2}));
  ASSERT_GE(shard, 0);
  EXPECT_EQ(static_cast<size_t>(shard), r.ShardOf(T({2, 0, 0})));
  // Erase churn patches code-keyed buckets in place, no rebuilds.
  r.EnsureIndex(0b001);
  uint64_t builds = r.index_builds();
  for (int64_t i = 0; i < 50; ++i) r.Erase(Mixed(i % 5, i));
  for (int64_t k = 0; k < 5; ++k) {
    const auto& got = r.Probe(0b001, T({k}));
    EXPECT_EQ(got.size(), 10u);
    for (size_t row : got) EXPECT_EQ(r.row(row)[0].AsInt(), k);
  }
  EXPECT_EQ(r.index_builds(), builds);
}

TEST(ColumnarRelationTest, MemoryFootprintReportsDictionaryAndColumns) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 2);
  for (int64_t i = 0; i < 64; ++i) r.Insert(Mixed(i % 4, i % 8));
  Relation::MemoryFootprint m = r.Memory();
  EXPECT_GT(m.dict_bytes, 0u);
  EXPECT_GT(m.column_bytes, 0u);
}

TEST(ColumnarRelationTest, EncodeTupleRoundTripsAndReportsMisses) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 3);
  for (int64_t i = 0; i < 40; ++i) r.Insert(Mixed(i % 6, i));
  std::vector<uint32_t> codes = {123u};  // pre-existing content survives
  Tuple present = Mixed(4, 17);
  ASSERT_TRUE(r.EncodeTuple(present, &codes));
  ASSERT_EQ(codes.size(), 4u);
  for (size_t col = 0; col < 3; ++col) {
    auto want = r.CodeOf(col, present[col]);
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(codes[1 + col], *want);
  }
  // Any dictionary-absent value fails the whole tuple and leaves the
  // output exactly as it was (no partial append).
  Tuple absent = Mixed(4, 17);
  absent[2] = Value::Int(9999);
  EXPECT_FALSE(r.EncodeTuple(absent, &codes));
  EXPECT_EQ(codes.size(), 4u);
  EXPECT_EQ(codes[0], 123u);
}

TEST(ColumnarRelationTest, SortedRunBoundsWarmStaleAndCorrect) {
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 2);
  // Cold cache: nothing warm before the first EnsureSortedRuns.
  for (int64_t i = 0; i < 90; ++i) r.Insert(Mixed(i % 7, i));
  EXPECT_EQ(r.SortedRunBoundsIfWarm(0, 1), nullptr);
  r.EnsureSortedRuns(1);
  for (size_t sh = 0; sh < r.shard_count(); ++sh) {
    const std::vector<uint32_t>* bounds = r.SortedRunBoundsIfWarm(sh, 1);
    ASSERT_NE(bounds, nullptr) << "shard " << sh;
    const std::vector<uint32_t>& codes = r.shard_codes(sh, 1);
    // Boundaries delimit maximal non-decreasing runs of the code vector.
    ASSERT_GE(bounds->size(), 1u);
    EXPECT_EQ(bounds->front(), 0u);
    if (!codes.empty()) {
      ASSERT_GE(bounds->size(), 2u);
      EXPECT_EQ(bounds->back(), codes.size());
      for (size_t b = 1; b + 1 < bounds->size(); ++b) {
        uint32_t at = (*bounds)[b];
        EXPECT_LT(codes[at], codes[at - 1]) << "boundary not a descent";
      }
      for (size_t b = 0; b + 1 < bounds->size(); ++b) {
        for (uint32_t i = (*bounds)[b] + 1; i < (*bounds)[b + 1]; ++i) {
          EXPECT_GE(codes[i], codes[i - 1]) << "run not sorted";
        }
      }
    }
  }
  // Column out of range never reports warm.
  EXPECT_EQ(r.SortedRunBoundsIfWarm(0, 9), nullptr);
  // Any mutation stales the cache; rebuilding warms it again.
  r.Insert(Mixed(3, 1000));
  EXPECT_EQ(r.SortedRunBoundsIfWarm(0, 1), nullptr);
  EXPECT_EQ(r.SortedRunBoundsIfWarm(1, 1), nullptr);
  r.EnsureSortedRuns(1);
  EXPECT_NE(r.SortedRunBoundsIfWarm(0, 1), nullptr);
}

TEST(ColumnarRelationTest, SortedRunsStaleAfterEraseChurnAndRewarm) {
  // Regression pin for the sorted-run version stamp (audit: every mutation
  // bumps version_, and SortedRunBoundsIfWarm compares stamps, so the
  // cache can never serve bounds computed against pre-churn code
  // vectors). Erase churn swap-removes rows INSIDE the vectors — unlike
  // an append it shifts codes into earlier slots — so stale bounds would
  // silently mis-delimit runs rather than crash. After a re-warm the
  // bounds must describe the post-churn vectors exactly.
  PredicateDecl decl = MakeDecl(3, false);
  Relation r(&decl, 2);
  for (int64_t i = 0; i < 80; ++i) r.Insert(Mixed(i % 11, i));
  r.EnsureSortedRuns(2);
  ASSERT_NE(r.SortedRunBoundsIfWarm(0, 2), nullptr);
  // Swap-remove churn from the middle of every shard.
  for (int64_t i = 10; i < 70; i += 3) ASSERT_TRUE(r.Erase(Mixed(i % 11, i)));
  EXPECT_EQ(r.SortedRunBoundsIfWarm(0, 2), nullptr);
  EXPECT_EQ(r.SortedRunBoundsIfWarm(1, 2), nullptr);
  r.EnsureSortedRuns(2);
  for (size_t sh = 0; sh < r.shard_count(); ++sh) {
    const std::vector<uint32_t>* bounds = r.SortedRunBoundsIfWarm(sh, 2);
    ASSERT_NE(bounds, nullptr) << "shard " << sh;
    const std::vector<uint32_t>& codes = r.shard_codes(sh, 2);
    ASSERT_GE(bounds->size(), 2u);
    EXPECT_EQ(bounds->front(), 0u);
    EXPECT_EQ(bounds->back(), codes.size());
    for (size_t b = 0; b + 1 < bounds->size(); ++b) {
      for (uint32_t i = (*bounds)[b] + 1; i < (*bounds)[b + 1]; ++i) {
        EXPECT_GE(codes[i], codes[i - 1]) << "run not sorted post-churn";
      }
    }
  }
  // Erase-then-rewarm round two: the stamp keeps pace with every bump.
  for (int64_t i = 0; i < 80; i += 7) {
    if (r.Contains(Mixed(i % 11, i))) {
      ASSERT_TRUE(r.Erase(Mixed(i % 11, i)));
    }
  }
  EXPECT_EQ(r.SortedRunBoundsIfWarm(0, 2), nullptr);
  r.EnsureSortedRuns(2);
  EXPECT_NE(r.SortedRunBoundsIfWarm(0, 2), nullptr);
}

TEST(ColumnarRelationTest, RejectedInsertsLeaveDictionaryRefcountsClean) {
  // Audit pin for dictionary refcount hygiene: Insert interns nothing
  // until the row is known to commit (phase A is lookup-only), so a
  // duplicate or FD-conflict rejection must leave refcounts, live counts,
  // and dictionary sizes byte-identical — erasing the original rows
  // afterwards must still retire every code to zero live values.
  {
    PredicateDecl decl = MakeDecl(3, false);
    Relation r(&decl, 3);
    for (int64_t i = 0; i < 30; ++i) {
      ASSERT_EQ(r.Insert(Mixed(i % 6, i)), InsertOutcome::kInserted);
    }
    const auto live0 = r.ColumnDistinct(0);
    const auto live2 = r.ColumnDistinct(2);
    const Relation::MemoryFootprint before = r.Memory();
    for (int64_t i = 0; i < 30; ++i) {
      EXPECT_EQ(r.Insert(Mixed(i % 6, i)), InsertOutcome::kDuplicate);
    }
    EXPECT_EQ(r.ColumnDistinct(0), live0);
    EXPECT_EQ(r.ColumnDistinct(2), live2);
    EXPECT_EQ(r.Memory().dict_bytes, before.dict_bytes);
    EXPECT_EQ(r.size(), 30u);
    // A leaked reference from any rejected insert would keep the value
    // alive past the erase of its only real row.
    for (int64_t i = 0; i < 30; ++i) ASSERT_TRUE(r.Erase(Mixed(i % 6, i)));
    for (size_t col = 0; col < 3; ++col) EXPECT_EQ(r.ColumnDistinct(col), 0u);
  }
  {
    PredicateDecl decl = MakeDecl(3, true);  // keys = columns 0..1
    Relation r(&decl, 3);
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_EQ(r.Insert(Mixed(i, i)), InsertOutcome::kInserted);
    }
    const auto live2 = r.ColumnDistinct(2);
    // Conflicting value column: the key exists with a different payload.
    // The novel payload value must NOT be interned by the rejection.
    for (int64_t i = 0; i < 20; ++i) {
      EXPECT_EQ(r.Insert(Mixed(i, i + 5000)), InsertOutcome::kFdConflict);
      EXPECT_FALSE(r.CodeOf(2, Value::Int(i + 5000)).has_value());
    }
    EXPECT_EQ(r.ColumnDistinct(2), live2);
    for (int64_t i = 0; i < 20; ++i) ASSERT_TRUE(r.Erase(Mixed(i, i)));
    for (size_t col = 0; col < 3; ++col) EXPECT_EQ(r.ColumnDistinct(col), 0u);
  }
}

TEST(RelationTest, TupleHashingQuality) {
  TupleHash h;
  // Different orderings hash differently (order matters).
  EXPECT_NE(h(T({1, 2})), h(T({2, 1})));
  EXPECT_EQ(h(T({1, 2})), h(T({1, 2})));
  // Kind matters.
  Tuple str_tuple = {Value::Str("1"), Value::Str("2")};
  EXPECT_NE(h(T({1, 2})), h(str_tuple));
}

}  // namespace
}  // namespace secureblox::engine
