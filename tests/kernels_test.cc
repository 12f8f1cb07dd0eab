// SIMD filter kernels: both tiers (scalar always, AVX2 where the host CPU
// has it) produce the byte-identical selection vector as a reference
// loop, across tail remainders, unaligned range starts, empty/all/none-
// match inputs, fused multi-column filters, and the slot-list (probe)
// shape. Also pins the mode names and CPU detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "engine/kernels.h"

namespace secureblox::engine {
namespace {

/// Every mode the host can actually execute: scalar, plus AVX2 when the
/// CPU has it.
std::vector<SimdMode> HostModes() {
  std::vector<SimdMode> modes = {SimdMode::kScalar};
  if (DetectSimdMode() == SimdMode::kAvx2) modes.push_back(SimdMode::kAvx2);
  return modes;
}

/// Reference implementation: the loop the kernels must be equivalent to.
std::vector<uint32_t> RefRange(const std::vector<CodeFilter>& filters,
                               uint32_t begin, uint32_t end) {
  std::vector<uint32_t> out;
  for (uint32_t i = begin; i < end; ++i) {
    bool ok = true;
    for (const CodeFilter& f : filters) ok = ok && f.codes[i] == f.code;
    if (ok) out.push_back(i);
  }
  return out;
}

std::vector<uint32_t> RefSelect(const std::vector<CodeFilter>& filters,
                                const std::vector<size_t>& sel) {
  std::vector<uint32_t> out;
  for (size_t s : sel) {
    bool ok = true;
    for (const CodeFilter& f : filters) ok = ok && f.codes[s] == f.code;
    if (ok) out.push_back(static_cast<uint32_t>(s));
  }
  return out;
}

/// Deterministic pseudo-random column contents (no RNG state shared
/// between tests).
std::vector<uint32_t> Column(size_t n, uint32_t cardinality, uint64_t seed) {
  std::vector<uint32_t> col(n);
  for (size_t i = 0; i < n; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    col[i] = static_cast<uint32_t>((seed >> 33) % cardinality);
  }
  return col;
}

TEST(KernelsTest, ModeNamesAndDetection) {
  EXPECT_STREQ(SimdModeName(SimdMode::kScalar), "scalar");
  EXPECT_STREQ(SimdModeName(SimdMode::kAvx2), "avx2");
  // The CPU alone picks the tier: AVX2 exactly when it has AVX2.
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(DetectSimdMode() == SimdMode::kAvx2,
            __builtin_cpu_supports("avx2") != 0);
#else
  EXPECT_EQ(DetectSimdMode(), SimdMode::kScalar);
#endif
  // Detection is cached and stable.
  EXPECT_EQ(DetectSimdMode(), DetectSimdMode());
}

TEST(KernelsTest, RangeMatchesScalarReferenceAcrossTailsAndOffsets) {
  const std::vector<uint32_t> col = Column(131, /*cardinality=*/4, 0x5eed);
  const std::vector<CodeFilter> filters = {{col.data(), 2}};
  // Lengths straddle the lane width (8), the SIMD input floor (16) and
  // remainders, and begins are deliberately unaligned relative to the
  // vector width.
  for (uint32_t begin : {0u, 1u, 3u, 5u, 7u, 9u}) {
    for (uint32_t len : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                         31u, 64u, 100u}) {
      const uint32_t end = begin + len;
      ASSERT_LE(end, col.size());
      const std::vector<uint32_t> want = RefRange(filters, begin, end);
      for (SimdMode mode : HostModes()) {
        std::vector<uint32_t> got;
        FilterFusedRange(mode, filters.data(), filters.size(), begin, end,
                         &got);
        EXPECT_EQ(got, want) << "mode=" << SimdModeName(mode)
                             << " begin=" << begin << " len=" << len;
      }
    }
  }
}

TEST(KernelsTest, RangeEmptyAllAndNoneMatch) {
  std::vector<uint32_t> all(37, 9), none(37, 9);
  const std::vector<CodeFilter> match_all = {{all.data(), 9}};
  const std::vector<CodeFilter> match_none = {{none.data(), 7}};
  for (SimdMode mode : HostModes()) {
    std::vector<uint32_t> got;
    FilterFusedRange(mode, match_all.data(), 1, 0, 37, &got);
    EXPECT_EQ(got, RefRange(match_all, 0, 37));
    EXPECT_EQ(got.size(), 37u);
    got.clear();
    FilterFusedRange(mode, match_none.data(), 1, 0, 37, &got);
    EXPECT_TRUE(got.empty());
    // Empty range: nothing emitted, nothing read.
    FilterFusedRange(mode, match_all.data(), 1, 5, 5, &got);
    EXPECT_TRUE(got.empty());
    // nf == 0: the whole range survives.
    FilterFusedRange(mode, nullptr, 0, 3, 7, &got);
    EXPECT_EQ(got, (std::vector<uint32_t>{3, 4, 5, 6}));
    got.clear();
  }
}

TEST(KernelsTest, FusedMultiFilterAndsAllColumns) {
  const size_t n = 97;
  const std::vector<uint32_t> a = Column(n, 3, 1);
  const std::vector<uint32_t> b = Column(n, 3, 2);
  const std::vector<uint32_t> c = Column(n, 3, 3);
  const std::vector<CodeFilter> filters = {
      {a.data(), 1}, {b.data(), 2}, {c.data(), 0}};
  const std::vector<uint32_t> want = RefRange(filters, 0, n);
  ASSERT_FALSE(want.empty());
  ASSERT_LT(want.size(), n);
  for (SimdMode mode : HostModes()) {
    std::vector<uint32_t> got;
    FilterFusedRange(mode, filters.data(), filters.size(), 0, n, &got);
    EXPECT_EQ(got, want) << "mode=" << SimdModeName(mode);
  }
}

TEST(KernelsTest, SelectMatchesScalarReferenceAndPreservesOrder) {
  const std::vector<uint32_t> col = Column(211, 5, 0xfeed);
  const std::vector<CodeFilter> filters = {{col.data(), 3}};
  // Ascending (the probe-bucket shape) and deliberately shuffled lists:
  // output must follow list order either way.
  std::vector<size_t> asc;
  for (size_t i = 0; i < col.size(); i += 3) asc.push_back(i);
  std::vector<size_t> mixed = {200, 7, 7, 42, 0, 199, 13, 210, 1, 64, 33};
  for (const std::vector<size_t>& sel : {asc, mixed, std::vector<size_t>{}}) {
    const std::vector<uint32_t> want = RefSelect(filters, sel);
    for (SimdMode mode : HostModes()) {
      std::vector<uint32_t> got;
      FilterFusedSelect(mode, filters.data(), filters.size(), sel.data(),
                        sel.size(), &got);
      EXPECT_EQ(got, want) << "mode=" << SimdModeName(mode)
                           << " n=" << sel.size();
    }
  }
  // nf == 0 keeps the whole list, remainder tails included.
  for (SimdMode mode : HostModes()) {
    std::vector<uint32_t> got;
    FilterFusedSelect(mode, nullptr, 0, mixed.data(), mixed.size(), &got);
    ASSERT_EQ(got.size(), mixed.size());
    for (size_t i = 0; i < mixed.size(); ++i) {
      EXPECT_EQ(got[i], static_cast<uint32_t>(mixed[i]));
    }
  }
}

TEST(KernelsTest, WideFilterSetsFallBackToScalarPath) {
  // More filters than the SIMD kernels fuse (32): every mode must still
  // agree with the reference loop.
  const size_t n = 50;
  std::vector<std::vector<uint32_t>> cols;
  std::vector<CodeFilter> filters;
  for (int f = 0; f < 40; ++f) {
    cols.push_back(std::vector<uint32_t>(n, 1));
  }
  cols[17][31] = 0;  // knock one slot out through one column
  for (const auto& c : cols) filters.push_back({c.data(), 1});
  const std::vector<uint32_t> want = RefRange(filters, 0, n);
  ASSERT_EQ(want.size(), n - 1);
  for (SimdMode mode : HostModes()) {
    std::vector<uint32_t> got;
    FilterFusedRange(mode, filters.data(), filters.size(), 0, n, &got);
    EXPECT_EQ(got, want) << "mode=" << SimdModeName(mode);
  }
}

TEST(KernelsTest, AppendsWithoutClobberingExistingOutput) {
  std::vector<uint32_t> col(16, 4);
  const std::vector<CodeFilter> filters = {{col.data(), 4}};
  for (SimdMode mode : HostModes()) {
    std::vector<uint32_t> out = {777};
    FilterFusedRange(mode, filters.data(), 1, 0, 4, &out);
    EXPECT_EQ(out, (std::vector<uint32_t>{777, 0, 1, 2, 3}));
    std::vector<size_t> sel = {9, 10};
    FilterFusedSelect(mode, filters.data(), 1, sel.data(), sel.size(), &out);
    EXPECT_EQ(out, (std::vector<uint32_t>{777, 0, 1, 2, 3, 9, 10}));
  }
}

}  // namespace
}  // namespace secureblox::engine
