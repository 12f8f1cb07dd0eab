#include "engine/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#define SB_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace secureblox::engine {

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
  }
  return "scalar";
}

SimdMode DetectSimdMode() {
#ifdef SB_KERNELS_X86
  static const SimdMode detected = [] {
    // Initialize the CPU model first, so detection is also right when the
    // first call comes from a static constructor.
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? SimdMode::kAvx2
                                          : SimdMode::kScalar;
  }();
  return detected;
#else
  return SimdMode::kScalar;
#endif
}

namespace {

// The AVX2 variants hoist each filter's broadcast code into a small stack
// array; patterns wider than this (arity > 32 never survives probe-mask
// compilation anyway) fall back to the scalar loop.
constexpr size_t kMaxSimdFilters = 32;

// Below ~2 vector widths the per-call broadcast setup costs more than it
// saves, and selective probe buckets are usually this small — the scalar
// loop emits the identical sequence, so tiny inputs skip the SIMD
// variants entirely. The gathered slot-list shape needs far longer lists
// before gather latency amortizes, so its floor is higher.
constexpr size_t kMinSimdInput = 16;
constexpr size_t kMinSimdSelect = 64;

void FusedRangeScalar(const CodeFilter* filters, size_t nf, uint32_t begin,
                      uint32_t end, std::vector<uint32_t>* out) {
  for (uint32_t s = begin; s < end; ++s) {
    bool ok = true;
    for (size_t i = 0; i < nf; ++i) {
      if (filters[i].codes[s] != filters[i].code) {
        ok = false;
        break;
      }
    }
    if (ok) out->push_back(s);
  }
}

void FusedSelectScalar(const CodeFilter* filters, size_t nf,
                       const size_t* sel, size_t n,
                       std::vector<uint32_t>* out) {
  for (size_t k = 0; k < n; ++k) {
    const size_t s = sel[k];
    bool ok = true;
    for (size_t i = 0; i < nf; ++i) {
      if (filters[i].codes[s] != filters[i].code) {
        ok = false;
        break;
      }
    }
    if (ok) out->push_back(static_cast<uint32_t>(s));
  }
}

#ifdef SB_KERNELS_X86

__attribute__((target("avx2"))) void FusedRangeAvx2(
    const CodeFilter* filters, size_t nf, uint32_t begin, uint32_t end,
    std::vector<uint32_t>* out) {
  __m256i want[kMaxSimdFilters];
  for (size_t i = 0; i < nf; ++i) {
    want[i] = _mm256_set1_epi32(static_cast<int>(filters[i].code));
  }
  uint32_t s = begin;
  for (; s + 8 <= end; s += 8) {
    __m256i m = _mm256_cmpeq_epi32(
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(filters[0].codes + s)),
        want[0]);
    for (size_t i = 1; i < nf; ++i) {
      m = _mm256_and_si256(
          m,
          _mm256_cmpeq_epi32(_mm256_loadu_si256(
                                 reinterpret_cast<const __m256i*>(
                                     filters[i].codes + s)),
                             want[i]));
    }
    int bits = _mm256_movemask_ps(_mm256_castsi256_ps(m));
    while (bits != 0) {
      const int lane = __builtin_ctz(bits);
      bits &= bits - 1;
      out->push_back(s + static_cast<uint32_t>(lane));
    }
  }
  FusedRangeScalar(filters, nf, s, end, out);
}

// Probe slot lists are size_t; the AVX2 variant gathers 4 slots per
// iteration through 64-bit indices. Only compiled in when size_t is the
// gather index width.
__attribute__((target("avx2"))) void FusedSelectAvx2(
    const CodeFilter* filters, size_t nf, const size_t* sel, size_t n,
    std::vector<uint32_t>* out) {
  __m128i want[kMaxSimdFilters];
  for (size_t i = 0; i < nf; ++i) {
    want[i] = _mm_set1_epi32(static_cast<int>(filters[i].code));
  }
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + k));
    __m128i m = _mm_cmpeq_epi32(
        _mm256_i64gather_epi32(
            reinterpret_cast<const int*>(filters[0].codes), idx, 4),
        want[0]);
    for (size_t i = 1; i < nf; ++i) {
      m = _mm_and_si128(
          m, _mm_cmpeq_epi32(
                 _mm256_i64gather_epi32(
                     reinterpret_cast<const int*>(filters[i].codes), idx, 4),
                 want[i]));
    }
    int bits = _mm_movemask_ps(_mm_castsi128_ps(m));
    while (bits != 0) {
      const int lane = __builtin_ctz(bits);
      bits &= bits - 1;
      out->push_back(static_cast<uint32_t>(sel[k + lane]));
    }
  }
  FusedSelectScalar(filters, nf, sel + k, n - k, out);
}

#endif  // SB_KERNELS_X86

}  // namespace

void FilterFusedRange(SimdMode mode, const CodeFilter* filters, size_t nf,
                      uint32_t begin, uint32_t end,
                      std::vector<uint32_t>* out) {
  if (nf == 0) {
    for (uint32_t s = begin; s < end; ++s) out->push_back(s);
    return;
  }
#ifdef SB_KERNELS_X86
  if (mode == SimdMode::kAvx2 && nf <= kMaxSimdFilters &&
      end - begin >= kMinSimdInput) {
    FusedRangeAvx2(filters, nf, begin, end, out);
    return;
  }
#else
  (void)mode;
#endif
  FusedRangeScalar(filters, nf, begin, end, out);
}

void FilterFusedSelect(SimdMode mode, const CodeFilter* filters, size_t nf,
                       const size_t* sel, size_t n,
                       std::vector<uint32_t>* out) {
  if (nf == 0) {
    for (size_t k = 0; k < n; ++k) {
      out->push_back(static_cast<uint32_t>(sel[k]));
    }
    return;
  }
#ifdef SB_KERNELS_X86
  if (mode == SimdMode::kAvx2 && nf <= kMaxSimdFilters &&
      n >= kMinSimdSelect && sizeof(size_t) == 8) {
    FusedSelectAvx2(filters, nf, sel, n, out);
    return;
  }
#else
  (void)mode;
#endif
  FusedSelectScalar(filters, nf, sel, n, out);
}

}  // namespace secureblox::engine
