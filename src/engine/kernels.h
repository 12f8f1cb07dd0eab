// SIMD equality-filter kernels over contiguous u32 dictionary-code vectors
// (a relation's per-shard column segments, see relation.h).
//
// A kernel takes one or more column filters — a column base pointer plus
// the code every surviving slot must hold there — and emits the matching
// slots into a caller-owned selection vector. Two input shapes cover the
// executor's scan paths:
//
//  * a dense slot range [begin, end): the full-shard scan, and
//  * an explicit slot list (a secondary-index probe result): the indexed
//    probe path.
//
// Both shapes AND every filter in one pass ("fused"), so a multi-column
// pattern touches each slot once. Output slots always appear in input
// order (ascending for ranges, list order for slot lists), which is what
// keeps the fixpoint byte-identical across tiers: the selection vector is
// exactly the sequence the scalar loop would have produced.
//
// Dispatch: two tiers. The AVX2 variants are compiled with per-function
// target attributes (no global -mavx2) and run when the CPU has AVX2;
// otherwise, and on every non-x86 build, the scalar loops run. There is
// no knob: callers pass DetectSimdMode(). Kernels are pure functions over
// const data — they share the relation probe paths' read-only concurrency
// contract.
#ifndef SECUREBLOX_ENGINE_KERNELS_H_
#define SECUREBLOX_ENGINE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace secureblox::engine {

/// Instruction set the filter kernels execute with.
enum class SimdMode : uint8_t { kScalar, kAvx2 };

/// Lowercase name for SB_EXPLAIN and logs: "scalar" | "avx2".
const char* SimdModeName(SimdMode mode);

/// kAvx2 when this CPU supports AVX2, else kScalar (probed once, then
/// cached). The fixpoint result is identical in either mode.
SimdMode DetectSimdMode();

/// One column's equality filter: the shard's contiguous code vector and
/// the code a surviving slot must hold in it.
struct CodeFilter {
  const uint32_t* codes = nullptr;
  uint32_t code = 0;
};

/// Append to `out` every slot in [begin, end) where all `nf` filters
/// match, in ascending slot order. nf == 0 appends the whole range.
void FilterFusedRange(SimdMode mode, const CodeFilter* filters, size_t nf,
                      uint32_t begin, uint32_t end,
                      std::vector<uint32_t>* out);

/// Append to `out` every slot of `sel[0, n)` where all `nf` filters
/// match, preserving list order. nf == 0 appends the whole list.
void FilterFusedSelect(SimdMode mode, const CodeFilter* filters, size_t nf,
                       const size_t* sel, size_t n,
                       std::vector<uint32_t>* out);

}  // namespace secureblox::engine

#endif  // SECUREBLOX_ENGINE_KERNELS_H_
