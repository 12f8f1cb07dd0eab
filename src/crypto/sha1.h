// SHA-1 (FIPS 180-4). Used for HMAC-SHA1 message authentication, RSA
// signature digests, and hash-partitioning in the parallel hash join —
// matching the schemes evaluated in the SecureBlox paper (2010-era). Not
// collision-resistant by modern standards; kept for fidelity to the paper.
//
// Dispatch: two tiers of the block compression. The SHA-NI tier is compiled
// with per-function target attributes (no global -msha) and runs when the
// CPU has the SHA extensions and SSE4.1; otherwise, and on every non-x86
// build, the portable rounds run. There is no knob: a hasher takes
// DetectSha1Tier() unless a test names a tier. Digests are identical on
// both tiers.
#ifndef SECUREBLOX_CRYPTO_SHA1_H_
#define SECUREBLOX_CRYPTO_SHA1_H_

#include <cstdint>

#include "common/bytes.h"

namespace secureblox::crypto {

/// Instruction set the SHA-1 compression executes with.
enum class Sha1Tier : uint8_t { kPortable, kShaNi };

/// Lowercase name for logs and benchmark labels: "portable" | "sha-ni".
const char* Sha1TierName(Sha1Tier tier);

/// kShaNi when this CPU has the SHA extensions and SSE4.1, else kPortable
/// (probed once, then cached).
Sha1Tier DetectSha1Tier();

/// Incremental SHA-1 hasher.
class Sha1 {
 public:
  static constexpr size_t kDigestSize = 20;
  static constexpr size_t kBlockSize = 64;

  /// `tier` must be kPortable or a tier DetectSha1Tier() reports.
  explicit Sha1(Sha1Tier tier = DetectSha1Tier());

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  /// Finalize and write the 20-byte digest to `out`. The hasher must not
  /// be reused afterwards without Reset().
  void Finish(uint8_t out[kDigestSize]);
  Bytes Finish();

  void Reset();

 private:
  uint32_t h_[5];
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
  Sha1Tier tier_;
};

/// One-shot convenience.
Bytes Sha1Digest(const Bytes& data);
Bytes Sha1Digest(const uint8_t* data, size_t len);

}  // namespace secureblox::crypto

#endif  // SECUREBLOX_CRYPTO_SHA1_H_
