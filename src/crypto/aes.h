// AES-128 (FIPS 197) block cipher plus CTR-mode stream encryption.
//
// The paper encrypts serialized fact batches with AES under pairwise
// 128-bit shared secrets. We use CTR mode with a random 16-byte nonce
// prepended to the ciphertext; decryption is the same keystream XOR, so
// only the forward cipher exists.
//
// Dispatch: two tiers of the CTR keystream. The AES-NI tier is compiled
// with per-function target attributes (no global -maes) and runs when the
// CPU has AES-NI; otherwise, and on every non-x86 build, the portable
// EncryptBlock loop runs. There is no knob: AesCtrEncrypt/AesCtrDecrypt
// pass DetectAesTier(). Both tiers take the round keys of the one portable
// key expansion, and their output is identical.
#ifndef SECUREBLOX_CRYPTO_AES_H_
#define SECUREBLOX_CRYPTO_AES_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace secureblox::crypto {

/// Instruction set the CTR keystream executes with.
enum class AesTier : uint8_t { kPortable, kAesNi };

/// Lowercase name for logs and benchmark labels: "portable" | "aes-ni".
const char* AesTierName(AesTier tier);

/// kAesNi when this CPU has AES-NI, else kPortable (probed once, then
/// cached).
AesTier DetectAesTier();

/// AES-128 block cipher with a fixed expanded key schedule.
class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;

  /// Key must be exactly 16 bytes.
  static Result<Aes128> Create(const Bytes& key);

  /// Encrypt one 16-byte block in place.
  void EncryptBlock(uint8_t block[kBlockSize]) const;

  /// XOR `data` with the CTR keystream from `counter`, a 128-bit
  /// big-endian integer advanced by one per block (a final partial block
  /// included). `tier` must be kPortable or the tier DetectAesTier()
  /// reports.
  void CtrXor(AesTier tier, uint8_t counter[kBlockSize], uint8_t* data,
              size_t len) const;

 private:
  Aes128() = default;
  void ExpandKey(const uint8_t key[kKeySize]);

  // 11 round keys of 16 bytes.
  std::array<uint8_t, 176> round_keys_{};
};

/// CTR-mode encryption: output = nonce(16) || plaintext XOR keystream.
/// `nonce` must be 16 bytes; use a fresh random nonce per message.
Result<Bytes> AesCtrEncrypt(const Bytes& key, const Bytes& nonce,
                            const Bytes& plaintext);

/// CTR-mode decryption of a nonce-prefixed ciphertext.
Result<Bytes> AesCtrDecrypt(const Bytes& key, const Bytes& ciphertext);

}  // namespace secureblox::crypto

#endif  // SECUREBLOX_CRYPTO_AES_H_
