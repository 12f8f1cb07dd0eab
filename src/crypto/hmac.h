// HMAC (RFC 2104) over SHA-1 and SHA-256.
//
// HMAC-SHA1 is the keyed-hash authentication scheme evaluated in the paper
// ("HMAC derives a signature by applying SHA-1 to a combination of the
// pairwise shared secret with the message"). HMAC-SHA256 backs the DRBG.
#ifndef SECUREBLOX_CRYPTO_HMAC_H_
#define SECUREBLOX_CRYPTO_HMAC_H_

#include "common/bytes.h"
#include "crypto/sha1.h"

namespace secureblox::crypto {

/// HMAC-SHA1(key, message) -> 20-byte MAC, hashed on `tier` (see sha1.h).
Bytes HmacSha1(const Bytes& key, const Bytes& message,
               Sha1Tier tier = DetectSha1Tier());

/// HMAC-SHA256(key, message) -> 32-byte MAC.
Bytes HmacSha256(const Bytes& key, const Bytes& message);

/// Constant-time verification of an HMAC-SHA1 tag.
bool HmacSha1Verify(const Bytes& key, const Bytes& message, const Bytes& mac);

}  // namespace secureblox::crypto

#endif  // SECUREBLOX_CRYPTO_HMAC_H_
