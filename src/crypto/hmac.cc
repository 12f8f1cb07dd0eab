#include "crypto/hmac.h"

#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace secureblox::crypto {

namespace {

// Generic HMAC over an incremental hasher type, each hasher constructed
// from `hasher_args`.
template <typename Hasher, typename... HasherArgs>
Bytes HmacImpl(const Bytes& key, const Bytes& message,
               HasherArgs... hasher_args) {
  constexpr size_t kBlock = Hasher::kBlockSize;
  Bytes k = key;
  if (k.size() > kBlock) {
    Hasher h(hasher_args...);
    h.Update(k);
    k = h.Finish();
  }
  k.resize(kBlock, 0x00);

  Bytes ipad(kBlock), opad(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Hasher inner(hasher_args...);
  inner.Update(ipad);
  inner.Update(message);
  Bytes inner_digest = inner.Finish();

  Hasher outer(hasher_args...);
  outer.Update(opad);
  outer.Update(inner_digest);
  return outer.Finish();
}

}  // namespace

Bytes HmacSha1(const Bytes& key, const Bytes& message, Sha1Tier tier) {
  return HmacImpl<Sha1>(key, message, tier);
}

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  return HmacImpl<Sha256>(key, message);
}

bool HmacSha1Verify(const Bytes& key, const Bytes& message, const Bytes& mac) {
  return ConstantTimeEquals(HmacSha1(key, message), mac);
}

}  // namespace secureblox::crypto
