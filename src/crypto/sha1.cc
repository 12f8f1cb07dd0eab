#include "crypto/sha1.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define SB_SHA1_X86 1
#include <immintrin.h>
#endif

namespace secureblox::crypto {

const char* Sha1TierName(Sha1Tier tier) {
  switch (tier) {
    case Sha1Tier::kPortable:
      return "portable";
    case Sha1Tier::kShaNi:
      return "sha-ni";
  }
  return "portable";
}

Sha1Tier DetectSha1Tier() {
#ifdef SB_SHA1_X86
  static const Sha1Tier detected = [] {
    // Initialize the CPU model first, so detection is also right when the
    // first call comes from a static constructor.
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
               ? Sha1Tier::kShaNi
               : Sha1Tier::kPortable;
  }();
  return detected;
#else
  return Sha1Tier::kPortable;
#endif
}

namespace {

inline uint32_t Rotl32(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

void CompressPortable(uint32_t h[5], const uint8_t* block, size_t nblocks) {
  for (; nblocks > 0; --nblocks, block += Sha1::kBlockSize) {
    uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
             (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = Rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 80; ++i) {
      uint32_t f, k;
      if (i < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDC;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6;
      }
      uint32_t tmp = Rotl32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = Rotl32(b, 30);
      b = a;
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
}

#ifdef SB_SHA1_X86
// Rounds 4g .. 4g+3 on SHA-NI. m[g % 4] holds those rounds' message words;
// group g also advances the schedule of groups g+1 .. g+3 (sha1msg1 starts
// W[t-16] ^ W[t-14], the XOR adds W[t-8], sha1msg2 adds W[t-3] and
// rotates). e[g % 2] carries e into the rounds; e[(g + 1) % 2] saves the
// state the next group derives its e from.
template <int G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void
ShaNiGroup(__m128i& abcd, __m128i (&e)[2], __m128i (&m)[4]) {
  const __m128i w = m[G % 4];
  if constexpr (G == 0) {
    e[0] = _mm_add_epi32(e[0], w);
  } else {
    e[G % 2] = _mm_sha1nexte_epu32(e[G % 2], w);
  }
  e[(G + 1) % 2] = abcd;
  if constexpr (G >= 3 && G <= 18) {
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], w);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, e[G % 2], G / 5);
  if constexpr (G >= 2 && G <= 17) {
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], w);
  }
  if constexpr (G >= 1 && G <= 16) {
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], w);
  }
}

__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t h[5], const uint8_t* block, size_t nblocks) {
  // Big-endian words, W[0] in the highest lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1B);
  __m128i e[2] = {_mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0),
                  _mm_setzero_si128()};
  for (; nblocks > 0; --nblocks, block += Sha1::kBlockSize) {
    const __m128i abcd_in = abcd;
    const __m128i e_in = e[0];
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
          byte_swap);
    }
    ShaNiGroup<0>(abcd, e, m);
    ShaNiGroup<1>(abcd, e, m);
    ShaNiGroup<2>(abcd, e, m);
    ShaNiGroup<3>(abcd, e, m);
    ShaNiGroup<4>(abcd, e, m);
    ShaNiGroup<5>(abcd, e, m);
    ShaNiGroup<6>(abcd, e, m);
    ShaNiGroup<7>(abcd, e, m);
    ShaNiGroup<8>(abcd, e, m);
    ShaNiGroup<9>(abcd, e, m);
    ShaNiGroup<10>(abcd, e, m);
    ShaNiGroup<11>(abcd, e, m);
    ShaNiGroup<12>(abcd, e, m);
    ShaNiGroup<13>(abcd, e, m);
    ShaNiGroup<14>(abcd, e, m);
    ShaNiGroup<15>(abcd, e, m);
    ShaNiGroup<16>(abcd, e, m);
    ShaNiGroup<17>(abcd, e, m);
    ShaNiGroup<18>(abcd, e, m);
    ShaNiGroup<19>(abcd, e, m);
    e[0] = _mm_sha1nexte_epu32(e[0], e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_shuffle_epi32(abcd, 0x1B));
  h[4] = static_cast<uint32_t>(_mm_extract_epi32(e[0], 3));
}
#endif

// Compress `nblocks` whole 64-byte blocks into `h`.
void Compress(Sha1Tier tier, uint32_t h[5], const uint8_t* block,
              size_t nblocks) {
#ifdef SB_SHA1_X86
  if (tier == Sha1Tier::kShaNi) {
    CompressShaNi(h, block, nblocks);
    return;
  }
#endif
  (void)tier;
  CompressPortable(h, block, nblocks);
}

}  // namespace

Sha1::Sha1(Sha1Tier tier) : tier_(tier) { Reset(); }

void Sha1::Reset() {
  h_[0] = 0x67452301;
  h_[1] = 0xEFCDAB89;
  h_[2] = 0x98BADCFE;
  h_[3] = 0x10325476;
  h_[4] = 0xC3D2E1F0;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha1::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    // Top up the buffered partial block first: its bytes come before
    // `data`.
    size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    Compress(tier_, h_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the caller's buffer; only the tail is copied.
  size_t whole = len / kBlockSize;
  if (whole > 0) Compress(tier_, h_, data, whole);
  data += whole * kBlockSize;
  len -= whole * kBlockSize;
  if (len > 0) std::memcpy(buffer_, data, len);
  buffer_len_ = len;
}

void Sha1::Finish(uint8_t out[kDigestSize]) {
  uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    // No room left for the length suffix: zero-fill and start a new block.
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    Compress(tier_, h_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(tier_, h_, buffer_, 1);
  buffer_len_ = 0;

  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
}

Bytes Sha1::Finish() {
  Bytes out(kDigestSize);
  Finish(out.data());
  return out;
}

Bytes Sha1Digest(const uint8_t* data, size_t len) {
  Sha1 h;
  h.Update(data, len);
  return h.Finish();
}

Bytes Sha1Digest(const Bytes& data) {
  return Sha1Digest(data.data(), data.size());
}

}  // namespace secureblox::crypto
