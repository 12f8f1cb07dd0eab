#include "crypto/aes.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define SB_AES_X86 1
#include <immintrin.h>
#endif

namespace secureblox::crypto {

const char* AesTierName(AesTier tier) {
  switch (tier) {
    case AesTier::kPortable:
      return "portable";
    case AesTier::kAesNi:
      return "aes-ni";
  }
  return "portable";
}

AesTier DetectAesTier() {
#ifdef SB_AES_X86
  static const AesTier detected = [] {
    // Initialize the CPU model first, so detection is also right when the
    // first call comes from a static constructor.
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") ? AesTier::kAesNi
                                         : AesTier::kPortable;
  }();
  return detected;
#else
  return AesTier::kPortable;
#endif
}

namespace {

// FIPS 197 S-box.
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

inline uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

}  // namespace

Result<Aes128> Aes128::Create(const Bytes& key) {
  if (key.size() != kKeySize) {
    return Status::CryptoError("AES-128 key must be 16 bytes");
  }
  Aes128 aes;
  aes.ExpandKey(key.data());
  return aes;
}

void Aes128::ExpandKey(const uint8_t key[kKeySize]) {
  std::memcpy(round_keys_.data(), key, kKeySize);
  for (int i = 4; i < 44; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, &round_keys_[(i - 1) * 4], 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      uint8_t t = temp[0];
      temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t];
    }
    for (int j = 0; j < 4; ++j) {
      round_keys_[i * 4 + j] =
          static_cast<uint8_t>(round_keys_[(i - 4) * 4 + j] ^ temp[j]);
    }
  }
}

void Aes128::EncryptBlock(uint8_t block[kBlockSize]) const {
  uint8_t s[16];
  std::memcpy(s, block, 16);
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[round * 16 + i];
  };

  add_round_key(0);
  for (int round = 1; round <= 10; ++round) {
    // SubBytes.
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (state is column-major: s[col*4 + row]).
    uint8_t t;
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    t = s[2]; s[2] = s[10]; s[10] = t; t = s[6]; s[6] = s[14]; s[14] = t;
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
    // MixColumns (skipped in the final round).
    if (round != 10) {
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = &s[c * 4];
        uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<uint8_t>(Xtime(a0) ^ Xtime(a1) ^ a1 ^ a2 ^ a3);
        col[1] = static_cast<uint8_t>(a0 ^ Xtime(a1) ^ Xtime(a2) ^ a2 ^ a3);
        col[2] = static_cast<uint8_t>(a0 ^ a1 ^ Xtime(a2) ^ Xtime(a3) ^ a3);
        col[3] = static_cast<uint8_t>(Xtime(a0) ^ a0 ^ a1 ^ a2 ^ Xtime(a3));
      }
    }
    add_round_key(round);
  }
  std::memcpy(block, s, 16);
}

namespace {

#ifdef SB_AES_X86
uint64_t LoadBe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void StoreBe64(uint8_t* p, uint64_t v) {
  for (int i = 7; i >= 0; --i, v >>= 8) p[i] = static_cast<uint8_t>(v);
}

// Counter block hi:lo (a 128-bit big-endian integer) in memory order,
// whitened with round key 0.
__attribute__((target("aes"))) inline __m128i CounterBlock(uint64_t hi,
                                                           uint64_t lo,
                                                           __m128i rk0) {
  return _mm_xor_si128(
      _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(lo)),
                     static_cast<long long>(__builtin_bswap64(hi))),
      rk0);
}

__attribute__((target("aes"))) inline void XorBlock(uint8_t* data,
                                                    __m128i keystream) {
  __m128i* p = reinterpret_cast<__m128i*>(data);
  _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), keystream));
}

// AES-NI keystream: four counter blocks in flight, then one block at a
// time for the tail. Same round keys, same counter sequence as the
// portable loop.
__attribute__((target("aes"))) void CtrXorAesNi(const uint8_t* round_keys,
                                                uint8_t counter[16],
                                                uint8_t* data, size_t len) {
  __m128i rk[11];
  for (int r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_keys + 16 * r));
  }
  uint64_t hi = LoadBe64(counter);
  uint64_t lo = LoadBe64(counter + 8);
  auto advance = [&hi, &lo] {
    if (++lo == 0) ++hi;
  };
  // Four named blocks rather than an array: at -O2 GCC keeps an array of
  // vectors on the stack, which cost 3.5x in throughput.
  for (; len >= 64; len -= 64, data += 64) {
    __m128i b0 = CounterBlock(hi, lo, rk[0]);
    advance();
    __m128i b1 = CounterBlock(hi, lo, rk[0]);
    advance();
    __m128i b2 = CounterBlock(hi, lo, rk[0]);
    advance();
    __m128i b3 = CounterBlock(hi, lo, rk[0]);
    advance();
    for (int r = 1; r < 10; ++r) {
      b0 = _mm_aesenc_si128(b0, rk[r]);
      b1 = _mm_aesenc_si128(b1, rk[r]);
      b2 = _mm_aesenc_si128(b2, rk[r]);
      b3 = _mm_aesenc_si128(b3, rk[r]);
    }
    XorBlock(data, _mm_aesenclast_si128(b0, rk[10]));
    XorBlock(data + 16, _mm_aesenclast_si128(b1, rk[10]));
    XorBlock(data + 32, _mm_aesenclast_si128(b2, rk[10]));
    XorBlock(data + 48, _mm_aesenclast_si128(b3, rk[10]));
  }
  while (len > 0) {
    __m128i block = CounterBlock(hi, lo, rk[0]);
    advance();
    for (int r = 1; r < 10; ++r) block = _mm_aesenc_si128(block, rk[r]);
    block = _mm_aesenclast_si128(block, rk[10]);
    if (len >= 16) {
      XorBlock(data, block);
      data += 16;
      len -= 16;
    } else {
      uint8_t keystream[16];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(keystream), block);
      for (size_t i = 0; i < len; ++i) data[i] ^= keystream[i];
      len = 0;
    }
  }
  StoreBe64(counter, hi);
  StoreBe64(counter + 8, lo);
}
#endif

}  // namespace

void Aes128::CtrXor(AesTier tier, uint8_t counter[kBlockSize], uint8_t* data,
                    size_t len) const {
#ifdef SB_AES_X86
  if (tier == AesTier::kAesNi) {
    CtrXorAesNi(round_keys_.data(), counter, data, len);
    return;
  }
#endif
  (void)tier;
  uint8_t keystream[16];
  while (len > 0) {
    std::memcpy(keystream, counter, 16);
    EncryptBlock(keystream);
    size_t take = std::min<size_t>(len, 16);
    for (size_t i = 0; i < take; ++i) data[i] ^= keystream[i];
    data += take;
    len -= take;
    // Increment the big-endian counter.
    for (int i = 15; i >= 0; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

Result<Bytes> AesCtrEncrypt(const Bytes& key, const Bytes& nonce,
                            const Bytes& plaintext) {
  if (nonce.size() != Aes128::kBlockSize) {
    return Status::CryptoError("AES-CTR nonce must be 16 bytes");
  }
  SB_ASSIGN_OR_RETURN(Aes128 aes, Aes128::Create(key));
  Bytes out = nonce;
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  uint8_t counter[16];
  std::memcpy(counter, nonce.data(), 16);
  aes.CtrXor(DetectAesTier(), counter, out.data() + 16, plaintext.size());
  return out;
}

Result<Bytes> AesCtrDecrypt(const Bytes& key, const Bytes& ciphertext) {
  if (ciphertext.size() < Aes128::kBlockSize) {
    return Status::CryptoError("AES-CTR ciphertext shorter than nonce");
  }
  SB_ASSIGN_OR_RETURN(Aes128 aes, Aes128::Create(key));
  uint8_t counter[16];
  std::memcpy(counter, ciphertext.data(), 16);
  Bytes out(ciphertext.begin() + 16, ciphertext.end());
  aes.CtrXor(DetectAesTier(), counter, out.data(), out.size());
  return out;
}

}  // namespace secureblox::crypto
