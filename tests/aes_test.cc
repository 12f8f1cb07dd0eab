// AES-128 block cipher against FIPS-197 / SP 800-38A vectors, and CTR-mode
// round trips. The CTR known answer runs on each keystream tier the host
// has, and the tiers are compared across lengths, unaligned starts and
// counter carries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "crypto/aes.h"

namespace secureblox::crypto {
namespace {

Bytes H(const std::string& hex) { return FromHex(hex).value(); }

/// Every tier the host can execute: portable, plus AES-NI when the CPU has
/// it.
std::vector<AesTier> HostTiers() {
  std::vector<AesTier> tiers = {AesTier::kPortable};
  if (DetectAesTier() == AesTier::kAesNi) tiers.push_back(AesTier::kAesNi);
  return tiers;
}

/// `data` XORed with the CTR keystream from `nonce` on `tier`; the counter
/// the keystream ends at goes to `*end_counter` when given.
Bytes CtrOn(AesTier tier, const Aes128& aes, const Bytes& nonce,
            const uint8_t* data, size_t len, Bytes* end_counter = nullptr) {
  Bytes counter = nonce;
  Bytes out(data, data + len);
  aes.CtrXor(tier, counter.data(), out.data(), out.size());
  if (end_counter != nullptr) *end_counter = counter;
  return out;
}

/// Deterministic pseudo-random bytes.
Bytes Noise(size_t n, uint64_t seed) {
  Bytes out(n);
  for (uint8_t& b : out) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<uint8_t>(seed >> 56);
  }
  return out;
}

TEST(AesTierTest, TierNamesAndDetection) {
  EXPECT_STREQ(AesTierName(AesTier::kPortable), "portable");
  EXPECT_STREQ(AesTierName(AesTier::kAesNi), "aes-ni");
  // The CPU alone picks the tier: AES-NI exactly when it has AES-NI.
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(DetectAesTier() == AesTier::kAesNi,
            __builtin_cpu_supports("aes") != 0);
#else
  EXPECT_EQ(DetectAesTier(), AesTier::kPortable);
#endif
  // Detection is cached and stable.
  EXPECT_EQ(DetectAesTier(), DetectAesTier());
}

TEST(Aes128Test, Fips197AppendixC) {
  Bytes key = H("000102030405060708090a0b0c0d0e0f");
  Bytes block = H("00112233445566778899aabbccddeeff");
  Aes128 aes = Aes128::Create(key).value();
  aes.EncryptBlock(block.data());
  EXPECT_EQ(ToHex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128Test, Sp80038aEcbVector) {
  // SP 800-38A F.1.1 ECB-AES128.Encrypt, block #1.
  Bytes key = H("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes block = H("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes = Aes128::Create(key).value();
  aes.EncryptBlock(block.data());
  EXPECT_EQ(ToHex(block), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes128Test, Sp80038aCtrVector) {
  // SP 800-38A F.5.1 CTR-AES128.Encrypt, blocks #1-#4: one four-block
  // stride, with a counter carry out of the low byte after block #1. Our
  // format prefixes the nonce, so strip the first 16 bytes before comparing.
  Bytes key = H("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes ctr = H("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = H(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const std::string want =
      "874d6191b620e3261bef6864990db6ce"
      "9806f66b7970fdff8617187bb9fffdff"
      "5ae4df3edbd5d35e5b4f09020db03eab"
      "1e031dda2fbe03d1792170a0f3009cee";
  Bytes ct = AesCtrEncrypt(key, ctr, pt).value();
  EXPECT_EQ(ToHex(Bytes(ct.begin() + 16, ct.end())), want);
  Aes128 aes = Aes128::Create(key).value();
  for (AesTier tier : HostTiers()) {
    Bytes end;
    EXPECT_EQ(ToHex(CtrOn(tier, aes, ctr, pt.data(), pt.size(), &end)), want)
        << AesTierName(tier);
    EXPECT_EQ(ToHex(end), "f0f1f2f3f4f5f6f7f8f9fafbfcfdff03")
        << AesTierName(tier);
  }
}

TEST(AesTierTest, TiersAgreeAcrossLengthsAndOffsets) {
  Aes128 aes = Aes128::Create(H("000102030405060708090a0b0c0d0e0f")).value();
  const Bytes nonce = Noise(16, 2);
  const Bytes data = Noise(65536 + 16, 1);
  for (AesTier tier : HostTiers()) {
    for (size_t len = 0; len <= 1100; ++len) {
      Bytes end, want_end;
      ASSERT_EQ(CtrOn(tier, aes, nonce, data.data(), len, &end),
                CtrOn(AesTier::kPortable, aes, nonce, data.data(), len,
                      &want_end))
          << AesTierName(tier) << " len=" << len;
      ASSERT_EQ(end, want_end) << AesTierName(tier) << " len=" << len;
    }
    EXPECT_EQ(CtrOn(tier, aes, nonce, data.data(), 65536),
              CtrOn(AesTier::kPortable, aes, nonce, data.data(), 65536))
        << AesTierName(tier);
    // Unaligned starts: the hardware tier loads and stores the caller's
    // buffer 16 bytes at a time.
    for (size_t offset = 1; offset < 16; ++offset) {
      for (size_t len : {15u, 16u, 63u, 64u, 65u, 200u, 1000u}) {
        Bytes buf(data.begin(), data.begin() + offset + len);
        Bytes want = CtrOn(AesTier::kPortable, aes, nonce,
                           data.data() + offset, len);
        Bytes counter = nonce;
        aes.CtrXor(tier, counter.data(), buf.data() + offset, len);
        EXPECT_EQ(Bytes(buf.begin() + offset, buf.end()), want)
            << AesTierName(tier) << " offset=" << offset << " len=" << len;
        EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + offset,
                               data.begin()))
            << AesTierName(tier) << " offset=" << offset << " len=" << len;
      }
    }
  }
}

// Nonces ending ff ff ff fe: the counter carries across bytes (and, in the
// first nonce, across the low 64 bits) two blocks in. The reference
// keystream encrypts each expected counter block directly.
TEST(AesTierTest, CounterCarriesAcrossBytes) {
  Aes128 aes = Aes128::Create(H("2b7e151628aed2a6abf7158809cf4f3c")).value();
  struct Case {
    const char* nonce;
    std::vector<const char*> counters;  // the 16-byte block of each block
  };
  for (const Case& c : {
           Case{"0011223344556677fffffffffffffffe",
                {"0011223344556677fffffffffffffffe",
                 "0011223344556677ffffffffffffffff",
                 "00112233445566780000000000000000",
                 "00112233445566780000000000000001",
                 "00112233445566780000000000000002",
                 "00112233445566780000000000000003"}},
           Case{"000000000000000000000000fffffffe",
                {"000000000000000000000000fffffffe",
                 "000000000000000000000000ffffffff",
                 "00000000000000000000000100000000",
                 "00000000000000000000000100000001",
                 "00000000000000000000000100000002",
                 "00000000000000000000000100000003"}},
       }) {
    Bytes want;
    for (const char* counter : c.counters) {
      Bytes block = H(counter);
      aes.EncryptBlock(block.data());
      want.insert(want.end(), block.begin(), block.end());
    }
    const Bytes zeros(want.size(), 0);
    for (AesTier tier : HostTiers()) {
      // Every length through the six blocks, so the carry lands in the
      // four-block stride, in the one-block tail and in a partial block.
      for (size_t len = 0; len <= want.size(); ++len) {
        EXPECT_EQ(CtrOn(tier, aes, H(c.nonce), zeros.data(), len),
                  Bytes(want.begin(), want.begin() + len))
            << AesTierName(tier) << " nonce=" << c.nonce << " len=" << len;
      }
    }
  }
}

TEST(Aes128Test, RejectsBadKeySize) {
  EXPECT_FALSE(Aes128::Create(Bytes(15, 0)).ok());
  EXPECT_FALSE(Aes128::Create(Bytes(17, 0)).ok());
  EXPECT_FALSE(Aes128::Create({}).ok());
}

TEST(AesCtrTest, RoundTripVariousLengths) {
  Bytes key = H("000102030405060708090a0b0c0d0e0f");
  Bytes nonce(16, 0x42);
  Xoshiro256 rng(7);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u, 4096u}) {
    Bytes pt(len);
    for (auto& b : pt) b = static_cast<uint8_t>(rng.Next());
    Bytes ct = AesCtrEncrypt(key, nonce, pt).value();
    EXPECT_EQ(ct.size(), len + 16);
    Bytes back = AesCtrDecrypt(key, ct).value();
    EXPECT_EQ(back, pt) << "len=" << len;
  }
}

TEST(AesCtrTest, DifferentNoncesProduceDifferentCiphertexts) {
  Bytes key(16, 0x11);
  Bytes pt(64, 0xAB);
  Bytes ct1 = AesCtrEncrypt(key, Bytes(16, 0x01), pt).value();
  Bytes ct2 = AesCtrEncrypt(key, Bytes(16, 0x02), pt).value();
  EXPECT_NE(ToHex(ct1), ToHex(ct2));
}

TEST(AesCtrTest, WrongKeyDecryptsToGarbage) {
  Bytes pt = BytesFromString("attack at dawn!!");
  Bytes ct = AesCtrEncrypt(Bytes(16, 0x01), Bytes(16, 0x00), pt).value();
  Bytes back = AesCtrDecrypt(Bytes(16, 0x02), ct).value();
  EXPECT_NE(back, pt);
}

TEST(AesCtrTest, RejectsBadNonceAndShortCiphertext) {
  Bytes key(16, 0);
  EXPECT_FALSE(AesCtrEncrypt(key, Bytes(8, 0), {}).ok());
  EXPECT_FALSE(AesCtrDecrypt(key, Bytes(15, 0)).ok());
}

TEST(AesCtrTest, CiphertextIsNotPlaintext) {
  Bytes key(16, 0x55);
  Bytes pt(128, 0x00);
  Bytes ct = AesCtrEncrypt(key, Bytes(16, 0x77), pt).value();
  // Keystream of zero plaintext == raw keystream; must not be all zeros.
  bool any_nonzero = false;
  for (size_t i = 16; i < ct.size(); ++i) any_nonzero |= (ct[i] != 0);
  EXPECT_TRUE(any_nonzero);
}

}  // namespace
}  // namespace secureblox::crypto
