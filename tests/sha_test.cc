// SHA-1 / SHA-256 against FIPS 180 test vectors, plus incremental-update
// and reset behaviour. Every SHA-1 known answer runs on each compression
// tier the host has, and the tiers are compared across lengths, unaligned
// starts and split updates.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace secureblox::crypto {
namespace {

Bytes B(const std::string& s) { return BytesFromString(s); }

/// Every tier the host can execute: portable, plus SHA-NI when the CPU has
/// it.
std::vector<Sha1Tier> HostTiers() {
  std::vector<Sha1Tier> tiers = {Sha1Tier::kPortable};
  if (DetectSha1Tier() == Sha1Tier::kShaNi) tiers.push_back(Sha1Tier::kShaNi);
  return tiers;
}

std::string DigestOn(Sha1Tier tier, const uint8_t* data, size_t len) {
  Sha1 h(tier);
  h.Update(data, len);
  return ToHex(h.Finish());
}

std::string DigestOn(Sha1Tier tier, const Bytes& data) {
  return DigestOn(tier, data.data(), data.size());
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

TEST(Sha1Test, TierNamesAndDetection) {
  EXPECT_STREQ(Sha1TierName(Sha1Tier::kPortable), "portable");
  EXPECT_STREQ(Sha1TierName(Sha1Tier::kShaNi), "sha-ni");
  // The CPU alone picks the tier: SHA-NI exactly when it has the SHA
  // extensions and SSE4.1.
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(DetectSha1Tier() == Sha1Tier::kShaNi,
            __builtin_cpu_supports("sha") != 0 &&
                __builtin_cpu_supports("sse4.1") != 0);
#else
  EXPECT_EQ(DetectSha1Tier(), Sha1Tier::kPortable);
#endif
  // Detection is cached and stable, and a default hasher takes it.
  EXPECT_EQ(DetectSha1Tier(), DetectSha1Tier());
  EXPECT_EQ(ToHex(Sha1Digest(B("abc"))),
            DigestOn(DetectSha1Tier(), B("abc")));
}

// FIPS 180 known answers, each on every tier.
class Sha1TierTest : public ::testing::TestWithParam<Sha1Tier> {};

TEST_P(Sha1TierTest, EmptyString) {
  EXPECT_EQ(DigestOn(GetParam(), B("")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST_P(Sha1TierTest, Abc) {
  EXPECT_EQ(DigestOn(GetParam(), B("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST_P(Sha1TierTest, TwoBlockMessage) {
  EXPECT_EQ(
      DigestOn(GetParam(),
               B("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST_P(Sha1TierTest, MillionAs) {
  Sha1 h(GetParam());
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(ToHex(h.Finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST_P(Sha1TierTest, KnownQuickBrownFox) {
  EXPECT_EQ(DigestOn(GetParam(),
                     B("The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST_P(Sha1TierTest, IncrementalMatchesOneShot) {
  std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha1 h(GetParam());
  for (char c : msg) h.Update(reinterpret_cast<const uint8_t*>(&c), 1);
  EXPECT_EQ(ToHex(h.Finish()), DigestOn(GetParam(), B(msg)));
}

TEST_P(Sha1TierTest, ExactBlockBoundary) {
  // 64 bytes == exactly one block before padding.
  Bytes data(64, 'x');
  Sha1 h(GetParam());
  h.Update(data.data(), 32);
  h.Update(data.data() + 32, 32);
  EXPECT_EQ(ToHex(h.Finish()), DigestOn(GetParam(), data));
}

// A 3-block message fed in two pieces, split at every offset: the buffered
// head of each split must be compressed before the whole blocks after it.
TEST_P(Sha1TierTest, TwoPieceUpdateAtEverySplit) {
  const Bytes msg = Noise(3 * Sha1::kBlockSize, 3);
  const std::string want = DigestOn(GetParam(), msg);
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha1 h(GetParam());
    h.Update(msg.data(), split);
    h.Update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(ToHex(h.Finish()), want) << "split=" << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, Sha1TierTest, ::testing::ValuesIn(HostTiers()),
                         [](const auto& info) {
                           return info.param == Sha1Tier::kShaNi
                                      ? std::string("ShaNi")
                                      : std::string("Portable");
                         });

TEST(Sha1Test, TiersAgreeAcrossLengthsAndOffsets) {
  const Bytes data = Noise(65536 + 16, 1);
  for (Sha1Tier tier : HostTiers()) {
    for (size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(DigestOn(tier, data.data(), len),
                DigestOn(Sha1Tier::kPortable, data.data(), len))
          << Sha1TierName(tier) << " len=" << len;
    }
    EXPECT_EQ(DigestOn(tier, data.data(), 65536),
              DigestOn(Sha1Tier::kPortable, data.data(), 65536))
        << Sha1TierName(tier);
    // Unaligned starts: the hardware tier loads whole blocks straight from
    // the caller's buffer.
    for (size_t offset = 1; offset < 16; ++offset) {
      for (size_t len : {55u, 64u, 65u, 200u, 1000u}) {
        EXPECT_EQ(DigestOn(tier, data.data() + offset, len),
                  DigestOn(Sha1Tier::kPortable, data.data() + offset, len))
            << Sha1TierName(tier) << " offset=" << offset << " len=" << len;
      }
    }
  }
}

TEST(Sha1Test, ResetAllowsReuse) {
  Sha1 h;
  h.Update(B("garbage"));
  (void)h.Finish();
  h.Reset();
  h.Update(B("abc"));
  EXPECT_EQ(ToHex(h.Finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, FinishIntoBufferMatchesBytes) {
  Sha1 h;
  h.Update(B("abc"));
  uint8_t out[Sha1::kDigestSize];
  h.Finish(out);
  EXPECT_EQ(ToHex(Bytes(out, out + sizeof(out))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(ToHex(Sha256Digest(B(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(ToHex(Sha256Digest(B("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(ToHex(Sha256Digest(B(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg(300, 'z');
  Sha256 h;
  h.Update(B(msg.substr(0, 100)));
  h.Update(B(msg.substr(100)));
  EXPECT_EQ(ToHex(h.Finish()), ToHex(Sha256Digest(B(msg))));
}

TEST(Sha256Test, DifferentInputsDiffer) {
  EXPECT_NE(ToHex(Sha256Digest(B("a"))), ToHex(Sha256Digest(B("b"))));
}

}  // namespace
}  // namespace secureblox::crypto
