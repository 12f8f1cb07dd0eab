// HMAC-SHA1 against RFC 2202 vectors (on every SHA-1 tier the host has) and
// HMAC-SHA256 against RFC 4231.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/hmac.h"

namespace secureblox::crypto {
namespace {

Bytes B(const std::string& s) { return BytesFromString(s); }
Bytes H(const std::string& hex) { return FromHex(hex).value(); }

/// Every SHA-1 tier the host can execute: portable, plus SHA-NI when the
/// CPU has it.
std::vector<Sha1Tier> HostTiers() {
  std::vector<Sha1Tier> tiers = {Sha1Tier::kPortable};
  if (DetectSha1Tier() == Sha1Tier::kShaNi) tiers.push_back(Sha1Tier::kShaNi);
  return tiers;
}

// RFC 2202 known answers, each on every SHA-1 tier.
class HmacSha1TierTest : public ::testing::TestWithParam<Sha1Tier> {};

TEST_P(HmacSha1TierTest, Rfc2202Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(ToHex(HmacSha1(key, B("Hi There"), GetParam())),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST_P(HmacSha1TierTest, Rfc2202Case2) {
  EXPECT_EQ(ToHex(HmacSha1(B("Jefe"), B("what do ya want for nothing?"),
                           GetParam())),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST_P(HmacSha1TierTest, Rfc2202Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(ToHex(HmacSha1(key, data, GetParam())),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST_P(HmacSha1TierTest, Rfc2202Case6LongKey) {
  Bytes key(80, 0xaa);
  EXPECT_EQ(ToHex(HmacSha1(key,
                           B("Test Using Larger Than Block-Size Key - "
                             "Hash Key First"),
                           GetParam())),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

INSTANTIATE_TEST_SUITE_P(Tiers, HmacSha1TierTest,
                         ::testing::ValuesIn(HostTiers()),
                         [](const auto& info) {
                           return info.param == Sha1Tier::kShaNi
                                      ? std::string("ShaNi")
                                      : std::string("Portable");
                         });

TEST(HmacSha1Test, VerifyAcceptsCorrectTag) {
  Bytes key = B("secret");
  Bytes msg = B("message");
  Bytes mac = HmacSha1(key, msg);
  EXPECT_TRUE(HmacSha1Verify(key, msg, mac));
}

TEST(HmacSha1Test, VerifyRejectsTamperedMessage) {
  Bytes key = B("secret");
  Bytes mac = HmacSha1(key, B("message"));
  EXPECT_FALSE(HmacSha1Verify(key, B("Message"), mac));
}

TEST(HmacSha1Test, VerifyRejectsTamperedTag) {
  Bytes key = B("secret");
  Bytes msg = B("message");
  Bytes mac = HmacSha1(key, msg);
  mac[0] ^= 0x01;
  EXPECT_FALSE(HmacSha1Verify(key, msg, mac));
}

TEST(HmacSha1Test, VerifyRejectsWrongKey) {
  Bytes mac = HmacSha1(B("secret"), B("message"));
  EXPECT_FALSE(HmacSha1Verify(B("Secret"), B("message"), mac));
}

TEST(HmacSha1Test, VerifyRejectsTruncatedTag) {
  Bytes key = B("secret");
  Bytes msg = B("message");
  Bytes mac = HmacSha1(key, msg);
  mac.pop_back();
  EXPECT_FALSE(HmacSha1Verify(key, msg, mac));
}

TEST(HmacSha256Test, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(ToHex(HmacSha256(key, B("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
  EXPECT_EQ(ToHex(HmacSha256(B("Jefe"), B("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(ToHex(HmacSha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, EmptyMessageStillAuthenticates) {
  Bytes key = B("k");
  Bytes mac = HmacSha1(key, {});
  EXPECT_EQ(mac.size(), 20u);
  EXPECT_TRUE(HmacSha1Verify(key, {}, mac));
}

TEST(ConstantTimeEqualsTest, Basics) {
  EXPECT_TRUE(ConstantTimeEquals(H("deadbeef"), H("deadbeef")));
  EXPECT_FALSE(ConstantTimeEquals(H("deadbeef"), H("deadbeee")));
  EXPECT_FALSE(ConstantTimeEquals(H("dead"), H("deadbeef")));
  EXPECT_TRUE(ConstantTimeEquals({}, {}));
}

}  // namespace
}  // namespace secureblox::crypto
