// RSA keygen / sign / verify, tamper rejection, known answers, and DRBG
// determinism.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/hmac_drbg.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"

namespace secureblox::crypto {
namespace {

Bytes B(const std::string& s) { return BytesFromString(s); }

// Shared small (fast) keypair for most tests; generated once.
const RsaKeyPair& TestKey512() {
  static const RsaKeyPair* key = [] {
    HmacDrbg drbg(B("rsa-test-seed-512"));
    auto kp = RsaGenerateKeyPair(512, [&] { return drbg.NextU32(); });
    return new RsaKeyPair(std::move(kp).value());
  }();
  return *key;
}

TEST(RsaTest, KeyGenerationProperties) {
  const RsaKeyPair& k = TestKey512();
  EXPECT_EQ(k.pub.n.BitLength(), 512u);
  EXPECT_EQ(k.pub.e.ToU64(), 65537u);
  EXPECT_EQ(BigNum::Mul(k.p, k.q), k.pub.n);
  EXPECT_NE(k.p, k.q);
  // e*d == 1 mod (p-1)(q-1)
  BigNum phi = BigNum::Mul(BigNum::Sub(k.p, BigNum::FromU64(1)),
                           BigNum::Sub(k.q, BigNum::FromU64(1)));
  EXPECT_EQ(BigNum::Mod(BigNum::Mul(k.pub.e, k.d), phi), BigNum::FromU64(1));
}

TEST(RsaTest, SignVerifyRoundTrip) {
  const RsaKeyPair& k = TestKey512();
  Bytes msg = B("hello secure world");
  Bytes sig = RsaSign(k, msg).value();
  EXPECT_EQ(sig.size(), k.pub.ModulusBytes());
  EXPECT_TRUE(RsaVerify(k.pub, msg, sig));
}

TEST(RsaTest, CrtSignatureMatchesPlainExponentiation) {
  const RsaKeyPair& k = TestKey512();
  Bytes msg = B("crt check");
  Bytes sig = RsaSign(k, msg).value();
  // Recompute without CRT: sig == em^d mod n.
  BigNum s = BigNum::FromBytes(sig);
  BigNum m = BigNum::ModExp(s, k.pub.e, k.pub.n);
  // Verifying the recovered EM against a fresh encode is what RsaVerify does;
  // this asserts CRT produced a valid RSA signature at all.
  EXPECT_TRUE(RsaVerify(k.pub, msg, sig));
  EXPECT_EQ(BigNum::ModExp(m, k.d, k.pub.n), s);
}

TEST(RsaTest, VerifyRejectsTamperedMessage) {
  const RsaKeyPair& k = TestKey512();
  Bytes sig = RsaSign(k, B("original")).value();
  EXPECT_FALSE(RsaVerify(k.pub, B("Original"), sig));
}

TEST(RsaTest, VerifyRejectsEverySingleByteFlipInSignature) {
  const RsaKeyPair& k = TestKey512();
  Bytes msg = B("flip test");
  Bytes sig = RsaSign(k, msg).value();
  for (size_t i = 0; i < sig.size(); i += 7) {  // sample positions
    Bytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(RsaVerify(k.pub, msg, bad)) << "byte " << i;
  }
}

TEST(RsaTest, VerifyRejectsWrongKey) {
  const RsaKeyPair& k1 = TestKey512();
  HmacDrbg drbg(B("other-key-seed"));
  RsaKeyPair k2 = RsaGenerateKeyPair(512, [&] { return drbg.NextU32(); }).value();
  Bytes msg = B("who signed this?");
  Bytes sig = RsaSign(k1, msg).value();
  EXPECT_FALSE(RsaVerify(k2.pub, msg, sig));
}

TEST(RsaTest, VerifyRejectsWrongSizeSignature) {
  const RsaKeyPair& k = TestKey512();
  Bytes msg = B("size");
  Bytes sig = RsaSign(k, msg).value();
  Bytes shorter(sig.begin(), sig.end() - 1);
  EXPECT_FALSE(RsaVerify(k.pub, msg, shorter));
  Bytes longer = sig;
  longer.push_back(0);
  EXPECT_FALSE(RsaVerify(k.pub, msg, longer));
}

TEST(RsaTest, PublicKeySerializationRoundTrip) {
  const RsaKeyPair& k = TestKey512();
  Bytes wire = k.pub.Serialize();
  RsaPublicKey back = RsaPublicKey::Deserialize(wire).value();
  EXPECT_EQ(back.n, k.pub.n);
  EXPECT_EQ(back.e, k.pub.e);
  EXPECT_FALSE(RsaPublicKey::Deserialize(Bytes{0x01}).ok());
}

TEST(RsaTest, EmptyAndLargeMessages) {
  const RsaKeyPair& k = TestKey512();
  Bytes empty_sig = RsaSign(k, {}).value();
  EXPECT_TRUE(RsaVerify(k.pub, {}, empty_sig));
  Bytes large(100000, 0x5a);
  Bytes large_sig = RsaSign(k, large).value();
  EXPECT_TRUE(RsaVerify(k.pub, large, large_sig));
  EXPECT_FALSE(RsaVerify(k.pub, large, empty_sig));
}

TEST(RsaTest, PaperKeySize1024) {
  // The paper's configuration: 1024-bit modulus.
  HmacDrbg drbg(B("rsa-1024-seed"));
  RsaKeyPair k = RsaGenerateKeyPair(1024, [&] { return drbg.NextU32(); }).value();
  EXPECT_EQ(k.pub.n.BitLength(), 1024u);
  EXPECT_EQ(k.pub.ModulusBytes(), 128u);  // "256 byte signatures" in the
                                          // paper count sig+key overhead;
                                          // the raw signature is 128 bytes.
  Bytes msg = B("path advertisement");
  Bytes sig = RsaSign(k, msg).value();
  EXPECT_EQ(sig.size(), 128u);
  EXPECT_TRUE(RsaVerify(k.pub, msg, sig));
  sig[64] ^= 1;
  EXPECT_FALSE(RsaVerify(k.pub, msg, sig));
}

// Byte-identity pins: keys and signatures from fixed DRBG seeds are part of
// the wire contract (PKCS#1 v1.5 is deterministic), so any change to the
// bignum arithmetic must reproduce them bit for bit. Pinned as SHA-1 digests
// of the big-endian encodings.
TEST(RsaTest, KnownAnswers) {
  struct Case {
    size_t bits;
    const char* seed;
    const char* n_sha1;
    const char* d_sha1;
    const char* sig_sha1;
  };
  const Case cases[] = {
      {512, "kat-512", "35be58125c4a9f8f6cf5e293bb60619ec83cabec",
       "87873512732225c5c0579dbed13b7206add14a56",
       "6240d3b39264b6cea8f7a78cf203945af3d4712b"},
      {1024, "kat-1024", "3e19afea9327f1b9b952b6b2be54ad5fdcc3c674",
       "4f206273c1f643dced2baa9827f0ecf0ed0f4eeb",
       "aa23747bc46e8fe20a13a214e81503701c212d00"},
  };
  const Bytes msg = B("path advertisement");
  for (const Case& c : cases) {
    HmacDrbg drbg(B(c.seed));
    RsaKeyPair k =
        RsaGenerateKeyPair(c.bits, [&] { return drbg.NextU32(); }).value();
    EXPECT_EQ(ToHex(Sha1Digest(k.pub.n.ToBytes())), c.n_sha1) << c.seed;
    EXPECT_EQ(ToHex(Sha1Digest(k.d.ToBytes())), c.d_sha1) << c.seed;
    Bytes sig = RsaSign(k, msg).value();
    EXPECT_EQ(ToHex(Sha1Digest(sig)), c.sig_sha1) << c.seed;
    EXPECT_TRUE(RsaVerify(k.pub, msg, sig)) << c.seed;
  }
}

TEST(RsaTest, RejectsBadKeySizeRequests) {
  HmacDrbg drbg(B("seed"));
  EXPECT_FALSE(RsaGenerateKeyPair(64, [&] { return drbg.NextU32(); }).ok());
  EXPECT_FALSE(RsaGenerateKeyPair(129, [&] { return drbg.NextU32(); }).ok());
}

TEST(HmacDrbgTest, DeterministicForSameSeed) {
  HmacDrbg a(B("seed-1"));
  HmacDrbg b(B("seed-1"));
  EXPECT_EQ(ToHex(a.Generate(64)), ToHex(b.Generate(64)));
}

TEST(HmacDrbgTest, DifferentSeedsDiffer) {
  HmacDrbg a(B("seed-1"));
  HmacDrbg b(B("seed-2"));
  EXPECT_NE(ToHex(a.Generate(64)), ToHex(b.Generate(64)));
}

TEST(HmacDrbgTest, ReseedChangesStream) {
  HmacDrbg a(B("seed"));
  HmacDrbg b(B("seed"));
  (void)a.Generate(16);
  (void)b.Generate(16);
  b.Reseed(B("extra"));
  EXPECT_NE(ToHex(a.Generate(32)), ToHex(b.Generate(32)));
}

TEST(HmacDrbgTest, GenerateSpansRekeyBoundary) {
  HmacDrbg a(B("seed"));
  Bytes big = a.Generate(100);  // > one SHA-256 output
  EXPECT_EQ(big.size(), 100u);
}

}  // namespace
}  // namespace secureblox::crypto
