// Status/Result, byte reader/writer, hex, strings, and PRNG determinism.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"

namespace secureblox {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::TypeError("bad arg type");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  EXPECT_EQ(s.ToString(), "TypeError: bad arg type");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::CompileError("x").code(), StatusCode::kCompileError);
  EXPECT_EQ(Status::ConstraintViolation("x").code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Status::TransactionAborted("x").code(),
            StatusCode::kTransactionAborted);
  EXPECT_EQ(Status::CryptoError("x").code(), StatusCode::kCryptoError);
}

TEST(StatusTest, CopiesMovesAndEqualityKeepCodeAndMessage) {
  const Status ok;
  const Status err = Status::NotFound("no such key");
  // Copies are independent equal values.
  Status ok_copy = ok;
  Status err_copy = err;
  EXPECT_TRUE(ok_copy.ok());
  EXPECT_EQ(ok_copy, ok);
  EXPECT_EQ(err_copy, err);
  EXPECT_EQ(err_copy.message(), "no such key");
  EXPECT_NE(&err_copy.message(), &err.message());
  // Moves carry the code and message over.
  Status err_moved = std::move(err_copy);
  EXPECT_EQ(err_moved.code(), StatusCode::kNotFound);
  EXPECT_EQ(err_moved.ToString(), "NotFound: no such key");
  Status ok_moved = std::move(ok_copy);
  EXPECT_TRUE(ok_moved.ok());
  // Assignment both ways, and self-assignment.
  Status s = err;
  s = ok;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "");
  s = err;
  const Status& alias = s;
  s = alias;
  EXPECT_EQ(s, err);
  s = Status::OK();
  EXPECT_EQ(s, ok);
  // Equality compares code and message.
  EXPECT_FALSE(ok == err);
  EXPECT_FALSE(err == Status::NotFound("other key"));
  EXPECT_FALSE(err == Status::Internal("no such key"));
  EXPECT_EQ(Status::Internal(""), Status(StatusCode::kInternal, ""));
  EXPECT_EQ(Status::Internal("").message(), "");
  EXPECT_FALSE(Status::Internal("").ok());
  // An OK Result and an error Result copy and move alike.
  Result<std::string> good = std::string("v");
  Result<std::string> good_copy = good;
  EXPECT_TRUE(good_copy.ok());
  EXPECT_TRUE(good_copy.status().ok());
  EXPECT_EQ(*good_copy, "v");
  Result<std::string> bad = Status::TypeError("bad");
  Result<std::string> bad_moved = std::move(bad);
  EXPECT_FALSE(bad_moved.ok());
  EXPECT_EQ(bad_moved.status(), Status::TypeError("bad"));
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, ValueAndError) {
  auto good = ParsePositive(3);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 3);
  auto bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Status UseMacros(int v, int* out) {
  SB_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  *out = parsed * 2;
  SB_RETURN_IF_ERROR(Status::OK());
  return Status::OK();
}

TEST(ResultTest, Macros) {
  int out = 0;
  EXPECT_TRUE(UseMacros(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(UseMacros(-5, &out).ok());
}

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(ToHex(b), "0001abff");
  EXPECT_EQ(FromHex("0001abff").value(), b);
  EXPECT_EQ(FromHex("0001ABFF").value(), b);
}

TEST(BytesTest, FromHexRejectsBadInput) {
  EXPECT_FALSE(FromHex("abc").ok());   // odd length
  EXPECT_FALSE(FromHex("zz").ok());    // bad chars
  EXPECT_TRUE(FromHex("").value().empty());
}

TEST(ByteWriterReaderTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0x12);
  w.PutU16(0x3456);
  w.PutU32(0x789ABCDE);
  w.PutU64(0x1122334455667788ULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU8().value(), 0x12);
  EXPECT_EQ(r.GetU16().value(), 0x3456);
  EXPECT_EQ(r.GetU32().value(), 0x789ABCDEu);
  EXPECT_EQ(r.GetU64().value(), 0x1122334455667788ULL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteWriterReaderTest, BigEndianLayout) {
  ByteWriter w;
  w.PutU32(0x01020304);
  EXPECT_EQ(ToHex(w.bytes()), "01020304");
}

TEST(ByteWriterReaderTest, VarintRoundTrip) {
  for (uint64_t v : std::initializer_list<uint64_t>{
           0, 1, 127, 128, 300, 16384, 0xFFFFFFFF, UINT64_MAX}) {
    ByteWriter w;
    w.PutVarint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.GetVarint().value(), v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(ByteWriterReaderTest, LengthPrefixedRoundTrip) {
  ByteWriter w;
  w.PutLengthPrefixed({0xAA, 0xBB});
  w.PutLengthPrefixedString("hello");
  w.PutLengthPrefixed({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetLengthPrefixed().value(), Bytes({0xAA, 0xBB}));
  EXPECT_EQ(r.GetLengthPrefixedString().value(), "hello");
  EXPECT_TRUE(r.GetLengthPrefixed().value().empty());
}

TEST(ByteWriterReaderTest, UnderflowDetected) {
  Bytes one = {0x01};
  ByteReader r(one);
  EXPECT_TRUE(r.GetU8().ok());
  EXPECT_FALSE(r.GetU8().ok());
  Bytes claims_five = {0x05, 0x01};  // claims 5 bytes, has 1
  ByteReader r2(claims_five);
  EXPECT_FALSE(r2.GetLengthPrefixed().ok());
}

TEST(ByteWriterReaderTest, TruncatedVarintDetected) {
  Bytes truncated = {0x80};  // continuation bit set, nothing follows
  ByteReader r(truncated);
  EXPECT_FALSE(r.GetVarint().ok());
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("says$path", "says$"));
  EXPECT_FALSE(StartsWith("say", "says"));
  EXPECT_TRUE(EndsWith("foo.blox", ".blox"));
  EXPECT_FALSE(EndsWith("blox", "foo.blox"));
}

TEST(RandomTest, DeterministicForSeed) {
  Xoshiro256 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Xoshiro256 a2(123);
  for (int i = 0; i < 100; ++i) differs |= (a2.Next() != c.Next());
  EXPECT_TRUE(differs);
}

TEST(RandomTest, UniformBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    int64_t w = rng.UniformInt(-5, 5);
    EXPECT_GE(w, -5);
    EXPECT_LE(w, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Xoshiro256 rng(9);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) seen[rng.Uniform(6)]++;
  for (int c : seen) EXPECT_GT(c, 700);  // roughly uniform
}

TEST(ConstantTimeEqualsTest, SizesAndContent) {
  EXPECT_TRUE(ConstantTimeEquals({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEquals({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEquals({1, 2, 3}, {1, 2}));
}

}  // namespace
}  // namespace secureblox
