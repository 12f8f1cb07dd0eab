// Arbitrary-precision unsigned integers for RSA.
//
// Values are little-endian 32-bit limbs with 64-bit intermediates; division
// is Knuth TAOCP vol. 2 Algorithm D. ModExp on an odd modulus runs fixed-
// window exponentiation over 64-bit Montgomery residues (CIOS products with
// 128-bit intermediates, no allocation per product).
//
// Nothing here is constant-time: ModExp's running time and memory accesses
// depend on the exponent's bits (the window table is indexed by them), so
// it offers no protection against timing or cache side channels.
#ifndef SECUREBLOX_CRYPTO_BIGNUM_H_
#define SECUREBLOX_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace secureblox::crypto {

/// Unsigned big integer. Value semantics; zero is the empty limb vector.
class BigNum {
 public:
  BigNum() = default;

  static BigNum FromU64(uint64_t v);
  /// Big-endian byte interpretation.
  static BigNum FromBytes(const Bytes& bytes);
  static Result<BigNum> FromHex(const std::string& hex);

  /// Big-endian bytes, minimal length (empty for zero) or padded/truncated
  /// to `fixed_len` when >= 0.
  Bytes ToBytes(int fixed_len = -1) const;
  std::string ToHex() const;
  /// Value as uint64_t; asserts that it fits.
  uint64_t ToU64() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits (0 for zero).
  size_t BitLength() const;
  bool Bit(size_t i) const;

  /// Three-way comparison: -1, 0, +1.
  static int Cmp(const BigNum& a, const BigNum& b);
  bool operator==(const BigNum& o) const { return Cmp(*this, o) == 0; }
  bool operator!=(const BigNum& o) const { return Cmp(*this, o) != 0; }
  bool operator<(const BigNum& o) const { return Cmp(*this, o) < 0; }
  bool operator<=(const BigNum& o) const { return Cmp(*this, o) <= 0; }
  bool operator>(const BigNum& o) const { return Cmp(*this, o) > 0; }
  bool operator>=(const BigNum& o) const { return Cmp(*this, o) >= 0; }

  static BigNum Add(const BigNum& a, const BigNum& b);
  /// Requires a >= b.
  static BigNum Sub(const BigNum& a, const BigNum& b);
  static BigNum Mul(const BigNum& a, const BigNum& b);
  /// Knuth Algorithm D. Requires !b.IsZero().
  static void DivMod(const BigNum& a, const BigNum& b, BigNum* quotient,
                     BigNum* remainder);
  static BigNum Mod(const BigNum& a, const BigNum& m);
  /// Remainder of division by a single 32-bit limb (m != 0).
  static uint32_t ModU32(const BigNum& a, uint32_t m);

  BigNum ShiftLeft(size_t bits) const;
  BigNum ShiftRight(size_t bits) const;

  /// (base ^ exp) mod m. Uses windowed Montgomery exponentiation for odd
  /// moduli of up to 4096 bits (the RSA case) and falls back to
  /// division-based square-and-multiply otherwise. Not constant-time.
  /// Requires !m.IsZero().
  static BigNum ModExp(const BigNum& base, const BigNum& exp, const BigNum& m);

  static BigNum Gcd(BigNum a, BigNum b);
  /// Modular inverse of a mod m; error when gcd(a, m) != 1.
  static Result<BigNum> ModInverse(const BigNum& a, const BigNum& m);

  /// Uniform value with exactly `bits` significant bits drawn from `rng`
  /// (rng returns uniform uint32 words).
  static BigNum RandomBits(size_t bits, const std::function<uint32_t()>& rng);

  /// Miller-Rabin probabilistic primality test with `rounds` random bases.
  static bool IsProbablePrime(const BigNum& n, int rounds,
                              const std::function<uint32_t()>& rng);

  /// Random probable prime with exactly `bits` bits (top two bits set so
  /// products have full length).
  static BigNum GeneratePrime(size_t bits, const std::function<uint32_t()>& rng);

  const std::vector<uint32_t>& limbs() const { return limbs_; }

 private:
  void Normalize();

  std::vector<uint32_t> limbs_;  // little-endian, no trailing zero limbs
};

}  // namespace secureblox::crypto

#endif  // SECUREBLOX_CRYPTO_BIGNUM_H_
