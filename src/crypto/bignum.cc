#include "crypto/bignum.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace secureblox::crypto {

namespace {
constexpr uint64_t kBase = 1ULL << 32;

// Small primes for trial division before Miller-Rabin.
constexpr uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,
    53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269,
    271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353};
}  // namespace

void BigNum::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNum BigNum::FromU64(uint64_t v) {
  BigNum n;
  if (v != 0) {
    n.limbs_.push_back(static_cast<uint32_t>(v));
    if (v >> 32) n.limbs_.push_back(static_cast<uint32_t>(v >> 32));
  }
  return n;
}

BigNum BigNum::FromBytes(const Bytes& bytes) {
  BigNum n;
  n.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    // bytes[i] is the most significant remaining byte.
    size_t bit_pos = (bytes.size() - 1 - i) * 8;
    n.limbs_[bit_pos / 32] |= static_cast<uint32_t>(bytes[i])
                              << (bit_pos % 32);
  }
  n.Normalize();
  return n;
}

Result<BigNum> BigNum::FromHex(const std::string& hex) {
  std::string padded = hex.size() % 2 ? "0" + hex : hex;
  SB_ASSIGN_OR_RETURN(Bytes b, secureblox::FromHex(padded));
  return FromBytes(b);
}

Bytes BigNum::ToBytes(int fixed_len) const {
  size_t min_len = (BitLength() + 7) / 8;
  size_t len = fixed_len >= 0 ? static_cast<size_t>(fixed_len) : min_len;
  Bytes out(len, 0);
  for (size_t i = 0; i < len; ++i) {
    size_t bit_pos = i * 8;  // i-th least significant byte
    size_t limb = bit_pos / 32;
    if (limb < limbs_.size()) {
      out[len - 1 - i] =
          static_cast<uint8_t>(limbs_[limb] >> (bit_pos % 32));
    }
  }
  return out;
}

std::string BigNum::ToHex() const {
  if (IsZero()) return "0";
  std::string s = secureblox::ToHex(ToBytes());
  size_t first = s.find_first_not_of('0');
  return s.substr(first == std::string::npos ? s.size() - 1 : first);
}

uint64_t BigNum::ToU64() const {
  assert(limbs_.size() <= 2);
  uint64_t v = 0;
  if (limbs_.size() > 1) v = static_cast<uint64_t>(limbs_[1]) << 32;
  if (!limbs_.empty()) v |= limbs_[0];
  return v;
}

size_t BigNum::BitLength() const {
  if (limbs_.empty()) return 0;
  return limbs_.size() * 32 - std::countl_zero(limbs_.back());
}

bool BigNum::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigNum::Cmp(const BigNum& a, const BigNum& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigNum BigNum::Add(const BigNum& a, const BigNum& b) {
  BigNum out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Normalize();
  return out;
}

BigNum BigNum::Sub(const BigNum& a, const BigNum& b) {
  assert(Cmp(a, b) >= 0);
  BigNum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Normalize();
  return out;
}

BigNum BigNum::Mul(const BigNum& a, const BigNum& b) {
  if (a.IsZero() || b.IsZero()) return BigNum();
  BigNum out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + b.limbs_.size()] += static_cast<uint32_t>(carry);
  }
  out.Normalize();
  return out;
}

BigNum BigNum::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) {
    BigNum out = *this;
    return out;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Normalize();
  return out;
}

BigNum BigNum::ShiftRight(size_t bits) const {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigNum();
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Normalize();
  return out;
}

void BigNum::DivMod(const BigNum& a, const BigNum& b, BigNum* quotient,
                    BigNum* remainder) {
  assert(!b.IsZero() && "division by zero");
  if (Cmp(a, b) < 0) {
    if (quotient) *quotient = BigNum();
    if (remainder) *remainder = a;
    return;
  }
  if (b.limbs_.size() == 1) {
    // Single-limb fast path.
    uint64_t divisor = b.limbs_[0];
    BigNum q;
    q.limbs_.assign(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    q.Normalize();
    if (quotient) *quotient = std::move(q);
    if (remainder) *remainder = FromU64(rem);
    return;
  }

  // Knuth TAOCP 4.3.1 Algorithm D.
  size_t shift = std::countl_zero(b.limbs_.back());
  BigNum u = a.ShiftLeft(shift);
  BigNum v = b.ShiftLeft(shift);
  size_t n = v.limbs_.size();
  // Ensure u has one extra limb for the algorithm's u[j+n] access.
  u.limbs_.resize(std::max(u.limbs_.size(), a.limbs_.size() + 1) + 1, 0);
  size_t m = u.limbs_.size() - n - 1;

  BigNum q;
  q.limbs_.assign(m + 1, 0);
  const uint64_t v_hi = v.limbs_[n - 1];
  const uint64_t v_lo = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    uint64_t numerator =
        (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t qhat = numerator / v_hi;
    uint64_t rhat = numerator % v_hi;
    while (qhat >= kBase ||
           qhat * v_lo > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_hi;
      if (rhat >= kBase) break;
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t product = qhat * v.limbs_[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u.limbs_[i + j]) -
                     static_cast<int64_t>(product & 0xFFFFFFFF) - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(diff);
    }
    int64_t top = static_cast<int64_t>(u.limbs_[j + n]) -
                  static_cast<int64_t>(carry) - borrow;
    if (top < 0) {
      // Add back: qhat was one too large.
      top += static_cast<int64_t>(kBase);
      --qhat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] +
                       add_carry;
        u.limbs_[i + j] = static_cast<uint32_t>(sum);
        add_carry = sum >> 32;
      }
      top += static_cast<int64_t>(add_carry);
      top &= 0xFFFFFFFF;
    }
    u.limbs_[j + n] = static_cast<uint32_t>(top);
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  q.Normalize();
  if (quotient) *quotient = std::move(q);
  if (remainder) {
    u.limbs_.resize(n);
    u.Normalize();
    *remainder = u.ShiftRight(shift);
  }
}

BigNum BigNum::Mod(const BigNum& a, const BigNum& m) {
  BigNum r;
  DivMod(a, m, nullptr, &r);
  return r;
}

uint32_t BigNum::ModU32(const BigNum& a, uint32_t m) {
  assert(m != 0);
  uint64_t rem = 0;
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    rem = ((rem << 32) | a.limbs_[i]) % m;
  }
  return static_cast<uint32_t>(rem);
}

namespace {

using u128 = unsigned __int128;

// Montgomery arithmetic modulo an odd n of at most 64 * kMaxLimbs bits.
// Represents x as xR mod n with R = 2^(64*k) over k 64-bit limbs; products
// use CIOS (Koc, Acar and Kaliski, IEEE Micro 1996) with 128-bit
// intermediates. Operands are caller-owned arrays of k limbs, so no product
// allocates.
class Montgomery {
 public:
  static constexpr size_t kMaxLimbs = 64;

  explicit Montgomery(const BigNum& n) : k_((n.limbs().size() + 1) / 2) {
    Load(n, n_);
    // n0inv = -n^-1 mod 2^64 by Newton iteration: an odd n is its own
    // inverse mod 8, and each step doubles the correct low bits.
    uint64_t x = n_[0];
    for (int i = 0; i < 5; ++i) x *= 2 - n_[0] * x;
    n0inv_ = ~x + 1;
  }

  size_t limbs() const { return k_; }

  // The low k limbs of v.
  void Load(const BigNum& v, uint64_t* out) const {
    const std::vector<uint32_t>& w = v.limbs();
    for (size_t i = 0; i < k_; ++i) {
      uint64_t lo = 2 * i < w.size() ? w[2 * i] : 0;
      uint64_t hi = 2 * i + 1 < w.size() ? w[2 * i + 1] : 0;
      out[i] = lo | hi << 32;
    }
  }

  // out = a * b * R^-1 mod n for a, b < n. out may alias a or b.
  void Mul(const uint64_t* a, const uint64_t* b, uint64_t* out) const {
    uint64_t t[kMaxLimbs + 2];
    for (size_t j = 0; j <= k_; ++j) t[j] = 0;
    for (size_t i = 0; i < k_; ++i) {
      // t += a[i] * b
      uint64_t carry = 0;
      for (size_t j = 0; j < k_; ++j) {
        u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
        t[j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      u128 top = static_cast<u128>(t[k_]) + carry;
      t[k_] = static_cast<uint64_t>(top);
      t[k_ + 1] = static_cast<uint64_t>(top >> 64);

      // t = (t + m * n) / 2^64, with m chosen so the low limb cancels.
      uint64_t m = t[0] * n0inv_;
      u128 low = static_cast<u128>(m) * n_[0] + t[0];
      carry = static_cast<uint64_t>(low >> 64);
      for (size_t j = 1; j < k_; ++j) {
        u128 cur = static_cast<u128>(m) * n_[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      top = static_cast<u128>(t[k_]) + carry;
      t[k_ - 1] = static_cast<uint64_t>(top);
      t[k_] = t[k_ + 1] + static_cast<uint64_t>(top >> 64);
    }
    // t < 2n, so one conditional subtraction brings it into [0, n).
    if (t[k_] != 0 || !BelowModulus(t)) SubModulus(t);
    std::copy(t, t + k_, out);
  }

 private:
  bool BelowModulus(const uint64_t* t) const {
    for (size_t i = k_; i-- > 0;) {
      if (t[i] != n_[i]) return t[i] < n_[i];
    }
    return false;
  }
  // t -= n over k limbs; the borrow out of the top limb cancels t[k].
  void SubModulus(uint64_t* t) const {
    uint64_t borrow = 0;
    for (size_t i = 0; i < k_; ++i) {
      u128 diff = static_cast<u128>(t[i]) - n_[i] - borrow;
      t[i] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 64) & 1;
    }
  }

  size_t k_;
  uint64_t n0inv_;
  uint64_t n_[kMaxLimbs];
};

constexpr size_t kMaxWindow = 5;

// Width of the fixed exponent windows: a wider window saves products per
// exponent bit but costs 2^w - 2 products to build its table.
size_t WindowBits(size_t exp_bits) {
  if (exp_bits > 239) return 5;
  if (exp_bits > 79) return 4;
  if (exp_bits > 23) return 3;
  return 1;
}

// Bits [pos, pos + width) of e.
uint32_t ExpWindow(const BigNum& e, size_t pos, size_t width) {
  uint32_t v = 0;
  for (size_t i = width; i-- > 0;) v = v << 1 | e.Bit(pos + i);
  return v;
}

}  // namespace

BigNum BigNum::ModExp(const BigNum& base, const BigNum& exp, const BigNum& m) {
  assert(!m.IsZero());
  if (m == FromU64(1)) return BigNum();
  if (exp.IsZero()) return FromU64(1);

  if (m.IsOdd() && m.BitLength() <= 64 * Montgomery::kMaxLimbs) {
    // Fixed-window square-and-multiply over Montgomery residues.
    const Montgomery mont(m);
    const size_t k = mont.limbs();
    const size_t bits = exp.BitLength();
    const size_t w = WindowBits(bits);
    // Slot v (v >= 1) of the table holds base^v R mod n.
    uint64_t table[(size_t{1} << kMaxWindow) * Montgomery::kMaxLimbs];
    uint64_t acc[Montgomery::kMaxLimbs];
    uint64_t* b = table + k;
    mont.Load(Mod(base, m), b);
    // Into Montgomery form: b * R^2 * R^-1, with R^2 mod n held in acc.
    mont.Load(Mod(FromU64(1).ShiftLeft(128 * k), m), acc);
    mont.Mul(b, acc, b);
    for (size_t v = 2; v < (size_t{1} << w); ++v) {
      mont.Mul(table + (v - 1) * k, b, table + v * k);
    }

    // Windows lie on a grid from bit 0. The leading one holds the top set
    // bit, so it is never zero and seeds the accumulator.
    size_t pos = (bits - 1) / w * w;
    const uint64_t* lead = table + ExpWindow(exp, pos, bits - pos) * k;
    std::copy(lead, lead + k, acc);
    while (pos > 0) {
      pos -= w;
      for (size_t s = 0; s < w; ++s) mont.Mul(acc, acc, acc);
      const uint32_t v = ExpWindow(exp, pos, w);
      if (v != 0) mont.Mul(acc, table + v * k, acc);
    }
    // Out of Montgomery form: acc * 1 * R^-1.
    uint64_t one[Montgomery::kMaxLimbs] = {1};
    mont.Mul(acc, one, acc);

    BigNum result;
    result.limbs_.resize(2 * k);
    for (size_t i = 0; i < k; ++i) {
      result.limbs_[2 * i] = static_cast<uint32_t>(acc[i]);
      result.limbs_[2 * i + 1] = static_cast<uint32_t>(acc[i] >> 32);
    }
    result.Normalize();
    return result;
  }

  // Fallback: division-based square-and-multiply (even or oversized moduli).
  BigNum result = FromU64(1);
  BigNum b = Mod(base, m);
  size_t bits = exp.BitLength();
  for (size_t i = bits; i-- > 0;) {
    result = Mod(Mul(result, result), m);
    if (exp.Bit(i)) result = Mod(Mul(result, b), m);
  }
  return result;
}

BigNum BigNum::Gcd(BigNum a, BigNum b) {
  while (!b.IsZero()) {
    BigNum r = Mod(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Result<BigNum> BigNum::ModInverse(const BigNum& a, const BigNum& m) {
  // Extended Euclid tracking coefficients in signed form:
  // maintain (r, sign, t) with t*a ≡ sign*r (mod m) style bookkeeping.
  // To stay in unsigned arithmetic we track t modulo m with explicit sign.
  BigNum r0 = m;
  BigNum r1 = Mod(a, m);
  BigNum t0;            // 0
  BigNum t1 = FromU64(1);
  bool t0_neg = false, t1_neg = false;

  while (!r1.IsZero()) {
    BigNum q, r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q*t1 with sign handling.
    BigNum qt1 = Mul(q, t1);
    BigNum t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: t0 - q*t1 may flip sign.
      if (Cmp(t0, qt1) >= 0) {
        t2 = Sub(t0, qt1);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt1, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt1);
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (r0 != FromU64(1)) {
    return Status::CryptoError("ModInverse: arguments not coprime");
  }
  BigNum inv = Mod(t0, m);
  if (t0_neg && !inv.IsZero()) inv = Sub(m, inv);
  return inv;
}

BigNum BigNum::RandomBits(size_t bits,
                          const std::function<uint32_t()>& rng) {
  if (bits == 0) return BigNum();
  BigNum n;
  n.limbs_.assign((bits + 31) / 32, 0);
  for (auto& limb : n.limbs_) limb = rng();
  // Mask to exactly `bits` and force the top bit.
  size_t top_bits = bits % 32;
  if (top_bits != 0) {
    n.limbs_.back() &= (1U << top_bits) - 1;
    n.limbs_.back() |= 1U << (top_bits - 1);
  } else {
    n.limbs_.back() |= 1U << 31;
  }
  n.Normalize();
  return n;
}

bool BigNum::IsProbablePrime(const BigNum& n, int rounds,
                             const std::function<uint32_t()>& rng) {
  if (n.BitLength() <= 6) {
    uint64_t v = n.ToU64();
    if (v < 2) return false;
    for (uint64_t d = 2; d * d <= v; ++d) {
      if (v % d == 0) return false;
    }
    return true;
  }
  if (!n.IsOdd()) return false;
  for (uint32_t p : kSmallPrimes) {
    if (ModU32(n, p) == 0) return n == FromU64(p);
  }

  // n - 1 = d * 2^s with d odd.
  BigNum n_minus_1 = Sub(n, FromU64(1));
  BigNum d = n_minus_1;
  size_t s = 0;
  while (!d.IsOdd()) {
    d = d.ShiftRight(1);
    ++s;
  }

  size_t bits = n.BitLength();
  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, n-2].
    BigNum a;
    do {
      a = RandomBits(bits - 1, rng);
    } while (Cmp(a, FromU64(2)) < 0 || Cmp(a, Sub(n, FromU64(2))) > 0);

    BigNum x = ModExp(a, d, n);
    if (x == FromU64(1) || x == n_minus_1) continue;
    bool composite = true;
    for (size_t i = 0; i + 1 < s; ++i) {
      x = Mod(Mul(x, x), n);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigNum BigNum::GeneratePrime(size_t bits,
                             const std::function<uint32_t()>& rng) {
  assert(bits >= 16);
  while (true) {
    BigNum candidate = RandomBits(bits, rng);
    // Force the two top bits (so p*q has full length) and oddness.
    BigNum top2 = FromU64(3).ShiftLeft(bits - 2);
    candidate = Add(Mod(candidate, top2), top2);
    if (!candidate.IsOdd()) candidate = Add(candidate, FromU64(1));
    // Incremental search from the candidate.
    for (int step = 0; step < 256; ++step) {
      if (candidate.BitLength() != bits) break;
      if (IsProbablePrime(candidate, 12, rng)) return candidate;
      candidate = Add(candidate, FromU64(2));
    }
  }
}

}  // namespace secureblox::crypto
