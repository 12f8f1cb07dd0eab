#include "crypto/sha1.h"

#include <cstring>

namespace secureblox::crypto {

namespace {
inline uint32_t Rotl32(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }
}  // namespace

Sha1::Sha1() { Reset(); }

void Sha1::Reset() {
  h_[0] = 0x67452301;
  h_[1] = 0xEFCDAB89;
  h_[2] = 0x98BADCFE;
  h_[3] = 0x10325476;
  h_[4] = 0xC3D2E1F0;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha1::ProcessBlock(const uint8_t* block) {
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

  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
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
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  while (len > 0) {
    size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
}

Bytes Sha1::Finish() {
  uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    // No room left for the length suffix: zero-fill and start a new block.
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ProcessBlock(buffer_);
  buffer_len_ = 0;

  Bytes out(kDigestSize);
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
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
