// Microbenchmarks for the cryptographic substrate (google-benchmark):
// the primitive costs that drive every curve in Figures 4-12. SHA-1, HMAC
// and AES-CTR rows are labelled with the tier they ran: the one this CPU
// picks, plus a portable row each so the fallback's speed stays tracked.
#include <benchmark/benchmark.h>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/hmac_drbg.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace secureblox::crypto {
namespace {

Bytes MakePayload(size_t size) {
  Bytes out(size);
  for (size_t i = 0; i < size; ++i) out[i] = static_cast<uint8_t>(i * 131);
  return out;
}

void BM_Sha1(benchmark::State& state) {
  Bytes payload = MakePayload(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1Digest(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(Sha1TierName(DetectSha1Tier()));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha1Portable(benchmark::State& state) {
  Bytes payload = MakePayload(state.range(0));
  for (auto _ : state) {
    Sha1 h(Sha1Tier::kPortable);
    h.Update(payload);
    benchmark::DoNotOptimize(h.Finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(Sha1TierName(Sha1Tier::kPortable));
}
BENCHMARK(BM_Sha1Portable)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  Bytes payload = MakePayload(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256Digest(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024);

void BM_HmacSha1(benchmark::State& state) {
  Bytes key = MakePayload(16);
  Bytes payload = MakePayload(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha1(key, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(Sha1TierName(DetectSha1Tier()));
}
BENCHMARK(BM_HmacSha1)->Arg(64)->Arg(1024);

void BM_AesCtrEncrypt(benchmark::State& state) {
  Bytes key = MakePayload(16);
  Bytes nonce = MakePayload(16);
  Bytes payload = MakePayload(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AesCtrEncrypt(key, nonce, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(AesTierName(DetectAesTier()));
}
BENCHMARK(BM_AesCtrEncrypt)->Arg(64)->Arg(1024)->Arg(65536);

// The keystream XOR alone (no key expansion or copy), on the portable tier.
void BM_AesCtrPortable(benchmark::State& state) {
  Aes128 aes = Aes128::Create(MakePayload(16)).value();
  Bytes nonce = MakePayload(16);
  Bytes payload = MakePayload(state.range(0));
  for (auto _ : state) {
    Bytes counter = nonce;
    aes.CtrXor(AesTier::kPortable, counter.data(), payload.data(),
               payload.size());
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(AesTierName(AesTier::kPortable));
}
BENCHMARK(BM_AesCtrPortable)->Arg(65536);

const RsaKeyPair& KeyOf(size_t bits) {
  static auto* keys = new std::map<size_t, RsaKeyPair>();
  auto it = keys->find(bits);
  if (it == keys->end()) {
    HmacDrbg drbg(BytesFromString("bench-" + std::to_string(bits)));
    it = keys->emplace(bits, RsaGenerateKeyPair(bits, [&] {
                                return drbg.NextU32();
                              }).value())
             .first;
  }
  return it->second;
}

void BM_RsaSign(benchmark::State& state) {
  const RsaKeyPair& key = KeyOf(state.range(0));
  Bytes payload = MakePayload(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaSign(key, payload));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024);

void BM_RsaVerify(benchmark::State& state) {
  const RsaKeyPair& key = KeyOf(state.range(0));
  Bytes payload = MakePayload(256);
  Bytes sig = RsaSign(key, payload).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaVerify(key.pub, payload, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024);

void BM_RsaKeyGen512(benchmark::State& state) {
  uint64_t salt = 0;
  for (auto _ : state) {
    HmacDrbg drbg(BytesFromString("keygen" + std::to_string(salt++)));
    benchmark::DoNotOptimize(
        RsaGenerateKeyPair(512, [&] { return drbg.NextU32(); }));
  }
}
BENCHMARK(BM_RsaKeyGen512)->Unit(benchmark::kMillisecond);

void BM_HmacDrbg(benchmark::State& state) {
  HmacDrbg drbg(MakePayload(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(drbg.Generate(64));
  }
}
BENCHMARK(BM_HmacDrbg);

}  // namespace
}  // namespace secureblox::crypto

BENCHMARK_MAIN();
