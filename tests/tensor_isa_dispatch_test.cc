#include "tensor/isa.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/kernels.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/rng.h"

/// \file tensor_isa_dispatch_test.cc
/// \brief The runtime ISA dispatch contract: strict GOGGLES_ISA parsing,
/// graceful fallback when a binary carries tiers the host lacks, and —
/// the load-bearing invariant — bit-identical f32/f64 kernel results at
/// every tier the host can run (GEMM, conv, the BLAS-1 reductions). Plus
/// the quantized extraction path: exact int8 GEMM, bf16 round-trip, and
/// the quantized conv's own determinism guarantees.

namespace goggles {
namespace {

/// Tiers this process can actually sweep (compiled in AND executable).
std::vector<IsaTier> UsableTiers() {
  std::vector<IsaTier> tiers;
  const uint32_t usable = HostIsaMask() & CompiledIsaMask();
  for (int t = 0; t < kNumIsaTiers; ++t) {
    if ((usable & (1u << t)) != 0) tiers.push_back(static_cast<IsaTier>(t));
  }
  return tiers;
}

/// Restores auto-dispatch after a test forced tiers around.
struct TierSweepGuard {
  ~TierSweepGuard() { ForceIsaTier(ResolveIsaTier(false, IsaTier::kScalar,
                                                  HostIsaMask(),
                                                  CompiledIsaMask())); }
};

std::vector<float> RandomVec(size_t size, Rng* rng) {
  std::vector<float> v(size);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

std::vector<double> RandomVecD(size_t size, Rng* rng) {
  std::vector<double> v(size);
  for (auto& x : v) x = rng->Gaussian();
  return v;
}

// ---------------------------------------------------------------------------
// GOGGLES_ISA parsing and tier resolution
// ---------------------------------------------------------------------------

TEST(IsaParsing, AcceptsExactTierNames) {
  IsaTier tier = IsaTier::kScalar;
  EXPECT_TRUE(ParseIsaTierName("scalar", &tier));
  EXPECT_EQ(tier, IsaTier::kScalar);
  EXPECT_TRUE(ParseIsaTierName("sse2", &tier));
  EXPECT_EQ(tier, IsaTier::kSse2);
  EXPECT_TRUE(ParseIsaTierName("avx2", &tier));
  EXPECT_EQ(tier, IsaTier::kAvx2);
  EXPECT_TRUE(ParseIsaTierName("avx512", &tier));
  EXPECT_EQ(tier, IsaTier::kAvx512);
  EXPECT_TRUE(ParseIsaTierName("neon", &tier));
  EXPECT_EQ(tier, IsaTier::kNeon);
}

TEST(IsaParsing, RejectsEverythingElse) {
  IsaTier tier = IsaTier::kAvx2;
  for (const char* bad : {"", "AVX2", "avx-512", "avx512f", "native", "auto",
                          "scalar ", " sse2", "sse", "3"}) {
    EXPECT_FALSE(ParseIsaTierName(bad, &tier)) << "accepted: '" << bad << "'";
    EXPECT_EQ(tier, IsaTier::kAvx2) << "clobbered out param on '" << bad << "'";
  }
}

TEST(IsaResolution, AutoPicksHighestUsableTier) {
  const uint32_t scalar = IsaTierBit(IsaTier::kScalar);
  const uint32_t sse2 = IsaTierBit(IsaTier::kSse2);
  const uint32_t avx2 = IsaTierBit(IsaTier::kAvx2);
  const uint32_t avx512 = IsaTierBit(IsaTier::kAvx512);
  EXPECT_EQ(ResolveIsaTier(false, IsaTier::kScalar, scalar | sse2 | avx2,
                           scalar | sse2 | avx2),
            IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaTier(false, IsaTier::kScalar,
                           scalar | sse2 | avx2 | avx512,
                           scalar | sse2 | avx2 | avx512),
            IsaTier::kAvx512);
  EXPECT_EQ(ResolveIsaTier(false, IsaTier::kScalar, scalar, scalar),
            IsaTier::kScalar);
}

TEST(IsaResolution, HonorsUsableRequest) {
  const uint32_t all = IsaTierBit(IsaTier::kScalar) |
                       IsaTierBit(IsaTier::kSse2) | IsaTierBit(IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaTier(true, IsaTier::kSse2, all, all), IsaTier::kSse2);
  EXPECT_EQ(ResolveIsaTier(true, IsaTier::kScalar, all, all),
            IsaTier::kScalar);
}

TEST(IsaResolution, BinaryCarriesTierHostLacks) {
  // A fat binary with AVX-512 kernels on an AVX2-only host: both the
  // explicit request and auto-detection must degrade to AVX2.
  const uint32_t compiled =
      IsaTierBit(IsaTier::kScalar) | IsaTierBit(IsaTier::kSse2) |
      IsaTierBit(IsaTier::kAvx2) | IsaTierBit(IsaTier::kAvx512);
  const uint32_t host = IsaTierBit(IsaTier::kScalar) |
                        IsaTierBit(IsaTier::kSse2) |
                        IsaTierBit(IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaTier(true, IsaTier::kAvx512, host, compiled),
            IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaTier(false, IsaTier::kScalar, host, compiled),
            IsaTier::kAvx2);
}

TEST(IsaResolution, HostTierNotCompiledIn) {
  // The mirror case: a lean binary (scalar only) on a capable host.
  const uint32_t compiled = IsaTierBit(IsaTier::kScalar);
  const uint32_t host = IsaTierBit(IsaTier::kScalar) |
                        IsaTierBit(IsaTier::kSse2) |
                        IsaTierBit(IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsaTier(true, IsaTier::kAvx2, host, compiled),
            IsaTier::kScalar);
  EXPECT_EQ(ResolveIsaTier(false, IsaTier::kScalar, host, compiled),
            IsaTier::kScalar);
}

TEST(IsaResolution, RequestStringPath) {
  // ResolveIsaRequest is the exact env-handling path of ActiveIsaTier().
  const uint32_t usable = IsaTierBit(IsaTier::kScalar) |
                          IsaTierBit(IsaTier::kSse2);
  EXPECT_EQ(ResolveIsaRequest("sse2", usable, usable), IsaTier::kSse2);
  EXPECT_EQ(ResolveIsaRequest("scalar", usable, usable), IsaTier::kScalar);
  // Unknown value: warn + auto (highest usable), never a crash.
  EXPECT_EQ(ResolveIsaRequest("fastest-please", usable, usable),
            IsaTier::kSse2);
  EXPECT_EQ(ResolveIsaRequest("", usable, usable), IsaTier::kSse2);
  // Known tier the binary/host cannot run: warn + best usable.
  EXPECT_EQ(ResolveIsaRequest("avx512", usable, usable), IsaTier::kSse2);
}

TEST(IsaRuntime, MasksAndActiveTierAreCoherent) {
  const uint32_t compiled = CompiledIsaMask();
  const uint32_t host = HostIsaMask();
  EXPECT_NE(compiled & IsaTierBit(IsaTier::kScalar), 0u);
  EXPECT_NE(host & IsaTierBit(IsaTier::kScalar), 0u);
  const IsaTier active = ActiveIsaTier();
  EXPECT_NE((compiled & host) & IsaTierBit(active), 0u);
  EXPECT_FALSE(std::string(IsaTierName(active)).empty());
  EXPECT_FALSE(HostCpuFlagsString().empty());
}

TEST(IsaRuntime, ForceIsaTierRejectsUnusableTier) {
  TierSweepGuard guard;
  const uint32_t usable = HostIsaMask() & CompiledIsaMask();
  for (int t = 0; t < kNumIsaTiers; ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    if ((usable & IsaTierBit(tier)) != 0) {
      EXPECT_TRUE(ForceIsaTier(tier));
      EXPECT_EQ(ActiveIsaTier(), tier);
    } else {
      const IsaTier before = ActiveIsaTier();
      EXPECT_FALSE(ForceIsaTier(tier));
      EXPECT_EQ(ActiveIsaTier(), before);
    }
  }
}

// ---------------------------------------------------------------------------
// Forced-tier bit-identity of the f32/f64 kernels
// ---------------------------------------------------------------------------

TEST(TierBitIdentity, SGemmMatchesScalarReferenceAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240811);
  // Shapes straddling the micro-tile and k-chunk boundaries of every tier.
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {8, 16, 32},
                               {17, 33, 70}, {64, 24, 256}, {33, 65, 300}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], n = s[1], k = s[2];
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const std::vector<float> a = RandomVec(static_cast<size_t>(m * k), &rng);
        const std::vector<float> b = RandomVec(static_cast<size_t>(k * n), &rng);
        const std::vector<float> c0 = RandomVec(static_cast<size_t>(m * n), &rng);
        const int64_t lda = ta ? m : k, ldb = tb ? k : n;
        std::vector<float> want = c0;
        SGemmReference(ta, tb, m, n, k, 0.75f, a.data(), lda, b.data(), ldb,
                       0.5f, want.data(), n);
        for (const IsaTier tier : UsableTiers()) {
          ASSERT_TRUE(ForceIsaTier(tier));
          std::vector<float> got = c0;
          SGemm(ta, tb, m, n, k, 0.75f, a.data(), lda, b.data(), ldb, 0.5f,
                got.data(), n);
          ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                   want.size() * sizeof(float)))
              << "tier=" << IsaTierName(tier) << " m=" << m << " n=" << n
              << " k=" << k << " ta=" << ta << " tb=" << tb;
        }
      }
    }
  }
}

/// The max-dot oracle: SGemmReference per instance, then the ascending
/// `if (s > best) best = s` scan from -1 over positions.
std::vector<float> MaxDotReference(int64_t m, int64_t area, int64_t n,
                                   int64_t k,
                                   const std::vector<std::vector<float>>& a,
                                   const std::vector<float>& b) {
  std::vector<float> best(static_cast<size_t>(m * n), -1.0f);
  std::vector<float> scores(static_cast<size_t>(area * n));
  for (int64_t i = 0; i < m; ++i) {
    SGemmReference(false, true, area, n, k, 1.0f,
                   a[static_cast<size_t>(i)].data(), k, b.data(), k, 0.0f,
                   scores.data(), n);
    for (int64_t p = 0; p < area; ++p) {
      for (int64_t j = 0; j < n; ++j) {
        const float s = scores[static_cast<size_t>(p * n + j)];
        float& bij = best[static_cast<size_t>(i * n + j)];
        if (s > bij) bij = s;
      }
    }
  }
  return best;
}

/// Runs SMaxDot under every usable tier and memcmps against the oracle.
void ExpectMaxDotMatchesOracle(int64_t m, int64_t area, int64_t n, int64_t k,
                               const std::vector<std::vector<float>>& a,
                               const std::vector<float>& b) {
  const std::vector<float> want = MaxDotReference(m, area, n, k, a, b);
  std::vector<const float*> rows;
  for (const auto& instance : a) rows.push_back(instance.data());
  for (const IsaTier tier : UsableTiers()) {
    ASSERT_TRUE(ForceIsaTier(tier));
    std::vector<float> got(want.size(), 42.0f);
    SMaxDot(m, area, n, k, rows.data(), b.data(), k, got.data(), n);
    ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(float)))
        << "tier=" << IsaTierName(tier) << " m=" << m << " area=" << area
        << " n=" << n << " k=" << k;
  }
}

TEST(TierBitIdentity, MaxDotMatchesGemmThenMaxAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240816);
  // k = 300 crosses kGemmKChunk (two partials per score); area and n are
  // not always multiples of any tier's MR / NR. Every pair of values
  // meets, but the one corner with all three at their largest is left
  // out: its ~1e9 libm fma calls (oracle plus the scalar and SSE2 tiers)
  // would take ~10 s.
  for (const int64_t k : {1, 8, 300}) {
    for (const int64_t area : {1, 13, 256}) {
      for (const int64_t n : {1, 37, 2040}) {
        if (k == 300 && area == 256 && n == 2040) continue;
        for (const int64_t m : {1, 5}) {
          std::vector<std::vector<float>> a;
          for (int64_t i = 0; i < m; ++i) {
            a.push_back(RandomVec(static_cast<size_t>(area * k), &rng));
          }
          const std::vector<float> b =
              RandomVec(static_cast<size_t>(n * k), &rng);
          ExpectMaxDotMatchesOracle(m, area, n, k, a, b);
        }
      }
    }
  }
}

TEST(TierBitIdentity, MaxDotKeepsTheMinusOneFloor) {
  // Unnormalized rows whose every dot is below -1: the max stays at the
  // -1 the scan starts from.
  TierSweepGuard guard;
  const int64_t m = 2, area = 13, n = 37, k = 8;
  const std::vector<std::vector<float>> a(
      static_cast<size_t>(m), std::vector<float>(area * k, 1.0f));
  const std::vector<float> b(static_cast<size_t>(n * k), -0.5f);
  ExpectMaxDotMatchesOracle(m, area, n, k, a, b);
  std::vector<const float*> rows = {a[0].data(), a[1].data()};
  std::vector<float> got(static_cast<size_t>(m * n));
  SMaxDot(m, area, n, k, rows.data(), b.data(), k, got.data(), n);
  for (const float v : got) ASSERT_EQ(v, -1.0f);
}

TEST(TierBitIdentity, MaxDotOfZeroVectorsIsPositiveZero) {
  // Zero rows score exactly 0 everywhere; the result must be +0, not -0
  // (memcmp in the oracle sweep sees the sign bit).
  TierSweepGuard guard;
  const int64_t m = 1, area = 5, n = 20;
  for (const int64_t k : {0, 8, 300}) {
    const std::vector<std::vector<float>> a(
        static_cast<size_t>(m), std::vector<float>(area * k, -0.0f));
    const std::vector<float> b(static_cast<size_t>(n * k), 0.0f);
    ExpectMaxDotMatchesOracle(m, area, n, k, a, b);
    std::vector<const float*> rows = {a[0].data()};
    std::vector<float> got(static_cast<size_t>(m * n));
    SMaxDot(m, area, n, k, rows.data(), b.data(), k, got.data(), n);
    for (const float v : got) ASSERT_FALSE(std::signbit(v)) << "k=" << k;
  }
}

TEST(TierBitIdentity, DGemmMatchesScalarReferenceAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240812);
  const int64_t shapes[][3] = {{2, 3, 5}, {16, 8, 64}, {31, 9, 257}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], n = s[1], k = s[2];
    for (const bool ta : {false, true}) {
      const std::vector<double> a = RandomVecD(static_cast<size_t>(m * k), &rng);
      const std::vector<double> b = RandomVecD(static_cast<size_t>(k * n), &rng);
      const int64_t lda = ta ? m : k;
      std::vector<double> want(static_cast<size_t>(m * n), 0.0);
      DGemmReference(ta, false, m, n, k, 1.25, a.data(), lda, b.data(), n, 0.0,
                     want.data(), n);
      for (const IsaTier tier : UsableTiers()) {
        ASSERT_TRUE(ForceIsaTier(tier));
        std::vector<double> got(static_cast<size_t>(m * n), 0.0);
        DGemm(ta, false, m, n, k, 1.25, a.data(), lda, b.data(), n, 0.0,
              got.data(), n);
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(double)))
            << "tier=" << IsaTierName(tier) << " m=" << m << " n=" << n
            << " k=" << k << " ta=" << ta;
      }
    }
  }
}

TEST(TierBitIdentity, PackedOperandSurvivesTierSwitch) {
  TierSweepGuard guard;
  Rng rng(20240813);
  const int64_t m = 23, n = 4, k = 300;
  const std::vector<double> a = RandomVecD(static_cast<size_t>(m * k), &rng);
  const std::vector<double> b = RandomVecD(static_cast<size_t>(k * n), &rng);
  std::vector<double> want(static_cast<size_t>(m * n), 0.0);
  DGemmReference(false, false, m, n, k, 1.0, a.data(), k, b.data(), n, 0.0,
                 want.data(), n);
  for (const IsaTier pack_tier : UsableTiers()) {
    ASSERT_TRUE(ForceIsaTier(pack_tier));
    const DGemmPackedA packed = DGemmPackOperandA(false, m, k, a.data(), k);
    EXPECT_EQ(packed.isa_tier, static_cast<int>(pack_tier));
    for (const IsaTier run_tier : UsableTiers()) {
      // The packed layout is tier-specific; consumption must dispatch to
      // the PACKING tier even when the active tier has moved on.
      ASSERT_TRUE(ForceIsaTier(run_tier));
      std::vector<double> got(static_cast<size_t>(m * n), 0.0);
      DGemmWithPackedA(packed, false, n, b.data(), n, 0.0, got.data(), n);
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                               want.size() * sizeof(double)))
          << "pack=" << IsaTierName(pack_tier)
          << " run=" << IsaTierName(run_tier);
    }
  }
}

TEST(TierBitIdentity, Conv2dForwardAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240814);
  Tensor x = Tensor::RandomNormal({3, 4, 9, 9}, 1.0f, &rng);
  Tensor w = Tensor::RandomNormal({6, 4, 3, 3}, 0.5f, &rng);
  Tensor b = Tensor::RandomNormal({6}, 0.1f, &rng);
  Conv2dParams params;
  ASSERT_TRUE(ForceIsaTier(IsaTier::kScalar));
  Result<Tensor> want = Conv2dForward(x, w, b, params);
  ASSERT_TRUE(want.ok());
  for (const IsaTier tier : UsableTiers()) {
    ASSERT_TRUE(ForceIsaTier(tier));
    Result<Tensor> got = Conv2dForward(x, w, b, params);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(0, std::memcmp(want->data(), got->data(),
                             static_cast<size_t>(want->NumElements()) *
                                 sizeof(float)))
        << "tier=" << IsaTierName(tier);
  }
}

TEST(TierBitIdentity, Blas1ReductionsAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240815);
  for (const int64_t n : {1, 7, 16, 33, 1000}) {
    const std::vector<float> a = RandomVec(static_cast<size_t>(n), &rng);
    const std::vector<float> b = RandomVec(static_cast<size_t>(n), &rng);
    ASSERT_TRUE(ForceIsaTier(IsaTier::kScalar));
    const float dot = DotF(a.data(), b.data(), n);
    const float cos = CosineSimilarityF(a.data(), b.data(), n);
    const float dist = SquaredDistanceF(a.data(), b.data(), n);
    for (const IsaTier tier : UsableTiers()) {
      ASSERT_TRUE(ForceIsaTier(tier));
      EXPECT_EQ(dot, DotF(a.data(), b.data(), n))
          << "tier=" << IsaTierName(tier) << " n=" << n;
      EXPECT_EQ(cos, CosineSimilarityF(a.data(), b.data(), n))
          << "tier=" << IsaTierName(tier) << " n=" << n;
      EXPECT_EQ(dist, SquaredDistanceF(a.data(), b.data(), n))
          << "tier=" << IsaTierName(tier) << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Quantized extraction path
// ---------------------------------------------------------------------------

TEST(Bf16, RoundTripAndRounding) {
  // Values with <= 8 mantissa bits survive the round trip exactly.
  for (const float v : {0.0f, 1.0f, -2.5f, 0.15625f, 384.0f, -1.0f / 1024}) {
    EXPECT_EQ(v, Bf16ToF32(F32ToBf16(v))) << v;
  }
  // bf16 keeps 7 explicit mantissa bits, so the quantum at 1.0 is 2^-7
  // and the tie sits at 2^-8. Round-to-nearest-even: the tie goes to the
  // even mantissa (1.0), 0.75 quanta rounds up, and the 1.5-quanta tie
  // goes to the even neighbor 1 + 2^-6.
  EXPECT_EQ(1.0f, Bf16ToF32(F32ToBf16(1.0f + 0x1.0p-8f)));
  EXPECT_EQ(1.0f + 0x1.0p-7f, Bf16ToF32(F32ToBf16(1.0f + 0x1.8p-8f)));
  EXPECT_EQ(1.0f + 0x1.0p-6f, Bf16ToF32(F32ToBf16(1.0f + 0x1.8p-7f)));
  // NaN stays NaN; infinity stays infinity.
  EXPECT_TRUE(std::isnan(Bf16ToF32(F32ToBf16(NAN))));
  EXPECT_EQ(INFINITY, Bf16ToF32(F32ToBf16(INFINITY)));
}

TEST(QuantizedConv, Bf16TracksF32Closely) {
  Rng rng(20240816);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 8}, 1.0f, &rng);
  Tensor w = Tensor::RandomNormal({5, 3, 3, 3}, 0.5f, &rng);
  Tensor b = Tensor::RandomNormal({5}, 0.1f, &rng);
  Conv2dParams params;
  Result<Tensor> full = Conv2dForward(x, w, b, params);
  ASSERT_TRUE(full.ok());
  const QuantizedConvWeights qw =
      QuantizeConvWeights(w, ConvPrecision::kBf16);
  Result<Tensor> quant = Conv2dForwardQuantized(x, qw, b, params);
  ASSERT_TRUE(quant.ok());
  ASSERT_EQ(full->NumElements(), quant->NumElements());
  for (int64_t i = 0; i < full->NumElements(); ++i) {
    // bf16 keeps 8 mantissa bits: ~0.4% relative per weight.
    EXPECT_NEAR(full->data()[i], quant->data()[i],
                2e-2f * (1.0f + std::fabs(full->data()[i])))
        << i;
  }
}

TEST(QuantizedConv, Int8TracksF32Approximately) {
  Rng rng(20240817);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 8}, 1.0f, &rng);
  Tensor w = Tensor::RandomNormal({5, 3, 3, 3}, 0.5f, &rng);
  Tensor b = Tensor::RandomNormal({5}, 0.1f, &rng);
  Conv2dParams params;
  Result<Tensor> full = Conv2dForward(x, w, b, params);
  ASSERT_TRUE(full.ok());
  const QuantizedConvWeights qw =
      QuantizeConvWeights(w, ConvPrecision::kInt8);
  ASSERT_EQ(qw.q8.size(), static_cast<size_t>(w.NumElements()));
  ASSERT_EQ(qw.scale.size(), 5u);
  Result<Tensor> quant = Conv2dForwardQuantized(x, qw, b, params);
  ASSERT_TRUE(quant.ok());
  double err2 = 0.0, ref2 = 0.0;
  for (int64_t i = 0; i < full->NumElements(); ++i) {
    const double d = full->data()[i] - quant->data()[i];
    err2 += d * d;
    ref2 += static_cast<double>(full->data()[i]) * full->data()[i];
  }
  // 8-bit symmetric quantization of both operands: a few percent relative
  // RMS error on Gaussian data.
  EXPECT_LT(std::sqrt(err2 / ref2), 0.05);
}

TEST(QuantizedConv, BatchEqualsSingletonsBitForBit) {
  Rng rng(20240818);
  Tensor batch = Tensor::RandomNormal({4, 3, 8, 8}, 1.0f, &rng);
  Tensor w = Tensor::RandomNormal({5, 3, 3, 3}, 0.5f, &rng);
  Tensor b = Tensor::RandomNormal({5}, 0.1f, &rng);
  Conv2dParams params;
  const QuantizedConvWeights qw =
      QuantizeConvWeights(w, ConvPrecision::kInt8);
  Result<Tensor> batched = Conv2dForwardQuantized(batch, qw, b, params);
  ASSERT_TRUE(batched.ok());
  const int64_t per_image = batched->NumElements() / 4;
  for (int64_t i = 0; i < 4; ++i) {
    // The activation scale is per image, so each image's result must not
    // depend on what else rode in the batch (the serve micro-batching
    // contract extends to the quantized path).
    Tensor one({1, 3, 8, 8});
    std::memcpy(one.data(), batch.data() + i * 3 * 8 * 8,
                sizeof(float) * 3 * 8 * 8);
    Result<Tensor> single = Conv2dForwardQuantized(one, qw, b, params);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(0, std::memcmp(single->data(), batched->data() + i * per_image,
                             static_cast<size_t>(per_image) * sizeof(float)))
        << "image " << i;
  }
}

TEST(QuantizedConv, Int8IdenticalAtEveryTier) {
  TierSweepGuard guard;
  Rng rng(20240819);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 8}, 1.0f, &rng);
  Tensor w = Tensor::RandomNormal({5, 3, 3, 3}, 0.5f, &rng);
  Tensor b = Tensor::RandomNormal({5}, 0.1f, &rng);
  Conv2dParams params;
  const QuantizedConvWeights qw =
      QuantizeConvWeights(w, ConvPrecision::kInt8);
  ASSERT_TRUE(ForceIsaTier(IsaTier::kScalar));
  Result<Tensor> want = Conv2dForwardQuantized(x, qw, b, params);
  ASSERT_TRUE(want.ok());
  for (const IsaTier tier : UsableTiers()) {
    // int32 accumulation is exact, so the quantized path is bit-identical
    // across tiers even though it is NOT bit-identical to f32.
    ASSERT_TRUE(ForceIsaTier(tier));
    Result<Tensor> got = Conv2dForwardQuantized(x, qw, b, params);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(0, std::memcmp(want->data(), got->data(),
                             static_cast<size_t>(want->NumElements()) *
                                 sizeof(float)))
        << "tier=" << IsaTierName(tier);
  }
}

TEST(QuantizedConv, PrecisionNamesParseStrictly) {
  ConvPrecision p = ConvPrecision::kBf16;
  EXPECT_TRUE(ParseConvPrecisionName("f32", &p));
  EXPECT_EQ(p, ConvPrecision::kF32);
  EXPECT_TRUE(ParseConvPrecisionName("bf16", &p));
  EXPECT_EQ(p, ConvPrecision::kBf16);
  EXPECT_TRUE(ParseConvPrecisionName("int8", &p));
  EXPECT_EQ(p, ConvPrecision::kInt8);
  for (const char* bad : {"", "INT8", "fp32", "i8", "bf16 "}) {
    ConvPrecision q = ConvPrecision::kInt8;
    EXPECT_FALSE(ParseConvPrecisionName(bad, &q)) << bad;
    EXPECT_EQ(q, ConvPrecision::kInt8) << bad;
  }
}

}  // namespace
}  // namespace goggles
