// Tests for the src/simd/ runtime-dispatch subsystem: tier selection and
// forcing, bit-exact parity of every kernel across all supported dispatch
// tiers (odd lengths, misaligned inputs, empty inputs, early-exit
// partials), the all-clusters scans against the per-pair kernels, and the
// ScalarMix64 == Mix64 pin the hashing rewires rely on.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "simd/dispatch.h"
#include "simd/kernel_table.h"
#include "util/rng.h"

namespace lshclust {
namespace {

// Restores the detected tier when a test that forces tiers exits, so test
// order never changes what the rest of the binary runs on.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceSimdTier(saved_); }

 private:
  simd::SimdTier saved_;
};

// The tiers whose kernels the running machine can execute. kScalar is
// always first, so parity loops compare every tier against it.
std::vector<simd::SimdTier> SupportedTiers() {
  std::vector<simd::SimdTier> tiers = {simd::SimdTier::kScalar};
  for (const simd::SimdTier tier :
       {simd::SimdTier::kSse42, simd::SimdTier::kAvx2,
        simd::SimdTier::kAvx512}) {
    if (simd::TierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

// Lengths that exercise empty inputs, sub-block tails, exact block
// multiples, and off-by-one around every vector width and the 32-element
// bounded-mismatch block.
const uint32_t kLengths[] = {0,  1,  2,  3,  5,   7,   8,   9,   15, 16, 17,
                             31, 32, 33, 63, 64,  65,  96,  100, 127, 128,
                             129, 200, 257};

std::vector<uint32_t> RandomCodes(uint32_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> out(count);
  for (auto& v : out) v = static_cast<uint32_t>(rng.Below(1u << 30));
  return out;
}

std::vector<double> RandomDoubles(uint32_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(count);
  for (auto& v : out) v = rng.NextDouble() * 8.0 - 4.0;
  return out;
}

TEST(SimdDispatchTest, DetectedTierIsSupportedAndNamed) {
  const simd::SimdTier tier = simd::ActiveTier();
  EXPECT_TRUE(simd::TierSupported(tier));
  EXPECT_STRNE(simd::TierName(tier), "");
  EXPECT_FALSE(simd::CpuFeatureString().empty());
}

TEST(SimdDispatchTest, ForceSimdTierSwitchesAndRejectsUnsupported) {
  TierGuard guard;
  // Scalar is supported everywhere.
  ASSERT_TRUE(simd::ForceSimdTier(simd::SimdTier::kScalar));
  EXPECT_EQ(simd::ActiveTier(), simd::SimdTier::kScalar);
  EXPECT_STREQ(simd::TierName(simd::ActiveTier()), "scalar");
  for (const simd::SimdTier tier :
       {simd::SimdTier::kSse42, simd::SimdTier::kAvx2,
        simd::SimdTier::kAvx512}) {
    if (simd::TierSupported(tier)) {
      EXPECT_TRUE(simd::ForceSimdTier(tier));
      EXPECT_EQ(simd::ActiveTier(), tier);
    } else {
      // An unsupported tier is refused and the active tier is unchanged.
      const simd::SimdTier before = simd::ActiveTier();
      EXPECT_FALSE(simd::ForceSimdTier(tier));
      EXPECT_EQ(simd::ActiveTier(), before);
    }
  }
}

TEST(SimdKernelParityTest, MismatchAllTiersAllLengthsAndAlignments) {
  TierGuard guard;
  const auto tiers = SupportedTiers();
  for (const uint32_t m : kLengths) {
    // +1 so the offset-1 view stays in bounds: unaligned uint32_t* inputs
    // are the common case (rows of a packed matrix).
    const auto a = RandomCodes(m + 1, 1000 + m);
    auto b = a;
    for (uint32_t j = 0; j < m + 1; j += 3) b[j] ^= 1u;
    for (const uint32_t offset : {0u, 1u}) {
      ASSERT_TRUE(simd::ForceSimdTier(simd::SimdTier::kScalar));
      const uint32_t expected =
          simd::ActiveKernels().mismatch(a.data() + offset,
                                         b.data() + offset, m);
      for (const simd::SimdTier tier : tiers) {
        ASSERT_TRUE(simd::ForceSimdTier(tier));
        EXPECT_EQ(simd::ActiveKernels().mismatch(a.data() + offset,
                                                 b.data() + offset, m),
                  expected)
            << "tier=" << simd::TierName(tier) << " m=" << m
            << " offset=" << offset;
      }
    }
  }
}

TEST(SimdKernelParityTest, BoundedMismatchEarlyExitPartialsMatch) {
  TierGuard guard;
  const auto tiers = SupportedTiers();
  for (const uint32_t m : kLengths) {
    const auto a = RandomCodes(m, 2000 + m);
    auto b = a;
    for (uint32_t j = 0; j < m; j += 2) b[j] ^= 1u;  // ~50% mismatches
    // Bounds below, at, and above the true distance exercise the
    // early-exit partial (whose value is part of the contract: every tier
    // checks the bound at the same 32-element block boundaries).
    for (const uint32_t bound : {0u, 1u, m / 4 + 1, m + 1}) {
      ASSERT_TRUE(simd::ForceSimdTier(simd::SimdTier::kScalar));
      const uint32_t expected = simd::ActiveKernels().bounded_mismatch(
          a.data(), b.data(), m, bound);
      for (const simd::SimdTier tier : tiers) {
        ASSERT_TRUE(simd::ForceSimdTier(tier));
        EXPECT_EQ(simd::ActiveKernels().bounded_mismatch(a.data(), b.data(),
                                                         m, bound),
                  expected)
            << "tier=" << simd::TierName(tier) << " m=" << m
            << " bound=" << bound;
      }
    }
  }
}

TEST(SimdKernelParityTest, BoundedSquaredL2BitIdenticalAcrossTiers) {
  TierGuard guard;
  const auto tiers = SupportedTiers();
  for (const uint32_t d : kLengths) {
    const auto x = RandomDoubles(d + 1, 3000 + d);
    const auto y = RandomDoubles(d + 1, 4000 + d);
    for (const uint32_t offset : {0u, 1u}) {
      for (const double bound : {0.5, 1e300}) {
        ASSERT_TRUE(simd::ForceSimdTier(simd::SimdTier::kScalar));
        const double expected = simd::ActiveKernels().bounded_sql2(
            x.data() + offset, y.data() + offset, d, bound);
        for (const simd::SimdTier tier : tiers) {
          ASSERT_TRUE(simd::ForceSimdTier(tier));
          const double got = simd::ActiveKernels().bounded_sql2(
              x.data() + offset, y.data() + offset, d, bound);
          // Bit equality, not approximate: the blocked reduction order is
          // fixed across tiers by design.
          EXPECT_EQ(std::memcmp(&got, &expected, sizeof got), 0)
              << "tier=" << simd::TierName(tier) << " d=" << d
              << " offset=" << offset << " bound=" << bound
              << " got=" << got << " expected=" << expected;
        }
      }
    }
  }
}

TEST(SimdKernelParityTest, DotBitIdenticalAcrossTiers) {
  TierGuard guard;
  const auto tiers = SupportedTiers();
  for (const uint32_t d : kLengths) {
    const auto x = RandomDoubles(d + 1, 5000 + d);
    const auto y = RandomDoubles(d + 1, 6000 + d);
    for (const uint32_t offset : {0u, 1u}) {
      ASSERT_TRUE(simd::ForceSimdTier(simd::SimdTier::kScalar));
      const double expected = simd::ActiveKernels().dot(
          x.data() + offset, y.data() + offset, d);
      for (const simd::SimdTier tier : tiers) {
        ASSERT_TRUE(simd::ForceSimdTier(tier));
        const double got = simd::ActiveKernels().dot(x.data() + offset,
                                                     y.data() + offset, d);
        EXPECT_EQ(std::memcmp(&got, &expected, sizeof got), 0)
            << "tier=" << simd::TierName(tier) << " d=" << d
            << " offset=" << offset;
      }
    }
  }
}

TEST(SimdKernelParityTest, MinHashScanAllTiers) {
  TierGuard guard;
  const auto tiers = SupportedTiers();
  for (const uint32_t n : kLengths) {
    // Step values around wrap-around behaviour: odd steps (the g1|1 the
    // hasher uses), huge steps that overflow, step 1.
    for (const uint64_t step : {1ull, 0x9E3779B97F4A7C15ull, ~0ull - 6}) {
      std::vector<uint64_t> init(n);
      Rng rng(7000 + n);
      for (auto& v : init) v = rng.Next();
      const uint64_t h0 = rng.Next();

      ASSERT_TRUE(simd::ForceSimdTier(simd::SimdTier::kScalar));
      std::vector<uint64_t> expected = init;
      simd::ActiveKernels().minhash_scan(expected.data(), n, h0, step);
      for (const simd::SimdTier tier : tiers) {
        ASSERT_TRUE(simd::ForceSimdTier(tier));
        std::vector<uint64_t> got = init;
        simd::ActiveKernels().minhash_scan(got.data(), n, h0, step);
        EXPECT_EQ(got, expected)
            << "tier=" << simd::TierName(tier) << " n=" << n
            << " step=" << step;
      }
    }
  }
}

TEST(SimdKernelParityTest, Mix64BatchAllTiersAndMatchesRngMix64) {
  TierGuard guard;
  const auto tiers = SupportedTiers();
  for (const uint32_t n : kLengths) {
    const auto tokens = RandomCodes(n + 1, 8000 + n);
    const uint64_t seed = 0x0123456789abcdefull + n;
    for (const uint32_t offset : {0u, 1u}) {
      // The reference is rng.h's Mix64 itself: the hashing layer swapped
      // its per-token loop for mix64_batch, which is only sound if the
      // kernel is a bit-for-bit copy of Mix64(seed ^ token).
      std::vector<uint64_t> expected(n);
      for (uint32_t i = 0; i < n; ++i) {
        expected[i] = Mix64(seed ^ tokens[i + offset]);
      }
      for (const simd::SimdTier tier : tiers) {
        ASSERT_TRUE(simd::ForceSimdTier(tier));
        std::vector<uint64_t> got(n);
        simd::ActiveKernels().mix64_batch(tokens.data() + offset, n, seed,
                                          got.data());
        EXPECT_EQ(got, expected)
            << "tier=" << simd::TierName(tier) << " n=" << n
            << " offset=" << offset;
      }
    }
  }
}

// ------------------------------------------------- all-clusters scans ----

// Cluster counts around every tier's block widths (4, 8 and 16 lanes) and
// the fit-categorical shape; widths around the 8-element float block.
const uint32_t kScanClusters[] = {1, 7, 15, 16, 17, 500};
const uint32_t kScanWidths[] = {1, 7, 8, 9, 24, 33};

// Attribute-major copy of a row-major k x width table, stride
// ScanStride(k). Padding columns get `pad`, which a scan must never
// report.
template <typename T>
std::vector<T> Transpose(const std::vector<T>& rows, uint32_t k,
                         uint32_t width, T pad) {
  const uint32_t stride = simd::ScanStride(k);
  std::vector<T> out(static_cast<size_t>(width) * stride, pad);
  for (uint32_t c = 0; c < k; ++c) {
    for (uint32_t j = 0; j < width; ++j) {
      out[static_cast<size_t>(j) * stride + c] =
          rows[static_cast<size_t>(c) * width + j];
    }
  }
  return out;
}

TEST(SimdScanTest, StrideIsALaneMultipleNoSmallerThanK) {
  EXPECT_EQ(simd::ScanStride(1), simd::kScanLanes);
  EXPECT_EQ(simd::ScanStride(16), 16u);
  EXPECT_EQ(simd::ScanStride(17), 32u);
  EXPECT_EQ(simd::ScanStride(500), 512u);
}

TEST(SimdScanTest, MismatchScanEqualsPerPairMismatchAllTiers) {
  TierGuard guard;
  for (const uint32_t k : kScanClusters) {
    for (const uint32_t m : kScanWidths) {
      // A 3-code domain makes every distance from 0 to m likely, so the
      // counts differ across clusters and tie often.
      Rng rng(100 * k + m);
      std::vector<uint32_t> modes(static_cast<size_t>(k) * m);
      for (auto& code : modes) code = static_cast<uint32_t>(rng.Below(3));
      std::vector<uint32_t> row(m);
      for (auto& code : row) code = static_cast<uint32_t>(rng.Below(3));
      const auto modes_t = Transpose<uint32_t>(modes, k, m, /*pad=*/7u);

      ASSERT_TRUE(simd::ForceSimdTier(simd::SimdTier::kScalar));
      std::vector<uint32_t> expected(k);
      for (uint32_t c = 0; c < k; ++c) {
        expected[c] = simd::ActiveKernels().mismatch(
            row.data(), modes.data() + static_cast<size_t>(c) * m, m);
      }
      for (const simd::SimdTier tier : SupportedTiers()) {
        ASSERT_TRUE(simd::ForceSimdTier(tier));
        // One sentinel past k: the scan writes exactly k entries.
        std::vector<uint32_t> got(k + 1, 0xDEADBEEFu);
        simd::ActiveKernels().mismatch_scan(row.data(), modes_t.data(), m, k,
                                            simd::ScanStride(k), got.data());
        EXPECT_EQ(got[k], 0xDEADBEEFu)
            << "tier=" << simd::TierName(tier) << " k=" << k << " m=" << m;
        got.pop_back();
        EXPECT_EQ(got, expected)
            << "tier=" << simd::TierName(tier) << " k=" << k << " m=" << m;
      }
    }
  }
}

TEST(SimdScanTest, SquaredL2ScanBitIdenticalToUnboundedSql2AllTiers) {
  TierGuard guard;
  const double kInf = std::numeric_limits<double>::infinity();
  for (const uint32_t k : kScanClusters) {
    for (const uint32_t d : kScanWidths) {
      const auto centroids =
          RandomDoubles(static_cast<uint32_t>(k * d), 200 * k + d);
      const auto x = RandomDoubles(d, 300 * k + d);
      const auto centroids_t = Transpose<double>(centroids, k, d, 1e300);

      ASSERT_TRUE(simd::ForceSimdTier(simd::SimdTier::kScalar));
      std::vector<double> expected(k);
      for (uint32_t c = 0; c < k; ++c) {
        expected[c] = simd::ActiveKernels().bounded_sql2(
            x.data(), centroids.data() + static_cast<size_t>(c) * d, d, kInf);
      }
      for (const simd::SimdTier tier : SupportedTiers()) {
        ASSERT_TRUE(simd::ForceSimdTier(tier));
        std::vector<double> got(k + 1, -1.0);
        simd::ActiveKernels().sql2_scan(x.data(), centroids_t.data(), d, k,
                                        simd::ScanStride(k), got.data());
        EXPECT_EQ(got[k], -1.0)
            << "tier=" << simd::TierName(tier) << " k=" << k << " d=" << d;
        for (uint32_t c = 0; c < k; ++c) {
          // Bit equality per cluster, against the per-pair kernel the
          // shortlist passes still use.
          ASSERT_EQ(std::memcmp(&got[c], &expected[c], sizeof(double)), 0)
              << "tier=" << simd::TierName(tier) << " k=" << k << " d=" << d
              << " cluster=" << c << " got=" << got[c]
              << " expected=" << expected[c];
        }
      }
    }
  }
}

}  // namespace
}  // namespace lshclust
