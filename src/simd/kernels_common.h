#pragma once

/// \file kernels_common.h
/// \brief Internal-linkage scalar reference kernels shared by the tier TUs.
///
/// Every function here is `static`, so each tier translation unit compiles
/// its *own* copy under its own ISA flags — there is no external symbol the
/// linker could deduplicate across TUs, which is what makes it safe to
/// include this header from the -msse4.2 / -mavx2 files (no ODR/ISA leak).
/// The scalar tier's table points at these directly; a vector tier built
/// without its ISA flags points its whole table at them.
///
/// `ScalarMix64` must match util/rng.h `Mix64` bit-for-bit — it is
/// re-implemented here (rather than included) to keep the tier TUs off the
/// project's inline-heavy headers; tests/simd_test.cpp pins the
/// equivalence.
///
/// Float kernels define the canonical 4-lane x 8-element blocked reduction
/// order that the vector tiers reproduce exactly: lane l = index % 4, one
/// bound check per 8-element block on the fixed (l0+l1)+(l2+l3) reduction,
/// sequential tail. Compiled with -ffp-contract=off in every tier so no
/// tier fuses the multiply-add (see CMakeLists.txt).

#include <cstdint>

namespace lshclust::simd {
namespace {

/// Bit-for-bit copy of util/rng.h Mix64 (stateless SplitMix64 finalizer).
[[maybe_unused]] static inline uint64_t ScalarMix64(uint64_t x) {
  uint64_t z = x + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

[[maybe_unused]] static uint32_t ScalarMismatch(const uint32_t* a, const uint32_t* b,
                               uint32_t m) {
  uint32_t mismatches = 0;
  for (uint32_t j = 0; j < m; ++j) {
    mismatches += (a[j] != b[j]) ? 1 : 0;
  }
  return mismatches;
}

[[maybe_unused]] static uint32_t ScalarBoundedMismatch(const uint32_t* a, const uint32_t* b,
                                      uint32_t m, uint32_t bound) {
  uint32_t mismatches = 0;
  uint32_t j = 0;
  while (j + 32 <= m) {
    uint32_t block = 0;
    for (uint32_t t = 0; t < 32; ++t) {
      block += (a[j + t] != b[j + t]) ? 1 : 0;
    }
    mismatches += block;
    j += 32;
    if (mismatches >= bound) return mismatches;
  }
  for (; j < m; ++j) {
    mismatches += (a[j] != b[j]) ? 1 : 0;
  }
  return mismatches;
}

[[maybe_unused]] static double ScalarBoundedSquaredL2(const double* a, const double* b,
                                     uint32_t d, double bound) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  uint32_t j = 0;
  while (j + 8 <= d) {
    {
      const double d0 = a[j + 0] - b[j + 0];
      const double d1 = a[j + 1] - b[j + 1];
      const double d2 = a[j + 2] - b[j + 2];
      const double d3 = a[j + 3] - b[j + 3];
      l0 += d0 * d0;
      l1 += d1 * d1;
      l2 += d2 * d2;
      l3 += d3 * d3;
    }
    {
      const double d0 = a[j + 4] - b[j + 4];
      const double d1 = a[j + 5] - b[j + 5];
      const double d2 = a[j + 6] - b[j + 6];
      const double d3 = a[j + 7] - b[j + 7];
      l0 += d0 * d0;
      l1 += d1 * d1;
      l2 += d2 * d2;
      l3 += d3 * d3;
    }
    j += 8;
    const double partial = (l0 + l1) + (l2 + l3);
    if (partial >= bound) return partial;
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (; j < d; ++j) {
    const double diff = a[j] - b[j];
    sum += diff * diff;
  }
  return sum;
}

[[maybe_unused]] static double ScalarDot(const double* a, const double* b, uint32_t d) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  uint32_t j = 0;
  while (j + 8 <= d) {
    l0 += a[j + 0] * b[j + 0];
    l1 += a[j + 1] * b[j + 1];
    l2 += a[j + 2] * b[j + 2];
    l3 += a[j + 3] * b[j + 3];
    l0 += a[j + 4] * b[j + 4];
    l1 += a[j + 5] * b[j + 5];
    l2 += a[j + 6] * b[j + 6];
    l3 += a[j + 7] * b[j + 7];
    j += 8;
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (; j < d; ++j) {
    sum += a[j] * b[j];
  }
  return sum;
}

[[maybe_unused]] static void ScalarMinHashScan(uint64_t* out, uint32_t n, uint64_t h0,
                              uint64_t step) {
  uint64_t h = h0;
  for (uint32_t i = 0; i < n; ++i) {
    if (h < out[i]) out[i] = h;
    h += step;
  }
}

[[maybe_unused]] static void ScalarMix64Batch(const uint32_t* tokens, uint32_t count,
                             uint64_t seed, uint64_t* out) {
  for (uint32_t i = 0; i < count; ++i) {
    out[i] = ScalarMix64(static_cast<uint64_t>(tokens[i]) ^ seed);
  }
}

}  // namespace
}  // namespace lshclust::simd
