/// \file kernels_avx2.cpp
/// \brief The AVX2 dispatch tier.
///
/// Compiled with -mavx2 -mpopcnt (see CMakeLists.txt); only ever called
/// after dispatch.cpp has confirmed the host supports the tier. The float
/// kernels keep one 4-lane __m256d accumulator and take two 4-wide steps
/// per 8-element block, which reproduces the scalar tier's canonical lane
/// assignment (lane = index % 4) and rounding exactly; the lane reduction
/// is performed in scalar double adds. No FMA anywhere — explicit mul+add
/// plus -ffp-contract=off keep every tier's rounding identical.

#include "simd/kernel_table.h"
#include "simd/kernels_common.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace lshclust::simd {
namespace {

/// Horizontal sum of eight epi32 lanes.
inline uint32_t HorizontalSumEpi32(__m256i v) {
  __m128i sum =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(sum));
}

/// One 8-lane compare-accumulate step: cmpeq lanes are 0 or -1, so
/// subtracting adds 1 per equal lane.
inline __m256i AccumulateEqualOct(__m256i equals, const uint32_t* a,
                                  const uint32_t* b) {
  const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  return _mm256_sub_epi32(equals, _mm256_cmpeq_epi32(va, vb));
}

/// Number of equal positions among the 8-wide groups of [0, octs*8).
/// Four independent accumulators break the loop-carried sub dependency so
/// the loop runs at load throughput; integer adds are associative, so the
/// count (and cross-tier bit-identity) is unaffected.
inline uint32_t CountEqualOcts(const uint32_t* a, const uint32_t* b,
                               uint32_t octs) {
  __m256i e0 = _mm256_setzero_si256();
  __m256i e1 = _mm256_setzero_si256();
  __m256i e2 = _mm256_setzero_si256();
  __m256i e3 = _mm256_setzero_si256();
  uint32_t q = 0;
  for (; q + 4 <= octs; q += 4) {
    e0 = AccumulateEqualOct(e0, a + 8 * q, b + 8 * q);
    e1 = AccumulateEqualOct(e1, a + 8 * q + 8, b + 8 * q + 8);
    e2 = AccumulateEqualOct(e2, a + 8 * q + 16, b + 8 * q + 16);
    e3 = AccumulateEqualOct(e3, a + 8 * q + 24, b + 8 * q + 24);
  }
  for (; q < octs; ++q) {
    e0 = AccumulateEqualOct(e0, a + 8 * q, b + 8 * q);
  }
  const __m256i equals =
      _mm256_add_epi32(_mm256_add_epi32(e0, e1), _mm256_add_epi32(e2, e3));
  return HorizontalSumEpi32(equals);
}

uint32_t Avx2Mismatch(const uint32_t* a, const uint32_t* b, uint32_t m) {
  const uint32_t octs = m / 8;
  uint32_t mismatches = 8 * octs - CountEqualOcts(a, b, octs);
  for (uint32_t j = 8 * octs; j < m; ++j) {
    mismatches += (a[j] != b[j]) ? 1 : 0;
  }
  return mismatches;
}

uint32_t Avx2BoundedMismatch(const uint32_t* a, const uint32_t* b, uint32_t m,
                             uint32_t bound) {
  uint32_t mismatches = 0;
  uint32_t j = 0;
  while (j + 32 <= m) {
    mismatches += 32 - CountEqualOcts(a + j, b + j, 4);
    j += 32;
    if (mismatches >= bound) return mismatches;
  }
  for (; j < m; ++j) {
    mismatches += (a[j] != b[j]) ? 1 : 0;
  }
  return mismatches;
}

/// The canonical (l0+l1)+(l2+l3) lane reduction, in scalar double adds so
/// the rounding matches the scalar tier exactly.
inline double ReduceLanes(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const double l0 = _mm_cvtsd_f64(lo);
  const double l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double l2 = _mm_cvtsd_f64(hi);
  const double l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  return (l0 + l1) + (l2 + l3);
}

double Avx2BoundedSquaredL2(const double* a, const double* b, uint32_t d,
                            double bound) {
  __m256d acc = _mm256_setzero_pd();
  uint32_t j = 0;
  while (j + 8 <= d) {
    const __m256d x0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(x0, x0));
    const __m256d x1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + j + 4), _mm256_loadu_pd(b + j + 4));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(x1, x1));
    j += 8;
    const double partial = ReduceLanes(acc);
    if (partial >= bound) return partial;
  }
  double sum = ReduceLanes(acc);
  for (; j < d; ++j) {
    const double diff = a[j] - b[j];
    sum += diff * diff;
  }
  return sum;
}

double Avx2Dot(const double* a, const double* b, uint32_t d) {
  __m256d acc = _mm256_setzero_pd();
  uint32_t j = 0;
  while (j + 8 <= d) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + j + 4),
                                           _mm256_loadu_pd(b + j + 4)));
    j += 8;
  }
  double sum = ReduceLanes(acc);
  for (; j < d; ++j) {
    sum += a[j] * b[j];
  }
  return sum;
}

void Avx2MinHashScan(uint64_t* out, uint32_t n, uint64_t h0, uint64_t step) {
  const __m256i sign = _mm256_set1_epi64x(static_cast<int64_t>(1ULL << 63));
  const __m256i vstep = _mm256_set1_epi64x(static_cast<int64_t>(4 * step));
  __m256i v = _mm256_set_epi64x(static_cast<int64_t>(h0 + 3 * step),
                                static_cast<int64_t>(h0 + 2 * step),
                                static_cast<int64_t>(h0 + step),
                                static_cast<int64_t>(h0));
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i* slot = reinterpret_cast<__m256i*>(out + i);
    const __m256i cur = _mm256_loadu_si256(slot);
    // Unsigned cur > v via sign-flipped signed compare; where true, v wins.
    const __m256i greater = _mm256_cmpgt_epi64(_mm256_xor_si256(cur, sign),
                                               _mm256_xor_si256(v, sign));
    _mm256_storeu_si256(slot, _mm256_blendv_epi8(cur, v, greater));
    v = _mm256_add_epi64(v, vstep);
  }
  uint64_t h = h0 + static_cast<uint64_t>(i) * step;
  for (; i < n; ++i) {
    if (h < out[i]) out[i] = h;
    h += step;
  }
}

/// 64x64 -> low 64 multiply of each lane by a broadcast constant, from
/// three 32x32 pmuludq partial products.
inline __m256i MulLo64(__m256i a, __m256i b_full, __m256i b_high) {
  const __m256i lo = _mm256_mul_epu32(a, b_full);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_high),
                       _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b_full));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

void Avx2Mix64Batch(const uint32_t* tokens, uint32_t count, uint64_t seed,
                    uint64_t* out) {
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  constexpr uint64_t kM1 = 0xBF58476D1CE4E5B9ULL;
  constexpr uint64_t kM2 = 0x94D049BB133111EBULL;
  const __m256i vseed = _mm256_set1_epi64x(static_cast<int64_t>(seed));
  const __m256i vgolden = _mm256_set1_epi64x(static_cast<int64_t>(kGolden));
  const __m256i vm1 = _mm256_set1_epi64x(static_cast<int64_t>(kM1));
  const __m256i vm1_hi = _mm256_set1_epi64x(static_cast<int64_t>(kM1 >> 32));
  const __m256i vm2 = _mm256_set1_epi64x(static_cast<int64_t>(kM2));
  const __m256i vm2_hi = _mm256_set1_epi64x(static_cast<int64_t>(kM2 >> 32));
  uint32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i quad = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tokens + i)));
    __m256i z = _mm256_add_epi64(_mm256_xor_si256(quad, vseed), vgolden);
    z = MulLo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), vm1, vm1_hi);
    z = MulLo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), vm2, vm2_hi);
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), z);
  }
  for (; i < count; ++i) {
    out[i] = ScalarMix64(static_cast<uint64_t>(tokens[i]) ^ seed);
  }
}

}  // namespace

const KernelTable kAvx2Kernels = {
    /*mismatch=*/Avx2Mismatch,
    /*bounded_mismatch=*/Avx2BoundedMismatch,
    /*bounded_sql2=*/Avx2BoundedSquaredL2,
    /*dot=*/Avx2Dot,
    /*minhash_scan=*/Avx2MinHashScan,
    /*mix64_batch=*/Avx2Mix64Batch,
};

}  // namespace lshclust::simd

#else  // !defined(__AVX2__)

// Built without AVX2 codegen (non-x86 host, or flags withheld): the table
// must still exist for link integrity, but dispatch.cpp never selects an
// unsupported tier, so scalar entries are correct and unreachable anyway.
namespace lshclust::simd {

const KernelTable kAvx2Kernels = {
    /*mismatch=*/ScalarMismatch,
    /*bounded_mismatch=*/ScalarBoundedMismatch,
    /*bounded_sql2=*/ScalarBoundedSquaredL2,
    /*dot=*/ScalarDot,
    /*minhash_scan=*/ScalarMinHashScan,
    /*mix64_batch=*/ScalarMix64Batch,
};

}  // namespace lshclust::simd

#endif  // defined(__AVX2__)
