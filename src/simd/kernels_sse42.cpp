/// \file kernels_sse42.cpp
/// \brief The SSE4.2 dispatch tier.
///
/// Compiled with -msse4.2 -mpopcnt (see CMakeLists.txt); only ever called
/// after dispatch.cpp has confirmed the host supports the tier. Integer
/// kernels are trivially bit-identical to the scalar tier (same values,
/// different instruction shapes); the float kernels reproduce the scalar
/// tier's canonical 4-lane x 8-element blocked reduction exactly — lanes
/// {0,1} live in acc01, lanes {2,3} in acc23, and the (l0+l1)+(l2+l3)
/// reduction is performed in scalar double adds.

#include "simd/kernel_table.h"
#include "simd/kernels_common.h"

#if defined(__SSE4_2__)

#include <immintrin.h>

namespace lshclust::simd {
namespace {

/// Horizontal sum of four epi32 lanes.
inline uint32_t HorizontalSumEpi32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(v));
}

/// One 4-lane compare-accumulate step: cmpeq lanes are 0 or -1, so
/// subtracting adds 1 per equal lane.
inline __m128i AccumulateEqualQuad(__m128i equals, const uint32_t* a,
                                   const uint32_t* b) {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  return _mm_sub_epi32(equals, _mm_cmpeq_epi32(va, vb));
}

/// Number of equal positions among the 4-wide groups of [0, quads*4).
/// Four independent accumulators break the loop-carried sub dependency so
/// the loop runs at load throughput; integer adds are associative, so the
/// count (and cross-tier bit-identity) is unaffected.
inline uint32_t CountEqualQuads(const uint32_t* a, const uint32_t* b,
                                uint32_t quads) {
  __m128i e0 = _mm_setzero_si128();
  __m128i e1 = _mm_setzero_si128();
  __m128i e2 = _mm_setzero_si128();
  __m128i e3 = _mm_setzero_si128();
  uint32_t q = 0;
  for (; q + 4 <= quads; q += 4) {
    e0 = AccumulateEqualQuad(e0, a + 4 * q, b + 4 * q);
    e1 = AccumulateEqualQuad(e1, a + 4 * q + 4, b + 4 * q + 4);
    e2 = AccumulateEqualQuad(e2, a + 4 * q + 8, b + 4 * q + 8);
    e3 = AccumulateEqualQuad(e3, a + 4 * q + 12, b + 4 * q + 12);
  }
  for (; q < quads; ++q) {
    e0 = AccumulateEqualQuad(e0, a + 4 * q, b + 4 * q);
  }
  const __m128i equals =
      _mm_add_epi32(_mm_add_epi32(e0, e1), _mm_add_epi32(e2, e3));
  return HorizontalSumEpi32(equals);
}

uint32_t Sse42Mismatch(const uint32_t* a, const uint32_t* b, uint32_t m) {
  const uint32_t quads = m / 4;
  uint32_t mismatches = 4 * quads - CountEqualQuads(a, b, quads);
  for (uint32_t j = 4 * quads; j < m; ++j) {
    mismatches += (a[j] != b[j]) ? 1 : 0;
  }
  return mismatches;
}

uint32_t Sse42BoundedMismatch(const uint32_t* a, const uint32_t* b,
                              uint32_t m, uint32_t bound) {
  uint32_t mismatches = 0;
  uint32_t j = 0;
  while (j + 32 <= m) {
    mismatches += 32 - CountEqualQuads(a + j, b + j, 8);
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
inline double ReduceLanes(__m128d acc01, __m128d acc23) {
  const double l0 = _mm_cvtsd_f64(acc01);
  const double l1 = _mm_cvtsd_f64(_mm_unpackhi_pd(acc01, acc01));
  const double l2 = _mm_cvtsd_f64(acc23);
  const double l3 = _mm_cvtsd_f64(_mm_unpackhi_pd(acc23, acc23));
  return (l0 + l1) + (l2 + l3);
}

double Sse42BoundedSquaredL2(const double* a, const double* b, uint32_t d,
                             double bound) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  uint32_t j = 0;
  while (j + 8 <= d) {
    const __m128d x0 = _mm_sub_pd(_mm_loadu_pd(a + j), _mm_loadu_pd(b + j));
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(x0, x0));
    const __m128d x1 =
        _mm_sub_pd(_mm_loadu_pd(a + j + 2), _mm_loadu_pd(b + j + 2));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(x1, x1));
    const __m128d x2 =
        _mm_sub_pd(_mm_loadu_pd(a + j + 4), _mm_loadu_pd(b + j + 4));
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(x2, x2));
    const __m128d x3 =
        _mm_sub_pd(_mm_loadu_pd(a + j + 6), _mm_loadu_pd(b + j + 6));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(x3, x3));
    j += 8;
    const double partial = ReduceLanes(acc01, acc23);
    if (partial >= bound) return partial;
  }
  double sum = ReduceLanes(acc01, acc23);
  for (; j < d; ++j) {
    const double diff = a[j] - b[j];
    sum += diff * diff;
  }
  return sum;
}

double Sse42Dot(const double* a, const double* b, uint32_t d) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  uint32_t j = 0;
  while (j + 8 <= d) {
    acc01 = _mm_add_pd(acc01,
                       _mm_mul_pd(_mm_loadu_pd(a + j), _mm_loadu_pd(b + j)));
    acc23 = _mm_add_pd(
        acc23, _mm_mul_pd(_mm_loadu_pd(a + j + 2), _mm_loadu_pd(b + j + 2)));
    acc01 = _mm_add_pd(
        acc01, _mm_mul_pd(_mm_loadu_pd(a + j + 4), _mm_loadu_pd(b + j + 4)));
    acc23 = _mm_add_pd(
        acc23, _mm_mul_pd(_mm_loadu_pd(a + j + 6), _mm_loadu_pd(b + j + 6)));
    j += 8;
  }
  double sum = ReduceLanes(acc01, acc23);
  for (; j < d; ++j) {
    sum += a[j] * b[j];
  }
  return sum;
}

void Sse42MinHashScan(uint64_t* out, uint32_t n, uint64_t h0, uint64_t step) {
  const __m128i sign = _mm_set1_epi64x(static_cast<int64_t>(1ULL << 63));
  const __m128i vstep =
      _mm_set1_epi64x(static_cast<int64_t>(step + step));
  __m128i v = _mm_set_epi64x(static_cast<int64_t>(h0 + step),
                             static_cast<int64_t>(h0));
  uint32_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128i* slot = reinterpret_cast<__m128i*>(out + i);
    const __m128i cur = _mm_loadu_si128(slot);
    // Unsigned cur > v via sign-flipped signed compare; where true, v wins.
    const __m128i greater = _mm_cmpgt_epi64(_mm_xor_si128(cur, sign),
                                            _mm_xor_si128(v, sign));
    _mm_storeu_si128(slot, _mm_blendv_epi8(cur, v, greater));
    v = _mm_add_epi64(v, vstep);
  }
  uint64_t h = h0 + static_cast<uint64_t>(i) * step;
  for (; i < n; ++i) {
    if (h < out[i]) out[i] = h;
    h += step;
  }
}

/// 64x64 -> low 64 multiply of each lane by a broadcast constant, from
/// three 32x32 pmuludq partial products.
inline __m128i MulLo64(__m128i a, __m128i b_full, __m128i b_high) {
  const __m128i lo = _mm_mul_epu32(a, b_full);
  const __m128i cross = _mm_add_epi64(_mm_mul_epu32(a, b_high),
                                      _mm_mul_epu32(_mm_srli_epi64(a, 32),
                                                    b_full));
  return _mm_add_epi64(lo, _mm_slli_epi64(cross, 32));
}

void Sse42Mix64Batch(const uint32_t* tokens, uint32_t count, uint64_t seed,
                     uint64_t* out) {
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  constexpr uint64_t kM1 = 0xBF58476D1CE4E5B9ULL;
  constexpr uint64_t kM2 = 0x94D049BB133111EBULL;
  const __m128i vseed = _mm_set1_epi64x(static_cast<int64_t>(seed));
  const __m128i vgolden = _mm_set1_epi64x(static_cast<int64_t>(kGolden));
  const __m128i vm1 = _mm_set1_epi64x(static_cast<int64_t>(kM1));
  const __m128i vm1_hi = _mm_set1_epi64x(static_cast<int64_t>(kM1 >> 32));
  const __m128i vm2 = _mm_set1_epi64x(static_cast<int64_t>(kM2));
  const __m128i vm2_hi = _mm_set1_epi64x(static_cast<int64_t>(kM2 >> 32));
  uint32_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m128i pair = _mm_cvtepu32_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(tokens + i)));
    __m128i z = _mm_add_epi64(_mm_xor_si128(pair, vseed), vgolden);
    z = MulLo64(_mm_xor_si128(z, _mm_srli_epi64(z, 30)), vm1, vm1_hi);
    z = MulLo64(_mm_xor_si128(z, _mm_srli_epi64(z, 27)), vm2, vm2_hi);
    z = _mm_xor_si128(z, _mm_srli_epi64(z, 31));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), z);
  }
  for (; i < count; ++i) {
    out[i] = ScalarMix64(static_cast<uint64_t>(tokens[i]) ^ seed);
  }
}

/// Equal-code counts of V consecutive 4-cluster vectors whose attribute-0
/// entries start at `column`: per attribute, one broadcast code against V
/// vectors of that attribute's row. V independent accumulators keep the
/// subtractions off one dependency chain.
template <uint32_t V>
inline void EqualScanBlock(const uint32_t* row, const uint32_t* column,
                           uint32_t m, uint32_t stride, __m128i* equals) {
  for (uint32_t v = 0; v < V; ++v) equals[v] = _mm_setzero_si128();
  for (uint32_t j = 0; j < m; ++j, column += stride) {
    const __m128i code = _mm_set1_epi32(static_cast<int>(row[j]));
    for (uint32_t v = 0; v < V; ++v) {
      const __m128i modes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(column + 4 * v));
      equals[v] = _mm_sub_epi32(equals[v], _mm_cmpeq_epi32(modes, code));
    }
  }
}

/// All-clusters mismatch scan: 16 clusters per block, then single
/// 4-cluster vectors for the rest; mismatches = m - equal.
void Sse42MismatchScan(const uint32_t* row, const uint32_t* modes_t,
                       uint32_t m, uint32_t k, uint32_t stride,
                       uint32_t* out) {
  const __m128i total = _mm_set1_epi32(static_cast<int>(m));
  uint32_t c0 = 0;
  for (; c0 + 16 <= k; c0 += 16) {
    __m128i equals[4];
    EqualScanBlock<4>(row, modes_t + c0, m, stride, equals);
    for (uint32_t v = 0; v < 4; ++v) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + c0 + 4 * v),
                       _mm_sub_epi32(total, equals[v]));
    }
  }
  for (; c0 < k; c0 += 4) {
    __m128i equals[1];
    EqualScanBlock<1>(row, modes_t + c0, m, stride, equals);
    const __m128i mismatches = _mm_sub_epi32(total, equals[0]);
    if (c0 + 4 <= k) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + c0), mismatches);
    } else {
      alignas(16) uint32_t lanes[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes), mismatches);
      for (uint32_t i = 0; c0 + i < k; ++i) out[c0 + i] = lanes[i];
    }
  }
}

/// acc[j % 4] += (x[j] - column[j])^2 for the two 2-cluster vectors of one
/// block, j = one dimension: the canonical lane step of bounded_sql2,
/// applied to every cluster lane at once.
inline void Sql2ScanStep(__m128d* acc_lo, __m128d* acc_hi, double xj,
                         const double* column) {
  const __m128d vx = _mm_set1_pd(xj);
  const __m128d lo = _mm_sub_pd(vx, _mm_loadu_pd(column));
  const __m128d hi = _mm_sub_pd(vx, _mm_loadu_pd(column + 2));
  *acc_lo = _mm_add_pd(*acc_lo, _mm_mul_pd(lo, lo));
  *acc_hi = _mm_add_pd(*acc_hi, _mm_mul_pd(hi, hi));
}

/// All-clusters squared-L2 scan, 4 clusters (two 2-lane vectors) per
/// block, each with its own four canonical lane accumulators.
void Sse42SquaredL2Scan(const double* x, const double* centroids_t,
                        uint32_t d, uint32_t k, uint32_t stride,
                        double* out) {
  for (uint32_t c0 = 0; c0 < k; c0 += 4) {
    __m128d lo[4], hi[4];
    for (uint32_t l = 0; l < 4; ++l) lo[l] = hi[l] = _mm_setzero_pd();
    const double* base = centroids_t + c0;
    uint32_t j = 0;
    while (j + 8 <= d) {
      for (uint32_t t = 0; t < 8; ++t) {
        Sql2ScanStep(&lo[t % 4], &hi[t % 4], x[j + t],
                     base + static_cast<uint64_t>(j + t) * stride);
      }
      j += 8;
    }
    __m128d sum_lo = _mm_add_pd(_mm_add_pd(lo[0], lo[1]),
                                _mm_add_pd(lo[2], lo[3]));
    __m128d sum_hi = _mm_add_pd(_mm_add_pd(hi[0], hi[1]),
                                _mm_add_pd(hi[2], hi[3]));
    for (; j < d; ++j) {
      Sql2ScanStep(&sum_lo, &sum_hi, x[j],
                   base + static_cast<uint64_t>(j) * stride);
    }
    if (c0 + 4 <= k) {
      _mm_storeu_pd(out + c0, sum_lo);
      _mm_storeu_pd(out + c0 + 2, sum_hi);
    } else {
      alignas(16) double lanes[4];
      _mm_store_pd(lanes, sum_lo);
      _mm_store_pd(lanes + 2, sum_hi);
      for (uint32_t i = 0; c0 + i < k; ++i) out[c0 + i] = lanes[i];
    }
  }
}

}  // namespace

const KernelTable kSse42Kernels = {
    /*mismatch=*/Sse42Mismatch,
    /*bounded_mismatch=*/Sse42BoundedMismatch,
    /*bounded_sql2=*/Sse42BoundedSquaredL2,
    /*dot=*/Sse42Dot,
    /*minhash_scan=*/Sse42MinHashScan,
    /*mix64_batch=*/Sse42Mix64Batch,
    /*mismatch_scan=*/Sse42MismatchScan,
    /*sql2_scan=*/Sse42SquaredL2Scan,
};

}  // namespace lshclust::simd

#else  // !defined(__SSE4_2__)

// Built without SSE4.2 codegen (non-x86 host, or flags withheld): the table
// must still exist for link integrity, but dispatch.cpp never selects an
// unsupported tier, so scalar entries are correct and unreachable anyway.
namespace lshclust::simd {

const KernelTable kSse42Kernels = {
    /*mismatch=*/ScalarMismatch,
    /*bounded_mismatch=*/ScalarBoundedMismatch,
    /*bounded_sql2=*/ScalarBoundedSquaredL2,
    /*dot=*/ScalarDot,
    /*minhash_scan=*/ScalarMinHashScan,
    /*mix64_batch=*/ScalarMix64Batch,
    /*mismatch_scan=*/ScalarMismatchScan,
    /*sql2_scan=*/ScalarSquaredL2Scan,
};

}  // namespace lshclust::simd

#endif  // defined(__SSE4_2__)
