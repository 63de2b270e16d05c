/// \file kernels_avx512.cpp
/// \brief The AVX-512 dispatch tier.
///
/// Compiled with -mavx512f -mavx512dq -mavx512vpopcntdq -mpopcnt (see
/// CMakeLists.txt); only ever called after dispatch.cpp has confirmed the
/// host supports all three subsets. The integer kernels go 512-bit wide:
/// mask-register compares for mismatch counting, `_mm512_min_epu64` for
/// the permutation scan and `_mm512_mullo_epi64` (the DQ requirement) for
/// batched Mix64. No kernel uses VPOPCNTDQ any more; the tier still
/// requires it so the set of CPUs that select this tier stays unchanged.
/// The all-clusters scans are 512 bits wide too: their vector lanes hold
/// clusters, so each lane keeps the canonical per-cluster order.
/// The per-pair float kernels are the AVX2 tier's
/// 256-bit implementations verbatim: widening them to one 8-lane __m512d
/// accumulator would change the reduction order and break the cross-tier
/// bit-identity contract, and the early-exit partial checks keep the
/// loops latency-bound anyway. No FMA anywhere — explicit mul+add plus
/// -ffp-contract=off keep every tier's rounding identical.

#include "simd/kernel_table.h"
#include "simd/kernels_common.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

namespace lshclust::simd {
namespace {

/// Number of equal positions among the 16-wide groups of [0, hexes*16).
/// Mask-register compares turn each group into a 16-bit mask; hardware
/// popcnt accumulates them in a scalar counter (integer adds are
/// associative, so the count is tier-identical by construction).
inline uint32_t CountEqualHexes(const uint32_t* a, const uint32_t* b,
                                uint32_t hexes) {
  uint32_t equals = 0;
  for (uint32_t q = 0; q < hexes; ++q) {
    const __m512i va = _mm512_loadu_si512(a + 16 * q);
    const __m512i vb = _mm512_loadu_si512(b + 16 * q);
    equals += static_cast<uint32_t>(__builtin_popcount(
        static_cast<unsigned>(_mm512_cmpeq_epi32_mask(va, vb))));
  }
  return equals;
}

uint32_t Avx512Mismatch(const uint32_t* a, const uint32_t* b, uint32_t m) {
  const uint32_t hexes = m / 16;
  uint32_t mismatches = 16 * hexes - CountEqualHexes(a, b, hexes);
  for (uint32_t j = 16 * hexes; j < m; ++j) {
    mismatches += (a[j] != b[j]) ? 1 : 0;
  }
  return mismatches;
}

uint32_t Avx512BoundedMismatch(const uint32_t* a, const uint32_t* b, uint32_t m,
                               uint32_t bound) {
  uint32_t mismatches = 0;
  uint32_t j = 0;
  // 32-element blocks with a bound check after each block — the same block
  // size as every other tier, so the early-exit partial value matches.
  while (j + 32 <= m) {
    mismatches += 32 - CountEqualHexes(a + j, b + j, 2);
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

/// Identical to the AVX2 tier: one 4-lane accumulator, two 4-wide steps
/// per 8-element block. The canonical reduction shape is the contract; a
/// 512-bit rewrite would round differently.
double Avx512BoundedSquaredL2(const double* a, const double* b, uint32_t d,
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

double Avx512Dot(const double* a, const double* b, uint32_t d) {
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

// GCC 12 raises -Wuninitialized / -Wmaybe-uninitialized inside
// avx512fintrin.h for the two kernels below: its unmasked intrinsics pass a
// deliberately undefined `__Y` vector as the ignored pass-through operand
// of the masked builtin. The warning is about the header, not this code,
// so it is silenced for these kernels only and the intrinsics stay as
// they are. Clang has no such warning and is left alone.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

void Avx512MinHashScan(uint64_t* out, uint32_t n, uint64_t h0, uint64_t step) {
  const __m512i vstep = _mm512_set1_epi64(static_cast<int64_t>(8 * step));
  __m512i v = _mm512_set_epi64(static_cast<int64_t>(h0 + 7 * step),
                               static_cast<int64_t>(h0 + 6 * step),
                               static_cast<int64_t>(h0 + 5 * step),
                               static_cast<int64_t>(h0 + 4 * step),
                               static_cast<int64_t>(h0 + 3 * step),
                               static_cast<int64_t>(h0 + 2 * step),
                               static_cast<int64_t>(h0 + step),
                               static_cast<int64_t>(h0));
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i cur = _mm512_loadu_si512(out + i);
    _mm512_storeu_si512(out + i, _mm512_min_epu64(cur, v));
    v = _mm512_add_epi64(v, vstep);
  }
  uint64_t h = h0 + static_cast<uint64_t>(i) * step;
  for (; i < n; ++i) {
    if (h < out[i]) out[i] = h;
    h += step;
  }
}

void Avx512Mix64Batch(const uint32_t* tokens, uint32_t count, uint64_t seed,
                      uint64_t* out) {
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  constexpr uint64_t kM1 = 0xBF58476D1CE4E5B9ULL;
  constexpr uint64_t kM2 = 0x94D049BB133111EBULL;
  const __m512i vseed = _mm512_set1_epi64(static_cast<int64_t>(seed));
  const __m512i vgolden = _mm512_set1_epi64(static_cast<int64_t>(kGolden));
  const __m512i vm1 = _mm512_set1_epi64(static_cast<int64_t>(kM1));
  const __m512i vm2 = _mm512_set1_epi64(static_cast<int64_t>(kM2));
  uint32_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512i oct = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tokens + i)));
    __m512i z = _mm512_add_epi64(_mm512_xor_si512(oct, vseed), vgolden);
    // _mm512_mullo_epi64 is the AVX512DQ requirement: a true 64x64 -> low
    // 64 lane multiply, replacing the AVX2 tier's three-pmuludq ladder.
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), vm1);
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), vm2);
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
    _mm512_storeu_si512(out + i, z);
  }
  for (; i < count; ++i) {
    out[i] = ScalarMix64(static_cast<uint64_t>(tokens[i]) ^ seed);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Mismatch counts of V consecutive 16-cluster vectors whose attribute-0
/// entries start at `column`: per attribute, one broadcast code against V
/// vectors of that attribute's row; the not-equal mask adds 1 to its lanes.
/// V independent accumulators keep the adds off one dependency chain.
template <uint32_t V>
inline void MismatchScanBlock(const uint32_t* row, const uint32_t* column,
                              uint32_t m, uint32_t stride, __m512i* counts) {
  const __m512i one = _mm512_set1_epi32(1);
  for (uint32_t v = 0; v < V; ++v) counts[v] = _mm512_setzero_si512();
  for (uint32_t j = 0; j < m; ++j, column += stride) {
    const __m512i code = _mm512_set1_epi32(static_cast<int>(row[j]));
    for (uint32_t v = 0; v < V; ++v) {
      const __mmask16 differ =
          _mm512_cmpneq_epi32_mask(_mm512_loadu_si512(column + 16 * v), code);
      counts[v] = _mm512_mask_add_epi32(counts[v], differ, counts[v], one);
    }
  }
}

/// All-clusters mismatch scan: 64 clusters per block, then single
/// 16-cluster vectors for the rest, the last one stored under a mask.
void Avx512MismatchScan(const uint32_t* row, const uint32_t* modes_t,
                        uint32_t m, uint32_t k, uint32_t stride,
                        uint32_t* out) {
  uint32_t c0 = 0;
  for (; c0 + 64 <= k; c0 += 64) {
    __m512i counts[4];
    MismatchScanBlock<4>(row, modes_t + c0, m, stride, counts);
    for (uint32_t v = 0; v < 4; ++v) {
      _mm512_storeu_si512(out + c0 + 16 * v, counts[v]);
    }
  }
  for (; c0 < k; c0 += 16) {
    __m512i counts[1];
    MismatchScanBlock<1>(row, modes_t + c0, m, stride, counts);
    const uint32_t count = k - c0 < 16 ? k - c0 : 16;
    _mm512_mask_storeu_epi32(out + c0,
                             static_cast<__mmask16>((1u << count) - 1u),
                             counts[0]);
  }
}

/// acc[j % 4] += (x[j] - column[j])^2 for the two 8-cluster vectors of one
/// block, j = one dimension: the canonical lane step of bounded_sql2,
/// applied to every cluster lane at once.
inline void Sql2ScanStep(__m512d* acc_lo, __m512d* acc_hi, double xj,
                         const double* column) {
  const __m512d vx = _mm512_set1_pd(xj);
  const __m512d lo = _mm512_sub_pd(vx, _mm512_loadu_pd(column));
  const __m512d hi = _mm512_sub_pd(vx, _mm512_loadu_pd(column + 8));
  *acc_lo = _mm512_add_pd(*acc_lo, _mm512_mul_pd(lo, lo));
  *acc_hi = _mm512_add_pd(*acc_hi, _mm512_mul_pd(hi, hi));
}

/// All-clusters squared-L2 scan, 16 clusters (two 8-lane vectors) per
/// block, each with its own four canonical lane accumulators. The lanes
/// hold clusters, so 512-bit vectors keep the canonical per-cluster order
/// (unlike a 512-bit bounded_sql2, which would regroup the dimensions).
void Avx512SquaredL2Scan(const double* x, const double* centroids_t,
                         uint32_t d, uint32_t k, uint32_t stride,
                         double* out) {
  for (uint32_t c0 = 0; c0 < k; c0 += kScanLanes) {
    __m512d lo[4], hi[4];
    for (uint32_t l = 0; l < 4; ++l) lo[l] = hi[l] = _mm512_setzero_pd();
    const double* base = centroids_t + c0;
    uint32_t j = 0;
    while (j + 8 <= d) {
      for (uint32_t t = 0; t < 8; ++t) {
        Sql2ScanStep(&lo[t % 4], &hi[t % 4], x[j + t],
                     base + static_cast<uint64_t>(j + t) * stride);
      }
      j += 8;
    }
    __m512d sum_lo = _mm512_add_pd(_mm512_add_pd(lo[0], lo[1]),
                                   _mm512_add_pd(lo[2], lo[3]));
    __m512d sum_hi = _mm512_add_pd(_mm512_add_pd(hi[0], hi[1]),
                                   _mm512_add_pd(hi[2], hi[3]));
    for (; j < d; ++j) {
      Sql2ScanStep(&sum_lo, &sum_hi, x[j],
                   base + static_cast<uint64_t>(j) * stride);
    }
    const uint32_t count = k - c0 < kScanLanes ? k - c0 : kScanLanes;
    const uint32_t count_lo = count < 8 ? count : 8;
    const uint32_t count_hi = count - count_lo;
    _mm512_mask_storeu_pd(out + c0,
                          static_cast<__mmask8>((1u << count_lo) - 1u),
                          sum_lo);
    if (count_hi > 0) {
      _mm512_mask_storeu_pd(out + c0 + 8,
                            static_cast<__mmask8>((1u << count_hi) - 1u),
                            sum_hi);
    }
  }
}

}  // namespace

const KernelTable kAvx512Kernels = {
    /*mismatch=*/Avx512Mismatch,
    /*bounded_mismatch=*/Avx512BoundedMismatch,
    /*bounded_sql2=*/Avx512BoundedSquaredL2,
    /*dot=*/Avx512Dot,
    /*minhash_scan=*/Avx512MinHashScan,
    /*mix64_batch=*/Avx512Mix64Batch,
    /*mismatch_scan=*/Avx512MismatchScan,
    /*sql2_scan=*/Avx512SquaredL2Scan,
};

}  // namespace lshclust::simd

#else  // !(AVX512F && AVX512DQ && AVX512VPOPCNTDQ)

// Built without AVX-512 codegen (non-x86 host, or flags withheld): the
// table must still exist for link integrity, but dispatch.cpp never
// selects an unsupported tier, so scalar entries are correct and
// unreachable anyway.
namespace lshclust::simd {

const KernelTable kAvx512Kernels = {
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

#endif  // defined(__AVX512F__) && defined(__AVX512DQ__) &&
        // defined(__AVX512VPOPCNTDQ__)
