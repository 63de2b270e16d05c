#pragma once

/// \file kernel_table.h
/// \brief Function-pointer table for the per-tier SIMD kernels.
///
/// Deliberately minimal: the tier translation units (kernels_*.cpp) are
/// compiled with per-file ISA flags (-msse4.2 / -mavx2), so any inline
/// function they pulled in from a shared project header could be emitted
/// with instructions the host cannot run and then be chosen by the linker
/// for *every* TU (a classic ODR/ISA leak). This header therefore includes
/// nothing but <cstdint> and declares only the table; the tier TUs include
/// it plus kernels_common.h (internal-linkage scalar references) and the
/// intrinsics header, nothing else.

#include <cstdint>

namespace lshclust::simd {

/// Column padding of the attribute-major centroid tables the scan kernels
/// read: their row stride is a multiple of this many entries, so every
/// tier may load whole vectors (up to 16 uint32 or 8 double lanes, and
/// two of them at once) over any cluster block that starts below k.
inline constexpr uint32_t kScanLanes = 16;

/// Smallest multiple of kScanLanes that is >= k: the row stride of an
/// attribute-major table of k clusters.
inline constexpr uint32_t ScanStride(uint32_t k) {
  return (k + kScanLanes - 1) / kScanLanes * kScanLanes;
}

/// One tier's kernel implementations. All integer kernels are bit-identical
/// across tiers; the float kernels (`bounded_sql2`, `dot`) use a fixed
/// 4-lane x 8-element blocked reduction order so every tier returns the
/// exact same double, preserving the repo's bit-identity contract across
/// threads x shards x dispatch tiers.
struct KernelTable {
  /// Count of positions where a[i] != b[i], i in [0, m).
  uint32_t (*mismatch)(const uint32_t* a, const uint32_t* b, uint32_t m);

  /// Mismatch count with early exit: once the running count reaches
  /// `bound` any value >= bound may be returned. Every tier scans
  /// 32-element blocks with a bound check after each block, so the partial
  /// value returned on early exit is also tier-identical.
  uint32_t (*bounded_mismatch)(const uint32_t* a, const uint32_t* b,
                               uint32_t m, uint32_t bound);

  /// Squared L2 distance with early exit at `bound`, accumulated in the
  /// canonical 4-lane x 8-element blocked order with the reduced partial
  /// checked after every block; the (l0+l1)+(l2+l3) lane reduction and the
  /// sequential tail are fixed so every tier returns the same double. For
  /// d < 8 the result equals the plain sequential sum.
  double (*bounded_sql2)(const double* a, const double* b, uint32_t d,
                         double bound);

  /// Dot product in the same canonical reduction order as bounded_sql2.
  double (*dot)(const double* a, const double* b, uint32_t d);

  /// out[i] = min(out[i], h0 + i*step) for i in [0, n), with wrapping
  /// uint64 arithmetic — the Kirsch-Mitzenmacher permutation scan at the
  /// heart of double-hashing MinHash.
  void (*minhash_scan)(uint64_t* out, uint32_t n, uint64_t h0, uint64_t step);

  /// out[i] = Mix64(uint64(tokens[i]) ^ seed) for i in [0, count) — the
  /// batched token hash of MinHash / one-permutation MinHash signing.
  void (*mix64_batch)(const uint32_t* tokens, uint32_t count, uint64_t seed,
                      uint64_t* out);

  /// out[c] = mismatch(row, mode c, m) for every cluster c in [0, k), read
  /// from an attribute-major table: attribute j of mode c is
  /// modes_t[j * stride + c]. `stride` is a multiple of kScanLanes and
  /// >= k; the padding columns are read but never reported. Exactly k
  /// entries of `out` are written.
  void (*mismatch_scan)(const uint32_t* row, const uint32_t* modes_t,
                        uint32_t m, uint32_t k, uint32_t stride,
                        uint32_t* out);

  /// out[c] = bounded_sql2(x, centroid c, d, +inf) bit for bit, for every
  /// cluster c in [0, k), read from an attribute-major table laid out as
  /// for mismatch_scan. Each cluster keeps the canonical order: lane
  /// l = index % 4 over the 8-element blocks, (l0+l1)+(l2+l3), then the
  /// sequential tail. Vector tiers put clusters, not dimensions, in their
  /// vector lanes, so every lane runs that scalar order exactly.
  void (*sql2_scan)(const double* x, const double* centroids_t, uint32_t d,
                    uint32_t k, uint32_t stride, double* out);
};

/// Per-tier tables, defined in kernels_scalar.cpp / kernels_sse42.cpp /
/// kernels_avx2.cpp / kernels_avx512.cpp. The vector-tier tables must
/// only be *called* on hosts whose CPU supports the tier — dispatch.cpp
/// guarantees this.
extern const KernelTable kScalarKernels;
extern const KernelTable kSse42Kernels;
extern const KernelTable kAvx2Kernels;
extern const KernelTable kAvx512Kernels;

}  // namespace lshclust::simd
