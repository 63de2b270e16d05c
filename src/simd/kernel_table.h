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
