/// \file kernels_scalar.cpp
/// \brief The scalar dispatch tier — the reference implementations.
///
/// Compiled with the project's baseline flags only (plus -ffp-contract=off,
/// like every kernel TU), so this tier runs on any host and defines the
/// values the vector tiers must reproduce bit-for-bit.

#include "simd/kernel_table.h"
#include "simd/kernels_common.h"

namespace lshclust::simd {

const KernelTable kScalarKernels = {
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
