#pragma once

/// \file data.h
/// \brief The benchmark's own input generators. Inputs are a pure function
/// of the workload seed and are handed to the library only as plain arrays
/// through its dataset factories, so a change to the library's generators
/// (datagen/) can never move the benchmark's inputs.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Row-major real vectors: an isotropic Gaussian mixture with
/// `components` centres uniform in [-10, 10]^dims and unit deviation.
/// Rows are dealt to components round-robin, so every seed yields the
/// same component sizes and any contiguous slice samples all components.
struct NumericArrays {
  uint32_t rows = 0;
  uint32_t dims = 0;
  std::vector<double> values;
};
NumericArrays GaussianMixture(uint64_t seed, uint32_t rows, uint32_t dims,
                              uint32_t components);

/// Row-major category codes after the paper's conjunctive-rule recipe
/// (§IV-A): each of `rules` rules fixes 40-80% of the attributes to
/// rule-specific values; the rest of an item is uniform noise. Rows are
/// dealt to rules round-robin. Codes are attribute * domain + value, so
/// num_codes = attrs * domain.
struct CategoricalArrays {
  uint32_t rows = 0;
  uint32_t attrs = 0;
  uint32_t num_codes = 0;
  std::vector<uint32_t> codes;
};
CategoricalArrays ConjunctiveRules(uint64_t seed, uint32_t rows,
                                   uint32_t attrs, uint32_t rules,
                                   uint32_t domain);

}  // namespace perfbench
