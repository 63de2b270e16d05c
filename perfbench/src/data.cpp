#include "data.h"

#include <cmath>
#include <numeric>

namespace perfbench {
namespace {

/// splitmix64: a fixed generator, so inputs do not depend on the standard
/// library's distribution implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint32_t Below(uint32_t bound) {
    return static_cast<uint32_t>(Unit() * static_cast<double>(bound));
  }
  /// Standard normal (Box-Muller).
  double Gaussian() {
    const double u = 1.0 - Unit();
    const double v = Unit();
    return std::sqrt(-2.0 * std::log(u)) * std::cos(6.283185307179586 * v);
  }

 private:
  uint64_t state_;
};

}  // namespace

NumericArrays GaussianMixture(uint64_t seed, uint32_t rows, uint32_t dims,
                              uint32_t components) {
  Rng rng(seed);
  std::vector<double> centres(static_cast<size_t>(components) * dims);
  for (double& c : centres) c = -10.0 + 20.0 * rng.Unit();
  NumericArrays out{rows, dims, std::vector<double>(size_t{rows} * dims)};
  for (uint32_t row = 0; row < rows; ++row) {
    const double* centre = centres.data() + size_t{row % components} * dims;
    for (uint32_t d = 0; d < dims; ++d) {
      out.values[size_t{row} * dims + d] = centre[d] + rng.Gaussian();
    }
  }
  return out;
}

CategoricalArrays ConjunctiveRules(uint64_t seed, uint32_t rows,
                                   uint32_t attrs, uint32_t rules,
                                   uint32_t domain) {
  Rng rng(seed);
  // Per rule: a shuffled attribute order whose first `fixed` entries the
  // rule pins, and one value per attribute.
  std::vector<std::vector<uint32_t>> fixed_attrs(rules);
  std::vector<std::vector<uint32_t>> fixed_values(rules);
  std::vector<uint32_t> order(attrs);
  for (uint32_t rule = 0; rule < rules; ++rule) {
    std::iota(order.begin(), order.end(), 0u);
    for (uint32_t i = attrs - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Below(i + 1)]);
    }
    const uint32_t lo = attrs * 2 / 5;
    const uint32_t fixed = lo + rng.Below(attrs * 4 / 5 - lo + 1);
    fixed_attrs[rule].assign(order.begin(), order.begin() + fixed);
    for (uint32_t i = 0; i < fixed; ++i) {
      fixed_values[rule].push_back(rng.Below(domain));
    }
  }
  CategoricalArrays out{rows, attrs, attrs * domain,
                        std::vector<uint32_t>(size_t{rows} * attrs)};
  for (uint32_t row = 0; row < rows; ++row) {
    uint32_t* codes = out.codes.data() + size_t{row} * attrs;
    for (uint32_t a = 0; a < attrs; ++a) codes[a] = a * domain + rng.Below(domain);
    const uint32_t rule = row % rules;
    for (size_t i = 0; i < fixed_attrs[rule].size(); ++i) {
      const uint32_t a = fixed_attrs[rule][i];
      codes[a] = a * domain + fixed_values[rule][i];
    }
  }
  return out;
}

}  // namespace perfbench
