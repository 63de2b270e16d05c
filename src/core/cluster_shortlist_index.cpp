#include "core/cluster_shortlist_index.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace lshclust {

Status MinHashShortlistFamily::ValidateOptions(const Options& options) {
  return ValidateBanding(options.banding, "MinHash banding");
}

MinHashShortlistFamily::MinHashShortlistFamily(const Options& options)
    : options_(options) {
  LSHC_DCHECK(ValidateOptions(options).ok())
      << "invalid MinHash index options; call ValidateOptions first";
  const uint32_t width = options_.banding.num_hashes();
  if (options_.algorithm == SignatureAlgorithm::kClassicMinHash) {
    minhasher_ = std::make_unique<MinHasher>(width, options_.seed,
                                             options_.minhash_mode);
  } else {
    oph_ = std::make_unique<OnePermutationMinHasher>(width, options_.seed);
  }
}

MinHashShortlistFamily::MinHashShortlistFamily(
    const MinHashShortlistFamily& other)
    : options_(other.options_),
      minhasher_(other.minhasher_ != nullptr
                     ? std::make_unique<MinHasher>(*other.minhasher_)
                     : nullptr),
      oph_(other.oph_ != nullptr
               ? std::make_unique<OnePermutationMinHasher>(*other.oph_)
               : nullptr) {}

MinHashShortlistFamily& MinHashShortlistFamily::operator=(
    const MinHashShortlistFamily& other) {
  if (this != &other) {
    MinHashShortlistFamily copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Status MinHashShortlistFamily::ComputeSignatures(
    const Dataset& dataset, SignatureMatrix* signatures,
    ThreadPool* pool, const std::function<bool()>* cancel) const {
  const uint32_t n = dataset.num_items();
  const uint32_t width = options_.banding.num_hashes();
  signatures->resize(static_cast<size_t>(n) * width);
  // Signing is pure per item (each writes only its own matrix row), so the
  // parallel pass is bit-identical to the sequential one; only the token
  // scratch is per worker. The cancel hook is polled once per batch —
  // a batch that already started still completes, so a cancelled pass
  // wastes at most one batch per worker.
  std::atomic<bool> cancelled{false};
  std::vector<std::vector<uint32_t>> worker_tokens(
      pool == nullptr ? 1 : pool->num_threads());
  const auto sign_range = [&](uint32_t begin, uint32_t end,
                              uint32_t worker) {
    if (cancel != nullptr) {
      if (cancelled.load(std::memory_order_relaxed)) return;
      if ((*cancel)()) {
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
    }
    std::vector<uint32_t>& tokens = worker_tokens[worker];
    for (uint32_t item = begin; item < end; ++item) {
      dataset.PresentTokens(item, &tokens);  // Alg. 2 lines 2-4
      ComputeQuerySignature(tokens, signatures->data() +
                                        static_cast<size_t>(item) * width);
    }
  };
  if (pool == nullptr) {
    // Same batch decomposition as the pooled path, so the poll cadence —
    // and with it the cancellation latency — does not depend on whether a
    // pool was given.
    for (uint32_t begin = 0; begin < n; begin += kSignatureChunkSize) {
      sign_range(begin, std::min(n, begin + kSignatureChunkSize), 0);
      if (cancelled.load(std::memory_order_relaxed)) break;
    }
  } else {
    pool->ParallelFor(0, n, kSignatureChunkSize, sign_range);
  }
  if (cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled(
        "signature computation stopped by the cancellation hook at a "
        "batch boundary");
  }
  return Status::OK();
}

void MinHashShortlistFamily::ComputeQuerySignature(
    std::span<const uint32_t> tokens, uint64_t* out) const {
  if (minhasher_ != nullptr) {
    minhasher_->ComputeSignature(tokens, out);
  } else {
    oph_->ComputeSignature(tokens, out);
  }
}

uint64_t MinHashShortlistFamily::MemoryUsageBytes() const {
  // The hashers hold O(width) seeds; report the dominant term.
  return static_cast<uint64_t>(options_.banding.num_hashes()) *
         sizeof(uint64_t);
}

}  // namespace lshclust
