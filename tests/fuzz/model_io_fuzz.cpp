// Fuzz harness for the model-file decoder (persist/model_io.h).
//
// The decoder is the one place in the library that parses attacker-shaped
// bytes: a serving process warm-starts from whatever file it is pointed
// at, so `DecodeModelBytes` must reject arbitrary corruption with a typed
// Status — never crash, never over-read, never construct a half-valid
// model. This harness feeds it raw bytes and, whenever a mutated image
// still decodes, pushes the result through the downstream reconstruction
// paths (mode/centroid tables, the whole-model build, per-family routing
// rebuild) which must likewise fail closed.
//
// Two build modes (CMake: LSHCLUST_FUZZER_ENGINE):
//  * libFuzzer (clang, -fsanitize=fuzzer): CI's static-analysis job runs
//    a guarded 30-60s smoke, seeded with saved-model corpus files.
//  * standalone (LSHCLUST_FUZZ_STANDALONE): a plain binary that replays
//    corpus files given as argv, and with --mutate=N additionally runs N
//    deterministic byte-level mutations (seeded LCG — reproducible) of
//    each input through the decoder. This mode runs under any compiler
//    and is wired into ctest as fuzz_smoke_test.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "persist/model_io.h"

namespace {

// Exercise one input image end to end. Must be total: any return is fine,
// any crash/sanitizer report is a harness failure.
void DriveDecoder(std::span<const uint8_t> data) {
  lshclust::Result<lshclust::persist::DecodedModel> decoded =
      lshclust::persist::DecodeModelBytes(data);
  if (!decoded.ok()) return;

  // The image decoded: the downstream builders must either succeed or
  // fail closed too (they re-validate cross-section invariants).
  lshclust::persist::DecodedModel model = std::move(decoded).ValueOrDie();
  (void)lshclust::persist::BuildModeTable(model);
  (void)lshclust::persist::BuildCentroidTable(model);
  // The whole load path (LoadFrozenModel / Clusterer::FromSnapshot), on a
  // copy so the per-family builders below still see the decoded arrays.
  (void)lshclust::persist::BuildFrozenModel(
      lshclust::persist::DecodedModel(model));
  switch (model.family) {
    case lshclust::persist::ModelFamilyKind::kMinHash:
      (void)lshclust::persist::BuildMinHashRouting(std::move(model));
      break;
    case lshclust::persist::ModelFamilyKind::kSimHash:
      (void)lshclust::persist::BuildSimHashRouting(std::move(model));
      break;
    case lshclust::persist::ModelFamilyKind::kMixedConcat:
      (void)lshclust::persist::BuildMixedRouting(std::move(model));
      break;
    case lshclust::persist::ModelFamilyKind::kNone:
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  DriveDecoder(std::span<const uint8_t>(data, size));
  return 0;
}

#ifdef LSHCLUST_FUZZ_STANDALONE

#include <cstring>
#include <fstream>
#include <string>

namespace {

// Deterministic 64-bit LCG (Knuth MMIX constants) so a standalone fuzz
// run is exactly reproducible from the command line — no time seeding;
// the determinism lint would rightly reject that.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }

 private:
  uint64_t state_;
};

void MutateAndDrive(const std::vector<uint8_t>& original, uint64_t rounds,
                    uint64_t seed) {
  Lcg rng(seed);
  std::vector<uint8_t> image;
  for (uint64_t round = 0; round < rounds; ++round) {
    image = original;
    // 1-8 mutations per round: byte flips, truncations, and 4-byte
    // little-endian splats (hits lengths/counters harder than bit noise).
    const uint64_t edits = 1 + rng.Next() % 8;
    for (uint64_t edit = 0; edit < edits && !image.empty(); ++edit) {
      const uint64_t pos = rng.Next() % image.size();
      switch (rng.Next() % 4) {
        case 0:
          image[pos] = static_cast<uint8_t>(rng.Next());
          break;
        case 1:
          image[pos] ^= static_cast<uint8_t>(1u << (rng.Next() % 8));
          break;
        case 2:
          image.resize(pos);  // truncate
          break;
        default: {
          const uint32_t value = static_cast<uint32_t>(rng.Next());
          for (uint64_t i = 0; i < 4 && pos + i < image.size(); ++i) {
            image[pos + i] = static_cast<uint8_t>(value >> (8 * i));
          }
          break;
        }
      }
    }
    DriveDecoder(image);
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t mutate_rounds = 0;
  uint64_t seed = 1;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--mutate=", 0) == 0) {
      mutate_rounds = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--mutate=N] [--seed=S] corpus-file...\n",
                 argv[0]);
    return 2;
  }
  uint64_t driven = 0;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read corpus file '%s'\n", path.c_str());
      return 1;
    }
    std::vector<uint8_t> data((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    DriveDecoder(data);
    ++driven;
    if (mutate_rounds > 0) {
      MutateAndDrive(data, mutate_rounds, seed + driven);
      driven += mutate_rounds;
    }
  }
  std::printf("model_io_fuzz: %llu inputs driven, no crash\n",
              static_cast<unsigned long long>(driven));
  return 0;
}

#endif  // LSHCLUST_FUZZ_STANDALONE
