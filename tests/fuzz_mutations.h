// Seeded byte mutations for the parser replay tests (MATPOWER text,
// PWDET models, PWSNAP snapshots). Each mutant comes from its own
// Rng::Fork stream, so a failure reproduces from its stream number.

#ifndef PHASORWATCH_TESTS_FUZZ_MUTATIONS_H_
#define PHASORWATCH_TESTS_FUZZ_MUTATIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace phasorwatch {

/// Mutant number `stream` of a non-empty corpus of non-empty inputs:
/// stream % 3 picks the kind, 0 flips 1-8 random bits, 1 deletes a run
/// of 1-16 bytes, 2 splices a prefix of one input onto a suffix of the
/// next one in the corpus.
inline std::string MutateCorpus(const std::vector<std::string>& corpus,
                                uint64_t seed, uint64_t stream) {
  PW_CHECK(!corpus.empty());
  Rng rng = Rng::Fork(seed, stream);
  const size_t pick = rng.UniformInt(corpus.size());
  std::string bytes = corpus[pick];
  switch (stream % 3) {
    case 0: {
      const uint64_t flips = 1 + rng.UniformInt(8);
      for (uint64_t f = 0; f < flips; ++f) {
        bytes[rng.UniformInt(bytes.size())] ^=
            static_cast<char>(1u << rng.UniformInt(8));
      }
      break;
    }
    case 1: {
      const size_t at = rng.UniformInt(bytes.size());
      bytes.erase(at, 1 + rng.UniformInt(16));
      break;
    }
    default: {
      const std::string& other = corpus[(pick + 1) % corpus.size()];
      bytes = bytes.substr(0, rng.UniformInt(bytes.size() + 1)) +
              other.substr(rng.UniformInt(other.size() + 1));
      break;
    }
  }
  return bytes;
}

}  // namespace phasorwatch

#endif  // PHASORWATCH_TESTS_FUZZ_MUTATIONS_H_
