// Hash-mixing helpers shared by the api layer's cache keys
// (ColoringSpecHash and SolveLp's LP content fingerprint). Kept in one
// place so both keyings agree on canonicalization — in particular the
// -0.0 fold, which keeps bitwise hashing consistent with operator== on
// doubles. NaN never reaches a cache key (the Compressor boundary rejects
// non-finite options and ValidateLp rejects non-finite coefficients).

#ifndef QSC_API_HASHING_H_
#define QSC_API_HASHING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "qsc/coloring/backend.h"

namespace qsc {
namespace api_internal {

// FNV-1a over the bytes of a 64-bit word.
inline uint64_t HashMixWord(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

// The bit pattern of a double (as a key: equal bits, equal double).
inline uint64_t DoubleBits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline uint64_t HashMixDouble(uint64_t h, double v) {
  if (v == 0.0) v = 0.0;  // fold -0.0 onto 0.0
  return HashMixWord(h, DoubleBits(v));
}

constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;

// One multiply per 64-bit word (the golden-ratio multiplier, then the
// high half folded down so later words reach every bit), for long
// content keys — SolveLp's LP fingerprint mixes two words per matrix
// entry, where HashMixWord's eight dependent byte multiplies per word
// dominated a warm lookup. Not interchangeable with HashMixWord: the
// spec keys keep their byte-wise hashes.
inline uint64_t HashMixWordFast(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 32);
}

// HashMixWordFast over a double's bits, with HashMixDouble's -0.0 fold.
inline uint64_t HashMixDoubleFast(uint64_t h, double v) {
  if (v == 0.0) v = 0.0;  // fold -0.0 onto 0.0
  return HashMixWordFast(h, DoubleBits(v));
}

// Two 32-bit ids as one word.
inline uint64_t PackPair(int32_t hi, int32_t lo) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(hi)) << 32) |
         static_cast<uint32_t>(lo);
}

// Canonical backend spelling for equality and hashing: the empty string
// means the default backend (pre-registry specs keep their meaning).
// Callers store names already canonicalized by CanonicalBackendName; this
// only folds the ""-default equivalence.
inline const std::string& BackendOrDefault(const std::string& backend) {
  static const std::string kDefault(kDefaultColoringBackend);
  return backend.empty() ? kDefault : backend;
}

// Mixes a spec's backend name into a cache key. The default backend mixes
// *nothing*, so every pre-registry spec — default-constructed, backend
// unset — hashes exactly as it did before backends existed, keeping the
// committed cache-resume corpus hashes bit-identical for rothko.
inline uint64_t HashMixBackendName(uint64_t h, const std::string& backend) {
  const std::string& canonical = BackendOrDefault(backend);
  if (canonical == kDefaultColoringBackend) return h;
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace api_internal
}  // namespace qsc

#endif  // QSC_API_HASHING_H_
