// The seal hash shared by every integrity seal in the repo: the
// NativePartition commit checksum, the shuffle service's per-spill-block
// seals, and the wire-format trailer. One implementation so a seal computed
// by any producer verifies against any consumer.
//
// FNV-style, but a word at a time: each 8-byte word of the input is xored
// into the state and multiplied by the FNV prime, the final 0-7 bytes are
// packed into one zero-padded word and folded the same way, and digest()
// applies a final avalanche mix. Each step is a bijection of the state for a
// fixed input word (xor, then multiplication by an odd constant), so any
// change confined to one 8-byte word — one bit flip, say — always changes
// the digest. Words are read in host byte order; seals never leave the host.
#ifndef SRC_SUPPORT_FNV_H_
#define SRC_SUPPORT_FNV_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gerenuk {

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

// Incremental seal hash. Update boundaries are part of the hashed stream
// (each call packs its own tail word), so a producer and its verifier must
// feed the same pieces; every caller hashes whole records or whole blocks.
class SealHash {
 public:
  void Update(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    uint64_t h = h_;
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      h = (h ^ word) * kFnvPrime;
    }
    if (n > 0) {
      uint64_t tail = 0;
      std::memcpy(&tail, p, n);
      h = (h ^ tail ^ (static_cast<uint64_t>(n) << 56)) * kFnvPrime;
    }
    h_ = h;
  }
  // The murmur3 finalizer: a bijective mix so nearby states spread apart.
  uint64_t digest() const {
    uint64_t h = h_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }
  void Reset() { h_ = kFnvOffsetBasis; }

 private:
  uint64_t h_ = kFnvOffsetBasis;
};

// One-shot convenience for contiguous buffers.
inline uint64_t SealDigest(const void* data, size_t n) {
  SealHash h;
  h.Update(data, n);
  return h.digest();
}

}  // namespace gerenuk

#endif  // SRC_SUPPORT_FNV_H_
