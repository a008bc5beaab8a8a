#ifndef L2R_COMMON_HASH_H_
#define L2R_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace l2r {

/// splitmix64 finalizer: full-avalanche mixing so sequential or
/// bit-packed keys spread across tables and the low bits used for shard
/// selection see every key bit. Shared by FlatMap64 and the serve-layer
/// caches so the mixing can only be tuned in one place.
inline uint64_t Mix64(uint64_t key) {
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  key ^= key >> 31;
  return key;
}

}  // namespace l2r

#endif  // L2R_COMMON_HASH_H_
