#ifndef L2R_ROADNET_SNAPSHOT_H_
#define L2R_ROADNET_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "roadnet/world.h"

namespace l2r {

/// Versioned, checksummed binary snapshot of a full World, designed for
/// zero-copy serving:
///
///  - pointer-free, offset-based layout with 32-bit vertex/edge ids: the
///    file is mapped read-only (mmap, MAP_SHARED) and the network arrays
///    are served directly out of the mapping — no parse, no rebuild, and
///    any number of processes share one physical image;
///  - every array section starts 64-byte aligned, elements are the
///    in-memory types (Point, EdgeRecord, uint32_t), padding bytes are
///    written as zero so the payload checksum is deterministic;
///  - a 64-bit checksum over everything after the header catches
///    truncation and corruption at open time; bad magic / unsupported
///    version / size mismatch / checksum mismatch all return a clean
///    Status, never undefined behavior.
///
/// Version rules: the header's `version` is bumped whenever the layout of
/// any section or of EdgeRecord changes; readers reject versions they do
/// not know. Unknown *section types* are skipped, so additive extensions
/// (new arrays appended by a newer writer) stay readable by old readers
/// only if the version is kept — in practice: additive = keep version,
/// layout change = bump.
///
/// File layout (all little-endian, offsets from file start):
///   [0, 96)              SnapshotHeader
///   [96, 96 + 32 * k)    k SnapshotSection entries
///   aligned sections     positions, edges, out/in CSR offsets and ids,
///                        per-vertex districts

class WorldSnapshot {
 public:
  /// Maps `path` read-only, validates it (header, payload checksum,
  /// section bounds, then one O(n+m) structural pass: CSR offsets and
  /// edge ids, edge endpoints / road types / lengths / speeds, district
  /// ids) and exposes a World whose network arrays view the mapping (the
  /// World pins the mapping; copies of it share the pin). A checksum can
  /// be recomputed by whoever rewrote the image, so the structural pass
  /// is what guarantees a served image never indexes out of bounds. The
  /// freshly opened world is frozen — epoch 0 for a WorldUpdateChannel
  /// built on it.
  static Result<WorldSnapshot> Open(const std::string& path);

  /// Serializes `world` into the snapshot format at `path` (overwrites).
  /// The image is assembled in one file-sized buffer and written with
  /// one call; a failed write removes the partial file.
  static Status Write(const World& world, const std::string& path);

  /// The mapped world. Reading through the const ref never copies;
  /// TakeWorld() moves the handle out (still backed by the mapping).
  const World& world() const { return world_; }
  World TakeWorld() && { return std::move(world_); }

  /// Snapshot file size in bytes.
  uint64_t file_bytes() const { return file_bytes_; }

 private:
  WorldSnapshot() = default;

  World world_;
  uint64_t file_bytes_ = 0;
};

/// Format constants, exposed for tests that construct corrupt images.
inline constexpr uint64_t kSnapshotMagic = 0x31504E535752324CULL;  // "L2RWSNP1"
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr size_t kSnapshotHeaderBytes = 96;

/// The payload checksum stored in the header, over the file bytes from
/// kSnapshotHeaderBytes to the end: Mix64 chained over 8-byte
/// little-endian words (a short tail is zero-padded), with the byte count
/// folded in last.
uint64_t SnapshotChecksum(const uint8_t* data, size_t n);

}  // namespace l2r

#endif  // L2R_ROADNET_SNAPSHOT_H_
