#include "roadnet/snapshot.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/mmap_file.h"

namespace l2r {

// The snapshot writer/reader reads RoadNetwork's private arrays and
// constructs view-backed networks; this is the only code with that access.
struct SnapshotAccess {
  static const CowSpan<Point>& Positions(const RoadNetwork& n) {
    return n.positions_;
  }
  static const CowSpan<EdgeRecord>& Edges(const RoadNetwork& n) {
    return n.edges_;
  }
  static const CowSpan<uint32_t>& OutOffsets(const RoadNetwork& n) {
    return n.out_offsets_;
  }
  static const CowSpan<EdgeId>& OutIds(const RoadNetwork& n) {
    return n.out_ids_;
  }
  static const CowSpan<uint32_t>& InOffsets(const RoadNetwork& n) {
    return n.in_offsets_;
  }
  static const CowSpan<EdgeId>& InIds(const RoadNetwork& n) {
    return n.in_ids_;
  }

  static RoadNetwork MakeView(const Point* pos, size_t n,
                              const EdgeRecord* edges, size_t m,
                              const uint32_t* out_off, const EdgeId* out_ids,
                              const uint32_t* in_off, const EdgeId* in_ids,
                              const BoundingBox& bounds,
                              std::shared_ptr<const void> backing) {
    RoadNetwork net;
    net.positions_ = CowSpan<Point>::View(pos, n);
    net.edges_ = CowSpan<EdgeRecord>::View(edges, m);
    net.out_offsets_ = CowSpan<uint32_t>::View(out_off, n + 1);
    net.out_ids_ = CowSpan<EdgeId>::View(out_ids, m);
    net.in_offsets_ = CowSpan<uint32_t>::View(in_off, n + 1);
    net.in_ids_ = CowSpan<EdgeId>::View(in_ids, m);
    net.bounds_ = bounds;
    net.backing_ = std::move(backing);
    return net;
  }
};

namespace {

// ---- On-disk structures (little-endian, fixed layout). ----

// The snapshot format freezes these layouts; the static_asserts below are
// the tripwire that turns an accidental struct change into a compile
// error instead of a silently incompatible file.
static_assert(sizeof(Point) == 16, "Point layout is frozen by the format");
static_assert(sizeof(EdgeRecord) == 24,
              "EdgeRecord layout is frozen by the format");
static_assert(offsetof(EdgeRecord, from) == 0);
static_assert(offsetof(EdgeRecord, to) == 4);
static_assert(offsetof(EdgeRecord, length_m) == 8);
static_assert(offsetof(EdgeRecord, speed_offpeak_kmh) == 12);
static_assert(offsetof(EdgeRecord, speed_peak_kmh) == 16);
static_assert(offsetof(EdgeRecord, road_type) == 20);
// Tail padding [21, 24) is zeroed on write for checksum determinism.
inline constexpr size_t kEdgePadOffset = 21;
inline constexpr size_t kEdgePadBytes = 3;

struct SnapshotHeader {
  uint64_t magic = kSnapshotMagic;
  uint32_t version = kSnapshotVersion;
  uint32_t section_count = 0;
  uint64_t file_size = 0;
  /// Checksum over [kSnapshotHeaderBytes, file_size): section table,
  /// alignment gaps (zero), and every section payload.
  uint64_t payload_checksum = 0;
  uint32_t num_vertices = 0;
  uint32_t num_edges = 0;
  uint32_t num_patches = 0;
  uint32_t flags = 0;
  double bounds_min_x = 0;
  double bounds_min_y = 0;
  double bounds_max_x = 0;
  double bounds_max_y = 0;
  /// Reserved, written as zero; pads the header to 96 bytes.
  uint64_t reserved[2] = {0, 0};
};
static_assert(sizeof(SnapshotHeader) == kSnapshotHeaderBytes);
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);

enum SectionType : uint32_t {
  kSecPositions = 1,   // Point[num_vertices]
  kSecEdges = 2,       // EdgeRecord[num_edges]
  kSecOutOffsets = 3,  // uint32[num_vertices + 1]
  kSecOutIds = 4,      // uint32[num_edges]
  kSecInOffsets = 5,   // uint32[num_vertices + 1]
  kSecInIds = 6,       // uint32[num_edges]
  kSecDistricts = 7,   // uint8[num_vertices]
};

struct SnapshotSection {
  uint32_t type = 0;
  uint32_t elem_size = 0;
  uint64_t offset = 0;  ///< absolute file offset, 64-byte aligned
  uint64_t count = 0;
  uint64_t byte_size = 0;  ///< == elem_size * count
};
static_assert(sizeof(SnapshotSection) == 32);
static_assert(std::is_trivially_copyable_v<SnapshotSection>);

inline constexpr size_t kSectionAlign = 64;
inline constexpr uint32_t kNumSections = 7;

constexpr uint64_t Align64(uint64_t off) {
  return (off + (kSectionAlign - 1)) & ~static_cast<uint64_t>(
                                           kSectionAlign - 1);
}

}  // namespace

uint64_t SnapshotChecksum(const uint8_t* data, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, data + i, std::min<size_t>(8, n - i));
    h = Mix64(h ^ w);
  }
  return Mix64(h ^ n);
}

Status WorldSnapshot::Write(const World& world, const std::string& path) {
  const RoadNetwork& net = world.net;
  const size_t n = net.NumVertices();
  const size_t m = net.NumEdges();
  if (world.vertex_district.size() != n) {
    return Status::InvalidArgument("world district array size mismatch");
  }
  if (n >= kInvalidVertex || m >= kInvalidEdge) {
    return Status::InvalidArgument("world too large for 32-bit ids");
  }

  // Layout: header, section table, then 64-byte-aligned sections.
  SnapshotSection sections[kNumSections];
  const uint32_t types[kNumSections] = {
      kSecPositions, kSecEdges,     kSecOutOffsets, kSecOutIds,
      kSecInOffsets, kSecInIds,     kSecDistricts};
  const uint64_t counts[kNumSections] = {n, m, n + 1, m, n + 1, m, n};
  const uint32_t elem_sizes[kNumSections] = {
      sizeof(Point), sizeof(EdgeRecord), 4, 4, 4, 4, 1};
  uint64_t off = kSnapshotHeaderBytes + sizeof(sections);
  for (uint32_t i = 0; i < kNumSections; ++i) {
    off = Align64(off);
    sections[i].type = types[i];
    sections[i].elem_size = elem_sizes[i];
    sections[i].count = counts[i];
    sections[i].byte_size = counts[i] * elem_sizes[i];
    sections[i].offset = off;
    off += sections[i].byte_size;
  }

  SnapshotHeader header;
  header.section_count = kNumSections;
  header.file_size = off;
  header.num_vertices = static_cast<uint32_t>(n);
  header.num_edges = static_cast<uint32_t>(m);
  header.num_patches = static_cast<uint32_t>(world.num_patches);
  header.bounds_min_x = net.bounds().min.x;
  header.bounds_min_y = net.bounds().min.y;
  header.bounds_max_x = net.bounds().max.x;
  header.bounds_max_y = net.bounds().max.y;

  // The whole image is assembled in memory, zero-filled, so alignment
  // gaps and EdgeRecord's tail padding are zero and the checksum is
  // deterministic.
  std::vector<uint8_t> image(off, 0);
  std::memcpy(image.data() + kSnapshotHeaderBytes, sections,
              sizeof(sections));
  static_assert(sizeof(DistrictType) == 1);
  const void* arrays[kNumSections] = {
      SnapshotAccess::Positions(net).data(),
      SnapshotAccess::Edges(net).data(),
      SnapshotAccess::OutOffsets(net).data(),
      SnapshotAccess::OutIds(net).data(),
      SnapshotAccess::InOffsets(net).data(),
      SnapshotAccess::InIds(net).data(),
      world.vertex_district.data()};
  for (uint32_t i = 0; i < kNumSections; ++i) {
    if (sections[i].byte_size == 0) continue;
    std::memcpy(image.data() + sections[i].offset, arrays[i],
                sections[i].byte_size);
  }
  uint8_t* edge_bytes = image.data() + sections[1].offset;
  for (size_t e = 0; e < m; ++e) {
    std::memset(edge_bytes + e * sizeof(EdgeRecord) + kEdgePadOffset, 0,
                kEdgePadBytes);
  }
  header.payload_checksum =
      SnapshotChecksum(image.data() + kSnapshotHeaderBytes,
                       image.size() - kSnapshotHeaderBytes);
  std::memcpy(image.data(), &header, sizeof(header));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot create snapshot " + path);
  }
  const bool written =
      std::fwrite(image.data(), 1, image.size(), f) == image.size();
  if (std::fclose(f) != 0 || !written) {
    std::remove(path.c_str());
    return Status::IOError("snapshot write failed: " + path);
  }
  return Status();
}

Result<WorldSnapshot> WorldSnapshot::Open(const std::string& path) {
  L2R_ASSIGN_OR_RETURN(MappedFile mf, MappedFile::Open(path));
  if (mf.size() < kSnapshotHeaderBytes) {
    return Status::IOError("snapshot truncated: " +
                           std::to_string(mf.size()) + " bytes");
  }
  SnapshotHeader header;
  std::memcpy(&header, mf.data(), sizeof(header));
  if (header.magic != kSnapshotMagic) {
    return Status::IOError("bad snapshot magic in " + path);
  }
  if (header.version != kSnapshotVersion) {
    return Status::IOError("unsupported snapshot version " +
                           std::to_string(header.version));
  }
  if (header.file_size != mf.size()) {
    return Status::IOError("snapshot size mismatch (truncated or "
                           "appended): header says " +
                           std::to_string(header.file_size) + ", file has " +
                           std::to_string(mf.size()));
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SnapshotSection);
  if (header.section_count > 4096 ||
      kSnapshotHeaderBytes + table_bytes > mf.size()) {
    return Status::IOError("snapshot section table out of bounds");
  }

  if (SnapshotChecksum(mf.data() + kSnapshotHeaderBytes,
                       mf.size() - kSnapshotHeaderBytes) !=
      header.payload_checksum) {
    return Status::IOError("snapshot checksum mismatch in " + path);
  }

  const size_t n = header.num_vertices;
  const size_t m = header.num_edges;
  const uint64_t expect_counts[8] = {0, n, m, n + 1, m, n + 1, m, n};
  const uint32_t expect_elem[8] = {0,
                                   sizeof(Point),
                                   sizeof(EdgeRecord),
                                   4,
                                   4,
                                   4,
                                   4,
                                   1};
  // Unknown section types are skipped (additive extensions); the seven
  // core sections must all be present, in bounds, aligned, and sized
  // consistently with the header's vertex/edge counts.
  const uint8_t* base[8] = {};
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SnapshotSection sec;
    std::memcpy(&sec, mf.data() + kSnapshotHeaderBytes +
                          i * sizeof(SnapshotSection),
                sizeof(sec));
    if (sec.type < kSecPositions || sec.type > kSecDistricts) continue;
    if (sec.offset % kSectionAlign != 0 ||
        sec.byte_size != sec.count * sec.elem_size ||
        sec.offset > mf.size() || sec.byte_size > mf.size() - sec.offset) {
      return Status::IOError("snapshot section " +
                             std::to_string(sec.type) + " out of bounds");
    }
    if (sec.count != expect_counts[sec.type] ||
        sec.elem_size != expect_elem[sec.type]) {
      return Status::IOError("snapshot section " +
                             std::to_string(sec.type) +
                             " inconsistent with header counts");
    }
    base[sec.type] = mf.data() + sec.offset;
  }
  for (uint32_t t = kSecPositions; t <= kSecDistricts; ++t) {
    if (base[t] == nullptr) {
      return Status::IOError("snapshot missing section " +
                             std::to_string(t));
    }
  }

  // The mapping is page-aligned and sections are 64-byte aligned, so
  // viewing the bytes as the (implicit-lifetime, trivially copyable)
  // element types is well-defined on every ABI we build for.
  const auto* positions = reinterpret_cast<const Point*>(base[kSecPositions]);
  const auto* edges = reinterpret_cast<const EdgeRecord*>(base[kSecEdges]);
  const auto* out_off =
      reinterpret_cast<const uint32_t*>(base[kSecOutOffsets]);
  const auto* out_ids = reinterpret_cast<const EdgeId*>(base[kSecOutIds]);
  const auto* in_off = reinterpret_cast<const uint32_t*>(base[kSecInOffsets]);
  const auto* in_ids = reinterpret_cast<const EdgeId*>(base[kSecInIds]);
  const auto* districts = base[kSecDistricts];

  // Structural validation: one linear pass, so an image whose checksum
  // was recomputed after a rewrite still never indexes out of bounds at
  // serve time.
  if (out_off[0] != 0 || out_off[n] != m || in_off[0] != 0 ||
      in_off[n] != m) {
    return Status::IOError("snapshot CSR offsets corrupt");
  }
  for (size_t v = 0; v < n; ++v) {
    if (out_off[v] > out_off[v + 1] || in_off[v] > in_off[v + 1]) {
      return Status::IOError("snapshot CSR offsets not monotone");
    }
    if (districts[v] >= kNumDistrictTypes) {
      return Status::IOError("snapshot district id out of range");
    }
  }
  for (size_t e = 0; e < m; ++e) {
    const EdgeRecord& r = edges[e];
    if (r.from >= n || r.to >= n ||
        static_cast<uint8_t>(r.road_type) >= kNumRoadTypes ||
        !(r.length_m > 0) || !(r.speed_offpeak_kmh > 0) ||
        !(r.speed_peak_kmh > 0)) {
      return Status::IOError("snapshot edge record corrupt");
    }
    if (out_ids[e] >= m || in_ids[e] >= m) {
      return Status::IOError("snapshot CSR edge id out of range");
    }
  }

  BoundingBox bounds;
  bounds.min = Point(header.bounds_min_x, header.bounds_min_y);
  bounds.max = Point(header.bounds_max_x, header.bounds_max_y);

  WorldSnapshot snap;
  snap.file_bytes_ = mf.size();
  auto keepalive = std::make_shared<MappedFile>(std::move(mf));
  snap.world_.net = SnapshotAccess::MakeView(
      positions, n, edges, m, out_off, out_ids, in_off, in_ids, bounds,
      std::shared_ptr<const void>(keepalive, keepalive.get()));
  snap.world_.vertex_district.assign(
      reinterpret_cast<const DistrictType*>(districts),
      reinterpret_cast<const DistrictType*>(districts) + n);
  snap.world_.num_patches = header.num_patches;
  snap.world_.IndexDistricts();
  return snap;
}

}  // namespace l2r
