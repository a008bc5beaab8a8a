#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

#include "core/batch_router.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "roadnet/snapshot.h"
#include "roadnet/world_source.h"
#include "test_util.h"
#include "world/update_channel.h"

namespace l2r {
namespace {

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  L2R_CHECK(f != nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  L2R_CHECK(std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  L2R_CHECK(f != nullptr);
  if (!bytes.empty()) {
    L2R_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  }
  std::fclose(f);
}

/// One small generated world + its snapshot on disk, shared by the suite.
class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = CityDataset(0.08);
    spec.network.city_width_m = 8000;
    spec.network.city_height_m = 6000;
    auto built = BuildDataset(spec);
    L2R_CHECK(built.ok());
    dataset_ = new BuiltDataset(std::move(built).value());
    path_ = new std::string(::testing::TempDir() + "/l2r_world.snap");
    L2R_CHECK(WorldSnapshot::Write(dataset_->world, *path_).ok());
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    path_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static BuiltDataset* dataset_;
  static std::string* path_;
};

BuiltDataset* SnapshotTest::dataset_ = nullptr;
std::string* SnapshotTest::path_ = nullptr;

TEST_F(SnapshotTest, RoundTripTopologyByteIdentical) {
  auto snap = WorldSnapshot::Open(*path_);
  ASSERT_TRUE(snap.ok()) << snap.status().message();
  const World& got = snap->world();
  const World& want = dataset_->world;
  EXPECT_TRUE(got.net.snapshot_backed());
  EXPECT_EQ(snap->file_bytes(), ReadFileBytes(*path_).size());

  ASSERT_EQ(got.net.NumVertices(), want.net.NumVertices());
  ASSERT_EQ(got.net.NumEdges(), want.net.NumEdges());
  EXPECT_EQ(got.num_patches, want.num_patches);
  EXPECT_EQ(got.vertex_district, want.vertex_district);
  EXPECT_EQ(got.vertices_by_district, want.vertices_by_district);

  // Arrays are bit-exact, not approximately equal: the snapshot stores
  // the in-memory representation.
  EXPECT_EQ(std::memcmp(got.net.VertexPositions().data(),
                        want.net.VertexPositions().data(),
                        want.net.NumVertices() * sizeof(Point)),
            0);
  for (EdgeId e = 0; e < want.net.NumEdges(); ++e) {
    const EdgeRecord& a = want.net.edge(e);
    const EdgeRecord& b = got.net.edge(e);
    ASSERT_EQ(a.from, b.from);
    ASSERT_EQ(a.to, b.to);
    ASSERT_EQ(a.length_m, b.length_m);
    ASSERT_EQ(a.speed_offpeak_kmh, b.speed_offpeak_kmh);
    ASSERT_EQ(a.speed_peak_kmh, b.speed_peak_kmh);
    ASSERT_EQ(a.road_type, b.road_type);
  }
  for (VertexId v = 0; v < want.net.NumVertices(); ++v) {
    const auto a = want.net.OutEdges(v);
    const auto b = got.net.OutEdges(v);
    ASSERT_EQ(std::vector<EdgeId>(a.begin(), a.end()),
              std::vector<EdgeId>(b.begin(), b.end()));
  }
  EXPECT_EQ(got.net.bounds().min.x, want.net.bounds().min.x);
  EXPECT_EQ(got.net.bounds().min.y, want.net.bounds().min.y);
  EXPECT_EQ(got.net.bounds().max.x, want.net.bounds().max.x);
  EXPECT_EQ(got.net.bounds().max.y, want.net.bounds().max.y);
}

TEST_F(SnapshotTest, ServedRoutesByteIdenticalAtT1AndT4) {
  auto snap = WorldSnapshot::Open(*path_);
  ASSERT_TRUE(snap.ok());
  World mapped = std::move(*snap).TakeWorld();

  L2ROptions options;
  auto built_router =
      L2RRouter::Build(&dataset_->world.net, dataset_->split.train, options);
  ASSERT_TRUE(built_router.ok());
  auto mapped_router =
      L2RRouter::Build(&mapped.net, dataset_->split.train, options);
  ASSERT_TRUE(mapped_router.ok());

  std::vector<BatchQuery> queries;
  for (const MatchedTrajectory& t : dataset_->split.test) {
    if (queries.size() >= 40) break;
    if (t.path.size() < 3 || t.path.front() == t.path.back()) continue;
    queries.push_back(
        BatchQuery{t.path.front(), t.path.back(), t.departure_time});
  }
  ASSERT_GT(queries.size(), 10u);

  for (const unsigned threads : {1u, 4u}) {
    BatchRouter a(built_router->get(), threads);
    BatchRouter b(mapped_router->get(), threads);
    const auto want = a.RouteAll(queries);
    const auto got = b.RouteAll(queries);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i].ok(), got[i].ok()) << "slot " << i;
      if (!want[i].ok()) continue;
      EXPECT_EQ(want[i]->path.vertices, got[i]->path.vertices)
          << "t=" << threads << " slot " << i;
      EXPECT_EQ(want[i]->path.cost, got[i]->path.cost);
      EXPECT_TRUE(*want[i] == *got[i]) << "t=" << threads << " slot " << i;
    }
  }
}

TEST_F(SnapshotTest, CopyOnWriteLeavesSharedImageIntact) {
  const std::vector<uint8_t> before = ReadFileBytes(*path_);

  auto snap = WorldSnapshot::Open(*path_);
  ASSERT_TRUE(snap.ok());
  World w = std::move(*snap).TakeWorld();
  const float original = w.net.edge(0).speed_offpeak_kmh;

  // Mutating the mapped world copy-on-writes the edge array privately.
  w.net.SetEdgeSpeeds(0, 3.0, 2.0);
  w.net.SetEdgeClosed(1, true);
  EXPECT_FLOAT_EQ(w.net.edge(0).speed_offpeak_kmh, 3.0f);
  EXPECT_TRUE(w.net.EdgeClosed(1));

  // The on-disk image and fresh mappings are untouched.
  EXPECT_EQ(ReadFileBytes(*path_), before);
  auto again = WorldSnapshot::Open(*path_);
  ASSERT_TRUE(again.ok());
  EXPECT_FLOAT_EQ(again->world().net.edge(0).speed_offpeak_kmh, original);
  EXPECT_FALSE(again->world().net.EdgeClosed(1));
}

TEST_F(SnapshotTest, MappedWorldIsEpochZeroForUpdateChannel) {
  auto snap = WorldSnapshot::Open(*path_);
  ASSERT_TRUE(snap.ok());
  World w = std::move(*snap).TakeWorld();
  L2ROptions options;
  auto router = L2RRouter::Build(&w.net, dataset_->split.train, options);
  ASSERT_TRUE(router.ok());

  WorldUpdateChannel channel(&w.net, router->get());
  EXPECT_EQ(channel.CurrentEpoch(), 0u);

  // A live update on top of the shared image works (copy-on-write) and
  // bumps the epoch; the snapshot file never changes.
  const std::vector<uint8_t> before = ReadFileBytes(*path_);
  WorldUpdateBatch batch;
  batch.deltas.push_back(EdgeDelta{0, 0.5});
  const auto report = channel.Apply(batch);
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(channel.CurrentEpoch(), 1u);
  EXPECT_EQ(ReadFileBytes(*path_), before);
}

TEST_F(SnapshotTest, WorldSourceAcquiresTheSnapshotWorld) {
  const WorldSource source = WorldSource::FromSnapshot(*path_);
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto world = source.Acquire();
    ASSERT_TRUE(world.ok()) << world.status().message();
    EXPECT_TRUE(world->net.snapshot_backed());
    EXPECT_EQ(world->net.NumVertices(), dataset_->world.net.NumVertices());
    EXPECT_EQ(world->vertex_district, dataset_->world.vertex_district);
  }
  auto missing = WorldSource::FromSnapshot("/nonexistent/world.snap")
                     .Acquire();
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

// ---------- rejection: every corrupt image yields a clean Status ----------

class SnapshotRejectTest : public SnapshotTest {
 protected:
  /// Writes a mutated copy of the valid snapshot and returns its path.
  static std::string WriteMutated(
      const std::string& name,
      const std::function<void(std::vector<uint8_t>&)>& mutate) {
    std::vector<uint8_t> bytes = ReadFileBytes(*path_);
    mutate(bytes);
    const std::string out = ::testing::TempDir() + "/" + name;
    WriteFileBytes(out, bytes);
    return out;
  }

  static void ExpectRejected(const std::string& path,
                             const std::string& want_substr) {
    auto snap = WorldSnapshot::Open(path);
    ASSERT_FALSE(snap.ok());
    EXPECT_EQ(snap.status().code(), StatusCode::kIOError);
    EXPECT_NE(snap.status().message().find(want_substr), std::string::npos)
        << snap.status().message();
    std::remove(path.c_str());
  }
};

TEST_F(SnapshotRejectTest, MissingFile) {
  EXPECT_FALSE(WorldSnapshot::Open("/nonexistent/world.snap").ok());
}

TEST_F(SnapshotRejectTest, TruncatedBelowHeader) {
  ExpectRejected(WriteMutated("trunc_header.snap",
                              [](std::vector<uint8_t>& b) { b.resize(40); }),
                 "truncated");
}

TEST_F(SnapshotRejectTest, TruncatedPayload) {
  ExpectRejected(
      WriteMutated("trunc_payload.snap",
                   [](std::vector<uint8_t>& b) {
                     b.erase(b.end() - 17, b.end());
                   }),
      "size mismatch");
}

TEST_F(SnapshotRejectTest, BadMagic) {
  ExpectRejected(WriteMutated("bad_magic.snap",
                              [](std::vector<uint8_t>& b) { b[0] ^= 0xFF; }),
                 "magic");
}

TEST_F(SnapshotRejectTest, UnsupportedVersion) {
  ExpectRejected(WriteMutated("bad_version.snap",
                              [](std::vector<uint8_t>& b) {
                                const uint32_t v = 99;
                                std::memcpy(b.data() + 8, &v, sizeof(v));
                              }),
                 "version");
}

TEST_F(SnapshotRejectTest, ChecksumMismatch) {
  ExpectRejected(WriteMutated("bad_payload.snap",
                              [](std::vector<uint8_t>& b) {
                                b[b.size() - 1] ^= 0x01;
                              }),
                 "checksum");
}

TEST_F(SnapshotRejectTest, EmptyFile) {
  const std::string empty = ::testing::TempDir() + "/empty.snap";
  WriteFileBytes(empty, {});
  ExpectRejected(empty, "truncated");
}

// ---------- re-sealed images: the structural pass ----------
//
// Each mutation below rewrites one array and then recomputes the payload
// checksum, so the image passes every integrity check and only the
// structural pass can reject it.

/// Header field offsets (see SnapshotHeader in snapshot.cc).
constexpr size_t kSectionCountOffset = 12;
constexpr size_t kChecksumOffset = 24;
constexpr size_t kSectionEntryBytes = 32;

/// Section type ids (SectionType in snapshot.cc).
enum : uint32_t {
  kEdgesSection = 2,
  kOutOffsetsSection = 3,
  kOutIdsSection = 4,
  kInIdsSection = 6,
  kDistrictsSection = 7,
};

template <typename T>
T Load(const std::vector<uint8_t>& b, size_t at) {
  T v;
  std::memcpy(&v, b.data() + at, sizeof(T));
  return v;
}

template <typename T>
void Store(std::vector<uint8_t>& b, size_t at, const T& v) {
  std::memcpy(b.data() + at, &v, sizeof(T));
}

/// File offset of the first element of section `type`.
size_t SectionStart(const std::vector<uint8_t>& b, uint32_t type) {
  const uint32_t count = Load<uint32_t>(b, kSectionCountOffset);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry = kSnapshotHeaderBytes + i * kSectionEntryBytes;
    if (Load<uint32_t>(b, entry) == type) {
      return static_cast<size_t>(Load<uint64_t>(b, entry + 8));
    }
  }
  L2R_CHECK(false);
  return 0;
}

void Reseal(std::vector<uint8_t>& b) {
  Store(b, kChecksumOffset,
        SnapshotChecksum(b.data() + kSnapshotHeaderBytes,
                         b.size() - kSnapshotHeaderBytes));
}

class SnapshotStructureTest : public SnapshotRejectTest {
 protected:
  static std::string WriteResealed(
      const std::string& name,
      const std::function<void(std::vector<uint8_t>&)>& mutate) {
    return WriteMutated(name, [&](std::vector<uint8_t>& b) {
      mutate(b);
      Reseal(b);
    });
  }

  static size_t NumVertices() { return dataset_->world.net.NumVertices(); }
  static uint32_t NumEdges() {
    return static_cast<uint32_t>(dataset_->world.net.NumEdges());
  }
};

TEST_F(SnapshotStructureTest, ResealedUnmutatedImageOpens) {
  const std::string path =
      WriteResealed("resealed.snap", [](std::vector<uint8_t>&) {});
  auto snap = WorldSnapshot::Open(path);
  EXPECT_TRUE(snap.ok()) << snap.status().message();
  std::remove(path.c_str());
}

TEST_F(SnapshotStructureTest, CsrEndOffsets) {
  ExpectRejected(
      WriteResealed("csr_end.snap",
                    [](std::vector<uint8_t>& b) {
                      const size_t at = SectionStart(b, kOutOffsetsSection) +
                                        NumVertices() * sizeof(uint32_t);
                      Store<uint32_t>(b, at, NumEdges() + 1);
                    }),
      "CSR offsets corrupt");
}

TEST_F(SnapshotStructureTest, CsrOffsetsMonotone) {
  ExpectRejected(
      WriteResealed("csr_monotone.snap",
                    [](std::vector<uint8_t>& b) {
                      const size_t at = SectionStart(b, kOutOffsetsSection);
                      L2R_CHECK(Load<uint32_t>(b, at + 8) < NumEdges());
                      Store<uint32_t>(b, at + 4, NumEdges());
                    }),
      "CSR offsets not monotone");
}

TEST_F(SnapshotStructureTest, DistrictRange) {
  ExpectRejected(
      WriteResealed("district.snap",
                    [](std::vector<uint8_t>& b) {
                      Store<uint8_t>(b, SectionStart(b, kDistrictsSection),
                                     kNumDistrictTypes);
                    }),
      "district id out of range");
}

TEST_F(SnapshotStructureTest, EdgeRecordFields) {
  const uint32_t n = static_cast<uint32_t>(NumVertices());
  const std::vector<std::pair<std::string, std::function<void(EdgeRecord&)>>>
      cases = {
          {"from", [n](EdgeRecord& r) { r.from = n; }},
          {"to", [n](EdgeRecord& r) { r.to = n; }},
          {"road_type",
           [](EdgeRecord& r) {
             r.road_type = static_cast<RoadType>(kNumRoadTypes);
           }},
          {"length", [](EdgeRecord& r) { r.length_m = 0; }},
          {"speed_offpeak", [](EdgeRecord& r) { r.speed_offpeak_kmh = -1; }},
          {"speed_peak", [](EdgeRecord& r) { r.speed_peak_kmh = 0; }},
      };
  for (const auto& [field, mutate] : cases) {
    SCOPED_TRACE(field);
    ExpectRejected(
        WriteResealed("edge_" + field + ".snap",
                      [&](std::vector<uint8_t>& b) {
                        const size_t at =
                            SectionStart(b, kEdgesSection) +
                            (NumEdges() / 2) * sizeof(EdgeRecord);
                        EdgeRecord r = Load<EdgeRecord>(b, at);
                        mutate(r);
                        Store(b, at, r);
                      }),
        "edge record corrupt");
  }
}

TEST_F(SnapshotStructureTest, CsrEdgeId) {
  for (const uint32_t section : {kOutIdsSection, kInIdsSection}) {
    SCOPED_TRACE(section);
    ExpectRejected(
        WriteResealed("edge_id.snap",
                      [section](std::vector<uint8_t>& b) {
                        Store<uint32_t>(b, SectionStart(b, section),
                                        NumEdges());
                      }),
        "CSR edge id out of range");
  }
}

}  // namespace
}  // namespace l2r
