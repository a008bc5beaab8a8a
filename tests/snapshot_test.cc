#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
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
  EXPECT_EQ(got.origin, WorldOrigin::kSnapshot);
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

TEST_F(SnapshotTest, WorldSourceUnifiesAllThreeOrigins) {
  auto from_snap = WorldSource::FromSnapshot(*path_).Acquire();
  ASSERT_TRUE(from_snap.ok());
  EXPECT_EQ(from_snap->origin, WorldOrigin::kSnapshot);
  EXPECT_EQ(from_snap->net.NumVertices(), dataset_->world.net.NumVertices());

  NetworkGenConfig cfg;
  cfg.city_width_m = 4000;
  cfg.city_height_m = 3000;
  cfg.block_spacing_m = 500;
  auto from_gen = WorldSource::FromGenerator(cfg).Acquire();
  ASSERT_TRUE(from_gen.ok());
  EXPECT_EQ(from_gen->origin, WorldOrigin::kGenerated);
  EXPECT_GT(from_gen->net.NumVertices(), 0u);

  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({100, 0});
  b.AddTwoWayEdge(0, 1, RoadType::kPrimary, 50, 40);
  WorldSource source = WorldSource::FromBuilder(std::move(b));
  auto from_builder = source.Acquire();
  ASSERT_TRUE(from_builder.ok());
  EXPECT_EQ(from_builder->origin, WorldOrigin::kBuilt);
  EXPECT_EQ(from_builder->net.NumVertices(), 2u);
  EXPECT_EQ(from_builder->vertex_district.size(), 2u);
  // One-shot contract: a second acquire reports consumption cleanly.
  EXPECT_FALSE(source.Acquire().ok());
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

// ---------- kChecksumOnly: trusted-image opens ----------

TEST_F(SnapshotTest, ChecksumOnlyOpenIsByteIdenticalToValidatedOpen) {
  // Skipping the O(n+m) structural pass changes open-time cost, never the
  // mapped bytes: both modes view the same image.
  auto validated = WorldSnapshot::Open(*path_, SnapshotOpenMode::kValidate);
  ASSERT_TRUE(validated.ok());
  auto trusted = WorldSnapshot::Open(*path_, SnapshotOpenMode::kChecksumOnly);
  ASSERT_TRUE(trusted.ok()) << trusted.status().message();
  const World& a = validated->world();
  const World& b = trusted->world();
  ASSERT_EQ(a.net.NumVertices(), b.net.NumVertices());
  ASSERT_EQ(a.net.NumEdges(), b.net.NumEdges());
  EXPECT_EQ(a.vertex_district, b.vertex_district);
  EXPECT_EQ(std::memcmp(a.net.VertexPositions().data(),
                        b.net.VertexPositions().data(),
                        a.net.NumVertices() * sizeof(Point)),
            0);
  EXPECT_EQ(std::memcmp(&a.net.edge(0), &b.net.edge(0),
                        a.net.NumEdges() * sizeof(EdgeRecord)),
            0);
  EXPECT_EQ(trusted->file_bytes(), validated->file_bytes());
}

TEST_F(SnapshotRejectTest, ChecksumOnlyStillRejectsCorruptPayload) {
  // The trusted mode skips structural validation, not integrity: a
  // bit-flipped payload byte must still fail the checksum at open.
  const std::string path = WriteMutated(
      "bad_payload_trusted.snap",
      [](std::vector<uint8_t>& b) { b[b.size() / 2] ^= 0x40; });
  auto snap = WorldSnapshot::Open(path, SnapshotOpenMode::kChecksumOnly);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kIOError);
  EXPECT_NE(snap.status().message().find("checksum"), std::string::npos)
      << snap.status().message();
  std::remove(path.c_str());
}

TEST_F(SnapshotRejectTest, ChecksummedButStructurallyCorrupt) {
  // A zero-length file and a section-table-only file exercise the
  // structural paths without touching checksum internals.
  const std::string empty = ::testing::TempDir() + "/empty.snap";
  WriteFileBytes(empty, {});
  auto snap = WorldSnapshot::Open(empty);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kIOError);
  std::remove(empty.c_str());
}

}  // namespace
}  // namespace l2r
