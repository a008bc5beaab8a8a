// Snapshot cold start: generate a metro-scale world, write it as a
// zero-copy binary snapshot, and time the serving cold start — a
// validated mmap open of the snapshot image. Finishes by routing the
// same queries on the built and the mapped world and checking the
// answers are identical.
//
//   ./build/examples/snapshot_cold_start [scale]   (default 0.3)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/timer.h"
#include "roadnet/generator.h"
#include "roadnet/snapshot.h"
#include "roadnet/weights.h"
#include "routing/dijkstra.h"

using namespace l2r;  // NOLINT — example code

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.3;

  std::printf("Generating metro world at scale %.2f...\n", scale);
  Timer gen_timer;
  auto world = GenerateNetwork(MetroScaleConfig(scale));
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return 1;
  }
  const double gen_s = gen_timer.ElapsedSeconds();
  std::printf("  %zu vertices, %zu edges, %zu patches (%.2fs)\n",
              world->net.NumVertices(), world->net.NumEdges(),
              world->num_patches, gen_s);

  const std::string snap_path = "/tmp/l2r_metro.snap";
  Timer write_timer;
  if (auto s = WorldSnapshot::Write(*world, snap_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("Snapshot written in %.3fs\n", write_timer.ElapsedSeconds());

  Timer mmap_timer;
  auto snap = WorldSnapshot::Open(snap_path);
  const double mmap_s = mmap_timer.ElapsedSeconds();
  if (!snap.ok()) {
    std::fprintf(stderr, "%s\n", snap.status().ToString().c_str());
    return 1;
  }
  std::printf("Cold start: validated snapshot open %.6fs (%llu bytes)\n",
              mmap_s, static_cast<unsigned long long>(snap->file_bytes()));
  const World mapped = std::move(*snap).TakeWorld();

  // Same route on the built world and the mapped image must match.
  const EdgeWeights w_built(world->net, CostFeature::kTravelTime,
                            TimePeriod::kOffPeak);
  const EdgeWeights w_mapped(mapped.net, CostFeature::kTravelTime,
                             TimePeriod::kOffPeak);
  DijkstraSearch d_built(world->net);
  DijkstraSearch d_mapped(mapped.net);
  const VertexId n = static_cast<VertexId>(world->net.NumVertices());
  int checked = 0;
  for (VertexId s = 1; s < n && checked < 8; s += n / 9 + 1, ++checked) {
    auto a = d_built.ShortestPath(0, s, w_built);
    auto b = d_mapped.ShortestPath(0, s, w_mapped);
    if (a.ok() != b.ok() ||
        (a.ok() && (a->vertices != b->vertices || a->cost != b->cost))) {
      std::fprintf(stderr, "route mismatch at target %u\n", s);
      return 1;
    }
  }
  std::printf("Routes identical on built vs mapped world (%d checked)\n",
              checked);

  std::remove(snap_path.c_str());
  return 0;
}
