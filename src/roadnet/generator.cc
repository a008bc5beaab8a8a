#include "roadnet/generator.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/rng.h"

namespace l2r {

namespace {

/// Line hierarchy class inside a patch grid: 0 = primary, 1 = secondary,
/// 2 = tertiary, 3 = residential. Every 8th line is primary, every 4th
/// secondary, every 2nd tertiary.
int LineClass(int index) {
  if (index % 8 == 0) return 0;
  if (index % 4 == 0) return 1;
  if (index % 2 == 0) return 2;
  return 3;
}

RoadType ClassToRoadType(int line_class) {
  switch (line_class) {
    case 0:
      return RoadType::kPrimary;
    case 1:
      return RoadType::kSecondary;
    case 2:
      return RoadType::kTertiary;
    default:
      return RoadType::kResidential;
  }
}

/// Densest street class allowed in a district (max line class emitted).
int AllowedMaxClass(DistrictType d) {
  switch (d) {
    case DistrictType::kCityCenter:
    case DistrictType::kBusiness:
    case DistrictType::kResidential:
    case DistrictType::kSuburb:
      return 3;  // full grid including residential streets
    case DistrictType::kIndustrial:
      return 2;  // large blocks, no residential streets
    case DistrictType::kRural:
      return 1;  // only primary/secondary country roads
  }
  return 3;
}

struct PatchSpec {
  Point center;
  double width = 0;
  double height = 0;
  bool is_main = true;  // main cities get the full district layout
};

/// District layout inside a patch, from normalized offsets u,v in [-1,1].
DistrictType DistrictAt(const PatchSpec& patch, double u, double v) {
  const double r = std::sqrt((u * u + v * v) / 2.0);
  const double angle = std::atan2(v, u) + std::numbers::pi;
  const int sector =
      std::min(5, static_cast<int>(angle / (std::numbers::pi / 3.0)));
  if (patch.is_main) {
    if (r < 0.18) return DistrictType::kCityCenter;
    if (r < 0.42) {
      return sector % 2 == 0 ? DistrictType::kBusiness
                             : DistrictType::kResidential;
    }
    if (r < 0.72) {
      return sector % 3 == 1 ? DistrictType::kIndustrial
                             : DistrictType::kResidential;
    }
    return DistrictType::kSuburb;
  }
  // Satellite towns: small business core, residential belt, suburb fringe.
  if (r < 0.25) return DistrictType::kBusiness;
  if (r < 0.62) return DistrictType::kResidential;
  return DistrictType::kSuburb;
}

class Generator {
 public:
  explicit Generator(const NetworkGenConfig& config)
      : config_(config), rng_(config.seed) {}

  Result<GeneratedNetwork> Run() {
    std::vector<PatchSpec> patches;
    PatchSpec main;
    main.center = Point(0, 0);
    main.width = config_.city_width_m;
    main.height = config_.city_height_m;
    main.is_main = true;
    patches.push_back(main);

    if (config_.style == NetworkStyle::kMetro) {
      const int n = std::max(1, config_.num_satellite_towns);
      for (int k = 0; k < n; ++k) {
        const double angle = 2 * std::numbers::pi * k / n +
                             rng_.Uniform(-0.15, 0.15);
        const double radius = config_.metro_radius_m *
                              rng_.Uniform(0.85, 1.15);
        PatchSpec sat;
        sat.center =
            Point(radius * std::cos(angle), radius * std::sin(angle));
        sat.width = config_.city_width_m * config_.satellite_scale;
        sat.height = config_.city_height_m * config_.satellite_scale;
        sat.is_main = false;
        patches.push_back(sat);
      }
    }

    std::vector<std::vector<VertexId>> ring_vertices(patches.size());
    for (size_t pi = 0; pi < patches.size(); ++pi) {
      EmitPatch(patches[pi]);
      if (config_.motorway_ring) {
        ring_vertices[pi] = EmitMotorwayRing(patches[pi]);
      }
    }

    if (config_.style == NetworkStyle::kMetro) {
      ConnectPatches(patches, ring_vertices);
    }

    L2R_ASSIGN_OR_RETURN(RoadNetwork net, builder_.Build());
    World out;
    out.net = std::move(net);
    out.vertex_district = std::move(districts_);
    out.num_patches = patches.size();
    out.IndexDistricts();
    return out;
  }

 private:
  VertexId AddVertex(const Point& p, DistrictType d) {
    const VertexId v = builder_.AddVertex(p);
    districts_.push_back(d);
    return v;
  }

  void AddRoad(VertexId a, VertexId b, RoadType type) {
    // Edge congestion follows the from-vertex's district; motorways and
    // trunks keep moving even in congested districts (grade separation).
    const DistrictType d = districts_[a];
    double factor = DistrictPeakFactor(d);
    if (type == RoadType::kMotorway) factor = std::max(factor, 0.62);
    if (type == RoadType::kTrunk) factor = std::max(factor, 0.58);
    const double offpeak =
        RoadTypeBaseSpeedKmh(type) * rng_.Uniform(0.92, 1.08);
    builder_.AddTwoWayEdge(a, b, type, offpeak, offpeak * factor);
  }

  void EmitPatch(const PatchSpec& patch) {
    const double spacing = config_.block_spacing_m;
    const int nx = std::max(4, static_cast<int>(patch.width / spacing));
    const int ny = std::max(4, static_cast<int>(patch.height / spacing));
    const double ox = patch.center.x - patch.width / 2;
    const double oy = patch.center.y - patch.height / 2;

    std::vector<VertexId> grid(static_cast<size_t>(nx + 1) * (ny + 1),
                               kInvalidVertex);
    auto at = [&](int i, int j) -> VertexId& {
      return grid[static_cast<size_t>(j) * (nx + 1) + i];
    };

    for (int j = 0; j <= ny; ++j) {
      for (int i = 0; i <= nx; ++i) {
        const double x = ox + i * spacing;
        const double y = oy + j * spacing;
        const double u = 2.0 * (x - patch.center.x) / patch.width;
        const double v = 2.0 * (y - patch.center.y) / patch.height;
        const DistrictType d = DistrictAt(patch, u, v);
        const int allowed = AllowedMaxClass(d);
        if (LineClass(i) > allowed || LineClass(j) > allowed) continue;
        const double jx = rng_.Uniform(-1, 1) * config_.jitter_frac * spacing;
        const double jy = rng_.Uniform(-1, 1) * config_.jitter_frac * spacing;
        at(i, j) = AddVertex(Point(x + jx, y + jy), d);
      }
    }

    // Horizontal edges along each horizontal line j.
    const int kMaxGapCells = 6;
    for (int j = 0; j <= ny; ++j) {
      int last_i = -1;
      for (int i = 0; i <= nx; ++i) {
        if (at(i, j) == kInvalidVertex) continue;
        if (last_i >= 0 && i - last_i <= kMaxGapCells) {
          AddRoad(at(last_i, j), at(i, j), ClassToRoadType(LineClass(j)));
        }
        last_i = i;
      }
    }
    // Vertical edges along each vertical line i.
    for (int i = 0; i <= nx; ++i) {
      int last_j = -1;
      for (int j = 0; j <= ny; ++j) {
        if (at(i, j) == kInvalidVertex) continue;
        if (last_j >= 0 && j - last_j <= kMaxGapCells) {
          AddRoad(at(i, last_j), at(i, j), ClassToRoadType(LineClass(i)));
        }
        last_j = j;
      }
    }

    patch_grids_.push_back(std::move(grid));
    patch_dims_.push_back({nx, ny, ox, oy});
  }

  /// Nearest emitted patch vertex to `p` in the most recent patch grid.
  VertexId NearestPatchVertex(size_t patch_index, const Point& p) const {
    const auto& grid = patch_grids_[patch_index];
    const auto& dims = patch_dims_[patch_index];
    const double spacing = config_.block_spacing_m;
    const int ci =
        std::clamp(static_cast<int>((p.x - dims.ox) / spacing), 0, dims.nx);
    const int cj =
        std::clamp(static_cast<int>((p.y - dims.oy) / spacing), 0, dims.ny);
    VertexId best = kInvalidVertex;
    double best_d2 = 1e300;
    for (int ring = 0; ring <= std::max(dims.nx, dims.ny); ++ring) {
      if (best != kInvalidVertex && ring > 2) break;
      for (int j = std::max(0, cj - ring);
           j <= std::min(dims.ny, cj + ring); ++j) {
        for (int i = std::max(0, ci - ring);
             i <= std::min(dims.nx, ci + ring); ++i) {
          const VertexId v =
              grid[static_cast<size_t>(j) * (dims.nx + 1) + i];
          if (v == kInvalidVertex) continue;
          const double d2 = DistSq(p, builder_.VertexPos(v));
          if (d2 < best_d2) {
            best_d2 = d2;
            best = v;
          }
        }
      }
    }
    return best;
  }

  /// Emits a rectangular motorway ring around a patch with trunk connectors
  /// into the street grid. Returns the ring vertices.
  std::vector<VertexId> EmitMotorwayRing(const PatchSpec& patch) {
    const size_t patch_index = patch_grids_.size() - 1;
    const double inset = 0.78;
    const double hw = patch.width / 2 * inset;
    const double hh = patch.height / 2 * inset;
    const double step = 1200;  // ring vertex spacing, meters

    // Walk the rectangle perimeter.
    std::vector<Point> ring_points;
    const Point corners[4] = {
        {patch.center.x - hw, patch.center.y - hh},
        {patch.center.x + hw, patch.center.y - hh},
        {patch.center.x + hw, patch.center.y + hh},
        {patch.center.x - hw, patch.center.y + hh},
    };
    for (int side = 0; side < 4; ++side) {
      const Point a = corners[side];
      const Point b = corners[(side + 1) % 4];
      const double len = Dist(a, b);
      const int steps = std::max(1, static_cast<int>(len / step));
      for (int s = 0; s < steps; ++s) {
        const double t = static_cast<double>(s) / steps;
        ring_points.push_back(a + (b - a) * t);
      }
    }

    std::vector<VertexId> ring;
    ring.reserve(ring_points.size());
    for (const Point& p : ring_points) {
      // Ring itself sits in whatever district it crosses.
      const double u = 2.0 * (p.x - patch.center.x) / patch.width;
      const double v = 2.0 * (p.y - patch.center.y) / patch.height;
      ring.push_back(AddVertex(p, DistrictAt(patch, u, v)));
    }
    for (size_t i = 0; i < ring.size(); ++i) {
      AddRoad(ring[i], ring[(i + 1) % ring.size()], RoadType::kMotorway);
    }
    // Trunk connectors every third ring vertex.
    for (size_t i = 0; i < ring.size(); i += 3) {
      const VertexId nearest =
          NearestPatchVertex(patch_index, builder_.VertexPos(ring[i]));
      if (nearest != kInvalidVertex) {
        AddRoad(ring[i], nearest, RoadType::kTrunk);
      }
    }
    return ring;
  }

  /// Metro style: motorways from the main city to each satellite and
  /// secondary country roads between consecutive satellites.
  void ConnectPatches(const std::vector<PatchSpec>& patches,
                      const std::vector<std::vector<VertexId>>& rings) {
    auto nearest_ring_vertex = [&](size_t pi, const Point& toward) {
      VertexId best = kInvalidVertex;
      double best_d2 = 1e300;
      const auto& candidates =
          rings[pi].empty() ? std::vector<VertexId>{} : rings[pi];
      for (VertexId v : candidates) {
        const double d2 = DistSq(builder_.VertexPos(v), toward);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = v;
        }
      }
      if (best == kInvalidVertex) {
        best = NearestPatchVertex(pi, toward);
      }
      return best;
    };

    // Main city -> each satellite: motorway polylines.
    for (size_t pi = 1; pi < patches.size(); ++pi) {
      const VertexId from = nearest_ring_vertex(0, patches[pi].center);
      const VertexId to = nearest_ring_vertex(pi, patches[0].center);
      L2R_CHECK(from != kInvalidVertex && to != kInvalidVertex);
      EmitHighway(from, to, RoadType::kMotorway, 1500);
    }
    // Satellite ring: country roads between consecutive satellites.
    for (size_t pi = 1; pi < patches.size(); ++pi) {
      size_t pj = pi + 1 <= patches.size() - 1 ? pi + 1 : 1;
      if (pj == pi) continue;
      const VertexId from = nearest_ring_vertex(pi, patches[pj].center);
      const VertexId to = nearest_ring_vertex(pj, patches[pi].center);
      L2R_CHECK(from != kInvalidVertex && to != kInvalidVertex);
      EmitHighway(from, to, RoadType::kSecondary, 900);
    }
  }

  /// Emits a highway polyline between two existing vertices with
  /// intermediate rural vertices every ~`step_m` and mild lateral jitter.
  void EmitHighway(VertexId from, VertexId to, RoadType type, double step_m) {
    const Point a = builder_.VertexPos(from);
    const Point b = builder_.VertexPos(to);
    const double len = Dist(a, b);
    const int steps = std::max(1, static_cast<int>(len / step_m));
    const Point dir = (b - a) * (1.0 / len);
    const Point normal(-dir.y, dir.x);
    VertexId prev = from;
    for (int s = 1; s < steps; ++s) {
      const double t = static_cast<double>(s) / steps;
      const double lateral = rng_.Uniform(-0.08, 0.08) * step_m;
      const Point p = a + (b - a) * t + normal * lateral;
      const VertexId v = AddVertex(p, DistrictType::kRural);
      AddRoad(prev, v, type);
      prev = v;
    }
    AddRoad(prev, to, type);
  }

  struct PatchDims {
    int nx = 0;
    int ny = 0;
    double ox = 0;
    double oy = 0;
  };

  const NetworkGenConfig config_;
  Rng rng_;
  RoadNetworkBuilder builder_;
  std::vector<DistrictType> districts_;
  std::vector<std::vector<VertexId>> patch_grids_;
  std::vector<PatchDims> patch_dims_;
};

}  // namespace

const char* DistrictTypeName(DistrictType t) {
  switch (t) {
    case DistrictType::kCityCenter:
      return "city_center";
    case DistrictType::kBusiness:
      return "business";
    case DistrictType::kResidential:
      return "residential";
    case DistrictType::kIndustrial:
      return "industrial";
    case DistrictType::kSuburb:
      return "suburb";
    case DistrictType::kRural:
      return "rural";
  }
  return "unknown";
}

double DistrictPeakFactor(DistrictType t) {
  switch (t) {
    case DistrictType::kCityCenter:
      return 0.45;
    case DistrictType::kBusiness:
      return 0.55;
    case DistrictType::kResidential:
      return 0.75;
    case DistrictType::kIndustrial:
      return 0.70;
    case DistrictType::kSuburb:
      return 0.82;
    case DistrictType::kRural:
      return 0.95;
  }
  return 0.8;
}

Result<World> GenerateNetwork(const NetworkGenConfig& config) {
  NetworkGenConfig scaled = config;
  if (!(config.world_scale > 0)) {
    return Status::InvalidArgument("world_scale must be positive");
  }
  scaled.city_width_m *= config.world_scale;
  scaled.city_height_m *= config.world_scale;
  scaled.metro_radius_m *= config.world_scale;
  scaled.world_scale = 1.0;
  if (scaled.city_width_m < 1000 || scaled.city_height_m < 1000) {
    return Status::InvalidArgument("city patch must be at least 1 km");
  }
  if (scaled.block_spacing_m < 20) {
    return Status::InvalidArgument("block spacing too small");
  }
  Generator gen(scaled);
  return gen.Run();
}

NetworkGenConfig MetroScaleConfig(double scale, uint64_t seed) {
  NetworkGenConfig cfg;
  cfg.style = NetworkStyle::kMetro;
  cfg.seed = seed;
  cfg.city_width_m = 32000;
  cfg.city_height_m = 24000;
  cfg.block_spacing_m = 100;
  cfg.num_satellite_towns = 5;
  cfg.metro_radius_m = 42000;
  cfg.satellite_scale = 0.4;
  cfg.world_scale = scale;
  return cfg;
}

}  // namespace l2r
