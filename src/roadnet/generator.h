#ifndef L2R_ROADNET_GENERATOR_H_
#define L2R_ROADNET_GENERATOR_H_

#include <cstdint>

#include "common/result.h"
#include "roadnet/road_network.h"
#include "roadnet/world.h"

namespace l2r {

/// Network shapes mirroring the paper's two datasets:
///  - kCity:  one dense city (Chengdu-like N2 shape).
///  - kMetro: a main city plus satellite towns connected by motorways
///            (Denmark-like N1 shape, long-distance trips possible).
enum class NetworkStyle : uint8_t { kCity = 0, kMetro = 1 };

/// Parameters of the synthetic road-network generator.
struct NetworkGenConfig {
  NetworkStyle style = NetworkStyle::kCity;
  uint64_t seed = 42;

  /// Size of the (main) city patch.
  double city_width_m = 16000;
  double city_height_m = 12000;
  /// Fine street-grid spacing inside a city patch.
  double block_spacing_m = 250;
  /// Position jitter as a fraction of spacing.
  double jitter_frac = 0.18;

  /// Metro style only: satellite towns around the main city.
  int num_satellite_towns = 5;
  /// Metro style only: ring radius at which satellites are placed.
  double metro_radius_m = 32000;
  /// Metro style only: satellite patch size relative to the main city.
  double satellite_scale = 0.4;

  /// Emit a motorway ring around city patches.
  bool motorway_ring = true;

  /// Uniform world-scale multiplier: patch dimensions and the metro ring
  /// radius are multiplied by this (block spacing is unchanged), so the
  /// vertex count grows roughly with world_scale^2. 1.0 keeps the
  /// configured size.
  double world_scale = 1.0;
};

/// Historical name for the generator's output, the World handle
/// (roadnet/world.h) that builder, generator and snapshot all produce.
using GeneratedNetwork = World;

/// Generates a synthetic hierarchical road network (README "Synthetic
/// stand-ins").
/// Deterministic in `config.seed`.
Result<World> GenerateNetwork(const NetworkGenConfig& config);

/// Metro-scale preset for the scale ladder: a main city plus 5 satellite
/// towns at 100 m block spacing, all dimensions multiplied by `scale`.
/// Approximate vertex counts: scale 0.3 ≈ 14k, 1.0 ≈ 140k, 3.0 ≥ 1M.
/// Deterministic in `seed`.
NetworkGenConfig MetroScaleConfig(double scale, uint64_t seed = 7101);

}  // namespace l2r

#endif  // L2R_ROADNET_GENERATOR_H_
