#ifndef L2R_TESTS_TEST_UTIL_H_
#define L2R_TESTS_TEST_UTIL_H_

#include <vector>

#include "common/check.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace l2r {
namespace testing {

/// Builds an nx-by-ny grid with `spacing` meters between neighbours, all
/// edges two-way of `type` at `speed` km/h. Vertex (i, j) has id
/// j * nx + i.
inline RoadNetwork MakeGrid(int nx, int ny, double spacing = 100,
                            RoadType type = RoadType::kResidential,
                            double speed = 50, double peak_speed = 40) {
  RoadNetworkBuilder b;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      b.AddVertex(Point(i * spacing, j * spacing));
    }
  }
  auto id = [nx](int i, int j) {
    return static_cast<VertexId>(j * nx + i);
  };
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (i + 1 < nx) {
        b.AddTwoWayEdge(id(i, j), id(i + 1, j), type, speed, peak_speed);
      }
      if (j + 1 < ny) {
        b.AddTwoWayEdge(id(i, j), id(i, j + 1), type, speed, peak_speed);
      }
    }
  }
  auto built = b.Build();
  L2R_CHECK(built.ok());
  return std::move(built).value();
}

/// Builds a line network 0-1-2-...-(n-1), two-way.
inline RoadNetwork MakeLine(int n, double spacing = 100,
                            RoadType type = RoadType::kResidential,
                            double speed = 50) {
  RoadNetworkBuilder b;
  for (int i = 0; i < n; ++i) b.AddVertex(Point(i * spacing, 0));
  for (int i = 0; i + 1 < n; ++i) {
    b.AddTwoWayEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
                    type, speed, speed * 0.8);
  }
  auto built = b.Build();
  L2R_CHECK(built.ok());
  return std::move(built).value();
}

/// A 3-row network where the rows have distinct types and speeds so the
/// cost features genuinely disagree:
///  row 0 (y=0):   motorway, fast but longer to reach (via ramps)
///  row 1 (y=100): residential, slow, shortest
///  row 2 (y=200): secondary, moderate
inline RoadNetwork ThreeCorridorNetwork(int cols = 10) {
  RoadNetworkBuilder b;
  for (int r = 0; r < 3; ++r) {
    for (int i = 0; i < cols; ++i) {
      b.AddVertex(Point(i * 200.0, r * 100.0));
    }
  }
  auto id = [cols](int r, int i) {
    return static_cast<VertexId>(r * cols + i);
  };
  for (int i = 0; i + 1 < cols; ++i) {
    b.AddTwoWayEdge(id(0, i), id(0, i + 1), RoadType::kMotorway, 110, 100);
    b.AddTwoWayEdge(id(1, i), id(1, i + 1), RoadType::kResidential, 30, 25);
    b.AddTwoWayEdge(id(2, i), id(2, i + 1), RoadType::kSecondary, 55, 45);
  }
  // Vertical connectors (tertiary).
  for (int i = 0; i < cols; i += 3) {
    b.AddTwoWayEdge(id(0, i), id(1, i), RoadType::kTertiary, 45, 40);
    b.AddTwoWayEdge(id(1, i), id(2, i), RoadType::kTertiary, 45, 40);
  }
  auto net = b.Build();
  L2R_CHECK(net.ok());
  return std::move(net).value();
}

/// A matched trajectory along `path` at time `t0` from `driver`.
inline MatchedTrajectory MakeTraj(std::vector<VertexId> path, double t0 = 0,
                                  uint32_t driver = 0) {
  MatchedTrajectory t;
  t.driver_id = driver;
  t.departure_time = t0;
  t.path = std::move(path);
  return t;
}

}  // namespace testing
}  // namespace l2r

#endif  // L2R_TESTS_TEST_UTIL_H_
