#include <gtest/gtest.h>

#include <cmath>

#include "common/geo.h"
#include "common/hull.h"
#include "common/rng.h"

namespace l2r {
namespace {

TEST(GeoTest, PointArithmetic) {
  const Point a(1, 2);
  const Point b(3, -1);
  EXPECT_EQ((a + b), Point(4, 1));
  EXPECT_EQ((a - b), Point(-2, 3));
  EXPECT_EQ((a * 2), Point(2, 4));
}

TEST(GeoTest, DotCrossNorm) {
  EXPECT_DOUBLE_EQ(Dot({1, 2}, {3, 4}), 11);
  EXPECT_DOUBLE_EQ(Cross({1, 0}, {0, 1}), 1);
  EXPECT_DOUBLE_EQ(Cross({0, 1}, {1, 0}), -1);
  EXPECT_DOUBLE_EQ(Dist({0, 0}, {3, 4}), 5);
}

TEST(GeoTest, ProjectOntoSegmentInterior) {
  const auto p = ProjectPointToSegment({5, 3}, {0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(p.t, 0.5);
  EXPECT_DOUBLE_EQ(p.point.x, 5);
  EXPECT_DOUBLE_EQ(p.point.y, 0);
  EXPECT_DOUBLE_EQ(p.distance, 3);
}

TEST(GeoTest, ProjectClampsToEndpoints) {
  const auto before = ProjectPointToSegment({-4, 3}, {0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(before.t, 0);
  EXPECT_DOUBLE_EQ(before.distance, 5);
  const auto after = ProjectPointToSegment({14, 3}, {0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(after.t, 1);
  EXPECT_DOUBLE_EQ(after.distance, 5);
}

TEST(GeoTest, ProjectOntoDegenerateSegment) {
  const auto p = ProjectPointToSegment({3, 4}, {0, 0}, {0, 0});
  EXPECT_DOUBLE_EQ(p.distance, 5);
  EXPECT_EQ(p.point, Point(0, 0));
}

TEST(PolylineTest, LengthAndArcLengths) {
  const Polyline line({{0, 0}, {3, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(line.length(), 7);
  EXPECT_DOUBLE_EQ(line.ArcLengthAt(0), 0);
  EXPECT_DOUBLE_EQ(line.ArcLengthAt(1), 3);
  EXPECT_DOUBLE_EQ(line.ArcLengthAt(2), 7);
}

TEST(PolylineTest, PointAtArcLength) {
  const Polyline line({{0, 0}, {10, 0}, {10, 10}});
  EXPECT_EQ(line.PointAtArcLength(-1), Point(0, 0));
  EXPECT_EQ(line.PointAtArcLength(5), Point(5, 0));
  EXPECT_EQ(line.PointAtArcLength(15), Point(10, 5));
  EXPECT_EQ(line.PointAtArcLength(1000), Point(10, 10));
}

TEST(PolylineTest, ProjectFindsClosestSegment) {
  const Polyline line({{0, 0}, {10, 0}, {10, 10}});
  const auto proj = line.Project({12, 7});
  EXPECT_EQ(proj.segment, 1u);
  EXPECT_DOUBLE_EQ(proj.distance, 2);
  EXPECT_DOUBLE_EQ(proj.arc_length, 17);
}

TEST(PolylineTest, SinglePoint) {
  const Polyline line({{5, 5}});
  EXPECT_DOUBLE_EQ(line.length(), 0);
  EXPECT_EQ(line.PointAtArcLength(3), Point(5, 5));
}

TEST(GeoTest, LatLonRoundTrip) {
  const LatLon origin{55.0, 10.0};
  const Point p(1234, -567);
  const LatLon ll = PlanarToLatLon(p, origin);
  const Point back = LatLonToPlanar(ll, origin);
  EXPECT_NEAR(back.x, p.x, 1e-6);
  EXPECT_NEAR(back.y, p.y, 1e-6);
}

TEST(GeoTest, HaversineKnownDistance) {
  // One degree of latitude is ~111.2 km.
  const double d = HaversineMeters({55.0, 10.0}, {56.0, 10.0});
  EXPECT_NEAR(d, 111195, 200);
}

TEST(GeoTest, HaversineMatchesPlanarLocally) {
  const LatLon origin{55.0, 10.0};
  const LatLon near = PlanarToLatLon(Point(300, 400), origin);
  EXPECT_NEAR(HaversineMeters(origin, near), 500, 2);
}

// ---------- hull ----------

TEST(HullTest, SquareHull) {
  std::vector<Point> pts = {{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}};
  const auto hull = ConvexHull(pts);
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_DOUBLE_EQ(PolygonArea(hull), 4.0);
  EXPECT_DOUBLE_EQ(HullDiameter(hull), std::sqrt(8.0));
}

TEST(HullTest, CollinearPointsDegenerate) {
  std::vector<Point> pts = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  const auto hull = ConvexHull(pts);
  EXPECT_LE(hull.size(), 2u);
  EXPECT_DOUBLE_EQ(PolygonArea(hull), 0.0);
  EXPECT_DOUBLE_EQ(HullDiameter(hull), 3.0);
}

TEST(HullTest, SmallInputs) {
  EXPECT_TRUE(ConvexHull({}).empty());
  EXPECT_EQ(ConvexHull({{1, 1}}).size(), 1u);
  EXPECT_EQ(ConvexHull({{1, 1}, {2, 2}}).size(), 2u);
  EXPECT_EQ(ConvexHull({{1, 1}, {1, 1}}).size(), 1u);  // duplicates removed
}

TEST(HullTest, AreaIsPositiveCcw) {
  std::vector<Point> pts = {{0, 0}, {4, 0}, {4, 3}, {0, 3}};
  const auto hull = ConvexHull(pts);
  EXPECT_GT(PolygonArea(hull), 0);  // monotone chain returns CCW
  EXPECT_DOUBLE_EQ(PolygonArea(hull), 12.0);
}

TEST(HullTest, HullContainsAllPoints) {
  Rng rng(31);
  std::vector<Point> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.Uniform(-50, 50), rng.Uniform(-50, 50)});
  }
  const auto hull = ConvexHull(pts);
  // Every point is inside or on the hull: all cross products >= 0 going
  // around the CCW hull.
  for (const Point& p : pts) {
    for (size_t i = 0; i < hull.size(); ++i) {
      const Point& a = hull[i];
      const Point& b = hull[(i + 1) % hull.size()];
      EXPECT_GE(Cross(b - a, p - a), -1e-9);
    }
  }
}

TEST(HullTest, DiameterMatchesBruteForce) {
  Rng rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Point> pts;
    const int n = 3 + static_cast<int>(rng.Index(40));
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
    }
    const auto hull = ConvexHull(pts);
    double brute = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
      for (size_t j = i + 1; j < pts.size(); ++j) {
        brute = std::max(brute, Dist(pts[i], pts[j]));
      }
    }
    EXPECT_NEAR(HullDiameter(hull), brute, 1e-9) << "trial " << trial;
  }
}

TEST(HullTest, Centroid) {
  EXPECT_EQ(Centroid({}), Point(0, 0));
  EXPECT_EQ(Centroid({{2, 4}}), Point(2, 4));
  EXPECT_EQ(Centroid({{0, 0}, {4, 0}, {4, 4}, {0, 4}}), Point(2, 2));
}

}  // namespace
}  // namespace l2r
