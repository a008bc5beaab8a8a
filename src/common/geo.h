#ifndef L2R_COMMON_GEO_H_
#define L2R_COMMON_GEO_H_

#include <cmath>
#include <vector>

#include "common/check.h"

namespace l2r {

/// A point in a planar coordinate system, in meters. Road networks in this
/// library live in local planar coordinates (east = +x, north = +y).
/// Helpers to go to/from WGS84 are provided for presentation.
struct Point {
  double x = 0;
  double y = 0;

  Point() = default;
  Point(double x_in, double y_in) : x(x_in), y(y_in) {}

  Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  Point operator*(double s) const { return {x * s, y * s}; }
  bool operator==(const Point& o) const { return x == o.x && y == o.y; }
};

inline double Dot(const Point& a, const Point& b) {
  return a.x * b.x + a.y * b.y;
}
/// Z-component of the cross product (positive = b is CCW from a).
inline double Cross(const Point& a, const Point& b) {
  return a.x * b.y - a.y * b.x;
}
inline double NormSq(const Point& a) { return Dot(a, a); }
inline double DistSq(const Point& a, const Point& b) {
  return NormSq(a - b);
}
inline double Dist(const Point& a, const Point& b) {
  return std::sqrt(DistSq(a, b));
}

/// Result of projecting a point onto a segment.
struct SegmentProjection {
  double t = 0;       ///< Parameter along [a,b] clamped to [0,1].
  Point point;        ///< Closest point on the segment.
  double distance = 0;  ///< Distance from the query to `point`.
};

/// Projects `p` onto segment [a, b].
SegmentProjection ProjectPointToSegment(const Point& p, const Point& a,
                                        const Point& b);

/// A polyline with cumulative arc-length lookup.
class Polyline {
 public:
  Polyline() = default;
  explicit Polyline(std::vector<Point> pts);

  const std::vector<Point>& points() const { return points_; }
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  double length() const { return cum_.empty() ? 0 : cum_.back(); }

  /// Arc length from the start up to vertex index i.
  double ArcLengthAt(size_t i) const {
    L2R_DCHECK(i < cum_.size());
    return cum_[i];
  }

  /// Point at arc length s (clamped to [0, length]).
  Point PointAtArcLength(double s) const;

  /// Projection of `p` onto the polyline: closest point, its arc length,
  /// distance, and the segment index.
  struct Projection {
    Point point;
    double arc_length = 0;
    double distance = 0;
    size_t segment = 0;
  };
  Projection Project(const Point& p) const;

 private:
  std::vector<Point> points_;
  std::vector<double> cum_;  // cum_[i] = arc length at points_[i]
};

/// WGS84 helpers (equirectangular around a reference latitude); used only for
/// presentation of generated networks as pseudo lat/lon.
struct LatLon {
  double lat = 0;
  double lon = 0;
};

/// Converts a planar point (meters) to pseudo WGS84 around `origin`.
LatLon PlanarToLatLon(const Point& p, const LatLon& origin);
/// Inverse of PlanarToLatLon.
Point LatLonToPlanar(const LatLon& ll, const LatLon& origin);
/// Haversine great-circle distance in meters.
double HaversineMeters(const LatLon& a, const LatLon& b);

}  // namespace l2r

#endif  // L2R_COMMON_GEO_H_
