#ifndef L2R_ROADNET_WORLD_SOURCE_H_
#define L2R_ROADNET_WORLD_SOURCE_H_

#include <string>
#include <utility>

#include "common/result.h"
#include "roadnet/snapshot.h"
#include "roadnet/world.h"

namespace l2r {

/// A world to be opened from a binary snapshot written by
/// WorldSnapshot::Write. Acquire() runs WorldSnapshot::Open, so the
/// acquired world's network arrays view the shared read-only image.
///
///   World w = WorldSource::FromSnapshot("world.l2rsnap").Acquire().value();
class WorldSource {
 public:
  static WorldSource FromSnapshot(std::string path) {
    return WorldSource(std::move(path));
  }

  Result<World> Acquire() const {
    L2R_ASSIGN_OR_RETURN(WorldSnapshot snap, WorldSnapshot::Open(path_));
    return std::move(snap).TakeWorld();
  }

 private:
  explicit WorldSource(std::string path) : path_(std::move(path)) {}

  std::string path_;
};

}  // namespace l2r

#endif  // L2R_ROADNET_WORLD_SOURCE_H_
