#ifndef SKYSCRAPER_VIDEO_FRAME_H_
#define SKYSCRAPER_VIDEO_FRAME_H_

#include <cstdint>
#include <vector>

namespace sky::video {

/// Ground-truth object in a synthetic frame. Coordinates are normalized to
/// [0, 1] with (x, y) the top-left corner.
struct SceneObject {
  int64_t id = 0;
  double x = 0.0;
  double y = 0.0;
  double w = 0.1;
  double h = 0.1;
  int class_id = 0;      ///< 0 = person, 1 = car, 2 = electric vehicle
  double velocity_x = 0.0;
  double velocity_y = 0.0;
};

/// A decoded synthetic video frame: a small luma plane (enough for the codec
/// and the runnable example UDFs to chew on) plus the ground-truth object
/// list the synthetic detectors are scored against.
struct Frame {
  int64_t index = 0;
  double timestamp_s = 0.0;
  int width = 160;
  int height = 90;
  std::vector<uint8_t> luma;  ///< width * height bytes
  std::vector<SceneObject> objects;
};

}  // namespace sky::video

#endif  // SKYSCRAPER_VIDEO_FRAME_H_
