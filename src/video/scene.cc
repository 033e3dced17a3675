#include "video/scene.h"

#include <algorithm>

namespace sky::video {

SceneGenerator::SceneGenerator(const SceneOptions& options)
    : options_(options), rng_(options.seed) {}

void SceneGenerator::SpawnObject(double density) {
  // Expected population at steady state is max_objects * density; with an
  // average crossing time of ~6 seconds, spawn rate follows from Little's
  // law: arrivals/frame = population / (crossing_s * fps).
  double crossing_s = 6.0;
  double rate = options_.max_objects * std::clamp(density, 0.0, 1.0) /
                (crossing_s * options_.fps);
  int64_t spawns = rng_.Poisson(rate);
  for (int64_t s = 0; s < spawns; ++s) {
    SceneObject obj;
    obj.id = next_object_id_++;
    bool vehicle = rng_.Bernoulli(0.4);
    if (vehicle) {
      obj.class_id = rng_.Bernoulli(options_.electric_fraction) ? 2 : 1;
      obj.w = rng_.Uniform(0.08, 0.16);
      obj.h = rng_.Uniform(0.05, 0.09);
    } else {
      obj.class_id = 0;
      obj.w = rng_.Uniform(0.02, 0.05);
      obj.h = rng_.Uniform(0.06, 0.12);
    }
    bool left_to_right = rng_.Bernoulli(0.5);
    double speed = rng_.Uniform(0.8, 1.6) / (crossing_s * options_.fps);
    obj.x = left_to_right ? -obj.w : 1.0;
    obj.y = rng_.Uniform(0.1, 0.9 - obj.h);
    obj.velocity_x = left_to_right ? speed : -speed;
    obj.velocity_y = rng_.Uniform(-0.2, 0.2) / (crossing_s * options_.fps);
    objects_.push_back(obj);
  }
}

void SceneGenerator::Render(Frame* frame) const {
  frame->luma.assign(
      static_cast<size_t>(options_.width) * options_.height, 16);
  for (const SceneObject& obj : objects_) {
    int x0 = std::max(0, static_cast<int>(obj.x * options_.width));
    int x1 = std::min(options_.width,
                      static_cast<int>((obj.x + obj.w) * options_.width) + 1);
    int y0 = std::max(0, static_cast<int>(obj.y * options_.height));
    int y1 = std::min(options_.height,
                      static_cast<int>((obj.y + obj.h) * options_.height) + 1);
    uint8_t shade = static_cast<uint8_t>(96 + (obj.id * 37) % 128);
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        frame->luma[static_cast<size_t>(y) * options_.width + x] = shade;
      }
    }
  }
}

Frame SceneGenerator::NextFrame(double density) {
  SpawnObject(density);
  for (SceneObject& obj : objects_) {
    obj.x += obj.velocity_x;
    obj.y += obj.velocity_y;
  }
  objects_.erase(
      std::remove_if(objects_.begin(), objects_.end(),
                     [](const SceneObject& o) {
                       return o.x > 1.05 || o.x + o.w < -0.05 || o.y > 1.05 ||
                              o.y + o.h < -0.05;
                     }),
      objects_.end());

  Frame frame;
  frame.index = frame_index_++;
  frame.timestamp_s = static_cast<double>(frame.index) / options_.fps;
  frame.width = options_.width;
  frame.height = options_.height;
  frame.objects = objects_;
  Render(&frame);
  return frame;
}

}  // namespace sky::video
