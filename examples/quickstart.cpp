// Quickstart: the electric-vehicle counting example of the paper's
// introduction and Appendix F.
//
// A city wants to count electric vehicles passing each traffic camera. The
// V-ETL job detects cars (YOLO UDF), tracks them so none is double-counted
// (KCF UDF), and loads the counts into a queryable table. Skyscraper tunes
// the job's knobs (detector interval, model size) to the streamed content so
// that the job runs within a fixed hardware budget at maximum quality.
//
//   ./quickstart
//
// Walks through: (1) the raw video substrate — synthetic frames, the codec,
// and actually executing a UDF DAG on a thread pool; (2) provisioning
// Skyscraper, running the offline fit, and ingesting a day of video.

#include <cstdio>

#include "api/skyscraper.h"
#include "dag/executor.h"
#include "video/codec.h"
#include "video/scene.h"
#include "workloads/ev_counting.h"

namespace {

// ---------------------------------------------------------------------------
// Part 1: the Extract step on real (synthetic) frames.
// ---------------------------------------------------------------------------

void ExtractDemo() {
  std::printf("-- Part 1: Extract --\n");
  sky::video::SceneOptions scene_opts;
  scene_opts.seed = 7;
  sky::video::SceneGenerator scene(scene_opts);

  // Five seconds of video: encode, decode, and count electric vehicles from
  // the ground truth (a stand-in for the YOLO detector's output).
  size_t encoded_bytes = 0;
  int evs_seen = 0;
  for (int i = 0; i < 150; ++i) {
    sky::video::Frame frame = scene.NextFrame(/*density=*/0.6);
    std::vector<uint8_t> packet = sky::video::BlockRleCodec::Encode(frame);
    encoded_bytes += packet.size();
    auto decoded = sky::video::BlockRleCodec::Decode(packet);
    if (!decoded.ok()) {
      std::printf("decode failed: %s\n", decoded.status().ToString().c_str());
      return;
    }
    for (const sky::video::SceneObject& obj : frame.objects) {
      if (obj.class_id == 2) ++evs_seen;  // green license plate
    }
  }
  std::printf("  150 frames encoded to %zu bytes; %d EV sightings\n",
              encoded_bytes, evs_seen);

  // Execute one segment's UDF DAG for real on a thread pool: decode feeds a
  // detector which feeds a tracker (synthetic compute kernels).
  sky::dag::TaskGraph graph;
  auto make_node = [](const char* name, double millis) {
    sky::dag::TaskNode node;
    node.name = name;
    node.work = [millis] { sky::dag::BusyWorkMillis(millis); };
    return node;
  };
  size_t decode = graph.AddNode(make_node("decode", 5));
  size_t yolo_a = graph.AddNode(make_node("yolo#0", 40));
  size_t yolo_b = graph.AddNode(make_node("yolo#1", 40));
  size_t kcf = graph.AddNode(make_node("kcf", 10));
  (void)graph.AddEdge(decode, yolo_a);
  (void)graph.AddEdge(decode, yolo_b);
  (void)graph.AddEdge(yolo_a, kcf);
  sky::dag::ThreadPool pool(4);
  auto report = sky::dag::ExecuteDag(graph, &pool);
  if (report.ok()) {
    std::printf("  UDF DAG executed in %.0f ms on 4 workers\n",
                report->makespan_s * 1e3);
  }
}

// ---------------------------------------------------------------------------
// Part 2: the Transform step under Skyscraper — as a live, steppable
// streaming session (pause, inspect, checkpoint, resume), with the batch
// Ingest call shown as the one-line convenience wrapper it is.
// ---------------------------------------------------------------------------

void IngestDemo() {
  std::printf("-- Part 2: Transform with Skyscraper --\n");

  // The user-provided job: UDFs, knobs (det_interval, yolo_size) and the
  // person*seconds-style quality metric live in the workload object.
  sky::workloads::EvCountingWorkload job;

  sky::api::Skyscraper sky(&job);
  sky::api::Resources resources;
  resources.cores = 4;                          // cheap always-on server
  resources.buffer_bytes = 4ull << 30;          // 4 GB video buffer (Fig. 3)
  resources.cloud_budget_usd_per_interval = 1;  // cloud credits per day
  sky.SetResources(resources);

  // Offline phase (§3): filter knobs and placements, build content
  // categories, train the forecasting model on two weeks of recorded video.
  sky::core::OfflineOptions fit;
  fit.segment_seconds = 4.0;
  fit.train_horizon = sky::Days(6);
  fit.num_categories = 3;
  fit.forecaster.input_span = sky::Days(1);
  fit.forecaster.planned_interval = sky::Days(1);
  sky::Status fitted = sky.Fit(fit);
  if (!fitted.ok()) {
    std::printf("fit failed: %s\n", fitted.ToString().c_str());
    return;
  }
  const sky::core::OfflineModel& model = **sky.model();
  std::printf("  offline fit: %zu configurations kept, %zu categories\n",
              model.configs.size(), model.categories.NumCategories());

  // Online phase (§4), stepped: StartIngest returns the started engine
  // instead of blocking for the whole day.
  sky::core::EngineOptions run;
  run.duration = sky::Days(1);
  run.plan_interval = sky::Days(1);
  auto started = sky.StartIngest(sky::Days(6), run);
  if (!started.ok()) {
    std::printf("ingest failed: %s\n", started.status().ToString().c_str());
    return;
  }
  sky::core::IngestionEngine& engine = **started;

  // Ingest six hours, then pause and look inside the live run: the plan
  // currently steering the switcher, the partial result, the buffer.
  if (!engine.RunUntil(sky::Days(6) + sky::Hours(6)).ok()) return;
  const sky::core::EngineResult& progress = engine.partial_result();
  std::printf(
      "  after 6 h: %zu segments  mean quality %.1f%%  buffer %.2f GB  "
      "plan expects %.1f%% at %.2f core-s/s\n",
      progress.segments, 100 * progress.mean_quality,
      engine.buffer_occupancy_bytes() / 1e9,
      100 * engine.current_plan()->expected_quality,
      engine.current_plan()->expected_work);

  // Checkpoint the live engine, wander off, and rewind: the restored run
  // continues exactly as if it had never stopped.
  auto noon = engine.Checkpoint();
  if (!noon.ok()) return;
  (void)engine.RunUntil(sky::Days(6) + sky::Hours(9));
  (void)engine.Restore(*noon);

  // Finish the day incrementally.
  while (!engine.Done()) {
    sky::Status stepped = engine.Step();
    if (!stepped.ok()) {
      std::printf("ingest failed: %s\n", stepped.ToString().c_str());
      return;
    }
  }
  const sky::core::EngineResult& result = engine.partial_result();
  std::printf(
      "  ingested %zu segments  mean quality %.1f%%  knob switches %zu\n",
      result.segments, 100 * result.mean_quality, result.switch_count);
  std::printf(
      "  buffer high-water %.2f GB  cloud spend $%.2f  overflows %zu\n",
      result.buffer_high_water_bytes / 1e9, result.cloud_usd,
      result.overflow_events);

  // The batch call steps the same engine to the end — bitwise-identical
  // result.
  auto batch = sky.Ingest(sky::Days(6), run);
  std::printf("  batch Ingest() identical to the stepped engine: %s\n",
              batch.ok() && sky::core::EngineResultsIdentical(*batch, result)
                  ? "yes"
                  : "NO");
}

}  // namespace

int main() {
  std::printf("Skyscraper quickstart: EV counting (paper §1 / Appendix F)\n");
  ExtractDemo();
  IngestDemo();
  std::printf("done.\n");
  return 0;
}
