#include "io/checkpoint_io.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "io/atomic_file.h"
#include "io/wire.h"

namespace sky::io {

namespace {

using wire::Cursor;
using wire::Fnv1a64;
using wire::PutBool;
using wire::PutChunk;
using wire::PutF64;
using wire::PutF64Rows;
using wire::PutF64Vec;
using wire::PutI64;
using wire::PutRaw;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;

const wire::ContainerFormat kFormat{"SKYCKPT1", kCheckpointFormatVersion,
                                    "checkpoint file"};

constexpr char kChunkMeta[4] = {'M', 'E', 'T', 'A'};
constexpr char kChunkStream[4] = {'S', 'T', 'R', 'M'};

}  // namespace

void AppendEngineResult(const core::EngineResult& r, std::string* p) {
  PutF64(p, r.total_quality);
  PutF64(p, r.mean_quality);
  PutU64(p, r.segments);
  PutF64(p, r.work_core_seconds);
  PutF64(p, r.onprem_core_seconds);
  PutF64(p, r.cloud_usd);
  PutU64(p, r.buffer_high_water_bytes);
  PutU64(p, r.overflow_events);
  PutU64(p, r.switch_count);
  PutU64(p, r.degraded_count);
  PutU64(p, r.misclassified);
  PutU64(p, r.type_a_errors);
  PutU64(p, r.type_b_errors);
  PutU64(p, r.cloud_failures);
  PutU64(p, r.cloud_retries);
  PutU64(p, r.cloud_giveups);
  PutF64(p, r.fault_backoff_s);
  PutU64(p, r.outage_segments);
  PutU64(p, r.outage_intervals);
  PutU64(p, r.udf_stall_segments);
  PutU64(p, r.trace.size());
  for (const core::TracePoint& t : r.trace) {
    PutF64(p, t.t);
    PutF64(p, t.quality);
    PutF64(p, t.work_core_s_per_s);
    PutF64(p, t.buffer_bytes);
    PutF64(p, t.cloud_usd_cumulative);
    PutF64(p, t.cloud_usd_planned);
    PutU64(p, t.config_idx);
    PutU64(p, t.category);
  }
}

Status ParseEngineResult(Cursor* c, core::EngineResult* r) {
  uint64_t u = 0;
  SKY_RETURN_NOT_OK(c->ReadF64(&r->total_quality));
  SKY_RETURN_NOT_OK(c->ReadF64(&r->mean_quality));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->segments = u;
  SKY_RETURN_NOT_OK(c->ReadF64(&r->work_core_seconds));
  SKY_RETURN_NOT_OK(c->ReadF64(&r->onprem_core_seconds));
  SKY_RETURN_NOT_OK(c->ReadF64(&r->cloud_usd));
  SKY_RETURN_NOT_OK(c->ReadU64(&r->buffer_high_water_bytes));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->overflow_events = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->switch_count = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->degraded_count = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->misclassified = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->type_a_errors = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->type_b_errors = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->cloud_failures = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->cloud_retries = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->cloud_giveups = u;
  SKY_RETURN_NOT_OK(c->ReadF64(&r->fault_backoff_s));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->outage_segments = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->outage_intervals = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->udf_stall_segments = u;
  uint64_t trace_n = 0;
  SKY_RETURN_NOT_OK(c->ReadCount(8 * sizeof(double), &trace_n));
  r->trace.resize(trace_n);
  for (core::TracePoint& t : r->trace) {
    SKY_RETURN_NOT_OK(c->ReadF64(&t.t));
    SKY_RETURN_NOT_OK(c->ReadF64(&t.quality));
    SKY_RETURN_NOT_OK(c->ReadF64(&t.work_core_s_per_s));
    SKY_RETURN_NOT_OK(c->ReadF64(&t.buffer_bytes));
    SKY_RETURN_NOT_OK(c->ReadF64(&t.cloud_usd_cumulative));
    SKY_RETURN_NOT_OK(c->ReadF64(&t.cloud_usd_planned));
    SKY_RETURN_NOT_OK(c->ReadU64(&u));
    t.config_idx = u;
    SKY_RETURN_NOT_OK(c->ReadU64(&u));
    t.category = u;
  }
  return Status::Ok();
}

Status SerializeIngestState(const core::IngestState& state, std::string* out) {
  out->clear();
  std::string* p = out;
  PutU32(p, kCheckpointFormatVersion);
  // Buffer capacity first: deserialization needs it to construct the state
  // before any other field can be filled.
  PutU64(p, state.buffer_capacity_bytes);

  PutF64(p, state.start_time);
  PutI64(p, state.first_segment);
  PutI64(p, state.n_segments);
  PutI64(p, state.segs_per_interval);
  PutU64(p, state.history_window);
  PutI64(p, state.next_index);
  PutU64(p, state.interval_index);

  PutString(p, state.noise.SaveState());
  wire::AppendForecaster(state.forecaster, p);

  // Before the first boundary no plan is installed; an empty one is written
  // in its place, so every later field keeps its offset.
  static const core::KnobPlan kNoPlan;
  const core::KnobPlan* installed = state.switcher.plan();
  const core::KnobPlan& plan = installed != nullptr ? *installed : kNoPlan;
  PutBool(p, installed != nullptr);
  PutU64(p, plan.alpha.rows());
  PutU64(p, plan.alpha.cols());
  if (!plan.alpha.data().empty()) {
    PutRaw(p, plan.alpha.data().data(),
           plan.alpha.data().size() * sizeof(double));
  }
  PutF64Vec(p, plan.forecast);
  PutF64(p, plan.expected_quality);
  PutF64(p, plan.expected_work);

  PutBool(p, state.boundary_prepared);
  PutBool(p, state.boundary_installed);
  PutF64Vec(p, state.boundary_forecast);
  PutF64Vec(p, state.plan_features);
  // The run's own category ring verbatim. The training tail before it is
  // the model's, and the write position, the history length and the split
  // counts all follow from next_index, so none of them is stored.
  PutU64(p, state.history.size());
  PutRaw(p, state.history.data(), state.history.size());
  PutU64(p, state.current_config);
  PutF64(p, state.last_measured);

  PutF64(p, state.lag_s);
  PutF64(p, state.buffered_bytes);
  PutF64(p, state.credits_remaining);
  PutF64(p, state.planned_usd_per_interval);

  AppendEngineResult(state.result, p);
  PutF64(p, state.next_trace_t);

  // Eq. 6 usage histograms — mid-interval restores must keep alpha-hat.
  Status rows_ok = PutF64Rows(p, state.switcher.usage_counts());
  if (!rows_ok.ok()) return rows_ok;
  PutF64Vec(p, state.switcher.usage_totals());
  // Trailing FNV-1a over everything above: a restored run must never start
  // from silently corrupted state, so bit flips are refused at load time.
  PutU64(p, Fnv1a64(out->data(), out->size()));
  return Status::Ok();
}

Result<core::IngestState> DeserializeIngestState(
    const std::string& bytes, const core::OfflineModel& model) {
  if (bytes.size() < sizeof(uint32_t) + sizeof(uint64_t)) {
    return Status::InvalidArgument("checkpoint state is truncated");
  }
  // Verify the trailing checksum before trusting any field.
  const size_t payload_size = bytes.size() - sizeof(uint64_t);
  uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, bytes.data() + payload_size, sizeof(stored_sum));
  if (stored_sum != Fnv1a64(bytes.data(), payload_size)) {
    return Status::InvalidArgument(
        "checkpoint state checksum mismatch (corrupted)");
  }
  Cursor c(bytes.data(), payload_size);
  uint32_t version = 0;
  SKY_RETURN_NOT_OK(c.ReadU32(&version));
  if (version != kCheckpointFormatVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }
  uint64_t buffer_capacity = 0;
  SKY_RETURN_NOT_OK(c.ReadU64(&buffer_capacity));

  core::IngestState state(&model.categories, &model.profiles, buffer_capacity);

  SKY_RETURN_NOT_OK(c.ReadF64(&state.start_time));
  SKY_RETURN_NOT_OK(c.ReadI64(&state.first_segment));
  SKY_RETURN_NOT_OK(c.ReadI64(&state.n_segments));
  SKY_RETURN_NOT_OK(c.ReadI64(&state.segs_per_interval));
  if (state.segs_per_interval <= 0) {
    return Status::InvalidArgument(
        "checkpoint does not hold a started session");
  }
  uint64_t u = 0;
  SKY_RETURN_NOT_OK(c.ReadU64(&u));
  if (u != core::HistoryWindow(model, state.segs_per_interval)) {
    return Status::InvalidArgument(
        "checkpoint history window does not match the model");
  }
  state.history_window = u;
  SKY_RETURN_NOT_OK(c.ReadI64(&state.next_index));
  // Step() reads segment first_segment + next_index.
  if (!core::SegmentWindowFits(state.first_segment, state.n_segments) ||
      state.next_index < 0 || state.next_index > state.n_segments) {
    return Status::InvalidArgument(
        "checkpoint segment window is out of range");
  }
  SKY_RETURN_NOT_OK(c.ReadU64(&u));
  state.interval_index = u;

  std::string rng_state;
  SKY_RETURN_NOT_OK(c.ReadString(&rng_state));
  SKY_RETURN_NOT_OK(state.noise.LoadState(rng_state));
  SKY_RETURN_NOT_OK(wire::ParseForecaster(&c, &state.forecaster));
  // The fine-tune's target is a histogram over the model's categories.
  const size_t num_c = model.categories.NumCategories();
  if (state.forecaster.has_value() &&
      state.forecaster->num_categories() != num_c) {
    return Status::InvalidArgument(
        "checkpoint forecaster category count does not match the model");
  }
  // The ring reaches back as far as the model's forecaster reads (or, with
  // none, as far as the whole-history fallback does), so a state forecasts
  // with the model's forecaster geometry or not at all.
  const double seg = model.segment_seconds;
  if (state.forecaster.has_value() != model.forecaster.has_value() ||
      (state.forecaster.has_value() &&
       state.forecaster->InputSegments(seg) !=
           model.forecaster->InputSegments(seg))) {
    return Status::InvalidArgument(
        "checkpoint forecaster does not read the model's history span");
  }

  bool has_plan = false;
  SKY_RETURN_NOT_OK(c.ReadBool(&has_plan));
  uint64_t rows = 0, cols = 0;
  SKY_RETURN_NOT_OK(c.ReadF64Shape(&rows, &cols));
  core::KnobPlan plan;
  plan.alpha = ml::Matrix(rows, cols, 0.0);
  if (rows * cols > 0) {
    SKY_RETURN_NOT_OK(
        c.Read(plan.alpha.data().data(), rows * cols * sizeof(double)));
  }
  SKY_RETURN_NOT_OK(c.ReadF64Vec(&plan.forecast));
  SKY_RETURN_NOT_OK(c.ReadF64(&plan.expected_quality));
  SKY_RETURN_NOT_OK(c.ReadF64(&plan.expected_work));
  if (has_plan &&
      (rows != model.categories.NumCategories() ||
       cols != model.profiles.size())) {
    return Status::InvalidArgument(
        "checkpoint plan shape does not match the model");
  }

  SKY_RETURN_NOT_OK(c.ReadBool(&state.boundary_prepared));
  SKY_RETURN_NOT_OK(c.ReadBool(&state.boundary_installed));
  SKY_RETURN_NOT_OK(c.ReadF64Vec(&state.boundary_forecast));
  SKY_RETURN_NOT_OK(c.ReadF64Vec(&state.plan_features));
  // Features are the forecaster's input: none without one, else exactly
  // its input width.
  const size_t feature_len =
      state.forecaster.has_value()
          ? state.forecaster->options().input_splits * num_c
          : 0;
  if (!state.plan_features.empty() &&
      state.plan_features.size() != feature_len) {
    return Status::InvalidArgument(
        "checkpoint plan features do not fit the forecaster");
  }
  // The ring size is checked against the one Start gives the run before
  // anything is allocated, and ReadCount already bounds it by the payload.
  uint64_t ring_bytes = 0;
  SKY_RETURN_NOT_OK(c.ReadCount(1, &ring_bytes));
  if (ring_bytes != core::HistoryRingSize(model, state.n_segments,
                                          state.segs_per_interval)) {
    return Status::InvalidArgument(
        "checkpoint history ring is not the size the run keeps");
  }
  state.history.resize(ring_bytes);
  SKY_RETURN_NOT_OK(c.Read(state.history.data(), ring_bytes));
  if (std::any_of(state.history.begin(), state.history.end(),
                  [num_c](uint8_t c) { return c >= num_c; })) {
    return Status::InvalidArgument(
        "checkpoint history holds a category the model does not have");
  }
  SKY_RETURN_NOT_OK(c.ReadU64(&u));
  if (u >= model.profiles.size()) {
    return Status::InvalidArgument(
        "checkpoint config index out of range for the model");
  }
  state.current_config = u;
  SKY_RETURN_NOT_OK(c.ReadF64(&state.last_measured));

  SKY_RETURN_NOT_OK(c.ReadF64(&state.lag_s));
  SKY_RETURN_NOT_OK(c.ReadF64(&state.buffered_bytes));
  SKY_RETURN_NOT_OK(c.ReadF64(&state.credits_remaining));
  SKY_RETURN_NOT_OK(c.ReadF64(&state.planned_usd_per_interval));

  SKY_RETURN_NOT_OK(ParseEngineResult(&c, &state.result));
  SKY_RETURN_NOT_OK(c.ReadF64(&state.next_trace_t));

  std::vector<std::vector<double>> usage_counts;
  std::vector<double> usage_totals;
  SKY_RETURN_NOT_OK(c.ReadF64Rows(&usage_counts));
  SKY_RETURN_NOT_OK(c.ReadF64Vec(&usage_totals));
  // Install the plan before the histograms: SetPlan resets usage.
  if (has_plan) state.switcher.SetPlan(std::move(plan));
  SKY_RETURN_NOT_OK(state.switcher.RestoreUsage(usage_counts, usage_totals));

  SKY_RETURN_NOT_OK(c.ExpectEnd("checkpoint state"));
  return state;
}

Status SerializeFleetCheckpoint(const FleetCheckpoint& ckpt,
                                std::string* out) {
  wire::BeginContainer(kFormat, out);
  std::string p;
  PutU64(&p, ckpt.streams.size());
  PutChunk(out, kChunkMeta, p);
  for (size_t v = 0; v < ckpt.streams.size(); ++v) {
    const StreamCheckpoint& sc = ckpt.streams[v];
    p.clear();
    PutU64(&p, v);
    wire::PutStatus(&p, sc.status);
    PutBool(&p, sc.has_state);
    PutString(&p, sc.state);
    PutChunk(out, kChunkStream, p);
  }
  wire::EndContainer(out);
  return Status::Ok();
}

Result<FleetCheckpoint> ParseFleetCheckpoint(const std::string& bytes) {
  SKY_ASSIGN_OR_RETURN(std::vector<wire::Chunk> chunks,
                       wire::ReadContainer(bytes, kFormat));
  // META (the stream count) first, then one STRM chunk per stream in index
  // order — nothing else.
  if (chunks.empty() || !chunks[0].Is(kChunkMeta)) {
    return Status::InvalidArgument("checkpoint file does not open with META");
  }
  uint64_t declared_streams = 0;
  SKY_RETURN_NOT_OK(chunks[0].payload.ReadU64(&declared_streams));
  SKY_RETURN_NOT_OK(chunks[0].payload.ExpectEnd("checkpoint META chunk"));
  if (declared_streams != chunks.size() - 1) {
    return Status::InvalidArgument(
        "checkpoint stream count does not match META");
  }
  FleetCheckpoint ckpt;
  ckpt.streams.resize(declared_streams);
  for (size_t v = 0; v < ckpt.streams.size(); ++v) {
    wire::Chunk& chunk = chunks[v + 1];
    if (!chunk.Is(kChunkStream)) {
      return Status::InvalidArgument(
          "checkpoint file has a " + std::string(chunk.tag, 4) +
          " chunk where STRM belongs");
    }
    uint64_t index = 0;
    SKY_RETURN_NOT_OK(chunk.payload.ReadU64(&index));
    if (index != v) {
      return Status::InvalidArgument("checkpoint stream chunks out of order");
    }
    StreamCheckpoint& sc = ckpt.streams[v];
    SKY_RETURN_NOT_OK(chunk.payload.ReadStatus(&sc.status));
    SKY_RETURN_NOT_OK(chunk.payload.ReadBool(&sc.has_state));
    SKY_RETURN_NOT_OK(chunk.payload.ReadString(&sc.state));
    SKY_RETURN_NOT_OK(chunk.payload.ExpectEnd("checkpoint STRM chunk"));
  }
  return ckpt;
}

Status SaveFleetCheckpoint(const FleetCheckpoint& ckpt,
                           const std::string& path) {
  std::string out;
  SKY_RETURN_NOT_OK(SerializeFleetCheckpoint(ckpt, &out));
  return AtomicWriteFile(path, out);
}

Result<FleetCheckpoint> LoadFleetCheckpoint(const std::string& path) {
  SKY_ASSIGN_OR_RETURN(std::string bytes,
                       ReadFileBytes(path, "checkpoint file"));
  return ParseFleetCheckpoint(bytes);
}

}  // namespace sky::io
