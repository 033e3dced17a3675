#include "io/checkpoint_io.h"

#include <cstring>
#include <type_traits>
#include <utility>

#include "io/atomic_file.h"
#include "io/wire.h"

namespace sky::io {

namespace {

const wire::ContainerFormat kFormat{"SKYCKPT1", kCheckpointFormatVersion,
                                    "checkpoint file"};

constexpr char kChunkMeta[4] = {'M', 'E', 'T', 'A'};
constexpr char kChunkStream[4] = {'S', 'T', 'R', 'M'};

/// A double field as F64, a count as U64.
template <class Io, class T>
void Number(Io& io, T& v) {
  if constexpr (std::is_floating_point_v<std::remove_const_t<T>>) {
    io.F64(v);
  } else {
    io.U64(v);
  }
}

/// The engine state's layout, as one record: the model is the one the
/// state restores against (null when writing), and every reader check sits
/// where its field is read. The trailing checksum is outside the record.
template <class Io, class State>
void TransferIngestState(Io& io, State& state, const core::OfflineModel* model) {
  uint32_t version = kCheckpointFormatVersion;
  io.U32(version);
  if constexpr (Io::kReads) {
    if (io.ok() && version != kCheckpointFormatVersion) {
      return io.Fail("unsupported checkpoint format version " +
                     std::to_string(version) + " (this build reads version " +
                     std::to_string(kCheckpointFormatVersion) + ")");
    }
  }
  io.U64(state.buffer_capacity_bytes);

  io.F64(state.start_time);
  io.I64(state.first_segment);
  io.I64(state.n_segments);
  io.I64(state.segs_per_interval);
  if constexpr (Io::kReads) {
    if (!io.ok()) return;
    if (state.segs_per_interval <= 0) {
      return io.Fail("checkpoint does not hold a started session");
    }
  }
  io.U64(state.history_window);
  if constexpr (Io::kReads) {
    if (io.ok() && state.history_window !=
                       core::HistoryWindow(*model, state.segs_per_interval)) {
      return io.Fail("checkpoint history window does not match the model");
    }
  }
  io.I64(state.next_index);
  if constexpr (Io::kReads) {
    // Step() reads segment first_segment + next_index.
    if (io.ok() &&
        (!core::SegmentWindowFits(state.first_segment, state.n_segments) ||
         state.next_index < 0 || state.next_index > state.n_segments)) {
      return io.Fail("checkpoint segment window is out of range");
    }
  }
  io.U64(state.interval_index);

  std::string rng_state;
  if constexpr (!Io::kReads) rng_state = state.noise.SaveState();
  io.String(rng_state);
  if constexpr (Io::kReads) {
    if (io.ok()) io.Record(state.noise.LoadState(rng_state));
  }
  wire::TransferForecaster(io, state.forecaster);
  if constexpr (Io::kReads) {
    if (!io.ok()) return;
    // The fine-tune's target is a histogram over the model's categories.
    const size_t num_c = model->categories.NumCategories();
    if (state.forecaster.has_value() &&
        state.forecaster->num_categories() != num_c) {
      return io.Fail(
          "checkpoint forecaster category count does not match the model");
    }
    // The ring reaches back as far as the model's forecaster reads (or,
    // with none, as far as the whole-history fallback does), so a state
    // forecasts with the model's forecaster geometry or not at all.
    const double seg = model->segment_seconds;
    if (state.forecaster.has_value() != model->forecaster.has_value() ||
        (state.forecaster.has_value() &&
         state.forecaster->InputSegments(seg) !=
             model->forecaster->InputSegments(seg))) {
      return io.Fail(
          "checkpoint forecaster does not read the model's history span");
    }
  }

  // Before the first boundary no plan is installed; an empty one is written
  // in its place, so every later field keeps its offset. A read plan is
  // installed after the usage histograms are read (see below).
  bool has_plan = state.switcher.plan() != nullptr;
  core::KnobPlan plan;
  if constexpr (!Io::kReads) {
    if (has_plan) plan = *state.switcher.plan();
  }
  io.Bool(has_plan);
  io.Matrix(plan.alpha);
  io.F64Vec(plan.forecast);
  io.F64(plan.expected_quality);
  io.F64(plan.expected_work);
  if constexpr (Io::kReads) {
    if (io.ok() && has_plan &&
        (plan.alpha.rows() != model->categories.NumCategories() ||
         plan.alpha.cols() != model->profiles.size())) {
      return io.Fail("checkpoint plan shape does not match the model");
    }
  }

  io.Bool(state.boundary_prepared);
  io.Bool(state.boundary_installed);
  io.F64Vec(state.boundary_forecast);
  io.F64Vec(state.plan_features);
  if constexpr (Io::kReads) {
    if (!io.ok()) return;
    // Features are the forecaster's input: none without one, else exactly
    // its input width.
    const size_t num_c = model->categories.NumCategories();
    const size_t feature_len =
        state.forecaster.has_value()
            ? state.forecaster->options().input_splits * num_c
            : 0;
    if (!state.plan_features.empty() &&
        state.plan_features.size() != feature_len) {
      return io.Fail("checkpoint plan features do not fit the forecaster");
    }
    // The joint planner reads one forecast entry per category, and a
    // prepared boundary is not prepared again: its forecast must be there.
    const size_t forecast_len = state.boundary_forecast.size();
    if ((forecast_len != 0 && forecast_len != num_c) ||
        (forecast_len == 0 && state.boundary_prepared)) {
      return io.Fail("checkpoint boundary forecast does not fit the model");
    }
  }
  // The run's own category ring, packed as the model's training sequence
  // is. The training tail before it is the model's, and the write
  // position, the history length and the split counts all follow from
  // next_index, so none of them is stored. The word count bounds what is
  // allocated by the payload, and every code must name a model category.
  wire::TransferCategorySequence(
      io, state.history,
      model != nullptr ? model->categories.NumCategories() : 0,
      "checkpoint history ring");
  if constexpr (Io::kReads) {
    if (io.ok() && state.history.size() !=
                       core::HistoryRingSize(*model, state.n_segments,
                                             state.segs_per_interval)) {
      return io.Fail("checkpoint history ring is not the size the run keeps");
    }
  }
  io.U64(state.current_config);
  if constexpr (Io::kReads) {
    if (io.ok() && state.current_config >= model->profiles.size()) {
      return io.Fail("checkpoint config index out of range for the model");
    }
  }
  io.F64(state.last_measured);

  io.F64(state.lag_s);
  io.F64(state.buffered_bytes);
  io.F64(state.credits_remaining);
  io.F64(state.planned_usd_per_interval);

  TransferEngineResult(io, state.result);
  io.F64(state.next_trace_t);

  // Eq. 6 usage histograms — mid-interval restores must keep alpha-hat.
  std::vector<std::vector<double>> usage_counts;
  std::vector<double> usage_totals;
  if constexpr (!Io::kReads) {
    usage_counts = state.switcher.usage_counts();
    usage_totals = state.switcher.usage_totals();
  }
  io.F64Rows(usage_counts);
  io.F64Vec(usage_totals);
  if constexpr (Io::kReads) {
    if (!io.ok()) return;
    // Install the plan before the histograms: SetPlan resets usage.
    if (has_plan) state.switcher.SetPlan(std::move(plan));
    io.Record(state.switcher.RestoreUsage(usage_counts, usage_totals));
    io.ExpectEnd("checkpoint state");
  }
}

/// Stream `v`'s STRM chunk: its index, quarantine status and state bytes.
template <class Io, class Stream>
void TransferStream(Io& io, uint64_t v, Stream& sc) {
  uint64_t index = v;
  io.U64(index);
  if constexpr (Io::kReads) {
    if (io.ok() && index != v) {
      return io.Fail("checkpoint stream chunks out of order");
    }
  }
  io.StatusField(sc.status);
  io.Bool(sc.has_state);
  io.String(sc.state);
}

}  // namespace

template <class Io, class R>
void TransferEngineResult(Io& io, R& r) {
  core::ForEachResultField(
      [&](const char*, auto field) { Number(io, r.*field); });
  io.Seq(r.trace, 8 * sizeof(double), [&](auto& point) {
    core::ForEachTraceField(
        [&](const char*, auto field) { Number(io, point.*field); });
  });
}

template void TransferEngineResult(wire::Writer&, const core::EngineResult&);
template void TransferEngineResult(wire::Cursor&, core::EngineResult&);

void AppendEngineResult(const core::EngineResult& r, std::string* out) {
  wire::Writer w(out);
  TransferEngineResult(w, r);
}

Status SerializeIngestState(const core::IngestState& state, std::string* out) {
  out->clear();
  wire::Writer w(out);
  TransferIngestState(w, state, nullptr);
  SKY_RETURN_NOT_OK(w.status());
  // Trailing FNV-1a over everything above: a restored run must never start
  // from silently corrupted state, so bit flips are refused at load time.
  w.U64(wire::Fnv1a64(out->data(), out->size()));
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
  if (stored_sum != wire::Fnv1a64(bytes.data(), payload_size)) {
    return Status::InvalidArgument(
        "checkpoint state checksum mismatch (corrupted)");
  }
  // The buffer capacity is the state's second field.
  core::IngestState state(&model.categories, &model.profiles, 0);
  wire::Cursor c(bytes.data(), payload_size);
  TransferIngestState(c, state, &model);
  SKY_RETURN_NOT_OK(c.status());
  return state;
}

Status SerializeFleetCheckpoint(const FleetCheckpoint& ckpt,
                                std::string* out) {
  wire::BeginContainer(kFormat, out);
  std::string p;
  wire::Writer(&p).U64(ckpt.streams.size());
  wire::PutChunk(out, kChunkMeta, p);
  for (uint64_t v = 0; v < ckpt.streams.size(); ++v) {
    p.clear();
    wire::Writer w(&p);
    TransferStream(w, v, ckpt.streams[v]);
    wire::PutChunk(out, kChunkStream, p);
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
  wire::Cursor& meta = chunks[0].payload;
  meta.U64(declared_streams);
  meta.ExpectEnd("checkpoint META chunk");
  SKY_RETURN_NOT_OK(meta.status());
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
    TransferStream(chunk.payload, v, ckpt.streams[v]);
    chunk.payload.ExpectEnd("checkpoint STRM chunk");
    SKY_RETURN_NOT_OK(chunk.payload.status());
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
