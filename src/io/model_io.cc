#include "io/model_io.h"

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "io/atomic_file.h"
#include "io/wire.h"

namespace sky::io {

namespace {

// --- Format constants (docs/model_format.md) -------------------------------

const wire::ContainerFormat kFormat{"SKYMODL1", kModelFormatVersion,
                                    "model file"};

// --- Per-chunk layouts -----------------------------------------------------
//
// Each runs with a Writer (Model const) to save and with a Cursor to load
// (io/wire.h, "Symmetric codec").

template <class Io, class Model>
void TransferMeta(Io& io, Model& model) {
  io.F64(model.segment_seconds);
  io.F64(model.train_horizon);
}

template <class Io, class Model>
void TransferConfigs(Io& io, Model& model) {
  io.Seq(model.configs, sizeof(uint64_t), [&](auto& k) { io.U64Vec(k); });
}

template <class Io, class Model>
void TransferProfiles(Io& io, Model& model) {
  io.Seq(model.profiles, sizeof(uint64_t), [&](auto& cp) {
    io.U64Vec(cp.config);
    io.U64(cp.config_id);
    io.F64(cp.work_core_s_per_video_s);
    io.Seq(cp.placements, sizeof(double), [&](auto& pl) {
      io.Seq(pl.placement.node_loc, 1, [&](auto& loc) {
        io.Enum8(loc, dag::Loc::kCloud, "invalid task placement location");
      });
      io.F64(pl.runtime_s);
      io.F64(pl.cloud_usd);
      io.F64(pl.onprem_core_s);
      io.F64(pl.uplink_bytes);
    });
  });
}

Status TooManyCategories() {
  return Status::InvalidArgument(
      "model file holds more than " + std::to_string(core::kMaxCategories) +
      " content categories");
}

template <class Io, class Model>
void TransferCategories(Io& io, Model& model) {
  core::CategorizerBackend backend = model.categories.backend();
  io.Enum32(backend, core::CategorizerBackend::kGmm,
            "unknown categorizer backend in model file");
  if (!io.ok()) return;
  if (backend == core::CategorizerBackend::kKMeans) {
    ml::KMeansModel km;
    if constexpr (!Io::kReads) km = model.categories.kmeans_model();
    io.F64Rows(km.centers);
    io.F64(km.inertia);
    if constexpr (Io::kReads) {
      if (!io.ok()) return;
      if (km.centers.size() > core::kMaxCategories) {
        return io.Record(TooManyCategories());
      }
      model.categories = core::ContentCategories::FromKMeans(std::move(km));
    }
    return;
  }
  ml::GmmModel gm;
  if constexpr (!Io::kReads) {
    if (!model.categories.gmm_model().has_value()) {
      return io.Fail("GMM categorizer without a GMM model");
    }
    gm = *model.categories.gmm_model();
  }
  io.F64Rows(gm.means);
  io.F64Rows(gm.variances);
  io.F64Vec(gm.weights);
  io.F64(gm.log_likelihood);
  if constexpr (Io::kReads) {
    if (!io.ok()) return;
    // Online classification reads variances[c][k] at every coordinate k of
    // the means.
    if (gm.variances.size() != gm.means.size() ||
        gm.weights.size() != gm.means.size() ||
        (!gm.means.empty() && gm.variances[0].size() != gm.means[0].size())) {
      return io.Fail("inconsistent GMM component shapes");
    }
    if (gm.means.size() > core::kMaxCategories) {
      return io.Record(TooManyCategories());
    }
    model.categories = core::ContentCategories::FromGmm(std::move(gm));
  }
}

/// Packed for the category count of the CATG chunk before it: the engine
/// bootstraps its category history from the sequence's tail, so every code
/// must name a category of the clustering.
template <class Io, class Model>
void TransferTrainSeq(Io& io, Model& model) {
  wire::TransferCategorySequence(io, model.train_category_sequence,
                                 model.categories.NumCategories(),
                                 "model file's training sequence");
}

template <class Io, class Model>
void TransferRuntimes(Io& io, Model& model) {
  auto& rt = model.step_runtimes;
  io.F64(rt.filter_configs_s);
  io.F64(rt.filter_placements_s);
  io.F64(rt.content_categories_s);
  io.F64(rt.forecast_training_data_s);
  io.F64(rt.forecast_training_s);
}

/// One chunk of the v3 table: its tag and its payload's layout, run with a
/// Writer to save and with a Cursor to load. The writer puts the chunks in
/// table order; every chunk appears exactly once.
struct ModelChunk {
  const char* tag;
  void (*write)(wire::Writer& io, const core::OfflineModel& model,
                const std::string& annotation);
  void (*read)(wire::Cursor& io, core::OfflineModel& model,
               std::string& annotation);
};

/// Both halves of a ModelChunk from one generic transfer.
template <class Transfer>
ModelChunk Chunk(const char* tag, Transfer transfer) {
  return {tag, transfer, transfer};
}

const ModelChunk kModelChunks[] = {
    Chunk("META", [](auto& io, auto& m, auto&) { TransferMeta(io, m); }),
    Chunk("ANNO", [](auto& io, auto&, auto& a) { io.String(a); }),
    Chunk("KNBC", [](auto& io, auto& m, auto&) { TransferConfigs(io, m); }),
    Chunk("PROF", [](auto& io, auto& m, auto&) { TransferProfiles(io, m); }),
    Chunk("CATG", [](auto& io, auto& m, auto&) { TransferCategories(io, m); }),
    Chunk("TSEQ", [](auto& io, auto& m, auto&) { TransferTrainSeq(io, m); }),
    Chunk("FCST",
          [](auto& io, auto& m, auto&) {
            wire::TransferForecaster(io, m.forecaster);
          }),
    Chunk("RTIM", [](auto& io, auto& m, auto&) { TransferRuntimes(io, m); }),
};

}  // namespace

Status SerializeOfflineModel(const core::OfflineModel& model,
                             const std::string& annotation,
                             std::string* out) {
  wire::BeginContainer(kFormat, out);
  std::string payload;
  for (const ModelChunk& chunk : kModelChunks) {
    payload.clear();
    wire::Writer w(&payload);
    chunk.write(w, model, annotation);
    SKY_RETURN_NOT_OK(w.status());
    wire::PutChunk(out, chunk.tag, payload);
  }
  wire::EndContainer(out);
  return Status::Ok();
}

Result<core::OfflineModel> DeserializeOfflineModel(const std::string& bytes,
                                                   std::string* annotation) {
  SKY_ASSIGN_OR_RETURN(std::vector<wire::Chunk> chunks,
                       wire::ReadContainer(bytes, kFormat));
  // Unknown tags are an error (see the versioning policy in
  // docs/model_format.md), and so is a chunk out of table order: TSEQ is
  // packed for the category count CATG gives.
  core::OfflineModel m;
  std::string stored_annotation;
  size_t next = 0;  // table index of the chunk expected next
  for (wire::Chunk& chunk : chunks) {
    size_t i = 0;
    while (i < std::size(kModelChunks) && !chunk.Is(kModelChunks[i].tag)) ++i;
    if (i == std::size(kModelChunks)) {
      return Status::InvalidArgument("unknown chunk tag in model file");
    }
    // Every chunk before `next` has been read.
    if (i < next) {
      return Status::InvalidArgument("duplicate chunk in model file");
    }
    if (i > next) {
      return Status::InvalidArgument("model file has a " +
                                     std::string(chunk.tag, 4) +
                                     " chunk where " + kModelChunks[next].tag +
                                     " belongs");
    }
    ++next;
    kModelChunks[i].read(chunk.payload, m, stored_annotation);
    chunk.payload.ExpectEnd("model chunk");
    SKY_RETURN_NOT_OK(chunk.payload.status());
  }
  if (next != std::size(kModelChunks)) {
    return Status::InvalidArgument("model file is missing required chunks");
  }
  // The engine indexes configurations, their profiles and the category
  // centers' coordinates by one configuration index.
  if (m.profiles.size() != m.configs.size() ||
      m.categories.NumConfigs() != m.configs.size()) {
    return Status::InvalidArgument(
        "model file chunks disagree on the configuration count");
  }
  if (annotation != nullptr) *annotation = std::move(stored_annotation);
  return m;
}

Status SaveOfflineModel(const core::OfflineModel& model,
                        const std::string& path,
                        const std::string& annotation) {
  std::string bytes;
  SKY_RETURN_NOT_OK(SerializeOfflineModel(model, annotation, &bytes));
  // Crash consistency: a save interrupted at any point leaves either the
  // previous model file or the new one, never a torn file.
  return AtomicWriteFile(path, bytes);
}

Result<core::OfflineModel> LoadOfflineModel(const std::string& path,
                                            std::string* annotation) {
  SKY_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path, "model file"));
  return DeserializeOfflineModel(bytes, annotation);
}

}  // namespace sky::io
