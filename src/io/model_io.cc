#include "io/model_io.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/forecaster.h"
#include "io/atomic_file.h"
#include "io/wire.h"
#include "ml/nn.h"

namespace sky::io {

namespace {

using wire::Cursor;
using wire::PutChunk;
using wire::PutF64;
using wire::PutF64Rows;
using wire::PutF64Vec;
using wire::PutRaw;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;
using wire::PutU64Vec;
using wire::PutU8;

// --- Format constants (docs/model_format.md) -------------------------------

const wire::ContainerFormat kFormat{"SKYMODL1", kModelFormatVersion,
                                    "model file"};

/// Chunk tags, stored as four ASCII bytes in file order.
constexpr char kChunkMeta[4] = {'M', 'E', 'T', 'A'};
constexpr char kChunkAnnotation[4] = {'A', 'N', 'N', 'O'};
constexpr char kChunkConfigs[4] = {'K', 'N', 'B', 'C'};
constexpr char kChunkProfiles[4] = {'P', 'R', 'O', 'F'};
constexpr char kChunkCategories[4] = {'C', 'A', 'T', 'G'};
constexpr char kChunkTrainSeq[4] = {'T', 'S', 'E', 'Q'};
constexpr char kChunkForecaster[4] = {'F', 'C', 'S', 'T'};
constexpr char kChunkRuntimes[4] = {'R', 'T', 'I', 'M'};

// --- Per-chunk serializers -------------------------------------------------

std::string MetaPayload(const core::OfflineModel& model) {
  std::string p;
  PutF64(&p, model.segment_seconds);
  PutF64(&p, model.train_horizon);
  return p;
}

Status ParseMeta(Cursor* c, core::OfflineModel* model) {
  SKY_RETURN_NOT_OK(c->ReadF64(&model->segment_seconds));
  return c->ReadF64(&model->train_horizon);
}

std::string ConfigsPayload(const core::OfflineModel& model) {
  std::string p;
  PutU64(&p, model.configs.size());
  for (const core::KnobConfig& k : model.configs) PutU64Vec(&p, k);
  return p;
}

Status ParseConfigs(Cursor* c, core::OfflineModel* model) {
  uint64_t n = 0;
  SKY_RETURN_NOT_OK(c->ReadCount(sizeof(uint64_t), &n));
  model->configs.resize(n);
  for (auto& k : model->configs) SKY_RETURN_NOT_OK(c->ReadU64Vec(&k));
  return Status::Ok();
}

std::string ProfilesPayload(const core::OfflineModel& model) {
  std::string p;
  PutU64(&p, model.profiles.size());
  for (const core::ConfigProfile& cp : model.profiles) {
    PutU64Vec(&p, cp.config);
    PutU64(&p, cp.config_id);
    PutF64(&p, cp.work_core_s_per_video_s);
    PutU64(&p, cp.placements.size());
    for (const core::PlacementProfile& pl : cp.placements) {
      PutU64(&p, pl.placement.node_loc.size());
      for (dag::Loc loc : pl.placement.node_loc) {
        PutU8(&p, static_cast<uint8_t>(loc));
      }
      PutF64(&p, pl.runtime_s);
      PutF64(&p, pl.cloud_usd);
      PutF64(&p, pl.onprem_core_s);
      PutF64(&p, pl.uplink_bytes);
    }
  }
  return p;
}

Status ParseProfiles(Cursor* c, core::OfflineModel* model) {
  uint64_t n = 0;
  SKY_RETURN_NOT_OK(c->ReadCount(sizeof(uint64_t), &n));
  model->profiles.resize(n);
  for (auto& cp : model->profiles) {
    SKY_RETURN_NOT_OK(c->ReadU64Vec(&cp.config));
    uint64_t id = 0;
    SKY_RETURN_NOT_OK(c->ReadU64(&id));
    cp.config_id = id;
    SKY_RETURN_NOT_OK(c->ReadF64(&cp.work_core_s_per_video_s));
    uint64_t num_placements = 0;
    SKY_RETURN_NOT_OK(c->ReadCount(sizeof(double), &num_placements));
    cp.placements.resize(num_placements);
    for (auto& pl : cp.placements) {
      uint64_t num_nodes = 0;
      SKY_RETURN_NOT_OK(c->ReadCount(1, &num_nodes));
      pl.placement.node_loc.resize(num_nodes);
      for (auto& loc : pl.placement.node_loc) {
        uint8_t raw = 0;
        SKY_RETURN_NOT_OK(c->ReadU8(&raw));
        if (raw > static_cast<uint8_t>(dag::Loc::kCloud)) {
          return Status::InvalidArgument("invalid task placement location");
        }
        loc = static_cast<dag::Loc>(raw);
      }
      SKY_RETURN_NOT_OK(c->ReadF64(&pl.runtime_s));
      SKY_RETURN_NOT_OK(c->ReadF64(&pl.cloud_usd));
      SKY_RETURN_NOT_OK(c->ReadF64(&pl.onprem_core_s));
      SKY_RETURN_NOT_OK(c->ReadF64(&pl.uplink_bytes));
    }
  }
  return Status::Ok();
}

Result<std::string> CategoriesPayload(const core::OfflineModel& model) {
  std::string p;
  PutU32(&p, static_cast<uint32_t>(model.categories.backend()));
  if (model.categories.backend() == core::CategorizerBackend::kKMeans) {
    const ml::KMeansModel& km = model.categories.kmeans_model();
    SKY_RETURN_NOT_OK(PutF64Rows(&p, km.centers));
    PutF64(&p, km.inertia);
  } else {
    if (!model.categories.gmm_model().has_value()) {
      return Status::InvalidArgument("GMM categorizer without a GMM model");
    }
    const ml::GmmModel& gm = *model.categories.gmm_model();
    SKY_RETURN_NOT_OK(PutF64Rows(&p, gm.means));
    SKY_RETURN_NOT_OK(PutF64Rows(&p, gm.variances));
    PutF64Vec(&p, gm.weights);
    PutF64(&p, gm.log_likelihood);
  }
  return p;
}

Status TooManyCategories() {
  return Status::InvalidArgument(
      "model file holds more than " + std::to_string(core::kMaxCategories) +
      " content categories");
}

Status ParseCategories(Cursor* c, core::OfflineModel* model) {
  uint32_t backend = 0;
  SKY_RETURN_NOT_OK(c->ReadU32(&backend));
  if (backend == static_cast<uint32_t>(core::CategorizerBackend::kKMeans)) {
    ml::KMeansModel km;
    SKY_RETURN_NOT_OK(c->ReadF64Rows(&km.centers));
    SKY_RETURN_NOT_OK(c->ReadF64(&km.inertia));
    if (km.centers.size() > core::kMaxCategories) return TooManyCategories();
    model->categories = core::ContentCategories::FromKMeans(std::move(km));
    return Status::Ok();
  }
  if (backend == static_cast<uint32_t>(core::CategorizerBackend::kGmm)) {
    ml::GmmModel gm;
    SKY_RETURN_NOT_OK(c->ReadF64Rows(&gm.means));
    SKY_RETURN_NOT_OK(c->ReadF64Rows(&gm.variances));
    SKY_RETURN_NOT_OK(c->ReadF64Vec(&gm.weights));
    SKY_RETURN_NOT_OK(c->ReadF64(&gm.log_likelihood));
    // Online classification reads variances[c][k] at every coordinate k of
    // the means.
    if (gm.variances.size() != gm.means.size() ||
        gm.weights.size() != gm.means.size() ||
        (!gm.means.empty() && gm.variances[0].size() != gm.means[0].size())) {
      return Status::InvalidArgument("inconsistent GMM component shapes");
    }
    if (gm.means.size() > core::kMaxCategories) return TooManyCategories();
    model->categories = core::ContentCategories::FromGmm(std::move(gm));
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown categorizer backend in model file");
}

std::string TrainSeqPayload(const core::OfflineModel& model) {
  std::string p;
  const std::vector<uint8_t>& seq = model.train_category_sequence;
  PutU64(&p, seq.size());
  if (!seq.empty()) PutRaw(&p, seq.data(), seq.size());
  return p;
}

Status ParseTrainSeq(Cursor* c, core::OfflineModel* model) {
  uint64_t n = 0;
  SKY_RETURN_NOT_OK(c->ReadCount(1, &n));
  model->train_category_sequence.resize(n);
  return n > 0 ? c->Read(model->train_category_sequence.data(), n)
               : Status::Ok();
}

std::string RuntimesPayload(const core::OfflineModel& model) {
  std::string p;
  const core::OfflineStepRuntimes& rt = model.step_runtimes;
  PutF64(&p, rt.filter_configs_s);
  PutF64(&p, rt.filter_placements_s);
  PutF64(&p, rt.content_categories_s);
  PutF64(&p, rt.forecast_training_data_s);
  PutF64(&p, rt.forecast_training_s);
  return p;
}

Status ParseRuntimes(Cursor* c, core::OfflineModel* model) {
  core::OfflineStepRuntimes& rt = model->step_runtimes;
  SKY_RETURN_NOT_OK(c->ReadF64(&rt.filter_configs_s));
  SKY_RETURN_NOT_OK(c->ReadF64(&rt.filter_placements_s));
  SKY_RETURN_NOT_OK(c->ReadF64(&rt.content_categories_s));
  SKY_RETURN_NOT_OK(c->ReadF64(&rt.forecast_training_data_s));
  return c->ReadF64(&rt.forecast_training_s);
}

/// What a model file holds: the model and its free-form annotation.
struct ModelFile {
  core::OfflineModel model;
  std::string annotation;
};

/// The v2 chunk table: every chunk appears exactly once.
struct ModelChunk {
  const char* tag;
  Status (*parse)(Cursor* c, ModelFile* file);
};

const ModelChunk kModelChunks[] = {
    {kChunkMeta,
     [](Cursor* c, ModelFile* f) { return ParseMeta(c, &f->model); }},
    {kChunkAnnotation,
     [](Cursor* c, ModelFile* f) { return c->ReadString(&f->annotation); }},
    {kChunkConfigs,
     [](Cursor* c, ModelFile* f) { return ParseConfigs(c, &f->model); }},
    {kChunkProfiles,
     [](Cursor* c, ModelFile* f) { return ParseProfiles(c, &f->model); }},
    {kChunkCategories,
     [](Cursor* c, ModelFile* f) { return ParseCategories(c, &f->model); }},
    {kChunkTrainSeq,
     [](Cursor* c, ModelFile* f) { return ParseTrainSeq(c, &f->model); }},
    {kChunkForecaster,
     [](Cursor* c, ModelFile* f) {
       return wire::ParseForecaster(c, &f->model.forecaster);
     }},
    {kChunkRuntimes,
     [](Cursor* c, ModelFile* f) { return ParseRuntimes(c, &f->model); }},
};

}  // namespace

Status SerializeOfflineModel(const core::OfflineModel& model,
                             const std::string& annotation,
                             std::string* out) {
  wire::BeginContainer(kFormat, out);
  PutChunk(out, kChunkMeta, MetaPayload(model));
  {
    std::string p;
    PutString(&p, annotation);
    PutChunk(out, kChunkAnnotation, p);
  }
  PutChunk(out, kChunkConfigs, ConfigsPayload(model));
  PutChunk(out, kChunkProfiles, ProfilesPayload(model));
  SKY_ASSIGN_OR_RETURN(std::string categories, CategoriesPayload(model));
  PutChunk(out, kChunkCategories, categories);
  PutChunk(out, kChunkTrainSeq, TrainSeqPayload(model));
  {
    std::string p;
    wire::AppendForecaster(model.forecaster, &p);
    PutChunk(out, kChunkForecaster, p);
  }
  PutChunk(out, kChunkRuntimes, RuntimesPayload(model));
  wire::EndContainer(out);
  return Status::Ok();
}

Result<core::OfflineModel> DeserializeOfflineModel(const std::string& bytes,
                                                   std::string* annotation) {
  SKY_ASSIGN_OR_RETURN(std::vector<wire::Chunk> chunks,
                       wire::ReadContainer(bytes, kFormat));
  // Unknown tags are an error (see the versioning policy in
  // docs/model_format.md).
  ModelFile file;
  bool seen[std::size(kModelChunks)] = {};
  for (wire::Chunk& chunk : chunks) {
    size_t i = 0;
    while (i < std::size(kModelChunks) && !chunk.Is(kModelChunks[i].tag)) ++i;
    if (i == std::size(kModelChunks)) {
      return Status::InvalidArgument("unknown chunk tag in model file");
    }
    if (seen[i]) {
      return Status::InvalidArgument("duplicate chunk in model file");
    }
    seen[i] = true;
    SKY_RETURN_NOT_OK(kModelChunks[i].parse(&chunk.payload, &file));
    SKY_RETURN_NOT_OK(chunk.payload.ExpectEnd("model chunk"));
  }
  for (bool s : seen) {
    if (!s) {
      return Status::InvalidArgument("model file is missing required chunks");
    }
  }
  // The engine indexes configurations, their profiles and the category
  // centers' coordinates by one configuration index.
  const core::OfflineModel& m = file.model;
  if (m.profiles.size() != m.configs.size() ||
      m.categories.NumConfigs() != m.configs.size()) {
    return Status::InvalidArgument(
        "model file chunks disagree on the configuration count");
  }
  // The engine bootstraps its category history from the sequence's tail.
  const size_t num_c = m.categories.NumCategories();
  if (std::any_of(m.train_category_sequence.begin(),
                  m.train_category_sequence.end(),
                  [num_c](uint8_t c) { return c >= num_c; })) {
    return Status::InvalidArgument(
        "model file's training sequence names a category its clustering "
        "does not have");
  }
  if (annotation != nullptr) *annotation = std::move(file.annotation);
  return std::move(file.model);
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
