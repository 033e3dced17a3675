// Tests for the model persistence layer (src/io/model_io) and the facade's
// SaveModel/LoadModel — the train-once / serve-many contract:
//
//  1. a save/load round trip reproduces the OfflineModel bitwise
//     (core::OfflineModelsIdentical, which compares configs, full placement
//     profiles, the clustering's centers and inertia (or the GMM's means,
//     variances, weights and log-likelihood), the training sequence, and
//     the trained forecaster's parameters);
//  2. ingestion from a loaded model is bitwise-equal to ingestion from the
//     in-memory model on every EngineResult field including the trace —
//     which also gates that the forecaster's Adam optimizer state survives
//     the round trip (online fine-tuning at plan boundaries would diverge
//     otherwise);
//  3. corrupted / truncated / wrong-version / wrong-magic files, a v1 file
//     and checksum-valid files whose chunks disagree fail with an error
//     Status — no crashes, and a failed facade LoadModel leaves the
//     previous model untouched;
//  4. facade precondition paths: SaveModel without a model, LoadModel as a
//     full substitute for Fit().

#include "io/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/skyscraper.h"
#include "core/engine.h"
#include "core/offline.h"
#include "io/atomic_file.h"
#include "io/wire.h"
#include "support/oracles.h"
#include "workloads/ev_counting.h"

namespace sky::io {
namespace {

core::OfflineOptions FastOffline() {
  core::OfflineOptions opts;
  opts.segment_seconds = 4.0;
  opts.train_horizon = Days(4);
  opts.num_categories = 3;
  opts.forecaster.input_span = Days(1);
  opts.forecaster.planned_interval = Days(1);
  return opts;
}

/// One shared fitted model per suite (the offline fit dominates test time).
const core::OfflineModel& FittedModel() {
  static const core::OfflineModel* model = [] {
    workloads::EvCountingWorkload job;
    sim::ClusterSpec cluster;
    cluster.cores = 4;
    sim::CostModel cost_model(1.8);
    auto fitted =
        core::RunOfflinePhase(job, cluster, cost_model, FastOffline());
    EXPECT_TRUE(fitted.ok()) << fitted.status().ToString();
    return new core::OfflineModel(std::move(fitted).value());
  }();
  return *model;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string Serialized(const std::string& annotation = "EV-COUNT") {
  std::string bytes;
  Status st = SerializeOfflineModel(FittedModel(), annotation, &bytes);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return bytes;
}

TEST(ModelIoTest, RoundTripIsBitwiseIdentical) {
  std::string bytes = Serialized();
  std::string annotation;
  auto loaded = DeserializeOfflineModel(bytes, &annotation);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(annotation, "EV-COUNT");
  EXPECT_TRUE(core::OfflineModelsIdentical(FittedModel(), *loaded));
  // Informational fields outside OfflineModelsIdentical round-trip too.
  EXPECT_EQ(loaded->step_runtimes.filter_configs_s,
            FittedModel().step_runtimes.filter_configs_s);
  EXPECT_EQ(loaded->step_runtimes.forecast_training_s,
            FittedModel().step_runtimes.forecast_training_s);
  ASSERT_TRUE(loaded->forecaster.has_value());
  EXPECT_EQ(loaded->forecaster->train_report().best_val_loss,
            FittedModel().forecaster->train_report().best_val_loss);
  EXPECT_EQ(loaded->forecaster->train_report().train_loss_per_epoch,
            FittedModel().forecaster->train_report().train_loss_per_epoch);
}

TEST(ModelIoTest, SerializationIsDeterministic) {
  EXPECT_EQ(Serialized(), Serialized());
}

TEST(ModelIoTest, LoadedModelIngestsBitwiseEqually) {
  std::string bytes = Serialized();
  auto loaded = DeserializeOfflineModel(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  workloads::EvCountingWorkload job;
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  sim::CostModel cost_model(1.8);
  core::EngineOptions opts;
  opts.duration = Days(1);
  opts.plan_interval = Hours(6);  // several boundaries -> online fine-tunes
  opts.cloud_budget_usd_per_interval = 0.5;
  opts.record_trace = true;

  core::IngestionEngine from_memory(&job, &FittedModel(), cluster,
                                    &cost_model, opts);
  auto memory_run = from_memory.Run(Days(4));
  ASSERT_TRUE(memory_run.ok()) << memory_run.status().ToString();

  core::IngestionEngine from_file(&job, &*loaded, cluster, &cost_model, opts);
  auto file_run = from_file.Run(Days(4));
  ASSERT_TRUE(file_run.ok()) << file_run.status().ToString();

  // Bitwise on every field including the trace. Online forecaster updates
  // are on (the default), so this fails unless the Adam moments and step
  // counter survived serialization exactly.
  EXPECT_TRUE(core::EngineResultsIdentical(*memory_run, *file_run));
  EXPECT_GT(memory_run->segments, 0u);
}

TEST(ModelIoTest, RejectsWrongMagic) {
  std::string bytes = Serialized();
  bytes[0] = 'X';
  auto loaded = DeserializeOfflineModel(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, RejectsWrongVersion) {
  std::string bytes = Serialized();
  bytes[8] = static_cast<char>(kModelFormatVersion + 1);  // u32 version LSB
  auto loaded = DeserializeOfflineModel(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(
                "version " + std::to_string(kModelFormatVersion + 1) +
                " (this build reads version " +
                std::to_string(kModelFormatVersion) + ")"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ModelIoTest, RejectsFlippedByteAnywhere) {
  std::string pristine = Serialized();
  // A corrupted byte anywhere in the payload must trip the checksum (or an
  // earlier structural check) — sample positions across the whole file.
  for (size_t pos = 16; pos < pristine.size(); pos += pristine.size() / 37) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5a);
    auto loaded = DeserializeOfflineModel(bytes);
    EXPECT_FALSE(loaded.ok()) << "flip at " << pos << " was not detected";
  }
}

TEST(ModelIoTest, RejectsTruncationAtEveryBoundary) {
  std::string pristine = Serialized();
  // Every strict prefix is invalid (the checksum trailer is missing or the
  // chunk table is cut short). Sample a spread of truncation points plus
  // the pathological tiny ones.
  for (size_t keep : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{15},
                      size_t{16}, size_t{17}, pristine.size() / 3,
                      pristine.size() / 2, pristine.size() - 9,
                      pristine.size() - 1}) {
    std::string bytes = pristine.substr(0, keep);
    auto loaded = DeserializeOfflineModel(bytes);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << keep << " accepted";
  }
}

// --- Crafted-file tests: structurally valid (checksummed) but hostile ------

/// FNV-1a-64, re-implemented so tests can forge files with valid trailers.
uint64_t TestFnv(const std::string& s, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(s[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// Byte offset of the chunk with `tag` (pointing at the tag itself), and its
/// payload size; npos when absent.
size_t FindChunk(const std::string& bytes, const char* tag, uint64_t* size) {
  size_t pos = 16;
  while (pos + 12 <= bytes.size()) {
    uint64_t chunk_size = 0;
    std::memcpy(&chunk_size, bytes.data() + pos + 4, 8);
    if (std::memcmp(bytes.data() + pos, tag, 4) == 0) {
      *size = chunk_size;
      return pos;
    }
    pos += 12 + chunk_size;
  }
  return std::string::npos;
}

/// Replaces the trailing CSUM chunk with one matching the (tampered) body.
std::string WithRebuiltChecksum(std::string bytes) {
  uint64_t csum_size = 0;
  size_t csum_at = FindChunk(bytes, "CSUM", &csum_size);
  EXPECT_NE(csum_at, std::string::npos);
  bytes.resize(csum_at);
  uint64_t checksum = TestFnv(bytes, bytes.size());
  bytes.append("CSUM", 4);
  uint64_t payload_size = 8;
  bytes.append(reinterpret_cast<const char*>(&payload_size), 8);
  bytes.append(reinterpret_cast<const char*>(&checksum), 8);
  return bytes;
}

/// The fitted model in an older layout, checksum included. Version 2 held
/// TSEQ as a u64 count and one byte per segment; version 1 as a u64 count
/// and one u64 id per segment, and its CATG held the k-means assignments
/// (u64 count + u64 ids) between the centers and the inertia.
std::string OlderVersionFile(uint32_t version) {
  const std::string current = Serialized();
  const std::vector<uint8_t> seq =
      oracle::Unpacked(FittedModel().train_category_sequence);
  std::string old;
  wire::BeginContainer({"SKYMODL1", version, "model file"}, &old);
  for (size_t pos = 16; pos + 12 <= current.size();) {
    const std::string tag = current.substr(pos, 4);
    uint64_t size = 0;
    std::memcpy(&size, current.data() + pos + 4, 8);
    std::string payload = current.substr(pos + 12, size);
    pos += 12 + size;
    if (tag == "CSUM") break;
    if (tag == "TSEQ") {
      payload.clear();
      if (version == 1) {
        wire::Writer(&payload).U64Vec(
            std::vector<size_t>(seq.begin(), seq.end()));
      } else {
        wire::Writer(&payload).U64(seq.size());
        payload.append(seq.begin(), seq.end());
      }
    } else if (tag == "CATG" && version == 1) {
      std::string inertia = payload.substr(payload.size() - 8);
      payload.resize(payload.size() - 8);
      wire::Writer(&payload).U64Vec(std::vector<size_t>(300, 1));
      payload += inertia;
    }
    wire::PutChunk(&old, tag.c_str(), payload);
  }
  wire::EndContainer(&old);
  return old;
}

TEST(ModelIoTest, RefusesVersion1And2Files) {
  // No second reader: an older file is refused whole, by a message that
  // names its version and the one this build reads.
  for (uint32_t version : {1u, 2u}) {
    auto loaded = DeserializeOfflineModel(OlderVersionFile(version));
    ASSERT_FALSE(loaded.ok()) << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(
                  "version " + std::to_string(version) +
                  " (this build reads version " +
                  std::to_string(kModelFormatVersion) + ")"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(ModelIoTest, RefusesATrainingSequenceOutsideTheCategories) {
  // The engine bootstraps its category history from TSEQ's tail, so a
  // checksum-valid file naming a category the CATG clustering lacks is
  // refused at load, wherever in the sequence the category sits. Every
  // code from |C| to the largest the width holds is such a category.
  const core::CategorySequence& fitted = FittedModel().train_category_sequence;
  const size_t num_c = FittedModel().categories.NumCategories();
  ASSERT_FALSE(fitted.empty());
  ASSERT_LT(num_c, size_t{1} << fitted.width());
  for (size_t at : {size_t{0}, fitted.size() - 1}) {
    for (size_t category = num_c; category < (size_t{1} << fitted.width());
         ++category) {
      core::OfflineModel model = FittedModel();
      model.train_category_sequence.Set(at, static_cast<uint8_t>(category));
      std::string bytes;
      ASSERT_TRUE(SerializeOfflineModel(model, "", &bytes).ok());
      auto loaded = DeserializeOfflineModel(bytes);
      ASSERT_FALSE(loaded.ok()) << category;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find("training sequence"),
                std::string::npos)
          << loaded.status().ToString();
    }
  }
  // The last category the clustering has is accepted.
  core::OfflineModel model = FittedModel();
  model.train_category_sequence.Set(fitted.size() - 1,
                                    static_cast<uint8_t>(num_c - 1));
  std::string bytes;
  ASSERT_TRUE(SerializeOfflineModel(model, "", &bytes).ok());
  EXPECT_TRUE(DeserializeOfflineModel(bytes).ok());
}

TEST(ModelIoTest, RefusesHostileTrainingSequenceWords) {
  // TSEQ is a u64 code count, a u64 word count and the words. A
  // checksum-valid file whose words do not hold exactly its codes is
  // refused with a status: a bit set past the last code, a word count
  // other than the one the codes take (with the payload framed to match),
  // a code count whose words the payload lacks, and a count no payload
  // holds.
  const size_t num_c = FittedModel().categories.NumCategories();
  core::OfflineModel model = FittedModel();
  // 37 codes of 2 bits: one whole word and five codes of a second.
  std::vector<uint8_t> codes(37);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<uint8_t>(i % num_c);
  }
  model.train_category_sequence = oracle::Packed(num_c, codes);
  ASSERT_EQ(model.train_category_sequence.width(), 2u);
  std::string valid;
  ASSERT_TRUE(SerializeOfflineModel(model, "", &valid).ok());
  ASSERT_TRUE(DeserializeOfflineModel(valid).ok());
  uint64_t tseq_size = 0;
  const size_t tseq_at = FindChunk(valid, "TSEQ", &tseq_size);
  ASSERT_NE(tseq_at, std::string::npos);
  ASSERT_EQ(tseq_size, 8u + 8u + 2 * 8u);
  const size_t codes_at = tseq_at + 12;
  const size_t words_at = codes_at + 8;
  const size_t last_word_at = words_at + 8 + 8;
  auto u64_at = [](const std::string& b, size_t at) {
    uint64_t v = 0;
    std::memcpy(&v, &b[at], 8);
    return v;
  };
  ASSERT_EQ(u64_at(valid, codes_at), 37u);
  ASSERT_EQ(u64_at(valid, words_at), 2u);
  auto set_u64 = [](std::string* b, size_t at, uint64_t v) {
    std::memcpy(&(*b)[at], &v, 8);
  };
  // Grows or shrinks the TSEQ chunk by `delta` payload bytes at `at`.
  auto resize_at = [&](std::string* b, size_t at, int64_t delta) {
    if (delta > 0) {
      b->insert(at, static_cast<size_t>(delta), '\0');
    } else {
      b->erase(at, static_cast<size_t>(-delta));
    }
    set_u64(b, tseq_at + 4, tseq_size + delta);
  };
  struct Craft {
    const char* label;
    std::string bytes;
  };
  std::vector<Craft> crafts;
  auto craft = [&](const char* label, auto edit) {
    std::string b = valid;
    edit(&b);
    crafts.push_back({label, WithRebuiltChecksum(std::move(b))});
  };
  craft("padding bit past the last code", [&](std::string* b) {
    set_u64(b, last_word_at, u64_at(*b, last_word_at) | (uint64_t{1} << 63));
  });
  craft("code 3 of 3 categories", [&](std::string* b) {
    // Code 36 is the fifth of the second word, at bits 8-9.
    set_u64(b, last_word_at, u64_at(*b, last_word_at) | (uint64_t{3} << 8));
  });
  craft("three words for 37 codes", [&](std::string* b) {
    resize_at(b, last_word_at + 8, 8);
    set_u64(b, words_at, 3);
  });
  craft("one word for 37 codes", [&](std::string* b) {
    resize_at(b, last_word_at, -8);
    set_u64(b, words_at, 1);
  });
  craft("65 codes in two words", [&](std::string* b) {
    set_u64(b, codes_at, 65);
  });
  craft("a word count no payload holds", [&](std::string* b) {
    set_u64(b, words_at, uint64_t{1} << 61);
  });
  for (const Craft& c : crafts) {
    auto loaded = DeserializeOfflineModel(c.bytes);
    ASSERT_FALSE(loaded.ok()) << c.label;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << c.label;
  }
}

TEST(ModelIoTest, RefusesChunksOutOfTableOrder) {
  // TSEQ is packed for CATG's category count, so the reader takes the
  // chunks in the order the writer puts them: TSEQ before CATG is refused.
  std::string bytes = Serialized();
  uint64_t catg_size = 0;
  uint64_t tseq_size = 0;
  const size_t catg_at = FindChunk(bytes, "CATG", &catg_size);
  const size_t tseq_at = FindChunk(bytes, "TSEQ", &tseq_size);
  ASSERT_EQ(tseq_at, catg_at + 12 + catg_size);
  const std::string catg = bytes.substr(catg_at, 12 + catg_size);
  const std::string tseq = bytes.substr(tseq_at, 12 + tseq_size);
  bytes.replace(catg_at, catg.size() + tseq.size(), tseq + catg);
  auto loaded = DeserializeOfflineModel(WithRebuiltChecksum(std::move(bytes)));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("TSEQ chunk where CATG belongs"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ModelIoTest, RejectsDuplicateChunkEvenWithValidChecksum) {
  std::string bytes = Serialized();
  uint64_t rtim_size = 0;
  size_t rtim_at = FindChunk(bytes, "RTIM", &rtim_size);
  ASSERT_NE(rtim_at, std::string::npos);
  std::string rtim_chunk = bytes.substr(rtim_at, 12 + rtim_size);
  bytes.insert(rtim_at, rtim_chunk);
  bytes = WithRebuiltChecksum(std::move(bytes));
  auto loaded = DeserializeOfflineModel(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("duplicate"), std::string::npos);
}

TEST(ModelIoTest, RejectsNonBooleanFlagEvenWithValidChecksum) {
  // keep_best_validation_weights sits 85 bytes into the FCST payload: the
  // presence flag, five 8-byte forecaster options, epochs, batch size,
  // learning rate, validation split, the u32 loss id and the shuffle seed.
  std::string bytes = Serialized();
  uint64_t fcst_size = 0;
  size_t fcst_at = FindChunk(bytes, "FCST", &fcst_size);
  ASSERT_NE(fcst_at, std::string::npos);
  const size_t flag_at = fcst_at + 12 + 85;
  ASSERT_EQ(bytes[flag_at], FittedModel()
                                .forecaster->options()
                                .train_options.keep_best_validation_weights
                                ? 1
                                : 0);
  bytes[flag_at] = 2;
  auto loaded = DeserializeOfflineModel(WithRebuiltChecksum(std::move(bytes)));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, RejectsImpossibleCountsWithoutAllocating) {
  // A crafted-but-checksummed CATG chunk declaring absurd matrix shapes
  // must fail cleanly — not attempt the 2^63-row allocation. The CATG
  // payload starts with u32 backend, u64 rows, u64 cols.
  for (auto [rows, cols] :
       {std::pair<uint64_t, uint64_t>{1ull << 63, 4},
        {1ull << 62, 0},                  // zero-width rows, huge count
        {1, (1ull << 61) + 1}}) {         // cols * 8 wraps around
    std::string bytes = Serialized();
    uint64_t catg_size = 0;
    size_t catg_at = FindChunk(bytes, "CATG", &catg_size);
    ASSERT_NE(catg_at, std::string::npos);
    std::memcpy(&bytes[catg_at + 12 + 4], &rows, 8);
    std::memcpy(&bytes[catg_at + 12 + 4 + 8], &cols, 8);
    bytes = WithRebuiltChecksum(std::move(bytes));
    auto loaded = DeserializeOfflineModel(bytes);
    EXPECT_FALSE(loaded.ok()) << "rows=" << rows << " cols=" << cols;
  }
}

TEST(ModelIoTest, RejectsMoreThanMaxCategories) {
  // The widest category code is 8 bits, so a CATG chunk may hold at most
  // kMaxCategories clusters; the writer does not check, the reader does.
  // The training sequence is packed for the clustering it goes with.
  for (size_t clusters : {core::kMaxCategories, core::kMaxCategories + 1}) {
    core::OfflineModel model = FittedModel();
    ml::KMeansModel km = model.categories.kmeans_model();
    km.centers.resize(clusters, km.centers[0]);
    model.categories = core::ContentCategories::FromKMeans(std::move(km));
    model.train_category_sequence = oracle::Packed(
        clusters, oracle::Unpacked(model.train_category_sequence));
    std::string bytes;
    ASSERT_TRUE(SerializeOfflineModel(model, "", &bytes).ok());
    auto loaded = DeserializeOfflineModel(bytes);
    if (clusters <= core::kMaxCategories) {
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded->categories.NumCategories(), clusters);
    } else {
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ModelIoTest, RejectsChunksThatDisagreeOnTheConfigurationCount) {
  // The engine indexes configurations, their profiles and the category
  // centers' coordinates by one index, so KNBC, PROF and CATG must agree.
  core::OfflineModel one_more = FittedModel();  // past the centers' width
  one_more.configs.push_back(one_more.configs.back());
  one_more.profiles.push_back(one_more.profiles.back());
  core::OfflineModel one_fewer = FittedModel();  // fewer configs than profiles
  one_fewer.configs.pop_back();
  for (const core::OfflineModel* model : {&one_more, &one_fewer}) {
    std::string bytes;
    ASSERT_TRUE(SerializeOfflineModel(*model, "", &bytes).ok());
    auto loaded = DeserializeOfflineModel(bytes);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << model->configs.size() << " configs, " << model->profiles.size()
        << " profiles";
  }
}

TEST(ModelIoTest, RejectsGmmVariancesNarrowerThanTheMeans) {
  // The switcher classifies on one coordinate of a component's means and
  // variances, so the two must be equally wide.
  const ml::KMeansModel& km = FittedModel().categories.kmeans_model();
  for (size_t drop : {size_t{0}, size_t{1}}) {
    ml::GmmModel gm;
    gm.means = km.centers;
    gm.variances.assign(km.centers.size(),
                        std::vector<double>(km.centers[0].size() - drop, 0.01));
    gm.weights.assign(km.centers.size(),
                      1.0 / static_cast<double>(km.centers.size()));
    core::OfflineModel model = FittedModel();
    model.categories = core::ContentCategories::FromGmm(std::move(gm));
    std::string bytes;
    ASSERT_TRUE(SerializeOfflineModel(model, "", &bytes).ok());
    auto loaded = DeserializeOfflineModel(bytes);
    if (drop == 0) {
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    } else {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ModelIoTest, LoadMissingFileIsNotFound) {
  auto loaded = LoadOfflineModel("/nonexistent/sky_model.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ModelIoTest, ReadFileBytesRoundTripsEveryByteValue) {
  // More than 1 MiB, every byte value, NULs and 0xff included.
  std::string bytes((1 << 20) + 4099, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 7 + i / 256) & 0xff);
  }
  std::string path = ::testing::TempDir() + "/sky_read_file_bytes_test.bin";
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  auto read = ReadFileBytes(path, "test file");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(*read == bytes);
  ASSERT_TRUE(AtomicWriteFile(path, "").ok());
  read = ReadFileBytes(path, "test file");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->empty());
  std::remove(path.c_str());

  auto missing = ReadFileBytes(path, "test file");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("test file"), std::string::npos);
}

TEST(ModelIoTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/sky_model_io_test.bin";
  Status saved = SaveOfflineModel(FittedModel(), path, "EV-COUNT");
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  std::string annotation;
  auto loaded = LoadOfflineModel(path, &annotation);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(annotation, "EV-COUNT");
  EXPECT_TRUE(core::OfflineModelsIdentical(FittedModel(), *loaded));
  std::remove(path.c_str());
}

TEST(ModelIoTest, InjectedWriteFailureLeavesExistingFileIntact) {
  std::string path = ::testing::TempDir() + "/sky_model_atomic_test.bin";
  ASSERT_TRUE(SaveOfflineModel(FittedModel(), path, "EV-COUNT").ok());
  std::string before = ReadWholeFile(path);
  ASSERT_FALSE(before.empty());

  // Fail the write after the temp file is populated but before the rename:
  // the publish step must never replace the old file with a partial one.
  SetAtomicWriteFaultHookForTest(
      [](const std::string&) { return Status::Internal("injected disk full"); });
  Status saved = SaveOfflineModel(FittedModel(), path, "OTHER-ANNOTATION");
  SetAtomicWriteFaultHookForTest(nullptr);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kInternal);

  // Original bytes untouched, temp file cleaned up, model still loads.
  EXPECT_EQ(ReadWholeFile(path), before);
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::string annotation;
  auto loaded = LoadOfflineModel(path, &annotation);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(annotation, "EV-COUNT");

  // With the hook cleared the same save goes through.
  ASSERT_TRUE(SaveOfflineModel(FittedModel(), path, "OTHER-ANNOTATION").ok());
  annotation.clear();
  ASSERT_TRUE(LoadOfflineModel(path, &annotation).ok());
  EXPECT_EQ(annotation, "OTHER-ANNOTATION");
  std::remove(path.c_str());
}

// --- Facade paths ----------------------------------------------------------

TEST(ModelIoFacadeTest, SaveModelWithoutModelIsFailedPrecondition) {
  workloads::EvCountingWorkload job;
  api::Skyscraper sky(&job);
  Status st = sky.SaveModel(::testing::TempDir() + "/never_written.bin");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ModelIoFacadeTest, LoadModelSubstitutesForFit) {
  std::string path = ::testing::TempDir() + "/sky_facade_test.bin";
  workloads::EvCountingWorkload job;
  api::Resources res;
  res.cores = 4;

  // Process 1: fit and persist.
  api::Skyscraper trainer(&job);
  trainer.SetResources(res);
  ASSERT_TRUE(trainer.Fit(FastOffline()).ok());
  ASSERT_TRUE(trainer.SaveModel(path, job.name()).ok());
  core::EngineOptions run;
  run.duration = Hours(12);
  auto fit_run = trainer.Ingest(Days(4), run);
  ASSERT_TRUE(fit_run.ok()) << fit_run.status().ToString();

  // Process 2: load instead of Fit — LoadModel before any RunOfflinePhase.
  api::Skyscraper server(&job);
  server.SetResources(res);
  EXPECT_FALSE(server.fitted());
  ASSERT_TRUE(server.LoadModel(path, job.name()).ok());
  EXPECT_TRUE(server.fitted());
  ASSERT_TRUE(server.model().ok());

  auto load_run = server.Ingest(Days(4), run);
  ASSERT_TRUE(load_run.ok()) << load_run.status().ToString();
  EXPECT_TRUE(core::EngineResultsIdentical(*fit_run, *load_run));
  std::remove(path.c_str());
}

TEST(ModelIoFacadeTest, FailedLoadKeepsPreviousModel) {
  std::string path = ::testing::TempDir() + "/sky_corrupt_test.bin";
  workloads::EvCountingWorkload job;
  api::Skyscraper sky(&job);
  api::Resources res;
  res.cores = 4;
  sky.SetResources(res);
  ASSERT_TRUE(sky.Fit(FastOffline()).ok());

  // Write a corrupted file and try to load it: the error must not disturb
  // the in-memory model (no partial state).
  ASSERT_TRUE(sky.SaveModel(path).ok());
  {
    std::string bytes = Serialized();
    bytes[bytes.size() / 2] ^= 0x11;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  Status st = sky.LoadModel(path);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(sky.fitted());
  EXPECT_TRUE(sky.model().ok());

  // Annotation mismatch is likewise refused without clobbering the model —
  // and distinguishable from corruption: the file parsed, it is just a model
  // for a different job (kFailedPrecondition, not kInvalidArgument).
  ASSERT_TRUE(sky.SaveModel(path, "EV-COUNT").ok());
  Status mismatch = sky.LoadModel(path, "COVID");
  EXPECT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(sky.fitted());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sky::io
