// The checksummed chunk container under model files, fleet checkpoints and
// serve checkpoints (src/io/wire): the same hostile inputs must be refused
// with kInvalidArgument by all three; fixed fleet and serve checkpoints, a
// fixed model's clustering and training-sequence chunks and a fixed
// forecaster payload serialize to checked-in bytes; its trainer slot reads
// 0 or 1 and writes 0; and a model whose forecaster names a loss other than
// cross-entropy or an output other than softmax is refused.

#include "io/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/forecaster.h"
#include "core/offline.h"
#include "io/checkpoint_io.h"
#include "io/model_io.h"
#include "serve/registry.h"
#include "workloads/ev_counting.h"

namespace sky::io {
namespace {

constexpr size_t kHeaderBytes = 16;
constexpr size_t kChunkHeadBytes = 12;
constexpr size_t kTrailerBytes = kChunkHeadBytes + 8;

FleetCheckpoint FixedFleet() {
  FleetCheckpoint ckpt;
  ckpt.streams.resize(2);
  ckpt.streams[0].has_state = true;
  ckpt.streams[0].state = "engine-state";
  ckpt.streams[1].status = Status::Internal("quarantined");
  return ckpt;
}

serve::ServeCheckpoint FixedServe() {
  serve::ServeCheckpoint ckpt;
  ckpt.next_session_id = 3;
  ckpt.sessions_accepted = 2;
  ckpt.sessions_rejected = 1;
  ckpt.shared_budget_core_s_per_video_s = 2.5;
  ckpt.sessions.resize(2);
  ckpt.sessions[0].id = 1;
  ckpt.sessions[0].spec.content_seed = 11;
  ckpt.sessions[1].id = 2;
  ckpt.sessions[1].state = serve::SessionState::kFailed;
  ckpt.sessions[1].stream_index = 1;
  ckpt.sessions[1].error = Status::Internal("quarantined");
  ckpt.fleet_bytes = "fleet";
  return ckpt;
}

struct Format {
  const char* what;   ///< the format's name in its errors
  std::string bytes;  ///< a valid file
  Status (*parse)(const std::string& bytes);
};

std::vector<Format> Formats() {
  std::string model, fleet, serve;
  EXPECT_TRUE(SerializeOfflineModel(core::OfflineModel(), "", &model).ok());
  EXPECT_TRUE(SerializeFleetCheckpoint(FixedFleet(), &fleet).ok());
  EXPECT_TRUE(serve::SerializeServeCheckpoint(FixedServe(), &serve).ok());
  return {
      {"model file", model,
       [](const std::string& b) { return DeserializeOfflineModel(b).status(); }},
      {"checkpoint file", fleet,
       [](const std::string& b) { return ParseFleetCheckpoint(b).status(); }},
      {"serve checkpoint", serve,
       [](const std::string& b) {
         return serve::ParseServeCheckpoint(b).status();
       }},
  };
}

std::string Body(const std::string& file) {
  return file.substr(0, file.size() - kTrailerBytes);
}

/// `body` followed by a CSUM trailer that matches it.
std::string WithChecksum(std::string body) {
  const uint64_t size = 8;
  const uint64_t sum = wire::Fnv1a64(body.data(), body.size());
  body.append("CSUM", 4);
  body.append(reinterpret_cast<const char*>(&size), sizeof(size));
  body.append(reinterpret_cast<const char*>(&sum), sizeof(sum));
  return body;
}

template <typename T>
std::string Patched(std::string file, size_t at, T value) {
  std::memcpy(&file[at], &value, sizeof(value));
  return file;
}

struct Mutation {
  const char* name;
  bool by_container;  ///< refused before any chunk reaches the format
  std::string (*apply)(const std::string& file);
};

const Mutation kMutations[] = {
    {"bad magic", true,
     [](const std::string& f) { return Patched(f, 0, 'X'); }},
    {"another version", true,
     [](const std::string& f) { return Patched(f, 8, uint32_t{99}); }},
    {"wrong endian marker", true,
     [](const std::string& f) { return Patched(f, 12, 0x04030201u); }},
    {"missing CSUM", true, [](const std::string& f) { return Body(f); }},
    {"bytes after CSUM", true,
     [](const std::string& f) { return f + std::string(1, '\0'); }},
    {"chunk size past EOF", true,
     [](const std::string& f) {
       return Patched(f, kHeaderBytes + 4, uint64_t{f.size()});
     }},
    {"unknown tag, valid checksum", false,
     [](const std::string& f) {
       std::string body = Body(f);
       body.insert(kHeaderBytes, "ZZZZ" + std::string(8, '\0'));
       return WithChecksum(body);
     }},
    {"duplicate META, valid checksum", false,
     [](const std::string& f) {
       std::string body = Body(f);
       uint64_t size = 0;
       std::memcpy(&size, &body[kHeaderBytes + 4], sizeof(size));
       body.insert(kHeaderBytes,
                   body.substr(kHeaderBytes, kChunkHeadBytes + size));
       return WithChecksum(body);
     }},
};

TEST(WireContainerTest, EveryFormatRefusesTheSameHostileInputs) {
  for (const Format& format : Formats()) {
    ASSERT_EQ(format.bytes.compare(kHeaderBytes, 4, "META"), 0) << format.what;
    ASSERT_TRUE(format.parse(format.bytes).ok()) << format.what;
    ASSERT_TRUE(format.parse(WithChecksum(Body(format.bytes))).ok())
        << format.what;
    for (const Mutation& m : kMutations) {
      Status st = format.parse(m.apply(format.bytes));
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << format.what << ", " << m.name << ": " << st.ToString();
      if (m.by_container) {
        EXPECT_NE(st.message().find(format.what), std::string::npos)
            << format.what << ", " << m.name << ": " << st.ToString();
      }
    }
  }
}

std::string Hex(const std::string& bytes) {
  std::string hex;
  char byte[3];
  for (unsigned char b : bytes) {
    std::snprintf(byte, sizeof(byte), "%02x", b);
    hex += byte;
  }
  return hex;
}

// Any change to these bytes is a layout change: it must bump the format's
// version (docs/model_format.md, "Versioning policy").
TEST(WireContainerTest, FleetCheckpointLayoutIsPinned) {
  std::string bytes;
  ASSERT_TRUE(SerializeFleetCheckpoint(FixedFleet(), &bytes).ok());
  EXPECT_EQ(Hex(bytes),
            "534b59434b50543105000000040302014d455441080000000000000002000000"
            "000000005354524d290000000000000000000000000000000000000000000000"
            "00000000010c00000000000000656e67696e652d73746174655354524d280000"
            "00000000000100000000000000070000000b0000000000000071756172616e74"
            "696e65640000000000000000004353554d08000000000000002ed3ece54e794c"
            "e0");
}

TEST(WireContainerTest, ServeCheckpointLayoutIsPinned) {
  std::string bytes;
  ASSERT_TRUE(serve::SerializeServeCheckpoint(FixedServe(), &bytes).ok());
  EXPECT_EQ(Hex(bytes),
            "534b59534552563102000000040302014d455441280000000000000003000000"
            "0000000002000000000000000100000000000000000000000000044002000000"
            "00000000534553536b0000000000000001000000000000000000000000000000"
            "0002000000000000006576010b00000000000000000000000000f0bf00000000"
            "0000f03f000000000000f0bf4700000000000000000000000000c07240000000"
            "0000000000000000000000000000000000000000000000000000005345535376"
            "0000000000000002000000000000000201000000000000000200000000000000"
            "6576000000000000000000000000000000f0bf000000000000f03f0000000000"
            "00f0bf4700000000000000000000000000c07240000000000000000000000000"
            "0000000000070000000b0000000000000071756172616e74696e656400464c45"
            "450500000000000000666c6565744353554d08000000000000004afaaf69f254"
            "6409");
}

/// A one-configuration model with two k-means categories and a five-segment
/// training sequence, built by hand.
core::OfflineModel FixedModel() {
  core::OfflineModel model;
  model.configs = {{0}};
  model.profiles.resize(1);
  model.profiles[0].config = {0};
  model.profiles[0].work_core_s_per_video_s = 1.0;
  ml::KMeansModel km;
  km.centers = {{0.25}, {0.75}};
  km.inertia = 0.5;
  model.categories = core::ContentCategories::FromKMeans(std::move(km));
  model.train_category_sequence = {0, 1, 1, 0, 1};
  return model;
}

/// The chunk tagged `tag` in a container, header included.
std::string ChunkBytes(const std::string& file, const char* tag) {
  for (size_t pos = kHeaderBytes; pos + kChunkHeadBytes <= file.size();) {
    uint64_t size = 0;
    std::memcpy(&size, &file[pos + 4], sizeof(size));
    if (file.compare(pos, 4, tag) == 0) {
      return file.substr(pos, kChunkHeadBytes + size);
    }
    pos += kChunkHeadBytes + size;
  }
  return "";
}

// Model format v2: CATG holds the k-means centers and inertia, without the
// fit's assignments, and TSEQ a u64 count and one byte per segment.
TEST(WireContainerTest, ModelClusteringAndTrainingSequenceLayoutIsPinned) {
  std::string bytes;
  ASSERT_TRUE(SerializeOfflineModel(FixedModel(), "", &bytes).ok());
  // Tag, u64 payload size, then the payload's fields one per line.
  EXPECT_EQ(Hex(ChunkBytes(bytes, "CATG")),
            "43415447" "2c00000000000000"
            "00000000"                           // backend: k-means
            "0200000000000000" "0100000000000000"  // 2 centers x 1 config
            "000000000000d03f" "000000000000e83f"  // 0.25, 0.75
            "000000000000e03f");                 // inertia 0.5
  EXPECT_EQ(Hex(ChunkBytes(bytes, "TSEQ")),
            "54534551" "0d00000000000000"
            "0500000000000000"  // 5 segments
            "0001010001");
  // The file parses back to a model that writes the same bytes.
  auto parsed = DeserializeOfflineModel(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->train_category_sequence,
            FixedModel().train_category_sequence);
  std::string again;
  ASSERT_TRUE(SerializeOfflineModel(*parsed, "", &again).ok());
  EXPECT_EQ(again, bytes);
}

/// A forecaster built from hand-set parts, with no RNG and no training: two
/// categories, one split, one hidden ReLU unit.
core::Forecaster FixedForecaster() {
  core::ForecasterOptions options;
  options.input_span = 3600.0;
  options.input_splits = 1;
  options.planned_interval = 1800.0;
  options.training_stride = 900.0;
  options.seed = 5;
  options.train_options.epochs = 2;
  options.train_options.batch_size = 4;
  ml::NetSnapshot net;
  net.input_dim = 2;
  net.hidden = {1};
  net.output_dim = 2;
  net.adam_steps = 3;
  // Per layer: weights row-major, then biases.
  net.params = {0.5, -0.25, 0.125, 1.0, -1.0, 0.0, 0.5};
  net.adam_m = {0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07};
  net.adam_v = {1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4, 7e-4};
  ml::TrainReport report;
  report.train_loss_per_epoch = {0.75, 0.5};
  report.val_loss_per_epoch = {0.875, 0.625};
  report.best_val_loss = 0.625;
  report.best_epoch = 1;
  auto forecaster =
      core::Forecaster::FromParts(net, options, 2, std::move(report));
  EXPECT_TRUE(forecaster.ok()) << forecaster.status().ToString();
  return std::move(forecaster).value();
}

// Model files and fleet checkpoints both carry this payload.
TEST(WireContainerTest, ForecasterPayloadLayoutIsPinned) {
  std::string bytes;
  wire::AppendForecaster(FixedForecaster(), &bytes);
  EXPECT_EQ(Hex(bytes),
            "01000000000020ac4001000000000000000000000000209c400000000000208c"
            "400500000000000000020000000000000004000000000000007b14ae47e17a84"
            "3f9a9999999999c93f0100000007000000000000000100000000080000000000"
            "000002000000000000000200000000000000000000000000e83f000000000000"
            "e03f0200000000000000000000000000ec3f000000000000e43f000000000000"
            "e43f010000000000000002000000000000000100000000000000010000000000"
            "0000020000000000000002000000030000000000000007000000000000000000"
            "00000000e03f000000000000d0bf000000000000c03f000000000000f03f0000"
            "00000000f0bf0000000000000000000000000000e03f07000000000000007b14"
            "ae47e17a843f7b14ae47e17a943fb81e85eb51b89e3f7b14ae47e17aa43f9a99"
            "99999999a93fb81e85eb51b8ae3fec51b81e85ebb13f07000000000000002d43"
            "1cebe2361a3f2d431cebe2362a3f613255302aa9333f2d431cebe2363a3ffca9"
            "f1d24d62403f613255302aa9433fc7bab88d06f0463f");
  // The payload parses back to a forecaster that writes the same bytes.
  wire::Cursor c(bytes.data(), bytes.size());
  std::optional<core::Forecaster> parsed;
  ASSERT_TRUE(wire::ParseForecaster(&c, &parsed).ok());
  std::string again;
  wire::AppendForecaster(parsed, &again);
  EXPECT_EQ(again, bytes);
}

TEST(WireContainerTest, ForecasterTrainerSlotReadsEitherOldIdAndWritesZero) {
  std::string bytes;
  wire::AppendForecaster(FixedForecaster(), &bytes);
  // The u32 trainer slot follows a presence byte, five fields and four
  // training options of 8 bytes each, the u32 loss id, the u64 shuffle seed
  // and the keep-best flag.
  const size_t trainer_at = 1 + 9 * 8 + 4 + 8 + 1;
  uint32_t id = 1;
  std::memcpy(&id, &bytes[trainer_at], sizeof(id));
  ASSERT_EQ(id, 0u) << "batched";

  // A payload written when libsky still had the per-sample trainer (id 1)
  // parses, and writes back with the id libsky writes now.
  std::string per_sample = Patched(bytes, trainer_at, uint32_t{1});
  wire::Cursor c(per_sample.data(), per_sample.size());
  std::optional<core::Forecaster> parsed;
  ASSERT_TRUE(wire::ParseForecaster(&c, &parsed).ok());
  std::string again;
  wire::AppendForecaster(parsed, &again);
  EXPECT_EQ(again, bytes);

  std::string unknown = Patched(bytes, trainer_at, uint32_t{2});
  wire::Cursor u(unknown.data(), unknown.size());
  Status refused = wire::ParseForecaster(&u, &parsed);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("trainer id"), std::string::npos)
      << refused.ToString();
}

TEST(WireContainerTest, ModelWithAnotherLossOrActivationIdIsRefused) {
  workloads::EvCountingWorkload job;
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  core::OfflineOptions options;
  options.segment_seconds = 4.0;
  options.train_horizon = Days(4);
  options.num_categories = 3;
  options.forecaster.input_span = Days(1);
  options.forecaster.planned_interval = Days(1);
  auto model =
      core::RunOfflinePhase(job, cluster, sim::CostModel(1.8), options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->forecaster.has_value());
  std::string file;
  ASSERT_TRUE(SerializeOfflineModel(*model, "ev", &file).ok());
  auto chunks = wire::ReadContainer(
      file, {"SKYMODL1", kModelFormatVersion, "model file"});
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  size_t fcst = 0;
  for (const wire::Chunk& chunk : *chunks) {
    if (chunk.Is("FCST")) fcst = chunk.tag - file.data() + kChunkHeadBytes;
  }
  ASSERT_GT(fcst, 0u);

  // FCST payload offsets: a presence byte, five fields and four training
  // options of 8 bytes each, then the u32 loss id. The activation id
  // follows the rest of the options (21 bytes), the category count, both
  // loss curves, the best loss and epoch, the input width, the hidden
  // widths and the output width.
  const ml::TrainReport& report = model->forecaster->train_report();
  const ml::NetSnapshot net = model->forecaster->SnapshotNet();
  const size_t loss_at = fcst + 1 + 9 * 8;
  const size_t activation_at =
      loss_at + 4 + 21 + 8 +
      8 * (1 + report.train_loss_per_epoch.size()) +
      8 * (1 + report.val_loss_per_epoch.size()) + 8 + 8 +
      8 + 8 * (1 + net.hidden.size()) + 8;
  uint32_t id = 0;
  std::memcpy(&id, &file[loss_at], sizeof(id));
  ASSERT_EQ(id, 1u) << "cross-entropy";
  std::memcpy(&id, &file[activation_at], sizeof(id));
  ASSERT_EQ(id, 2u) << "softmax";

  struct Case {
    const char* what;
    size_t at;
    uint32_t id;
    const char* message;
  };
  for (const Case& c : {Case{"loss 0 (MSE)", loss_at, 0, "loss id"},
                        Case{"activation 0 (identity)", activation_at, 0,
                             "activation id"},
                        Case{"activation 1 (ReLU)", activation_at, 1,
                             "activation id"}}) {
    std::string resealed = WithChecksum(Body(Patched(file, c.at, c.id)));
    auto loaded = DeserializeOfflineModel(resealed);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_NE(loaded.status().message().find(c.message), std::string::npos)
        << c.what << ": " << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace sky::io
