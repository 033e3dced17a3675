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
#include "support/oracles.h"
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
            "534b59434b50543106000000040302014d455441080000000000000002000000"
            "000000005354524d290000000000000000000000000000000000000000000000"
            "00000000010c00000000000000656e67696e652d73746174655354524d280000"
            "00000000000100000000000000070000000b0000000000000071756172616e74"
            "696e65640000000000000000004353554d0800000000000000c310c9839e14e6"
            "4d");
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

/// FixedServe() with a third session that finished: its result carries
/// every counter and a two-point trace.
serve::ServeCheckpoint FixedServeWithResult() {
  serve::ServeCheckpoint ckpt = FixedServe();
  ckpt.next_session_id = 4;
  ckpt.sessions_accepted = 3;
  serve::SessionRecord done;
  done.id = 3;
  done.state = serve::SessionState::kDone;
  done.stream_index = 2;
  done.spec.workload = "covid";
  done.spec.record_trace = true;
  done.spec.cloud_budget_usd_per_interval = 0.5;
  core::EngineResult& r = done.result;
  r.total_quality = 1.75;
  r.mean_quality = 0.875;
  r.segments = 2;
  r.work_core_seconds = 6.5;
  r.onprem_core_seconds = 4.25;
  r.cloud_usd = 0.125;
  r.buffer_high_water_bytes = 4096;
  r.overflow_events = 1;
  r.switch_count = 2;
  r.degraded_count = 3;
  r.misclassified = 4;
  r.type_a_errors = 5;
  r.type_b_errors = 6;
  r.cloud_failures = 7;
  r.cloud_retries = 8;
  r.cloud_giveups = 9;
  r.fault_backoff_s = 2.5;
  r.outage_segments = 10;
  r.outage_intervals = 11;
  r.udf_stall_segments = 12;
  r.trace.resize(2);
  r.trace[0] = {0.0, 0.5, 1.5, 256.0, 0.0625, 0.03125, 1, 0};
  r.trace[1] = {4.0, 1.25, 2.0, 512.0, 0.125, 0.0625, 0, 1};
  ckpt.sessions.push_back(std::move(done));
  return ckpt;
}

// A finished session's SESS chunk ends with its EngineResult.
TEST(WireContainerTest, ServeCheckpointWithAFinishedSessionLayoutIsPinned) {
  std::string bytes;
  ASSERT_TRUE(
      serve::SerializeServeCheckpoint(FixedServeWithResult(), &bytes).ok());
  EXPECT_EQ(Hex(bytes),
            // header
            "534b5953455256310200000004030201"
            // META
            "4d45544128000000000000000400000000000000030000000000000001000000"
            "0000000000000000000004400300000000000000"
            // SESS
            "534553536b000000000000000100000000000000000000000000000000020000"
            "00000000006576010b00000000000000000000000000f0bf000000000000f03f"
            "000000000000f0bf4700000000000000000000000000c0724000000000000000"
            "0000000000000000000000000000000000000000000000"
            // SESS
            "5345535376000000000000000200000000000000020100000000000000020000"
            "00000000006576000000000000000000000000000000f0bf000000000000f03f"
            "000000000000f0bf4700000000000000000000000000c0724000000000000000"
            "00000000000000000000070000000b0000000000000071756172616e74696e65"
            "6400"
            // SESS
            "5345535396010000000000000300000000000000010200000000000000050000"
            "0000000000636f766964000000000000000000000000000000f0bf0000000000"
            "00f03f000000000000f0bf4700000000000000010000000000c0724001000000"
            "000000e03f000000000000000000000000000000000000000001000000000000"
            "fc3f000000000000ec3f02000000000000000000000000001a40000000000000"
            "1140000000000000c03f00100000000000000100000000000000020000000000"
            "0000030000000000000004000000000000000500000000000000060000000000"
            "0000070000000000000008000000000000000900000000000000000000000000"
            "04400a000000000000000b000000000000000c00000000000000020000000000"
            "00000000000000000000000000000000e03f000000000000f83f000000000000"
            "7040000000000000b03f000000000000a03f0100000000000000000000000000"
            "00000000000000001040000000000000f43f0000000000000040000000000000"
            "8040000000000000c03f000000000000b03f0000000000000000010000000000"
            "0000"
            // FLEE
            "464c45450500000000000000666c656574"
            // CSUM
            "4353554d080000000000000065a6678027e161b0");
  auto parsed = serve::ParseServeCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->sessions.size(), 3u);
  EXPECT_TRUE(core::EngineResultsIdentical(
      parsed->sessions[2].result, FixedServeWithResult().sessions[2].result));
  std::string again;
  ASSERT_TRUE(serve::SerializeServeCheckpoint(*parsed, &again).ok());
  EXPECT_EQ(again, bytes);
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
  model.train_category_sequence = oracle::Packed(2, {0, 1, 1, 0, 1});
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

// Model format v3: CATG holds the k-means centers and inertia, without the
// fit's assignments, and TSEQ the u64 code count and the words the codes
// are packed in, count-prefixed: five 1-bit codes of two categories in one
// word.
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
            "54534551" "1800000000000000"
            "0500000000000000"   // 5 codes
            "0100000000000000"   // 1 word
            "1600000000000000");  // codes 0, 1, 1, 0, 1 from bit 0 up
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

/// The forecaster payload alone, as TransferForecaster writes it into a
/// model's FCST chunk or an engine state.
std::string ForecasterPayload(
    const std::optional<core::Forecaster>& forecaster) {
  std::string bytes;
  wire::Writer w(&bytes);
  wire::TransferForecaster(w, forecaster);
  return bytes;
}

/// Reads a payload ForecasterPayload wrote.
Status ParseForecasterPayload(const std::string& bytes,
                              std::optional<core::Forecaster>* out) {
  wire::Cursor c(bytes.data(), bytes.size());
  wire::TransferForecaster(c, *out);
  return c.status();
}

// Model files and fleet checkpoints both carry this payload.
TEST(WireContainerTest, ForecasterPayloadLayoutIsPinned) {
  const std::string bytes = ForecasterPayload(FixedForecaster());
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
  std::optional<core::Forecaster> parsed;
  ASSERT_TRUE(ParseForecasterPayload(bytes, &parsed).ok());
  EXPECT_EQ(ForecasterPayload(parsed), bytes);
}

/// A two-configuration model built by hand: one profile with one mixed
/// on-prem/cloud placement, one with an all-on-prem and an all-cloud
/// placement, two k-means categories, a four-segment training sequence,
/// FixedForecaster() and set step runtimes.
core::OfflineModel FixedModelWithForecaster() {
  core::OfflineModel model;
  model.segment_seconds = 4.0;
  model.train_horizon = 8.0;
  model.configs = {{0, 1}, {1, 0}};
  model.profiles.resize(2);
  core::ConfigProfile& p0 = model.profiles[0];
  p0.config = {0, 1};
  p0.work_core_s_per_video_s = 1.5;
  p0.placements.resize(1);
  p0.placements[0].placement.node_loc = {dag::Loc::kOnPrem, dag::Loc::kCloud};
  p0.placements[0].runtime_s = 0.5;
  p0.placements[0].cloud_usd = 0.25;
  p0.placements[0].onprem_core_s = 1.0;
  p0.placements[0].uplink_bytes = 2048.0;
  core::ConfigProfile& p1 = model.profiles[1];
  p1.config = {1, 0};
  p1.config_id = 1;
  p1.work_core_s_per_video_s = 0.75;
  p1.placements.resize(2);
  p1.placements[0].placement.node_loc = {dag::Loc::kOnPrem, dag::Loc::kOnPrem};
  p1.placements[0].runtime_s = 2.0;
  p1.placements[0].onprem_core_s = 3.0;
  p1.placements[1].placement.node_loc = {dag::Loc::kCloud, dag::Loc::kCloud};
  p1.placements[1].runtime_s = 1.0;
  p1.placements[1].cloud_usd = 0.125;
  p1.placements[1].uplink_bytes = 4096.0;
  ml::KMeansModel km;
  km.centers = {{0.25, 0.5}, {0.75, 1.0}};
  km.inertia = 0.5;
  model.categories = core::ContentCategories::FromKMeans(std::move(km));
  model.train_category_sequence = oracle::Packed(2, {1, 0, 0, 1});
  model.forecaster = FixedForecaster();
  model.step_runtimes.filter_configs_s = 0.5;
  model.step_runtimes.filter_placements_s = 1.25;
  model.step_runtimes.content_categories_s = 2.0;
  model.step_runtimes.forecast_training_data_s = 3.5;
  model.step_runtimes.forecast_training_s = 4.75;
  return model;
}

// Every chunk of a model file, in file order.
TEST(WireContainerTest, WholeModelFileLayoutIsPinned) {
  std::string bytes;
  ASSERT_TRUE(
      SerializeOfflineModel(FixedModelWithForecaster(), "ev", &bytes).ok());
  EXPECT_EQ(Hex(bytes),
            // header
            "534b594d4f444c310300000004030201"
            // META
            "4d455441100000000000000000000000000010400000000000002040"
            // ANNO
            "414e4e4f0a0000000000000002000000000000006576"
            // KNBC
            "4b4e424338000000000000000200000000000000020000000000000000000000"
            "0000000001000000000000000200000000000000010000000000000000000000"
            "00000000"
            // PROF
            "50524f46e6000000000000000200000000000000020000000000000000000000"
            "0000000001000000000000000000000000000000000000000000f83f01000000"
            "0000000002000000000000000001000000000000e03f000000000000d03f0000"
            "00000000f03f000000000000a040020000000000000001000000000000000000"
            "0000000000000100000000000000000000000000e83f02000000000000000200"
            "0000000000000000000000000000004000000000000000000000000000000840"
            "000000000000000002000000000000000101000000000000f03f000000000000"
            "c03f0000000000000000000000000000b040"
            // CATG
            "434154473c000000000000000000000002000000000000000200000000000000"
            "000000000000d03f000000000000e03f000000000000e83f000000000000f03f"
            "000000000000e03f"
            // TSEQ
            "54534551180000000000000004000000000000000100000000000000"
            "0900000000000000"
            // FCST
            "46435354960100000000000001000000000020ac400100000000000000000000"
            "0000209c400000000000208c4005000000000000000200000000000000040000"
            "00000000007b14ae47e17a843f9a9999999999c93f0100000007000000000000"
            "0001000000000800000000000000020000000000000002000000000000000000"
            "00000000e83f000000000000e03f0200000000000000000000000000ec3f0000"
            "00000000e43f000000000000e43f010000000000000002000000000000000100"
            "0000000000000100000000000000020000000000000002000000030000000000"
            "00000700000000000000000000000000e03f000000000000d0bf000000000000"
            "c03f000000000000f03f000000000000f0bf0000000000000000000000000000"
            "e03f07000000000000007b14ae47e17a843f7b14ae47e17a943fb81e85eb51b8"
            "9e3f7b14ae47e17aa43f9a9999999999a93fb81e85eb51b8ae3fec51b81e85eb"
            "b13f07000000000000002d431cebe2361a3f2d431cebe2362a3f613255302aa9"
            "333f2d431cebe2363a3ffca9f1d24d62403f613255302aa9433fc7bab88d06f0"
            "463f"
            // RTIM
            "5254494d2800000000000000000000000000e03f000000000000f43f00000000"
            "000000400000000000000c400000000000001340"
            // CSUM
            "4353554d08000000000000001a60a1cbf2d4f6bb");
  // The file parses back to a model that writes the same bytes.
  std::string annotation;
  auto parsed = DeserializeOfflineModel(bytes, &annotation);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(annotation, "ev");
  std::string again;
  ASSERT_TRUE(SerializeOfflineModel(*parsed, annotation, &again).ok());
  EXPECT_EQ(again, bytes);
}

TEST(WireContainerTest, ForecasterTrainerSlotReadsEitherOldIdAndWritesZero) {
  const std::string bytes = ForecasterPayload(FixedForecaster());
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
  std::optional<core::Forecaster> parsed;
  ASSERT_TRUE(ParseForecasterPayload(per_sample, &parsed).ok());
  EXPECT_EQ(ForecasterPayload(parsed), bytes);

  std::string unknown = Patched(bytes, trainer_at, uint32_t{2});
  Status refused = ParseForecasterPayload(unknown, &parsed);
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
