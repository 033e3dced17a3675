// The checksummed chunk container under model files, fleet checkpoints and
// serve checkpoints (src/io/wire): the same hostile inputs must be refused
// with kInvalidArgument by all three, and fixed fleet and serve checkpoints
// serialize to checked-in bytes.

#include "io/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/offline.h"
#include "io/checkpoint_io.h"
#include "io/model_io.h"
#include "serve/registry.h"

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
            "534b59434b50543103000000040302014d455441080000000000000002000000"
            "000000005354524d290000000000000000000000000000000000000000000000"
            "00000000010c00000000000000656e67696e652d73746174655354524d280000"
            "00000000000100000000000000070000000b0000000000000071756172616e74"
            "696e65640000000000000000004353554d0800000000000000d8313c4ceff2ee"
            "bf");
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

}  // namespace
}  // namespace sky::io
