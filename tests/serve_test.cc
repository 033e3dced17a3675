// The `sky serve` subsystem. Gates (ISSUE):
//  - e2e bitwise parity: N sessions opened by concurrent clients against a
//    live server finish with EngineResults (traces included) identical to
//    ONE in-process joint-planning StreamSet built from the same specs;
//  - admission control: with a pooled budget armed, the session that would
//    push the fleet past the budget is rejected with a clean
//    kResourceExhausted protocol error and the connection stays usable,
//    and a fresh server prices its first session the same way;
//  - live reconfiguration at a plan boundary is bitwise-equivalent to the
//    in-process ReconfigureStream call;
//  - a budget, duration, plan interval or start time that is not finite,
//    or a negative budget, is refused with kInvalidArgument, and the
//    running sessions finish as if it had never been sent;
//  - drain + --recover: a drained server's checkpoint resumes every
//    in-flight session bitwise on a second server;
//  - metrics: the BENCH-style JSON document carries the counters;
//  - one resident model: admission never re-reads the model file, and no
//    session changes the model the next one runs on;
//  - a hung-up connection releases its thread and fd, and a reply to a
//    peer that has already closed fails only that connection (no SIGPIPE);
//  - a port outside the TCP range is refused, never wrapped onto another;
//  - wire protocol and serve-checkpoint formats round-trip exactly and
//    refuse corruption, including a session table that repeats an id or
//    puts two running sessions on one fleet slot.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/skyscraper.h"
#include "api/workload_registry.h"
#include "core/engine.h"
#include "core/multi_stream.h"
#include "io/checkpoint_io.h"
#include "serve/client.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace sky {
namespace {

using core::EngineResult;
using core::EngineResultsIdentical;
using serve::Client;
using serve::Frame;
using serve::FrameType;
using serve::Server;
using serve::ServerOptions;
using serve::SessionSpec;

constexpr char kModelPath[] = "/tmp/sky_serve_test_model.bin";

/// Bounds every blocking read on `fd`, so a peer that waits for bytes that
/// never come fails the read (kInternal) instead of hanging the test.
void SetReadTimeout(int fd) {
  timeval timeout{};
  timeout.tv_sec = 5;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
}

/// Open file descriptors of this process.
size_t OpenFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t n = 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

/// A TCP connection to 127.0.0.1:port with no handshake, or -1.
int ConnectRaw(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A request frame header (no payload, no trailer) that declares one byte
/// more than the server accepts.
std::string OversizedRequestHeader() {
  std::string header;
  serve::EncodeFrame(FrameType::kMetrics, "", &header);
  uint64_t declared = serve::kMaxRequestPayload + 1;
  std::memcpy(&header[4 + 1], &declared, sizeof(declared));  // after magic+type
  header.resize(4 + 1 + 8);
  return header;
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto workload = api::MakeWorkloadByName("ev");
    ASSERT_NE(workload, nullptr);
    api::Skyscraper sky(workload.get());
    sky.SetResources(TestResources());
    core::OfflineOptions opts;
    opts.segment_seconds = 4.0;
    opts.train_horizon = Days(3);
    opts.num_categories = 3;
    opts.train_forecaster = false;  // keep the fixture fast
    ASSERT_TRUE(sky.Fit(opts).ok());
    ASSERT_TRUE(sky.SaveModel(kModelPath, workload->name()).ok());
  }
  static void TearDownTestSuite() { std::remove(kModelPath); }

  static api::Resources TestResources() {
    api::Resources r;
    r.cores = 4;
    r.cloud_budget_usd_per_interval = 1.0;
    return r;
  }

  static ServerOptions BaseServerOptions() {
    ServerOptions opts;
    opts.model_path = kModelPath;
    opts.workload = "ev";
    opts.resources = TestResources();
    return opts;
  }

  /// The spec every e2e session uses: everything explicit, so the server's
  /// default resolution plays no part and the in-process mirror is exact.
  static SessionSpec SpecForSeed(uint64_t content_seed) {
    SessionSpec spec;
    spec.workload = "ev";
    spec.content_seed = content_seed;
    spec.start_days = 3.0;
    spec.duration_days = 0.25;        // 6 h
    spec.plan_interval_days = 0.125;  // 3 h -> 2 lockstep boundaries
    spec.engine_seed = 71;
    // Traces make the bitwise comparisons maximally sensitive.
    spec.record_trace = true;
    spec.trace_resolution_s = 300.0;
    return spec;
  }

  /// The exact job Server::BuildJob derives from `spec` — the in-process
  /// half of every bitwise gate. The tenant keeps workload/facade alive
  /// for the job's lifetime. Each mirror loads its own copy of the model:
  /// the reference the server's one shared model is compared against.
  struct Tenant {
    std::unique_ptr<core::Workload> workload;
    std::unique_ptr<api::Skyscraper> facade;
  };
  static core::StreamEngineJob MirrorJob(const SessionSpec& spec,
                                         Tenant* tenant) {
    tenant->workload =
        api::MakeWorkloadByName(spec.workload, spec.content_seed);
    EXPECT_NE(tenant->workload, nullptr);
    tenant->facade =
        std::make_unique<api::Skyscraper>(tenant->workload.get());
    tenant->facade->SetResources(TestResources());
    EXPECT_TRUE(
        tenant->facade->LoadModel(kModelPath, tenant->workload->name())
            .ok());
    core::EngineOptions opts;
    opts.duration = Days(spec.duration_days);
    opts.plan_interval = Days(spec.plan_interval_days);
    opts.seed = spec.engine_seed;
    opts.record_trace = spec.record_trace;
    opts.trace_resolution_s = spec.trace_resolution_s;
    if (spec.cloud_budget_usd_per_interval.has_value()) {
      opts.cloud_budget_usd_per_interval =
          *spec.cloud_budget_usd_per_interval;
    }
    opts.work_budget_override = spec.work_budget_override;
    auto job = tenant->facade->MakeStreamJob(Days(spec.start_days), opts);
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    return *job;
  }

  /// min_k work cost of one served session — the price admission control
  /// charges a newcomer (mirrors Server::NewcomerCheapestCost).
  static double CheapestSessionCost() {
    Tenant tenant;
    MirrorJob(SpecForSeed(1), &tenant);
    auto model = tenant.facade->model();
    EXPECT_TRUE(model.ok());
    double cheapest = 0.0;
    bool first = true;
    for (const auto& p : (*model)->profiles) {
      if (first || p.work_core_s_per_video_s < cheapest) {
        cheapest = p.work_core_s_per_video_s;
        first = false;
      }
    }
    return cheapest;
  }
};

// ---------------------------------------------------------------------------
// Wire protocol units.

TEST_F(ServeTest, SessionSpecPayloadRoundTrips) {
  SessionSpec spec = SpecForSeed(12345);
  spec.record_trace = true;
  spec.cloud_budget_usd_per_interval = 0.375;
  spec.work_budget_override = 2.5;
  std::string payload;
  AppendSessionSpec(spec, &payload);
  io::wire::Cursor c(payload.data(), payload.size());
  SessionSpec back;
  ASSERT_TRUE(ParseSessionSpec(&c, &back).ok());
  EXPECT_EQ(back.workload, spec.workload);
  ASSERT_TRUE(back.content_seed.has_value());
  EXPECT_EQ(*back.content_seed, 12345u);
  EXPECT_EQ(back.start_days, spec.start_days);
  EXPECT_EQ(back.duration_days, spec.duration_days);
  EXPECT_EQ(back.plan_interval_days, spec.plan_interval_days);
  EXPECT_EQ(back.engine_seed, spec.engine_seed);
  EXPECT_TRUE(back.record_trace);
  EXPECT_EQ(back.trace_resolution_s, spec.trace_resolution_s);
  ASSERT_TRUE(back.cloud_budget_usd_per_interval.has_value());
  EXPECT_EQ(*back.cloud_budget_usd_per_interval, 0.375);
  EXPECT_EQ(back.work_budget_override, 2.5);

  // Unset optionals stay unset through the wire.
  SessionSpec bare;
  std::string bare_payload;
  AppendSessionSpec(bare, &bare_payload);
  io::wire::Cursor c2(bare_payload.data(), bare_payload.size());
  SessionSpec bare_back;
  ASSERT_TRUE(ParseSessionSpec(&c2, &bare_back).ok());
  EXPECT_FALSE(bare_back.content_seed.has_value());
  EXPECT_FALSE(bare_back.record_trace);
  EXPECT_FALSE(bare_back.cloud_budget_usd_per_interval.has_value());
}

TEST_F(ServeTest, ErrorPayloadCarriesTheStatus) {
  std::string payload;
  serve::AppendError(Status::ResourceExhausted("fleet is full"), &payload);
  Frame frame;
  frame.type = FrameType::kError;
  frame.payload = payload;
  Status decoded = serve::ParseError(frame);
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(decoded.ToString().find("fleet is full"), std::string::npos);
}

TEST_F(ServeTest, FramesRoundTripOverASocketAndRefuseCorruption) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SetReadTimeout(fds[1]);

  std::string payload = "hello frames";
  ASSERT_TRUE(serve::WriteFrame(fds[0], FrameType::kMetrics, payload).ok());
  Frame frame;
  ASSERT_TRUE(
      serve::ReadFrame(fds[1], serve::kMaxRequestPayload, &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kMetrics);
  EXPECT_EQ(frame.payload, payload);

  // A flipped payload byte must fail the FNV-1a trailer check.
  std::string encoded;
  serve::EncodeFrame(FrameType::kMetrics, payload, &encoded);
  encoded[4 + 1 + 8] ^= 0x01;  // first payload byte, after magic+type+len
  ASSERT_EQ(::write(fds[0], encoded.data(), encoded.size()),
            static_cast<ssize_t>(encoded.size()));
  Frame corrupt;
  EXPECT_EQ(serve::ReadFrame(fds[1], serve::kMaxRequestPayload, &corrupt)
                .code(),
            StatusCode::kInvalidArgument);

  // A header declaring one byte over the cap is refused from the header
  // alone: no payload follows it, so a reader that waited for the declared
  // length would time out with kInternal instead.
  std::string oversized = OversizedRequestHeader();
  ASSERT_EQ(::write(fds[0], oversized.data(), oversized.size()),
            static_cast<ssize_t>(oversized.size()));
  Frame too_big;
  EXPECT_EQ(serve::ReadFrame(fds[1], serve::kMaxRequestPayload, &too_big)
                .code(),
            StatusCode::kInvalidArgument);

  // Clean EOF before any frame byte is "peer hung up", not corruption.
  ASSERT_EQ(::shutdown(fds[0], SHUT_WR), 0);
  Frame eof;
  EXPECT_EQ(serve::ReadFrame(fds[1], serve::kMaxRequestPayload, &eof).code(),
            StatusCode::kNotFound);

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(ServeTest, WritingToAPeerThatHungUpIsAStatusNotASignal) {
  // SIGPIPE's default action would end this whole process.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  EXPECT_EQ(serve::WriteFrame(fds[0], FrameType::kMetrics, "late").code(),
            StatusCode::kInternal);
  ::close(fds[0]);
}

TEST_F(ServeTest, PortsOutsideTheTcpRangeAreRefusedNotWrapped) {
  // 70000 would otherwise wrap to 70000 - 65536 = 4464.
  for (int port : {-1, 65536, 70000}) {
    ServerOptions opts = BaseServerOptions();
    opts.port = port;
    EXPECT_EQ(Server::Start(opts).status().code(),
              StatusCode::kInvalidArgument)
        << "server port " << port;
  }
  for (int port : {-1, 0, 65536, 70000}) {
    EXPECT_EQ(Client::Connect(port).status().code(),
              StatusCode::kInvalidArgument)
        << "client port " << port;
  }
}

TEST_F(ServeTest, ServeCheckpointRoundTripsByteStable) {
  serve::ServeCheckpoint ckpt;
  ckpt.next_session_id = 7;
  ckpt.sessions_accepted = 6;
  ckpt.sessions_rejected = 2;
  ckpt.shared_budget_core_s_per_video_s = 3.5;
  serve::SessionRecord running;
  running.id = 5;
  running.spec = SpecForSeed(42);
  running.state = serve::SessionState::kRunning;
  running.stream_index = 1;
  ckpt.sessions.push_back(running);
  serve::SessionRecord failed;
  failed.id = 6;
  failed.spec = SpecForSeed(43);
  failed.state = serve::SessionState::kFailed;
  failed.stream_index = 2;
  failed.error = Status::Internal("stream quarantined");
  ckpt.sessions.push_back(failed);
  ckpt.fleet_bytes = "opaque fleet payload";

  std::string bytes;
  ASSERT_TRUE(SerializeServeCheckpoint(ckpt, &bytes).ok());
  auto parsed = serve::ParseServeCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string bytes_again;
  ASSERT_TRUE(SerializeServeCheckpoint(*parsed, &bytes_again).ok());
  EXPECT_EQ(bytes, bytes_again);  // byte-stable round trip
  EXPECT_EQ(parsed->next_session_id, 7u);
  EXPECT_EQ(parsed->sessions.size(), 2u);
  EXPECT_EQ(parsed->sessions[1].error.code(), StatusCode::kInternal);
  EXPECT_EQ(parsed->fleet_bytes, "opaque fleet payload");

  // Corruption is refused.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_FALSE(serve::ParseServeCheckpoint(corrupt).ok());
  EXPECT_FALSE(serve::ParseServeCheckpoint(bytes.substr(0, 10)).ok());

  // A version-1 file stores one more SessionSpec field: its header alone
  // gets it refused, before any session record is parsed.
  std::string old_version = bytes;
  uint32_t v1 = 1;
  std::memcpy(&old_version[8], &v1, sizeof(v1));  // after the 8-byte magic
  auto refused = serve::ParseServeCheckpoint(old_version);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().ToString().find("version 1"), std::string::npos)
      << refused.status().ToString();
}

TEST_F(ServeTest, RecoveryRefusesATableThatRepeatsAnIdOrASlot) {
  // A real drained checkpoint: the clock is held, so both sessions are
  // still running, on slots 0 and 1.
  const std::string path = "/tmp/sky_serve_test_dup_ckpt.bin";
  {
    ServerOptions opts = BaseServerOptions();
    opts.checkpoint_path = path;
    opts.start_after_sessions = 3;
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->OpenSession(SpecForSeed(800)).ok());
    ASSERT_TRUE(client->OpenSession(SpecForSeed(801)).ok());
    ASSERT_TRUE(client->Drain().ok());
    ASSERT_TRUE((*server)->Wait().ok());
  }
  auto drained = serve::LoadServeCheckpoint(path);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ASSERT_EQ(drained->sessions.size(), 2u);

  // Re-seals `craft` and expects recovery to refuse it with `message`.
  auto expect_refused = [&](const serve::ServeCheckpoint& craft,
                            const std::string& message) {
    ASSERT_TRUE(serve::SaveServeCheckpoint(craft, path).ok());
    ServerOptions recover = BaseServerOptions();
    recover.recover_path = path;
    auto refused = Server::Start(recover);
    ASSERT_FALSE(refused.ok()) << message;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().ToString().find(message), std::string::npos)
        << refused.status().ToString();
  };

  // A second, failed record under the first session's id.
  serve::ServeCheckpoint twin_id = *drained;
  serve::SessionRecord twin = twin_id.sessions[0];
  twin.state = serve::SessionState::kFailed;
  twin.error = Status::Internal("stream quarantined");
  twin_id.sessions.push_back(twin);
  expect_refused(twin_id, "two sessions with id " + std::to_string(twin.id));

  // A third running session, under a fresh id, on the first one's slot.
  serve::ServeCheckpoint shared_slot = *drained;
  serve::SessionRecord squatter = shared_slot.sessions[0];
  squatter.id = shared_slot.next_session_id++;
  shared_slot.sessions.push_back(squatter);
  expect_refused(shared_slot, "two running sessions on fleet slot " +
                                  std::to_string(squatter.stream_index));
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServerRefusesOldProtocolVersionAndOversizedRequests) {
  ServerOptions opts = BaseServerOptions();
  opts.start_after_sessions = 1;  // hold the clock
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  int fd = ConnectRaw((*server)->port());
  ASSERT_GE(fd, 0);
  SetReadTimeout(fd);

  // A version-1 peer would encode SessionSpec with one more field; the
  // handshake refuses it with a clean protocol error.
  std::string hello;
  io::wire::PutU32(&hello, 1);
  ASSERT_TRUE(serve::WriteFrame(fd, FrameType::kHello, hello).ok());
  Frame reply;
  ASSERT_TRUE(serve::ReadFrame(fd, serve::kMaxFramePayload, &reply).ok());
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(serve::ParseError(reply).code(), StatusCode::kInvalidArgument);

  // A request header declaring more than the request cap makes the server
  // drop the connection without reading (or allocating) the payload. A
  // server still waiting for it would let this read time out instead.
  std::string header = OversizedRequestHeader();
  ASSERT_EQ(::write(fd, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  Frame dropped;
  EXPECT_EQ(serve::ReadFrame(fd, serve::kMaxFramePayload, &dropped).code(),
            StatusCode::kNotFound);
  ::close(fd);

  ASSERT_TRUE(Client::Connect((*server)->port())->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

// ---------------------------------------------------------------------------
// End-to-end gates against a live server.

TEST_F(ServeTest, ConcurrentSessionsBitwiseMatchInProcessJointFleet) {
  constexpr size_t kSessions = 3;
  ServerOptions opts = BaseServerOptions();
  // Hold the virtual clock until all sessions joined, so every stream is a
  // member from boundary 0 — the precondition for comparing against one
  // fleet born with all of them.
  opts.start_after_sessions = kSessions;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // N genuinely concurrent clients; admission order (and so slot order) is
  // whatever the race produces, so remember which spec landed in which
  // fleet slot and mirror that order in-process.
  struct Opened {
    uint64_t session_id = 0;
    uint64_t slot = 0;
    size_t spec_index = 0;
    EngineResult result;
    Status status;
  };
  std::vector<Opened> opened(kSessions);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kSessions; ++i) {
    clients.emplace_back([&, i] {
      auto client = Client::Connect((*server)->port());
      if (!client.ok()) {
        opened[i].status = client.status();
        return;
      }
      auto admitted = client->OpenSession(SpecForSeed(100 + i));
      if (!admitted.ok()) {
        opened[i].status = admitted.status();
        return;
      }
      opened[i].session_id = admitted->first;
      opened[i].slot = admitted->second;
      opened[i].spec_index = i;
      auto result = client->FetchResult(admitted->first);
      if (!result.ok()) {
        opened[i].status = result.status();
        return;
      }
      opened[i].result = std::move(*result);
    });
  }
  for (auto& t : clients) t.join();
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(opened[i].status.ok())
        << "client " << i << ": " << opened[i].status.ToString();
  }

  // In-process reference: ONE joint fleet whose job order is the server's
  // slot order.
  std::vector<size_t> spec_at_slot(kSessions);
  for (const Opened& o : opened) {
    ASSERT_LT(o.slot, kSessions);
    spec_at_slot[o.slot] = o.spec_index;
  }
  std::vector<Tenant> tenants(kSessions);
  std::vector<core::StreamEngineJob> jobs;
  for (size_t slot = 0; slot < kSessions; ++slot) {
    jobs.push_back(
        MirrorJob(SpecForSeed(100 + spec_at_slot[slot]), &tenants[slot]));
  }
  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  auto reference = core::StreamSet::Create(std::move(jobs), set_opts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  while (!reference->Done()) ASSERT_TRUE(reference->Step().ok());
  auto ref_results = reference->Results();

  for (const Opened& o : opened) {
    ASSERT_TRUE(ref_results[o.slot].ok());
    EXPECT_TRUE(EngineResultsIdentical(*ref_results[o.slot], o.result))
        << "session " << o.session_id << " (slot " << o.slot << ")";
  }

  ASSERT_TRUE(Client::Connect((*server)->port())->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, OverBudgetSessionRejectedWithCleanProtocolError) {
  // Price the budget so exactly two sessions fit: the third's all-cheapest
  // marginal cost would exceed it.
  double session_cost = CheapestSessionCost();
  ASSERT_GT(session_cost, 0.0);
  ServerOptions opts = BaseServerOptions();
  opts.shared_budget_core_s_per_video_s = 2.5 * session_cost;
  opts.start_after_sessions = 4;  // hold the clock for the whole test
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->OpenSession(SpecForSeed(200)).ok());
  ASSERT_TRUE(client->OpenSession(SpecForSeed(201)).ok());

  auto rejected = client->OpenSession(SpecForSeed(202));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The rejection is a clean protocol reply: the same connection keeps
  // working, and the rejection is counted.
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("\"sessions_accepted\": 2"), std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("\"sessions_rejected\": 1"), std::string::npos)
      << *metrics;

  // Raising the budget at the next boundary makes the same spec admissible
  // — admission is the planner's feasibility check, not a static cap.
  ASSERT_TRUE(client->SetSharedBudget(4.0 * session_cost).ok());
  EXPECT_TRUE(client->OpenSession(SpecForSeed(202)).ok());

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, FirstSessionOverBudgetIsRejectedToo) {
  // A fresh server prices its first session like every later one: a pooled
  // budget below one session's all-cheapest cost admits nobody.
  double session_cost = CheapestSessionCost();
  ASSERT_GT(session_cost, 0.0);
  ServerOptions opts = BaseServerOptions();
  opts.shared_budget_core_s_per_video_s = 0.5 * session_cost;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  auto rejected = client->OpenSession(SpecForSeed(210));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The refusal is counted, and the same connection keeps working.
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("\"sessions_accepted\": 0"), std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("\"sessions_rejected\": 1"), std::string::npos)
      << *metrics;

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, MaxSessionsCapRejectsTheOverflowSession) {
  ServerOptions opts = BaseServerOptions();
  opts.max_sessions = 1;
  opts.start_after_sessions = 2;  // hold the clock
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->OpenSession(SpecForSeed(300)).ok());
  auto rejected = client->OpenSession(SpecForSeed(301));
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, WrongWorkloadAndUnknownSessionAreCleanErrors) {
  ServerOptions opts = BaseServerOptions();
  opts.start_after_sessions = 1;  // hold the clock
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  SessionSpec wrong = SpecForSeed(1);
  wrong.workload = "covid";
  EXPECT_EQ(client->OpenSession(wrong).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->FetchResult(999).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, LiveReconfigureMatchesInProcessReconfigureStream) {
  // Two-stream fleet; stream 0's cloud budget is cut to zero by a live
  // kReconfigure BEFORE the clock starts (the server is holding for two
  // sessions, so the reconfigure lands at boundary 0 deterministically).
  ServerOptions opts = BaseServerOptions();
  opts.start_after_sessions = 2;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());

  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  auto first = client->OpenSession(SpecForSeed(400));
  ASSERT_TRUE(first.ok());
  core::StreamReconfig change;
  change.cloud_budget_usd_per_interval = 0.0;
  ASSERT_TRUE(client->Reconfigure(first->first, change).ok());
  auto second = client->OpenSession(SpecForSeed(401));  // releases the hold
  ASSERT_TRUE(second.ok());

  auto first_result = client->FetchResult(first->first);
  ASSERT_TRUE(first_result.ok()) << first_result.status().ToString();
  auto second_result = client->FetchResult(second->first);
  ASSERT_TRUE(second_result.ok());

  // In-process mirror: same jobs, same ReconfigureStream before stepping.
  std::vector<Tenant> tenants(2);
  std::vector<core::StreamEngineJob> jobs;
  jobs.push_back(MirrorJob(SpecForSeed(400), &tenants[0]));
  jobs.push_back(MirrorJob(SpecForSeed(401), &tenants[1]));
  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  auto reference = core::StreamSet::Create(std::move(jobs), set_opts);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->ReconfigureStream(0, change).ok());
  while (!reference->Done()) ASSERT_TRUE(reference->Step().ok());
  auto ref_results = reference->Results();
  ASSERT_TRUE(ref_results[0].ok() && ref_results[1].ok());
  EXPECT_TRUE(EngineResultsIdentical(*ref_results[0], *first_result));
  EXPECT_TRUE(EngineResultsIdentical(*ref_results[1], *second_result));

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, HostileNumbersAreRefusedAndTenantsUnharmed) {
  // Sessions A and B run in one fleet; the clock holds until both joined,
  // so every hostile request below lands at boundary 0, before any step.
  ServerOptions opts = BaseServerOptions();
  opts.start_after_sessions = 2;
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  SessionSpec spec_a = SpecForSeed(800);
  spec_a.cloud_budget_usd_per_interval = 2.0;
  const SessionSpec spec_b = SpecForSeed(801);
  auto a = client->OpenSession(spec_a);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  // A third client sends each hostile number; every request is refused.
  auto hostile = Client::Connect((*server)->port());
  ASSERT_TRUE(hostile.ok());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double budget : {inf, -inf, nan}) {
    EXPECT_EQ(hostile->SetSharedBudget(budget).code(),
              StatusCode::kInvalidArgument)
        << "shared budget " << budget;
  }
  std::vector<std::pair<std::string, SessionSpec>> specs;
  auto add = [&](const char* field, double v) -> SessionSpec& {
    specs.emplace_back(field + (" " + testing::PrintToString(v)),
                       SpecForSeed(802));
    return specs.back().second;
  };
  for (double v : {-1000.0, inf, nan}) {
    add("cloud budget", v).cloud_budget_usd_per_interval = v;
  }
  for (double v : {-5.0, inf, nan}) {
    add("work budget", v).work_budget_override = v;
  }
  for (double v : {inf, nan, 1e300}) {
    add("duration", v).duration_days = v;
    add("plan interval", v).plan_interval_days = v;
    add("start", v).start_days = v;
  }
  for (const auto& [what, spec] : specs) {
    EXPECT_EQ(hostile->OpenSession(spec).status().code(),
              StatusCode::kInvalidArgument)
        << what;
  }
  for (double v : {-1000.0, inf, nan}) {
    core::StreamReconfig cloud;
    cloud.cloud_budget_usd_per_interval = v;
    EXPECT_EQ(hostile->Reconfigure(a->first, cloud).code(),
              StatusCode::kInvalidArgument)
        << "reconfigured cloud budget " << v;
    core::StreamReconfig work;
    work.work_budget_override = v;
    EXPECT_EQ(hostile->Reconfigure(a->first, work).code(),
              StatusCode::kInvalidArgument)
        << "reconfigured work budget " << v;
  }
  // A budget <= 0 still means "derive it from the streams".
  EXPECT_TRUE(hostile->SetSharedBudget(-1.0).ok());

  auto b = client->OpenSession(spec_b);  // releases the hold
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto result_a = client->FetchResult(a->first);
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  auto result_b = client->FetchResult(b->first);
  ASSERT_TRUE(result_b.ok()) << result_b.status().ToString();

  // The metrics frame stays valid JSON: no bare inf or nan value.
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  for (const char* bare : {": inf", ": -inf", ": nan", ": -nan"}) {
    EXPECT_EQ(metrics->find(bare), std::string::npos)
        << bare << " in:\n" << *metrics;
  }
  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());

  // A and B finish exactly as in a fleet no hostile client ever reached.
  std::vector<Tenant> tenants(2);
  std::vector<core::StreamEngineJob> jobs;
  jobs.push_back(MirrorJob(spec_a, &tenants[0]));
  jobs.push_back(MirrorJob(spec_b, &tenants[1]));
  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  auto reference = core::StreamSet::Create(std::move(jobs), set_opts);
  ASSERT_TRUE(reference.ok());
  while (!reference->Done()) ASSERT_TRUE(reference->Step().ok());
  auto ref_results = reference->Results();
  ASSERT_TRUE(ref_results[0].ok() && ref_results[1].ok());
  EXPECT_TRUE(EngineResultsIdentical(*ref_results[0], *result_a));
  EXPECT_TRUE(EngineResultsIdentical(*ref_results[1], *result_b));
}

TEST_F(ServeTest, DrainCheckpointRecoverFinishesEverySessionBitwise) {
  const std::string ckpt_path = "/tmp/sky_serve_test_drain_ckpt.bin";
  std::remove(ckpt_path.c_str());
  constexpr size_t kSessions = 2;

  // Long enough (4 simulated days, 32 plan boundaries) that the drain below
  // lands while the sessions are still mid-run.
  auto long_spec = [](uint64_t seed) {
    SessionSpec spec = SpecForSeed(seed);
    spec.duration_days = 4.0;
    return spec;
  };

  uint64_t ids[kSessions];
  {
    ServerOptions opts = BaseServerOptions();
    opts.start_after_sessions = kSessions;
    opts.checkpoint_path = ckpt_path;
    opts.checkpoint_every_boundaries = 1;
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok());
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok());
    for (size_t i = 0; i < kSessions; ++i) {
      auto admitted = client->OpenSession(long_spec(500 + i));
      ASSERT_TRUE(admitted.ok());
      ids[i] = admitted->first;
    }
    // A waiter blocked in FetchResult when the drain lands is told to
    // finish the session via --recover instead of hanging.
    std::thread waiter([&] {
      auto c = Client::Connect((*server)->port());
      ASSERT_TRUE(c.ok());
      auto r = c->FetchResult(ids[0]);
      EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
    });
    // Drain only once the fleet has demonstrably planned a couple of
    // boundaries, so the drain checkpoint carries genuine mid-run state.
    for (;;) {
      auto metrics = client->Metrics();
      ASSERT_TRUE(metrics.ok());
      size_t pos = metrics->find("\"boundaries_planned\": ");
      ASSERT_NE(pos, std::string::npos);
      long planned =
          std::strtol(metrics->c_str() + pos + 22, nullptr, 10);
      ASSERT_NE(metrics->find("\"sessions_running\": 2"),
                std::string::npos)
          << "sessions finished before the drain could land:\n"
          << *metrics;
      if (planned >= 2) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(client->Drain().ok());
    EXPECT_TRUE((*server)->Wait().ok());
    waiter.join();
  }

  // Second server resumes every in-flight session from the drain
  // checkpoint; the sessions keep their original ids.
  EngineResult recovered[kSessions];
  {
    ServerOptions opts = BaseServerOptions();
    opts.recover_path = ckpt_path;
    auto server = Server::Start(opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok());
    for (size_t i = 0; i < kSessions; ++i) {
      auto result = client->FetchResult(ids[i]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      recovered[i] = std::move(*result);
    }
    ASSERT_TRUE(client->Drain().ok());
    EXPECT_TRUE((*server)->Wait().ok());
  }

  // Reference: the fleet that never stopped.
  std::vector<Tenant> tenants(kSessions);
  std::vector<core::StreamEngineJob> jobs;
  for (size_t i = 0; i < kSessions; ++i) {
    jobs.push_back(MirrorJob(long_spec(500 + i), &tenants[i]));
  }
  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  auto reference = core::StreamSet::Create(std::move(jobs), set_opts);
  ASSERT_TRUE(reference.ok());
  while (!reference->Done()) ASSERT_TRUE(reference->Step().ok());
  auto ref_results = reference->Results();
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(ref_results[i].ok());
    EXPECT_TRUE(EngineResultsIdentical(*ref_results[i], recovered[i]))
        << "session " << ids[i];
  }
  std::remove(ckpt_path.c_str());
}

TEST_F(ServeTest, SessionsRunOnTheModelLoadedAtStart) {
  // Serve from a copy of the model and delete it once the server is up:
  // admission must not need the file again.
  const std::string copy = "/tmp/sky_serve_test_model_copy.bin";
  std::filesystem::copy_file(
      kModelPath, copy, std::filesystem::copy_options::overwrite_existing);
  ServerOptions opts = BaseServerOptions();
  opts.model_path = copy;
  auto server = Server::Start(opts);
  std::remove(copy.c_str());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // A, then B with the same spec; each runs alone in the fleet, B on the
  // model A ran on.
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  const SessionSpec spec = SpecForSeed(700);
  EngineResult results[2];
  for (EngineResult& result : results) {
    auto admitted = client->OpenSession(spec);
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    auto fetched = client->FetchResult(admitted->first);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    result = std::move(*fetched);
  }
  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());

  // Reference: a one-stream fleet on a privately loaded model.
  Tenant tenant;
  std::vector<core::StreamEngineJob> jobs;
  jobs.push_back(MirrorJob(spec, &tenant));
  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  auto reference = core::StreamSet::Create(std::move(jobs), set_opts);
  ASSERT_TRUE(reference.ok());
  while (!reference->Done()) ASSERT_TRUE(reference->Step().ok());
  auto ref_results = reference->Results();
  ASSERT_TRUE(ref_results[0].ok());
  EXPECT_TRUE(EngineResultsIdentical(*ref_results[0], results[0]))
      << "session A";
  EXPECT_TRUE(EngineResultsIdentical(*ref_results[0], results[1]))
      << "session B";
}

TEST_F(ServeTest, FinishedConnectionsReleaseTheirFds) {
  ServerOptions opts = BaseServerOptions();
  opts.start_after_sessions = 1;  // hold the clock
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());

  const size_t before = OpenFdCount();
  for (int i = 0; i < 200; ++i) {
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
  }
  // The listener joins hung-up connections on its poll tick, then closes
  // their fds.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  size_t now = OpenFdCount();
  while (now > before + 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    now = OpenFdCount();
  }
  EXPECT_LE(now, before + 2) << "open fds: " << before << " -> " << now;

  ASSERT_TRUE(Client::Connect((*server)->port())->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, ClientsThatHangUpBeforeTheirRepliesOnlyLoseTheirOwn) {
  ServerOptions opts = BaseServerOptions();
  opts.start_after_sessions = 1;  // hold the clock
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Each client pipelines four requests and closes without reading a
  // reply, so the server writes to peers that are gone.
  std::string request;
  serve::EncodeFrame(FrameType::kMetrics, "", &request);
  const std::string pipelined = request + request + request + request;
  const size_t before = OpenFdCount();
  for (int i = 0; i < 20; ++i) {
    int fd = ConnectRaw((*server)->port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, pipelined.data(), pipelined.size()),
              static_cast<ssize_t>(pipelined.size()));
    ::close(fd);
  }
  // A connection ends at its first failed write or read, and the listener
  // then closes its fd.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  size_t now = OpenFdCount();
  while (now > before + 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    now = OpenFdCount();
  }
  EXPECT_LE(now, before + 2) << "open fds: " << before << " -> " << now;

  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Metrics().ok());
  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

TEST_F(ServeTest, MetricsDocumentCarriesTheCounters) {
  ServerOptions opts = BaseServerOptions();
  opts.shared_budget_core_s_per_video_s = 100.0;
  opts.start_after_sessions = 2;  // hold the clock
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->OpenSession(SpecForSeed(600)).ok());

  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  for (const char* key :
       {"\"uptime_s\"", "\"sessions_accepted\": 1",
        "\"sessions_rejected\": 0", "\"sessions_running\": 1",
        "\"boundaries_planned\"", "\"boundary_p50_ms\"",
        "\"boundary_p99_ms\"",
        "\"shared_budget_core_s_per_video_s\": 100", "\"fleet_restarts\"",
        "\"sessions\"", "\"workload\": \"ev\"", "\"state\": \"running\"",
        "\"stream_index\": 0"}) {
    EXPECT_NE(metrics->find(key), std::string::npos)
        << "missing " << key << " in:\n" << *metrics;
  }

  ASSERT_TRUE(client->Drain().ok());
  EXPECT_TRUE((*server)->Wait().ok());
}

// Every EngineResult counter of a finished session, in the document's key
// order, next to a failed and a running session.
TEST(ServeMetricsTest, FinishedSessionRendersEveryResultKeyInOrder) {
  serve::ServerMetrics m;
  m.uptime_s = 1.5;
  m.sessions_accepted = 3;
  m.sessions_rejected = 1;
  m.sessions_running = 1;
  m.sessions_done = 1;
  m.sessions_failed = 1;
  m.boundaries_planned = 4;
  m.boundary_p50_ms = 0.25;
  m.boundary_p99_ms = 0.75;
  m.shared_budget_core_s_per_video_s = 2.5;
  m.cheapest_fleet_cost_core_s_per_video_s = 1.125;
  m.fleet_restarts = 2;
  m.sessions.resize(3);
  m.sessions[0].id = 1;
  m.sessions[0].spec.workload = "covid";
  m.sessions[0].state = serve::SessionState::kDone;
  EngineResult& r = m.sessions[0].result;
  r.total_quality = 1.75;
  r.mean_quality = 0.875;
  r.segments = 2;
  r.work_core_seconds = 6.5;
  r.onprem_core_seconds = 4.25;
  r.cloud_usd = 0.1;
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
  m.sessions[1].id = 2;
  m.sessions[1].state = serve::SessionState::kFailed;
  m.sessions[1].stream_index = 1;
  m.sessions[1].error = Status::Internal("quarantined \"2\"");
  m.sessions[2].id = 3;
  m.sessions[2].stream_index = 2;
  EXPECT_EQ(serve::RenderMetricsJson(m),
            "{\n"
            "  \"uptime_s\": 1.5,\n"
            "  \"sessions_accepted\": 3,\n"
            "  \"sessions_rejected\": 1,\n"
            "  \"sessions_running\": 1,\n"
            "  \"sessions_done\": 1,\n"
            "  \"sessions_failed\": 1,\n"
            "  \"boundaries_planned\": 4,\n"
            "  \"boundary_p50_ms\": 0.25,\n"
            "  \"boundary_p99_ms\": 0.75,\n"
            "  \"shared_budget_core_s_per_video_s\": 2.5,\n"
            "  \"cheapest_fleet_cost_core_s_per_video_s\": 1.125,\n"
            "  \"fleet_restarts\": 2,\n"
            "  \"sessions\": ["
            "{\"id\": 1, \"workload\": \"covid\", \"state\": \"done\", "
            "\"stream_index\": 0, \"total_quality\": 1.75, "
            "\"mean_quality\": 0.875, \"segments\": 2, "
            "\"work_core_seconds\": 6.5, \"onprem_core_seconds\": 4.25, "
            "\"cloud_usd\": 0.10000000000000001, "
            "\"buffer_high_water_bytes\": 4096, \"overflow_events\": 1, "
            "\"switch_count\": 2, \"degraded_count\": 3, "
            "\"misclassified\": 4, \"type_a_errors\": 5, "
            "\"type_b_errors\": 6, \"cloud_failures\": 7, "
            "\"cloud_retries\": 8, \"cloud_giveups\": 9, "
            "\"fault_backoff_s\": 2.5, \"outage_segments\": 10, "
            "\"outage_intervals\": 11, \"udf_stall_segments\": 12, "
            "\"trace_points\": 2}, "
            "{\"id\": 2, \"workload\": \"ev\", \"state\": \"failed\", "
            "\"stream_index\": 1, "
            "\"error\": \"Internal: quarantined \\\"2\\\"\"}, "
            "{\"id\": 3, \"workload\": \"ev\", \"state\": \"running\", "
            "\"stream_index\": 2}]\n"
            "}\n");
}

}  // namespace
}  // namespace sky
