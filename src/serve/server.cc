#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>

#include "api/workload_registry.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace sky::serve {

namespace {

constexpr int kAcceptPollMs = 200;
constexpr auto kQueueWaitMs = std::chrono::milliseconds(50);

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  shared_budget_ = options_.shared_budget_core_s_per_video_s;
}

Server::~Server() {
  stop_.store(true);
  queue_cv_.notify_all();
  registry_.BeginDrain();
  Wait();
}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  // make_unique needs a public ctor; the factory keeps construction staged
  // (bind + recover before any thread exists) so Init failures are clean.
  std::unique_ptr<Server> server(new Server(std::move(options)));
  SKY_RETURN_NOT_OK(server->Init());
  server->started_at_ = std::chrono::steady_clock::now();
  server->fleet_thread_ = std::thread([s = server.get()] { s->FleetLoop(); });
  server->listen_thread_ = std::thread([s = server.get()] { s->ListenLoop(); });
  return server;
}

Status Server::Init() {
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port " + std::to_string(options_.port) +
                                   " is outside [0, 65535]");
  }
  if (!std::isfinite(options_.shared_budget_core_s_per_video_s)) {
    return Status::InvalidArgument("shared budget must be finite");
  }
  base_workload_ = api::MakeWorkloadByName(options_.workload);
  if (base_workload_ == nullptr) {
    return Status::InvalidArgument("unknown workload '" + options_.workload +
                                   "'");
  }
  base_facade_ = std::make_unique<api::Skyscraper>(base_workload_.get());
  base_facade_->SetResources(options_.resources);
  SKY_RETURN_NOT_OK(
      base_facade_->LoadModel(options_.model_path, base_workload_->name()));

  // A fresh server recovers its fleet from the empty checkpoint: a joint
  // StreamSet with no streams, priced and stepped like any other.
  std::vector<core::StreamEngineJob> jobs;
  io::FleetCheckpoint fleet_ckpt;
  if (!options_.recover_path.empty()) {
    SKY_RETURN_NOT_OK(RecoverFromServeCheckpoint(&jobs, &fleet_ckpt));
  }
  core::StreamSetOptions set_opts;
  set_opts.planning = core::MultiStreamPlanning::kJoint;
  set_opts.shared_budget_core_s_per_video_s = shared_budget_;
  set_opts.max_stream_restarts = options_.max_stream_restarts;
  SKY_ASSIGN_OR_RETURN(core::StreamSet fleet,
                       core::StreamSet::RecoverFromCheckpoint(
                           std::move(jobs), fleet_ckpt, set_opts));
  fleet_ = std::make_unique<core::StreamSet>(std::move(fleet));

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, 64) < 0) return Errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  return Status::Ok();
}

Result<core::StreamEngineJob> Server::BuildJob(const SessionSpec& spec,
                                               StreamTenant* tenant) const {
  if (spec.workload != options_.workload) {
    return Status::NotFound("this server serves workload '" +
                            options_.workload + "', not '" + spec.workload +
                            "'");
  }
  if (spec.duration_days <= 0.0) {
    return Status::InvalidArgument("session duration must be positive");
  }
  tenant->workload =
      api::MakeWorkloadByName(spec.workload, spec.content_seed);
  if (tenant->workload == nullptr) {
    return Status::InvalidArgument("unknown workload '" + spec.workload +
                                   "'");
  }
  auto model = base_facade_->model();
  if (!model.ok()) return model.status();

  // Spec defaults resolve exactly like the matching `sky ingest` flags. A
  // NaN is no default: it reaches IngestionEngine::Start, which refuses it.
  const api::ServedSchedule schedule = api::ResolveServedSchedule(
      **model, spec.start_days, spec.plan_interval_days);

  core::EngineOptions opts;
  opts.duration = Days(spec.duration_days);
  opts.plan_interval = Days(schedule.plan_interval_days);
  opts.seed = spec.engine_seed;
  opts.record_trace = spec.record_trace;
  opts.trace_resolution_s = spec.trace_resolution_s;
  if (spec.cloud_budget_usd_per_interval.has_value()) {
    opts.cloud_budget_usd_per_interval = *spec.cloud_budget_usd_per_interval;
  }
  opts.work_budget_override = spec.work_budget_override;
  // Every session shares the served model, cluster and cost model; only
  // the camera is its own.
  SKY_ASSIGN_OR_RETURN(core::StreamEngineJob job,
                       base_facade_->MakeStreamJob(
                           Days(schedule.start_days), opts));
  job.workload = tenant->workload.get();
  return job;
}

double Server::NewcomerCheapestCost() const {
  auto model = base_facade_->model();
  if (!model.ok()) return 0.0;
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

Status Server::RecoverFromServeCheckpoint(
    std::vector<core::StreamEngineJob>* jobs, io::FleetCheckpoint* fleet) {
  auto loaded = LoadServeCheckpoint(options_.recover_path);
  if (!loaded.ok()) return loaded.status();
  ServeCheckpoint& ckpt = *loaded;

  auto fleet_ckpt = io::ParseFleetCheckpoint(ckpt.fleet_bytes);
  if (!fleet_ckpt.ok()) return fleet_ckpt.status();
  *fleet = std::move(*fleet_ckpt);

  // Rebuild jobs slot-parallel to the checkpointed fleet: running sessions
  // get their exact original simulation back (spec-recorded workload, seeds,
  // knobs); every other slot — finished, failed, removed, or rejected — gets
  // a null job, whose Create-time error status is overwritten by the
  // checkpoint's recorded per-slot status.
  jobs->assign(fleet->streams.size(), core::StreamEngineJob{});
  tenants_.clear();
  tenants_.resize(fleet->streams.size());
  for (SessionRecord& rec : ckpt.sessions) {
    if (rec.state == SessionState::kRunning) {
      if (rec.stream_index >= jobs->size()) {
        return Status::InvalidArgument(
            "serve checkpoint: session stream index out of fleet range");
      }
      StreamTenant tenant;
      auto job = BuildJob(rec.spec, &tenant);
      if (!job.ok()) return job.status();
      tenant.session_id = rec.id;
      (*jobs)[rec.stream_index] = *job;
      tenants_[rec.stream_index] = std::move(tenant);
    }
    registry_.Restore(rec);
  }

  sessions_accepted_ = ckpt.sessions_accepted;
  sessions_rejected_ = ckpt.sessions_rejected;
  shared_budget_ = ckpt.shared_budget_core_s_per_video_s;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Fleet thread.

void Server::FleetLoop() {
  Status terminal;
  for (;;) {
    if (stop_.load()) break;

    // Harvest BEFORE the idle check: the step that finishes the last stream
    // flips fleet Done, and without this the loop would park without ever
    // publishing that stream's result to its waiting client.
    HarvestFinished();

    std::vector<Command> cmds;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      bool holding = sessions_accepted_ < options_.start_after_sessions;
      bool can_step = !fleet_->Done() && !holding;
      if (queue_.empty() && !drain_requested_ && !can_step) {
        queue_cv_.wait_for(lock, kQueueWaitMs);
        continue;
      }
      cmds.assign(std::make_move_iterator(queue_.begin()),
                  std::make_move_iterator(queue_.end()));
      queue_.clear();
    }

    // Boundary commands (membership, knobs, drain) run only in the lockstep
    // boundary window; metrics are answered wherever the clock stands.
    const bool at_boundary = fleet_->AtLockstepBoundary();
    std::vector<Command> deferred;
    for (Command& cmd : cmds) {
      if (cmd.at_boundary && !at_boundary) {
        deferred.push_back(std::move(cmd));
      } else {
        cmd.reply.set_value(cmd.run());
      }
    }
    if (!deferred.empty()) {
      std::lock_guard<std::mutex> lock(queue_mu_);
      // Put deferred commands back in arrival order ahead of newcomers.
      queue_.insert(queue_.begin(), std::make_move_iterator(deferred.begin()),
                    std::make_move_iterator(deferred.end()));
    }

    // Read after the commands ran: a kDrain request flags the drain from
    // its boundary command.
    if (at_boundary && DrainRequested()) {
      if (!options_.checkpoint_path.empty()) {
        terminal = WriteServeCheckpoint();
      }
      break;
    }

    bool holding = sessions_accepted_ < options_.start_after_sessions;
    if (holding || fleet_->Done()) continue;

    // The serve checkpoint is taken at the boundary BEFORE its plan is
    // installed (Step plans then advances), so a recovered server replays
    // the boundary deterministically.
    if (at_boundary && options_.checkpoint_every_boundaries > 0 &&
        !options_.checkpoint_path.empty()) {
      ++boundaries_seen_;
      if (boundaries_seen_ % options_.checkpoint_every_boundaries == 0) {
        // Periodic checkpoint failures never fail the run; the final drain
        // checkpoint does.
        last_checkpoint_status_ = WriteServeCheckpoint();
      }
    }

    Status step = fleet_->Step();
    if (!step.ok()) {
      terminal = step;
      break;
    }
  }

  HarvestFinished();
  registry_.BeginDrain();
  {
    // Close the queue and fail any commands still in it — their connections
    // would hang forever otherwise.
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
    for (Command& cmd : queue_) {
      cmd.reply.set_value(
          Status::FailedPrecondition("server is shutting down"));
    }
    queue_.clear();
  }
  fleet_status_ = terminal;
  finished_.store(true);
}

Result<std::string> Server::Dispatch(
    bool at_boundary, std::function<Result<std::string>()> run) {
  Command cmd;
  cmd.at_boundary = at_boundary;
  cmd.run = std::move(run);
  auto reply = cmd.reply.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // queue_closed_ flips under this mutex in the fleet loop's epilogue, so
    // a command either lands before the final queue sweep or is refused
    // here — it can never be enqueued past it and hang its connection.
    if (queue_closed_) {
      return Status::FailedPrecondition("server is shutting down");
    }
    queue_.push_back(std::move(cmd));
  }
  queue_cv_.notify_all();
  return reply.get();
}

void Server::HarvestFinished() {
  // tenants_ never outgrows the fleet, and holds a workload exactly on the
  // slots of running sessions.
  for (size_t v = 0; v < tenants_.size(); ++v) {
    if (tenants_[v].workload == nullptr) continue;
    uint64_t id = tenants_[v].session_id;
    const core::IngestionEngine* engine = fleet_->engine(v);
    const Status& status = fleet_->stream_status(v);
    if (engine != nullptr && status.ok() && engine->Done()) {
      core::EngineResult result = engine->partial_result();
      // Done/failed slots are removable at any clock position by contract.
      Status removed = fleet_->RemoveStream(v);
      (void)removed;
      tenants_[v] = StreamTenant{};
      registry_.MarkDone(id, std::move(result));
    } else if (!status.ok()) {
      Status error = status;
      Status removed = fleet_->RemoveStream(v);
      (void)removed;
      tenants_[v] = StreamTenant{};
      registry_.MarkFailed(id, error);
    }
  }
}

Result<std::string> Server::Admit(const SessionSpec& spec) {
  if (options_.max_sessions > 0 &&
      registry_.active_count() >= options_.max_sessions) {
    ++sessions_rejected_;
    return Status::ResourceExhausted("session cap reached");
  }
  // The joint planner's feasibility threshold, checked before the stream
  // ever joins, the first one included: all-cheapest fleet cost plus the
  // newcomer's cheapest config must fit the pooled budget, or the next
  // boundary would be infeasible.
  if (shared_budget_ > 0.0) {
    double projected =
        fleet_->CheapestFleetCostCoreSPerVideoS() + NewcomerCheapestCost();
    if (projected > shared_budget_) {
      ++sessions_rejected_;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "admission rejected: all-cheapest fleet cost %.6f "
                    "core-s/video-s would exceed the shared budget %.6f",
                    projected, shared_budget_);
      return Status::ResourceExhausted(buf);
    }
  }

  StreamTenant tenant;
  auto job = BuildJob(spec, &tenant);
  if (!job.ok()) {
    ++sessions_rejected_;
    return job.status();
  }

  auto slot = fleet_->AddStream(*job);
  if (!slot.ok()) {
    ++sessions_rejected_;
    return slot.status();
  }
  uint64_t id = registry_.Add(spec, *slot);
  tenant.session_id = id;
  tenants_.resize(std::max(tenants_.size(), *slot + 1));
  tenants_[*slot] = std::move(tenant);
  ++sessions_accepted_;
  queue_cv_.notify_all();  // may release a start_after_sessions hold

  std::string payload;
  io::wire::Writer w(&payload);
  TransferSessionOpened(w, id, *slot);
  return payload;
}

Result<std::string> Server::Close(uint64_t session_id) {
  SKY_ASSIGN_OR_RETURN(uint64_t slot, registry_.StreamIndexOf(session_id));
  SKY_RETURN_NOT_OK(fleet_->RemoveStream(slot));
  tenants_[slot] = StreamTenant{};
  registry_.MarkFailed(session_id, Status::FailedPrecondition(
                                      "session closed by client request"));
  return std::string();
}

Result<std::string> Server::Reconfigure(uint64_t session_id,
                                        const core::StreamReconfig& changes) {
  SKY_ASSIGN_OR_RETURN(uint64_t slot, registry_.StreamIndexOf(session_id));
  SKY_RETURN_NOT_OK(fleet_->ReconfigureStream(slot, changes));
  return std::string();
}

std::string Server::CollectMetricsJson() {
  ServerMetrics m;
  m.uptime_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             started_at_)
                   .count();
  m.sessions_accepted = sessions_accepted_;
  m.sessions_rejected = sessions_rejected_;
  m.sessions = registry_.Snapshot();
  for (const SessionRecord& rec : m.sessions) {
    switch (rec.state) {
      case SessionState::kRunning: ++m.sessions_running; break;
      case SessionState::kDone: ++m.sessions_done; break;
      case SessionState::kFailed: ++m.sessions_failed; break;
    }
  }
  m.shared_budget_core_s_per_video_s = shared_budget_;
  const std::vector<double>& ms = fleet_->boundary_latencies_ms();
  m.boundaries_planned = ms.size();
  m.boundary_p50_ms = Percentile(ms, 50.0);
  m.boundary_p99_ms = Percentile(ms, 99.0);
  m.cheapest_fleet_cost_core_s_per_video_s =
      fleet_->CheapestFleetCostCoreSPerVideoS();
  m.fleet_restarts = fleet_->total_restarts();
  return RenderMetricsJson(m);
}

Status Server::WriteServeCheckpoint() {
  ServeCheckpoint ckpt;
  ckpt.sessions = registry_.Snapshot();
  for (const SessionRecord& rec : ckpt.sessions) {
    ckpt.next_session_id = std::max(ckpt.next_session_id, rec.id + 1);
  }
  ckpt.sessions_accepted = sessions_accepted_;
  ckpt.sessions_rejected = sessions_rejected_;
  ckpt.shared_budget_core_s_per_video_s = shared_budget_;
  io::FleetCheckpoint fleet_ckpt;
  SKY_RETURN_NOT_OK(fleet_->CaptureCheckpoint(&fleet_ckpt));
  SKY_RETURN_NOT_OK(
      io::SerializeFleetCheckpoint(fleet_ckpt, &ckpt.fleet_bytes));
  return SaveServeCheckpoint(ckpt, options_.checkpoint_path);
}

// ---------------------------------------------------------------------------
// Network threads.

void Server::ListenLoop() {
  for (;;) {
    ReapConnections();
    if (stop_.load() || finished_.load()) break;
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->thread = std::thread([this, c = conn.get()] { Connection(c); });
    conns_.push_back(std::move(conn));
  }
}

void Server::ReapConnections() {
  std::vector<std::unique_ptr<Conn>> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    auto live = std::stable_partition(
        conns_.begin(), conns_.end(),
        [](const std::unique_ptr<Conn>& conn) { return !conn->done; });
    std::move(live, conns_.end(), std::back_inserter(finished));
    conns_.erase(live, conns_.end());
  }
  for (const std::unique_ptr<Conn>& conn : finished) {
    conn->thread.join();
    ::close(conn->fd);
  }
}

void Server::Connection(Conn* conn) {
  for (;;) {
    Frame request;
    Status read = ReadFrame(conn->fd, kMaxRequestPayload, &request);
    if (!read.ok()) break;  // hangup or corruption: drop the connection
    auto [type, payload] = HandleRequest(request);
    if (!WriteFrame(conn->fd, type, payload).ok()) break;
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  // The fd stays open until this thread is joined (ReapConnections or
  // Wait), so no other socket can take its number while it is in use here.
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn->done = true;
}

std::pair<FrameType, std::string> Server::HandleRequest(
    const Frame& request) {
  auto error = [](const Status& s) {
    std::string payload;
    AppendError(s, &payload);
    return std::make_pair(FrameType::kError, std::move(payload));
  };
  // A boundary command whose success reply is a bare kOk.
  auto acknowledge = [&](std::function<Result<std::string>()> run) {
    Result<std::string> done = Dispatch(true, std::move(run));
    if (!done.ok()) return error(done.status());
    return std::make_pair(FrameType::kOk, std::string());
  };

  switch (request.type) {
    case FrameType::kHello: {
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      uint32_t version = 0;
      c.U32(version);
      if (!c.ok()) return error(c.status());
      if (version != kProtocolVersion) {
        return error(Status::InvalidArgument(
            "protocol version mismatch: server speaks version " +
            std::to_string(kProtocolVersion)));
      }
      std::string payload;
      io::wire::Writer(&payload).U32(kProtocolVersion);
      return {FrameType::kHelloOk, std::move(payload)};
    }

    case FrameType::kOpenSession: {
      SessionSpec spec;
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      Status s = ParseSessionSpec(&c, &spec);
      if (!s.ok()) return error(s);
      Result<std::string> admitted =
          Dispatch(true, [this, spec] { return Admit(spec); });
      if (!admitted.ok()) return error(admitted.status());
      return {FrameType::kSessionOpened, std::move(*admitted)};
    }

    case FrameType::kFetchResult: {
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      uint64_t id = 0;
      c.U64(id);
      if (!c.ok()) return error(c.status());
      Result<core::EngineResult> result = registry_.AwaitResult(id);
      if (!result.ok()) return error(result.status());
      std::string payload;
      io::wire::Writer w(&payload);
      TransferResultReply(w, id, std::as_const(*result));
      return {FrameType::kResult, std::move(payload)};
    }

    case FrameType::kReconfigure: {
      uint64_t id = 0;
      core::StreamReconfig changes;
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      Status s = ParseReconfigure(&c, &id, &changes);
      if (!s.ok()) return error(s);
      return acknowledge(
          [this, id, changes] { return Reconfigure(id, changes); });
    }

    case FrameType::kSetBudget: {
      double budget = 0.0;
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      c.F64(budget);
      if (!c.ok()) return error(c.status());
      if (!std::isfinite(budget)) {
        return error(Status::InvalidArgument("shared budget must be finite"));
      }
      return acknowledge([this, budget]() -> Result<std::string> {
        shared_budget_ = budget;
        fleet_->set_shared_budget(budget);
        return std::string();
      });
    }

    case FrameType::kMetrics: {
      Result<std::string> json =
          Dispatch(false, [this]() -> Result<std::string> {
            return CollectMetricsJson();
          });
      if (!json.ok()) return error(json.status());
      std::string payload;
      io::wire::Writer(&payload).String(*json);
      return {FrameType::kMetricsReport, std::move(payload)};
    }

    case FrameType::kCloseSession: {
      uint64_t id = 0;
      io::wire::Cursor c(request.payload.data(), request.payload.size());
      c.U64(id);
      if (!c.ok()) return error(c.status());
      return acknowledge([this, id] { return Close(id); });
    }

    case FrameType::kDrain:
      // The reply acknowledges that the drain boundary has been reached; the
      // fleet loop writes the final checkpoint right after and exits. A
      // client that wants a durable handoff should still wait for the
      // process to exit (the CLI does).
      return acknowledge([this]() -> Result<std::string> {
        RequestDrain();
        return std::string();
      });

    default:
      return error(Status::InvalidArgument("unexpected frame type"));
  }
}

void Server::RequestDrain() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    drain_requested_ = true;
  }
  queue_cv_.notify_all();
}

bool Server::DrainRequested() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return drain_requested_;
}

Status Server::Wait() {
  if (fleet_thread_.joinable()) fleet_thread_.join();
  // The fleet is down; tear the network down so connection threads unblock
  // out of ReadFrame and exit.
  stop_.store(true);
  if (listen_thread_.joinable()) listen_thread_.join();
  // With the listener gone, conns_ holds exactly the connections not yet
  // joined, and their fds are still open.
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conns_);
  }
  for (const std::unique_ptr<Conn>& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->thread.join();
    ::close(conn->fd);
  }
  if (!joined_ && listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  joined_ = true;
  return fleet_status_;
}

}  // namespace sky::serve
