#ifndef SKYSCRAPER_SERVE_SERVER_H_
#define SKYSCRAPER_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/skyscraper.h"
#include "core/multi_stream.h"
#include "dag/thread_pool.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "util/result.h"

namespace sky::serve {

/// Configuration of one `sky serve` process: the model it serves, the
/// per-stream provisioning every admitted session runs under, the pooled
/// budget that gates admission, and the checkpoint cadence.
struct ServerOptions {
  /// TCP port on 127.0.0.1, in [0, 65535] (Start refuses any other value);
  /// 0 binds an ephemeral port (read it back via Server::port()). The
  /// server is deliberately loopback-only: it is a single-machine
  /// multi-tenant ingestion daemon, not an internet service.
  int port = 0;
  /// Model file (io::SaveOfflineModel format) every session serves from —
  /// train-once / serve-many, now with N concurrent tenants. Read once, by
  /// Start(); every admitted and recovered session reuses that copy.
  std::string model_path;
  /// Registry name (api::MakeWorkloadByName) the model was trained for.
  /// Sessions must name the same workload; their content_seed makes them
  /// distinct cameras of that family.
  std::string workload = "ev";
  /// Per-stream provisioning (cores, buffer, default cloud budget).
  api::Resources resources;
  /// Pooled joint-planning budget, core-seconds per video-second. > 0 also
  /// arms admission control: a session whose all-cheapest cost would push
  /// the fleet past this budget is rejected with kResourceExhausted — the
  /// joint planner's own feasibility threshold, checked at admission time
  /// instead of discovered as an infeasible boundary later. <= 0 derives
  /// the budget from the streams' own resources each boundary (admission
  /// then only enforces max_sessions). Start refuses a value that is not
  /// finite, as a kSetBudget request does.
  double shared_budget_core_s_per_video_s = 0.0;
  /// Hard cap on concurrently running sessions; 0 = uncapped.
  size_t max_sessions = 0;
  /// Hold the virtual clock until this many sessions have been admitted,
  /// so all of them join at boundary 0 of one lockstep fleet. This is what
  /// makes N concurrent clients bitwise-comparable to one in-process
  /// StreamSet created with all N streams. 0 = start stepping immediately.
  size_t start_after_sessions = 0;
  /// When non-empty, write a serve checkpoint (session table + fleet
  /// snapshot) here every `checkpoint_every_boundaries` lockstep plan
  /// boundaries, and a final one on drain.
  std::string checkpoint_path;
  size_t checkpoint_every_boundaries = 0;
  /// StreamSet supervision budget per stream (see StreamSetOptions).
  size_t max_stream_restarts = 0;
  /// When non-empty, resume from this serve checkpoint instead of starting
  /// empty: every in-flight session continues bitwise (traces included),
  /// finished sessions keep their fetchable results, and the admission
  /// counters carry over. The checkpoint's shared budget wins over the
  /// shared_budget option.
  std::string recover_path;
};

/// The `sky serve` daemon: accepts stream sessions over a local TCP socket
/// (serve/protocol.h frames), multiplexes them onto ONE core::StreamSet
/// with joint planning under the pooled budget, and services admission,
/// live reconfiguration, metrics, and graceful drain.
///
/// Threading model — strict ownership:
///  - ONE fleet thread owns the StreamSet (built by Init, empty or
///    recovered), each session's camera workload and every counter. It
///    drives the fleet through StreamSet::RunToCompletion as worker 0,
///    beside a pool of dag::DefaultThreadCount() - 1 workers that only
///    step their shards of engines between lockstep plan boundaries. At
///    every boundary, with the pool parked, the fleet thread is the
///    barrier's leader and runs the boundary window: it harvests finished
///    sessions, runs every queued request closure (metrics included),
///    writes the periodic checkpoint, and ends the run for a drain, a hard
///    stop, a start_after_sessions hold or an idle fleet; dag::Barrier's
///    mutex orders the window's writes before the workers' next interval.
///    While the fleet is idle or held, the fleet thread sleeps on the queue
///    and re-enters the run when a request, a drain or a stop arrives, so
///    every request runs in a window. Every session reads the one model
///    loaded at start, which nothing writes after Init (each engine
///    fine-tunes its own copy of the forecaster).
///  - One listener thread accepts connections, and joins and closes the
///    ones whose peer has hung up.
///  - One thread per connection parses request frames, enqueues each as a
///    closure over fleet-thread state, and blocks on the reply future (or
///    on the session registry, for kFetchResult). The registry is the only
///    state connection threads share with the fleet thread directly, and it
///    carries its own lock.
///
/// Requests change the fleet only at lockstep boundaries, where the
/// in-process reference makes the same calls, so served results are
/// bitwise-identical to it at any worker count.
class Server {
 public:
  /// Binds, (optionally) recovers, and starts all threads. On success the
  /// server is accepting connections on 127.0.0.1:port().
  static Result<std::unique_ptr<Server>> Start(ServerOptions options);

  /// Hard stop: takes effect at the next lockstep boundary, once the
  /// workers finish the plan interval in flight; abandons the rest WITHOUT
  /// a final checkpoint, fails queued requests, closes the socket, joins
  /// every thread. Use RequestDrain() + Wait() for the graceful path.
  ~Server();

  int port() const { return port_; }

  /// Asks the fleet to drain: finish the current interval, write the final
  /// checkpoint in the next boundary window (when checkpointing is
  /// configured), fail still-running waiters with a "recover to finish"
  /// error, and exit. Safe from any thread; idempotent. (The CLI calls this
  /// when SIGINT/SIGTERM is flagged; a kDrain frame triggers the same path.)
  void RequestDrain();

  /// True once the fleet thread has exited (drained or failed).
  bool finished() const { return finished_.load(); }

  /// Joins the fleet thread and shuts the network down; returns the fleet
  /// loop's terminal status. Call after RequestDrain() (or a client-sent
  /// kDrain) for a graceful exit.
  Status Wait();

 private:
  /// What one fleet slot holds beyond the engine: the session's own camera
  /// workload (the job borrows it) and the session id its outcome is
  /// harvested under. An empty workload marks a slot with no running
  /// session.
  struct StreamTenant {
    std::unique_ptr<core::Workload> workload;
    uint64_t session_id = 0;
  };

  /// One connection thread and its socket. The fd stays open until the
  /// thread is joined, so its number is never reused under a live thread.
  /// The thread holds the object's address, so it never moves.
  struct Conn {
    Conn() = default;
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    std::thread thread;
    int fd = -1;
    bool done = false;  ///< left Connection(); guarded by conn_mu_
  };

  /// One request for the boundary window: `run` reads and writes fleet-
  /// thread state and returns the encoded success-reply payload (or the
  /// rejection Status), which the window sets on `reply`.
  struct Command {
    std::function<Result<std::string>()> run;
    std::promise<Result<std::string>> reply;
  };

  explicit Server(ServerOptions options);

  /// Loads the base model, builds the fleet (recovered from
  /// options_.recover_path when set, empty otherwise), binds the socket.
  Status Init();
  /// Restores the session table and counters of the serve checkpoint at
  /// options_.recover_path; fills the fleet checkpoint it embeds and the
  /// jobs slot-parallel to it (null jobs on slots with no running session).
  Status RecoverFromServeCheckpoint(std::vector<core::StreamEngineJob>* jobs,
                                    io::FleetCheckpoint* fleet);

  /// Builds one admitted or recovered session's StreamEngineJob on the
  /// served model, cluster and cost model of `base_facade_`, with the
  /// session's own camera workload, which it stores in `tenant->workload`.
  Result<core::StreamEngineJob> BuildJob(const SessionSpec& spec,
                                         StreamTenant* tenant) const;

  /// min_k cost(k) of one more session of the served model — the marginal
  /// all-cheapest cost admission control charges a newcomer.
  double NewcomerCheapestCost() const;

  void FleetLoop();
  /// The boundary window (see the threading model). Returns false to end
  /// the run at this boundary; sets exit_status_ when the loop is to end.
  bool BoundaryWindow();
  void HarvestFinished();
  /// The boundary commands: each returns its success-reply payload.
  Result<std::string> Admit(const SessionSpec& spec);
  Result<std::string> Close(uint64_t session_id);
  Result<std::string> Reconfigure(uint64_t session_id,
                                  const core::StreamReconfig& changes);
  std::string CollectMetricsJson();
  Status WriteServeCheckpoint();
  /// drain_requested_, read under queue_mu_.
  bool DrainRequested();

  /// Enqueues `run` for the next boundary window and blocks on its reply.
  /// Refuses (instead of hanging) once the fleet loop has closed the queue.
  Result<std::string> Dispatch(std::function<Result<std::string>()> run);

  void ListenLoop();
  /// Joins the connection threads that have finished and closes their fds.
  void ReapConnections();
  void Connection(Conn* conn);
  /// Handles one request frame; returns the reply (type, payload).
  std::pair<FrameType, std::string> HandleRequest(const Frame& request);

  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::chrono::steady_clock::time_point started_at_;

  /// The served model, loaded and checked against the workload name once,
  /// in Init: it resolves spec defaults, prices admission, and every
  /// session's job points at its model, cluster and cost model. Read-only
  /// after Init.
  std::unique_ptr<core::Workload> base_workload_;
  std::unique_ptr<api::Skyscraper> base_facade_;

  /// Workers 1.. of every fleet run; null on a single-core host.
  std::unique_ptr<dag::ThreadPool> pool_;

  // --- Fleet-thread-owned state (no lock; see threading model) ---
  std::unique_ptr<core::StreamSet> fleet_;  ///< non-null after Init
  std::vector<StreamTenant> tenants_;  ///< slot-parallel to the fleet
  uint64_t sessions_accepted_ = 0;
  uint64_t sessions_rejected_ = 0;
  uint64_t boundaries_seen_ = 0;
  double shared_budget_ = 0.0;
  Status last_checkpoint_status_;
  /// Set once the fleet loop is to end: Ok for a hard stop, the final
  /// checkpoint's status for a drain, the fleet's error for a failed run.
  std::optional<Status> exit_status_;

  SessionRegistry registry_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Command> queue_;
  bool drain_requested_ = false;
  bool queue_closed_ = false;

  std::atomic<bool> stop_{false};      ///< hard stop (destructor)
  std::atomic<bool> finished_{false};  ///< fleet thread exited

  std::thread fleet_thread_;
  std::thread listen_thread_;
  /// Connections not yet joined: the listener reaps finished ones on every
  /// poll tick, Wait() shuts down and joins the rest.
  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool joined_ = false;
};

}  // namespace sky::serve

#endif  // SKYSCRAPER_SERVE_SERVER_H_
