// sky — the Skyscraper command-line deployment tool.
//
// Splits the paper's two phases into separate processes, so the expensive
// offline fit (§3, Table 3) is paid once and every serving process starts
// warm:
//
//   # Terminal 1: train once, persist the model.
//   sky offline --workload covid --out model.bin
//
//   # Terminal 2 (later, or on another machine): serve from the saved model.
//   sky ingest --model model.bin --workload covid --duration-days 2
//
//   # Or run a long-lived multi-tenant server and feed it sessions:
//   sky serve --model model.bin --workload covid --shared-budget 6 &
//   sky client open --port $PORT --duration-days 1 --wait
//
// The saved file is the versioned chunked binary of docs/model_format.md;
// `sky ingest` from a loaded model is bitwise-identical to ingesting right
// after Fit() in one process (gated by tests/model_io_test.cc), and a served
// session is bitwise-identical to the same job on an in-process StreamSet
// (gated by tests/serve_test.cc). `sky inspect` prints a saved model's
// summary without running anything.
//
// Hardware provisioning (--cores, --cloud-budget, --buffer-gb) must match
// between the phases: the model's placement profiles describe the cluster
// they were profiled on (the provisioning is deliberately NOT part of the
// model file — the same reason you pass the same --workload).
//
// Exit codes (scriptable: every failure is one line on stderr, nothing on
// stdout):
//   0  success
//   1  any other runtime failure (includes an admission rejection, and a
//      run that runs out of memory: "sky: out of memory ...")
//   2  usage error (unknown subcommand/workload, a flag the subcommand's
//      --help does not list, missing required flag, a number flag whose
//      value is not wholly a finite number of its type or lies outside the
//      flag's range, e.g. `--start-days -5`, `--plan-interval-days 0` or
//      `--threads 2000`, or
//      a value the offline fit or the ingest run refuses, e.g.
//      `--categories 0` or `--duration-days -1`)
//   3  I/O failure (model file missing or unreadable, save failed)
//   4  corrupt model file (bad magic/version/checksum/layout)
//   5  model/workload mismatch (the file is fine, but trained for a
//      different job than --workload)
//
// Every subcommand also answers `--help` on stdout with exit code 0.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/skyscraper.h"
#include "api/workload_registry.h"
#include "io/model_io.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/sim_time.h"

namespace {

using sky::Days;
using sky::Status;

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

int Usage() {
  std::fprintf(stderr, R"(usage: sky <subcommand> [flags]

subcommands:
  offline   run the offline phase and save the trained model (train once)
  ingest    load a saved model and ingest a stream (serve many)
  inspect   print a saved model's summary
  serve     long-running multi-tenant ingestion server (docs/serving.md)
  client    talk to a running `sky serve` (open/metrics/reconfigure/...)

run `sky <subcommand> --help` for that subcommand's flags.
)");
  return 2;
}

// Per-subcommand usage texts. --help prints these on STDOUT and exits 0;
// usage ERRORS print them on stderr and exit 2.
constexpr const char kOfflineHelp[] =
    R"(usage: sky offline --out PATH [flags]

  --out PATH            where to write the model            (required)
  --workload NAME       ev | covid | mot | mosei-high | mosei-long |
                        flash-crowd | drift | fleet         (default ev)
  --cores N             on-premise cluster cores            (default 8)
  --cloud-budget D      cloud credits (USD) per plan interval (default 0)
  --buffer-gb G         video buffer capacity, GiB          (default 4)
  --segment-seconds S   knob-switcher period                (default 4)
  --train-days D        unlabeled training horizon          (default 16)
  --plan-days D         forecast span / planned interval    (default 2)
  --categories C        content categories                  (default 4)
  --threads N           offline worker threads, 0 = all,
                        at most 1024                        (default 0)
  --seed S              offline RNG seed                    (default 81)
)";

constexpr const char kIngestHelp[] =
    R"(usage: sky ingest --model PATH [flags]

  --model PATH            model saved by `sky offline`      (required)
  --workload NAME         must match the model's annotation (default ev)
  --cores N / --cloud-budget D / --buffer-gb G   provisioning (as trained)
  --start-days D          ingest start (default: the model's train horizon)
  --duration-days D       how much stream to ingest         (default 1)
  --plan-interval-days D  knob-planner period (default: the span the model's
                          forecaster was trained for)
  --seed S                engine noise seed                 (default 71)
)";

constexpr const char kInspectHelp[] =
    R"(usage: sky inspect --model PATH

  --model PATH          model file to describe              (required)
)";

constexpr const char kServeHelp[] =
    R"(usage: sky serve --model PATH [flags]

Runs the multi-tenant ingestion server on 127.0.0.1 (docs/serving.md): N
client sessions multiplex onto one jointly planned StreamSet under a pooled
budget. SIGINT/SIGTERM drain gracefully: the fleet stops at its next plan
boundary, writes a final checkpoint, and every session resumes bitwise
under --recover.

  --model PATH          model saved by `sky offline`        (required)
  --workload NAME       the workload the model serves       (default ev)
  --cores N / --cloud-budget D / --buffer-gb G   per-stream provisioning
  --port N              TCP port; 0 picks an ephemeral port (default 0)
  --port-file PATH      write the bound port here (scripting ephemeral ports)
  --shared-budget B     pooled planning budget, core-s per video-s; > 0 also
                        arms admission control               (default 0: derive)
  --max-sessions N      hard cap on live sessions, 0 = none (default 0)
  --start-after N       hold the virtual clock until N sessions joined
  --checkpoint PATH     serve checkpoint file (periodic + final)
  --checkpoint-every K  checkpoint every K plan boundaries  (default 1)
  --max-restarts R      supervised restarts per stream      (default 0)
  --recover PATH        resume every session from this serve checkpoint
)";

constexpr const char kClientHelp[] =
    R"(usage: sky client <verb> --port N [flags]

verbs:
  open         open a stream session (admitted at the next plan boundary)
  fetch        block for a session's final result and print it
  metrics      print the server's JSON metrics document
  reconfigure  change one session's knobs at the next plan boundary
  set-budget   change the fleet-wide pooled budget at the next plan boundary
  close        retire a running session at the next plan boundary
  drain        checkpoint at the next boundary and shut the server down

common flags:
  --port N              the server's port                   (required)

open flags:
  --workload NAME         must match the served workload    (default ev)
  --content-seed S        camera identity (distinct seeds = distinct streams)
  --start-days D          session start (default: model train horizon)
  --duration-days D       session length                    (default 1)
  --plan-interval-days D  plan cadence (default: the model's forecast span)
  --seed S                engine noise seed                 (default 71)
  --record-trace          record the Fig. 3 time series
  --trace-resolution-s S  trace sample spacing              (default 300)
  --cloud-budget D        per-interval cloud credits override
  --work-budget B         pure work budget override, core-s per video-s
  --wait                  block for the final result and print it

fetch flags:
  --session ID            session to fetch (works across --recover: ids are
                          stable in the serve checkpoint)   (required)

reconfigure flags:
  --session ID            session to reconfigure            (required)
  --cloud-budget D        new per-interval cloud credits
  --work-budget B         new pure work budget (0 returns to cores+cloud)

set-budget flags:
  --budget B              new pooled budget; <= 0 derives from streams

close flags:
  --session ID            session to retire                 (required)
)";

struct Flags {
  std::string workload = "ev";
  int cores = 8;
  /// Unset: no cloud credits provisioned, no per-session override.
  std::optional<double> cloud_budget;
  double buffer_gb = 4.0;
  std::string out;
  std::string model;
  double segment_seconds = 4.0;
  double train_days = 16.0;
  double plan_days = 2.0;
  size_t categories = 4;
  size_t threads = 0;
  uint64_t offline_seed = 81;
  /// Unset: derive from the loaded model (ResolveServedSchedule).
  std::optional<double> start_days;
  double duration_days = 1.0;
  /// Unset: derive from the loaded model (ResolveServedSchedule).
  std::optional<double> plan_interval_days;
  uint64_t engine_seed = 71;
  bool help = false;

  // serve flags
  int port = 0;
  std::string port_file;
  double shared_budget = 0.0;
  size_t max_sessions = 0;
  size_t start_after = 0;
  std::string checkpoint;
  size_t checkpoint_every = 1;
  size_t max_restarts = 0;
  std::string recover;

  // client flags
  std::optional<uint64_t> content_seed;
  bool record_trace = false;
  double trace_resolution_s = 300.0;
  bool wait = false;
  std::optional<uint64_t> session;
  double budget = 0.0;
  std::optional<double> work_budget;
};

/// Parses all of `text` into `out`: false unless the whole string is a
/// number of T's syntax, in T's range, and finite.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  auto [last, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc() && last == end &&
         std::isfinite(static_cast<double>(*out));
}

template <typename T>
bool ParseNumber(const std::string& text, std::optional<T>* out) {
  return ParseNumber(text, &out->emplace());
}

constexpr double kBytesPerGb = 1ull << 30;
/// Most offline worker threads `--threads` takes: refused before any pool
/// starts a thread.
constexpr size_t kMaxThreads = 1024;

/// The flags a subcommand (or client verb) accepts: exactly those its
/// --help lists, which ParseFlags checks before anything else. --help and
/// -h are accepted everywhere.
using FlagSet = std::vector<std::string_view>;

/// The flags `help` lists: every `--` token in the flag column (up to the
/// first run of two spaces) of a line that opens with one, so ingest's
/// "--cores N / --cloud-budget D / --buffer-gb G" lists three. After a
/// section header (an unindented line ending in ':'), only the lines of
/// "common flags:" and "<verb> flags:" count: `sky client <verb>` accepts
/// the common flags and its verb's own.
FlagSet ListedFlags(std::string_view help, const std::string& verb) {
  FlagSet flags;
  bool counted = true;
  while (!help.empty()) {
    const size_t eol = std::min(help.find('\n'), help.size());
    const std::string_view line = help.substr(0, eol);
    help.remove_prefix(std::min(eol + 1, help.size()));
    if (!line.empty() && line.front() != ' ' && line.back() == ':') {
      counted = line == "common flags:" || line == verb + " flags:";
      continue;
    }
    const size_t start = line.find_first_not_of(' ');
    if (!counted || start == std::string_view::npos ||
        line.compare(start, 2, "--") != 0) {
      continue;
    }
    std::string_view column = line.substr(start, line.find("  ", start) - start);
    while (!column.empty()) {
      const size_t end = std::min(column.find(' '), column.size());
      if (column.compare(0, 2, "--") == 0) flags.push_back(column.substr(0, end));
      column.remove_prefix(std::min(end + 1, column.size()));
    }
  }
  return flags;
}

/// The --help text of `sky <cmd>`; null for an unknown subcommand.
const char* HelpOf(const std::string& cmd) {
  if (cmd == "offline") return kOfflineHelp;
  if (cmd == "ingest") return kIngestHelp;
  if (cmd == "inspect") return kInspectHelp;
  if (cmd == "serve") return kServeHelp;
  if (cmd == "client") return kClientHelp;
  return nullptr;
}

/// Parses "--flag value" / "--flag=value" pairs (boolean flags take no
/// value) for `command`, which accepts `accepted`; returns false on a flag
/// it does not accept, a missing value, a number flag whose value
/// ParseNumber refuses, a --port outside [0, 65535], a --buffer-gb whose
/// byte count is negative or does not fit in a uint64, --threads above
/// kMaxThreads, a negative --start-days or a --plan-interval-days that is
/// not positive.
bool ParseFlags(int argc, char** argv, const std::string& command,
                const FlagSet& accepted, Flags* f) {
  auto refused = [&](const std::string& arg) {
    if (std::find(accepted.begin(), accepted.end(), arg) != accepted.end()) {
      return false;
    }
    std::fprintf(stderr, "sky %s: unknown flag %s\n", command.c_str(),
                 arg.c_str());
    return true;
  };
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    // Boolean flags first: they never consume the next argument.
    if (arg == "--help" || arg == "-h") { f->help = true; continue; }
    if (arg == "--record-trace" || arg == "--wait") {
      if (refused(arg)) return false;
      (arg == "--wait" ? f->wait : f->record_trace) = true;
      continue;
    }

    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    if (refused(arg)) return false;
    if (eq == std::string::npos) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sky %s: flag %s needs a value\n",
                     command.c_str(), arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    bool parsed = true;
    auto number = [&](auto* target) { parsed = ParseNumber(value, target); };
    if (arg == "--workload") f->workload = value;
    else if (arg == "--cores") number(&f->cores);
    else if (arg == "--cloud-budget") number(&f->cloud_budget);
    else if (arg == "--buffer-gb") {
      number(&f->buffer_gb);
      parsed = parsed && f->buffer_gb >= 0.0 &&
               f->buffer_gb * kBytesPerGb < 0x1p64;
    }
    else if (arg == "--out") f->out = value;
    else if (arg == "--model") f->model = value;
    else if (arg == "--segment-seconds") number(&f->segment_seconds);
    else if (arg == "--train-days") number(&f->train_days);
    else if (arg == "--plan-days") number(&f->plan_days);
    else if (arg == "--categories") number(&f->categories);
    else if (arg == "--threads") {
      number(&f->threads);
      parsed = parsed && f->threads <= kMaxThreads;
    }
    else if (arg == "--seed") { number(&f->offline_seed); f->engine_seed = f->offline_seed; }
    // Unset, these two derive from the model; set, they must be a day.
    else if (arg == "--start-days") {
      number(&f->start_days);
      parsed = parsed && *f->start_days >= 0.0;
    }
    else if (arg == "--duration-days") number(&f->duration_days);
    else if (arg == "--plan-interval-days") {
      number(&f->plan_interval_days);
      parsed = parsed && *f->plan_interval_days > 0.0;
    }
    else if (arg == "--port") {
      number(&f->port);
      parsed = parsed && f->port >= 0 && f->port <= 65535;
    }
    else if (arg == "--port-file") f->port_file = value;
    else if (arg == "--shared-budget") number(&f->shared_budget);
    else if (arg == "--max-sessions") number(&f->max_sessions);
    else if (arg == "--start-after") number(&f->start_after);
    else if (arg == "--checkpoint") f->checkpoint = value;
    else if (arg == "--checkpoint-every") number(&f->checkpoint_every);
    else if (arg == "--max-restarts") number(&f->max_restarts);
    else if (arg == "--recover") f->recover = value;
    else if (arg == "--content-seed") number(&f->content_seed);
    else if (arg == "--trace-resolution-s") number(&f->trace_resolution_s);
    else if (arg == "--session") number(&f->session);
    else if (arg == "--budget") number(&f->budget);
    else if (arg == "--work-budget") number(&f->work_budget);
    else {
      // An accepted flag without a branch here is boolean.
      std::fprintf(stderr, "sky %s: flag %s takes no value\n",
                   command.c_str(), arg.c_str());
      return false;
    }
    if (!parsed) {
      std::fprintf(stderr, "sky %s: invalid value '%s' for flag %s\n",
                   command.c_str(), value.c_str(), arg.c_str());
      return false;
    }
  }
  return true;
}

sky::api::Resources MakeResources(const Flags& f) {
  sky::api::Resources res;
  res.cores = f.cores;
  res.buffer_bytes = static_cast<uint64_t>(f.buffer_gb * kBytesPerGb);
  res.cloud_budget_usd_per_interval = f.cloud_budget.value_or(0.0);
  return res;
}

/// Maps a failure Status onto the documented exit codes: the scripting
/// contract is "the exit code tells you WHAT went wrong, stderr tells you
/// where". I/O-level failures surface as kNotFound (missing file) or
/// kInternal (read/write error); a file that exists but does not parse is
/// kInvalidArgument; a parseable model for the wrong job is
/// kFailedPrecondition.
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case sky::StatusCode::kNotFound:
    case sky::StatusCode::kInternal:
      return 3;
    case sky::StatusCode::kInvalidArgument:
      return 4;
    case sky::StatusCode::kFailedPrecondition:
      return 5;
    default:
      return 1;
  }
}

int Fail(const Status& status) {
  std::fprintf(stderr, "sky: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

/// Fail for a refusal of the offline fit or the ingest run itself: there
/// kInvalidArgument names a flag value the run cannot use, a usage error,
/// not a corrupt model.
int FailRun(const Status& status) {
  int code = Fail(status);
  return status.code() == sky::StatusCode::kInvalidArgument ? 2 : code;
}

int HelpOut(const char* text) {
  std::printf("%s", text);
  return 0;
}

int RunOffline(const Flags& f) {
  if (f.help) return HelpOut(kOfflineHelp);
  if (f.out.empty()) {
    std::fprintf(stderr, "sky offline: --out is required\n");
    return 2;
  }
  auto workload = sky::api::MakeWorkloadByName(f.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "sky: unknown workload '%s'\n", f.workload.c_str());
    return 2;
  }

  sky::api::Skyscraper sky(workload.get());
  sky.SetResources(MakeResources(f));

  sky::core::OfflineOptions opts;
  opts.segment_seconds = f.segment_seconds;
  opts.train_horizon = Days(f.train_days);
  opts.num_categories = f.categories;
  opts.forecaster.input_span = Days(f.plan_days);
  opts.forecaster.planned_interval = Days(f.plan_days);
  opts.num_threads = f.threads;
  opts.seed = f.offline_seed;

  Status fit = sky.Fit(opts);
  if (!fit.ok()) return FailRun(fit);

  auto model = sky.model();
  if (!model.ok()) return Fail(model.status());
  // Output only once the fit succeeded: a failure leaves stdout empty.
  std::printf("sky offline: fitted %s (%.1f-day horizon, %.0f s segments, "
              "%zu categories, %d cores)\n",
              workload->name().c_str(), f.train_days, f.segment_seconds,
              f.categories, f.cores);
  const auto& rt = (*model)->step_runtimes;
  std::printf("  filter configs %.2fs | placements %.2fs | categories %.2fs "
              "| forecast data %.2fs | training %.2fs\n",
              rt.filter_configs_s, rt.filter_placements_s,
              rt.content_categories_s, rt.forecast_training_data_s,
              rt.forecast_training_s);

  Status saved = sky.SaveModel(f.out, workload->name());
  if (!saved.ok()) return Fail(saved);
  std::printf("sky offline: saved %zu configs, %zu categories, "
              "%zu-segment training sequence -> %s\n",
              (*model)->configs.size(), (*model)->categories.NumCategories(),
              (*model)->train_category_sequence.size(), f.out.c_str());
  return 0;
}

int RunIngest(const Flags& f) {
  if (f.help) return HelpOut(kIngestHelp);
  if (f.model.empty()) {
    std::fprintf(stderr, "sky ingest: --model is required\n");
    return 2;
  }
  // The planner spends the on-prem cores plus the cloud time the credits
  // buy: with neither it has nothing to plan with.
  if (f.cores <= 0 && !(f.cloud_budget.value_or(0.0) > 0.0)) {
    std::fprintf(stderr,
                 "sky ingest: --cores %d with --cloud-budget %g leaves no "
                 "planning budget; give either a positive value\n",
                 f.cores, f.cloud_budget.value_or(0.0));
    return 2;
  }
  auto workload = sky::api::MakeWorkloadByName(f.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "sky: unknown workload '%s'\n", f.workload.c_str());
    return 2;
  }

  sky::api::Skyscraper sky(workload.get());
  sky.SetResources(MakeResources(f));

  // The annotation check refuses a model trained for another workload —
  // the quality tables would be silently wrong otherwise.
  Status loaded = sky.LoadModel(f.model, workload->name());
  if (!loaded.ok()) return Fail(loaded);
  auto model = sky.model();
  if (!model.ok()) return Fail(model.status());

  // ParseFlags refused the values ResolveServedSchedule derives from, so
  // only an unset flag takes the model's value.
  const sky::api::ServedSchedule schedule = sky::api::ResolveServedSchedule(
      **model, f.start_days.value_or(-1.0),
      f.plan_interval_days.value_or(-1.0));
  sky::core::EngineOptions opts;
  opts.duration = Days(f.duration_days);
  opts.plan_interval = Days(schedule.plan_interval_days);
  opts.seed = f.engine_seed;

  auto result = sky.Ingest(Days(schedule.start_days), opts);
  if (!result.ok()) return FailRun(result.status());

  // All output after the run succeeds: a failing invocation writes exactly
  // one line to stderr and nothing to stdout (the exit-code contract above).
  std::printf("sky ingest: %s from %s (day %.1f, %.1f days, plan every "
              "%.1f days, %d cores, $%.2f cloud/interval)\n",
              workload->name().c_str(), f.model.c_str(),
              schedule.start_days, f.duration_days,
              schedule.plan_interval_days, f.cores,
              f.cloud_budget.value_or(0.0));
  std::printf("  segments          %zu\n", result->segments);
  std::printf("  mean quality      %.4f\n", result->mean_quality);
  std::printf("  work              %.1f core-s (%.1f on-prem)\n",
              result->work_core_seconds, result->onprem_core_seconds);
  std::printf("  cloud spend       $%.3f\n", result->cloud_usd);
  std::printf("  buffer high water %.1f MiB (%zu overflows)\n",
              static_cast<double>(result->buffer_high_water_bytes) /
                  (1 << 20),
              result->overflow_events);
  std::printf("  config switches   %zu (%zu degraded)\n",
              result->switch_count, result->degraded_count);
  std::printf("  misclassified     %.2f%% (A: %zu, B: %zu)\n",
              100.0 * result->MisclassificationRate(), result->type_a_errors,
              result->type_b_errors);
  return 0;
}

int RunInspect(const Flags& f) {
  if (f.help) return HelpOut(kInspectHelp);
  if (f.model.empty()) {
    std::fprintf(stderr, "sky inspect: --model is required\n");
    return 2;
  }
  std::string annotation;
  auto model = sky::io::LoadOfflineModel(f.model, &annotation);
  if (!model.ok()) return Fail(model.status());

  std::printf("%s: Skyscraper model (format v%u)\n", f.model.c_str(),
              sky::io::kModelFormatVersion);
  std::printf("  workload annotation  %s\n",
              annotation.empty() ? "(none)" : annotation.c_str());
  std::printf("  knob configurations  %zu\n", model->configs.size());
  size_t placements = 0;
  for (const auto& p : model->profiles) placements += p.placements.size();
  std::printf("  placement profiles   %zu (%zu Pareto placements)\n",
              model->profiles.size(), placements);
  std::printf("  content categories   %zu (%s backend)\n",
              model->categories.NumCategories(),
              model->categories.backend() ==
                      sky::core::CategorizerBackend::kKMeans
                  ? "k-means"
                  : "GMM");
  std::printf("  training sequence    %zu segments of %.0f s (%.1f days)\n",
              model->train_category_sequence.size(), model->segment_seconds,
              model->train_horizon / 86400.0);
  if (model->forecaster.has_value()) {
    std::printf("  forecaster           %zu parameters, best val loss %.4f "
                "(epoch %zu)\n",
                model->forecaster->ModelParameters().size(),
                model->forecaster->train_report().best_val_loss,
                model->forecaster->train_report().best_epoch);
  } else {
    std::printf("  forecaster           (not trained)\n");
  }
  return 0;
}

int RunServe(const Flags& f) {
  if (f.help) return HelpOut(kServeHelp);
  if (f.model.empty()) {
    std::fprintf(stderr, "sky serve: --model is required\n");
    return 2;
  }

  sky::serve::ServerOptions opts;
  opts.port = f.port;
  opts.model_path = f.model;
  opts.workload = f.workload;
  opts.resources = MakeResources(f);
  opts.shared_budget_core_s_per_video_s = f.shared_budget;
  opts.max_sessions = f.max_sessions;
  opts.start_after_sessions = f.start_after;
  opts.checkpoint_path = f.checkpoint;
  opts.checkpoint_every_boundaries = f.checkpoint_every;
  opts.max_stream_restarts = f.max_restarts;
  opts.recover_path = f.recover;

  auto server = sky::serve::Server::Start(std::move(opts));
  if (!server.ok()) return Fail(server.status());

  if (!f.port_file.empty()) {
    std::FILE* pf = std::fopen(f.port_file.c_str(), "w");
    if (pf == nullptr) {
      return Fail(Status::Internal("cannot write port file " + f.port_file));
    }
    std::fprintf(pf, "%d\n", (*server)->port());
    std::fclose(pf);
  }
  std::printf("sky serve: listening on 127.0.0.1:%d\n", (*server)->port());
  std::fflush(stdout);

  // SIGINT/SIGTERM -> graceful drain: the handler only flips a flag (a
  // condvar notify is not async-signal-safe); this loop turns it into a
  // drain request, and the next boundary window checkpoints.
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!(*server)->finished()) {
    if (g_signal) {
      g_signal = 0;
      (*server)->RequestDrain();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Status st = (*server)->Wait();
  if (!st.ok()) return Fail(st);
  std::printf("sky serve: drained\n");
  return 0;
}

void PrintResult(uint64_t id, const sky::core::EngineResult& r) {
  std::printf("sky client: session %llu finished\n",
              static_cast<unsigned long long>(id));
  std::printf("  segments          %zu\n", r.segments);
  std::printf("  mean quality      %.4f\n", r.mean_quality);
  std::printf("  work              %.1f core-s (%.1f on-prem)\n",
              r.work_core_seconds, r.onprem_core_seconds);
  std::printf("  cloud spend       $%.3f\n", r.cloud_usd);
  std::printf("  result fnv1a      %016llx\n",
              static_cast<unsigned long long>(
                  sky::serve::ResultFingerprint(r)));
}

int RunClient(const std::string& verb, const Flags& f) {
  if (f.help) return HelpOut(kClientHelp);
  // Usage errors (unknown verb, missing port or session) are decided
  // before touching the network, so they exit 2 even with no server around.
  static const char* kVerbs[] = {"open",       "fetch", "metrics",
                                 "reconfigure", "set-budget", "close",
                                 "drain"};
  bool known = false;
  for (const char* v : kVerbs) known = known || verb == v;
  if (!known) {
    std::fprintf(stderr, "sky client: unknown verb '%s'\n%s", verb.c_str(),
                 kClientHelp);
    return 2;
  }
  if (f.port <= 0) {
    std::fprintf(stderr, "sky client: --port is required\n");
    return 2;
  }
  if ((verb == "fetch" || verb == "reconfigure" || verb == "close") &&
      !f.session) {
    std::fprintf(stderr, "sky client %s: --session is required\n",
                 verb.c_str());
    return 2;
  }
  auto client = sky::serve::Client::Connect(f.port);
  if (!client.ok()) return Fail(client.status());

  if (verb == "open") {
    sky::serve::SessionSpec spec;
    spec.workload = f.workload;
    spec.content_seed = f.content_seed;
    // Unset flags keep the spec's sentinels: the server derives them.
    if (f.start_days) spec.start_days = *f.start_days;
    spec.duration_days = f.duration_days;
    if (f.plan_interval_days) spec.plan_interval_days = *f.plan_interval_days;
    spec.engine_seed = f.engine_seed;
    spec.record_trace = f.record_trace;
    spec.trace_resolution_s = f.trace_resolution_s;
    spec.cloud_budget_usd_per_interval = f.cloud_budget;
    if (f.work_budget) spec.work_budget_override = *f.work_budget;

    auto opened = client->OpenSession(spec);
    if (!opened.ok()) return Fail(opened.status());
    std::printf("sky client: session %llu opened (stream %llu)\n",
                static_cast<unsigned long long>(opened->first),
                static_cast<unsigned long long>(opened->second));
    if (!f.wait) return 0;
    std::fflush(stdout);
    auto result = client->FetchResult(opened->first);
    if (!result.ok()) return Fail(result.status());
    PrintResult(opened->first, *result);
    return 0;
  }

  if (verb == "fetch") {
    auto result = client->FetchResult(*f.session);
    if (!result.ok()) return Fail(result.status());
    PrintResult(*f.session, *result);
    return 0;
  }

  if (verb == "metrics") {
    auto json = client->Metrics();
    if (!json.ok()) return Fail(json.status());
    std::printf("%s", json->c_str());
    return 0;
  }

  if (verb == "reconfigure") {
    sky::core::StreamReconfig changes;
    changes.cloud_budget_usd_per_interval = f.cloud_budget;
    changes.work_budget_override = f.work_budget;
    Status s = client->Reconfigure(*f.session, changes);
    if (!s.ok()) return Fail(s);
    std::printf("sky client: session %llu reconfigured (next boundary)\n",
                static_cast<unsigned long long>(*f.session));
    return 0;
  }

  if (verb == "set-budget") {
    Status s = client->SetSharedBudget(f.budget);
    if (!s.ok()) return Fail(s);
    std::printf("sky client: shared budget set to %.6f (next boundary)\n",
                f.budget);
    return 0;
  }

  if (verb == "close") {
    Status s = client->CloseSession(*f.session);
    if (!s.ok()) return Fail(s);
    std::printf("sky client: session %llu closed\n",
                static_cast<unsigned long long>(*f.session));
    return 0;
  }

  // The verb check above leaves only "drain".
  Status s = client->Drain();
  if (!s.ok()) return Fail(s);
  std::printf("sky client: server draining\n");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  Flags flags;

  if (cmd == "client") {
    // `sky client --help` (no verb) must still answer. An unknown verb
    // accepts the common flags alone, and RunClient refuses it.
    if (argc >= 3 && argv[2][0] != '-') {
      std::string verb = argv[2];
      if (!ParseFlags(argc - 3, argv + 3, "client " + verb,
                      ListedFlags(kClientHelp, verb), &flags)) {
        return 2;
      }
      return RunClient(verb, flags);
    }
    if (!ParseFlags(argc - 2, argv + 2, cmd, ListedFlags(kClientHelp, ""),
                    &flags)) {
      return 2;
    }
    if (flags.help) return HelpOut(kClientHelp);
    std::fprintf(stderr, "sky client: a verb is required\n%s", kClientHelp);
    return 2;
  }

  if (cmd == "--help" || cmd == "-h") {
    Usage();
    return 0;
  }
  const char* help = HelpOf(cmd);
  if (help == nullptr) return Usage();
  if (!ParseFlags(argc - 2, argv + 2, cmd, ListedFlags(help, ""), &flags)) {
    return 2;
  }
  if (cmd == "offline") return RunOffline(flags);
  if (cmd == "ingest") return RunIngest(flags);
  if (cmd == "inspect") return RunInspect(flags);
  return RunServe(flags);
}

}  // namespace

int main(int argc, char** argv) {
  // A flag value can ask for more memory than the machine has (a tiny
  // --segment-seconds multiplies every per-segment buffer): one line on
  // stderr and exit 1, like any other runtime failure.
  try {
    return Main(argc, argv);
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr,
                 "sky: out of memory (a flag value such as "
                 "--segment-seconds or --train-days asks for more than "
                 "this machine has)\n");
    return 1;
  }
}
