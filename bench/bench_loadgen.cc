// Open-loop Poisson load generator for the multi-tenant serving layer
// (serve/registry.h). Unlike bench_serving's closed loops, arrivals here
// follow a fixed-seed Poisson process at a target RPS that does not slow
// down when the server does — the open-loop model that actually exposes
// queueing delay. Reported per point: goodput (completed-ok/s), p50/p99/
// p99.9 completion latency, and failures broken down by status code
// (shed/expired/unavailable/internal), across 1..N models sharing one
// process.
//
// Every answer is also memcmp-checked against the owning model's
// serial-session prediction for the same window, so tenant isolation and
// the batched==serial bitwise contract are gated on every run; every ok
// answer is additionally scanned for non-finite values (the serving
// layer must suppress those into typed Internal errors, never deliver
// them).
//
// The --hot-reload phase (on by default) reruns the open loop on a
// single model while the bundle file is atomically replaced mid-load:
// it requires zero failed requests, every answer bitwise equal to the
// OLD or the NEW model (never anything else — no torn predictions),
// both generations observed, and afterwards publishes a corrupt bundle
// and requires the reload to fail while the previous model keeps
// answering. Any violation exits non-zero so scripts/check_perf.sh
// gates it.
//
// The overload point runs at 1.5x the calibrated capacity with
// per-request deadlines and a retry/backoff client: kOverloaded sheds
// are retried (bounded attempts, honoring the original deadline), and
// the point asserts zero requests executed past their deadline and zero
// non-finite answers delivered.
//
// --chaos=1 switches to the chaos gate driven by scripts/check_chaos.sh:
// three pairs of a no-fault overload phase and the same overload with
// slow-infer and poison-output faults injected mid-run
// (common/fault_injection.h), alternating which phase of a pair runs
// first. Asserted in every faulted phase: the circuit breaker trips and
// recovers via half-open probes, zero requests executed past their
// deadline, zero non-finite answers delivered (poisoned forecasts
// surface as typed Internal errors) and zero torn answers; and the
// median per-pair goodput ratio (faulted / no-fault) is >=
// --chaos-goodput-floor-pct%.
//
//   bench_loadgen [--models=N] [--duration-ms=N] [--threads=N]
//                 [--max-batch=N] [--json=FILE] [--hot-reload=0|1]
//                 [--chaos=0|1] [--chaos-duration-ms=N]
//                 [--chaos-goodput-floor-pct=N] [--chaos-slow-ms=N]
//
// Target RPS values are calibrated as fractions of the measured serial
// capacity of this box, not hardcoded, so the benchmark is meaningful on
// a 1-core container and a 32-core server alike.
//
// JSON output (consumed by check_perf.sh / check_chaos.sh):
//   {"base_rps": ..., "points": [{"models": ..., "util": ...,
//     "target_rps": ..., "offered": ..., "completed": ..., "failed": ...,
//     "mismatched": ..., "goodput_rps": ..., "p50_us": ..., "p99_us": ...,
//     "p999_us": ...}, ...],
//    "overload": {..., "shed": ..., "retries": ..., "nonfinite": ...,
//     "executed_past_deadline": ..., "breaker_trips": ...},
//    "hot_reload": {...}} — plus a "chaos" object in --chaos mode.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/profiler.h"
#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "common/interrupt.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/scaler.h"
#include "models/factory.h"
#include "serve/breaker.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "tensor/storage_pool.h"

namespace lipformer {
namespace {

using Clock = std::chrono::steady_clock;

int64_t FlagInt(int argc, char** argv, const char* name, int64_t def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::stoll(arg.substr(prefix.size()));
    }
  }
  return def;
}

std::string FlagStr(int argc, char** argv, const char* name,
                    const std::string& def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return def;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool AllFinite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

// Saves a paper-scale bundle (Weather-like 336->96, 21 channels) with
// per-tenant weights (`seed`). Returns false on failure.
bool SaveBundle(const std::string& path, const ForecasterDims& dims,
                uint64_t seed) {
  ModelOptions options;
  options.hidden_dim = 64;
  options.seed = seed;
  std::unique_ptr<Forecaster> model = CreateModel("lipformer", dims, options);
  Rng rng(seed + 1000);
  StandardScaler scaler;
  scaler.Fit(Tensor::Randn({256, dims.channels}, rng));
  Status st =
      serve::SaveModelBundle(path, "lipformer", options, *model, scaler);
  if (!st.ok()) {
    std::fprintf(stderr, "bundle save failed: %s\n", st.ToString().c_str());
    return false;
  }
  return true;
}

// One submitted request waiting for its answer.
struct InFlight {
  std::future<Result<Tensor>> future;
  Clock::time_point submitted;      // original submit; latency anchor
  Clock::time_point deadline_at{};  // absolute; epoch == none
  int model = 0;
  int window = 0;
  int attempt = 1;
};

// Per-model FIFO of in-flight requests, drained by a waiter thread. The
// batcher resolves futures in submit order per model, so the waiter's
// future::get() returns at (almost exactly) each request's completion
// time — giving honest completion-latency samples without polling.
struct PendingQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool closed = false;

  void Push(InFlight in_flight) {
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(in_flight));
    }
    cv.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
  }
};

// Client behavior knobs of one open-loop point.
struct OpenLoopOptions {
  // Per-request deadline (0 = none). Propagated into the batcher, which
  // sheds expired work and admission-controls against it.
  double deadline_s = 0;
  // Total attempts per request (1 = no retries). Only kOverloaded sheds
  // are retried, after backoff_s, and only while the original deadline
  // still has room — the open-loop analogue of a well-behaved client
  // honoring retry-after.
  int max_attempts = 1;
  double backoff_s = 0.01;
};

struct WaiterResult {
  std::vector<double> latencies;  // seconds, completed-ok only
  int64_t ok = 0;
  int64_t failed = 0;       // terminal failures (all codes)
  int64_t shed = 0;         // kOverloaded (admission control)
  int64_t expired = 0;      // kDeadlineExceeded
  int64_t unavailable = 0;  // kUnavailable (queue full / breaker open)
  int64_t internal = 0;     // kInternal (non-finite forecast suppressed)
  int64_t nonfinite = 0;    // ok answers carrying non-finite values
  int64_t expected_a = 0;   // bitwise matches of reference set A
  int64_t expected_b = 0;   // bitwise matches of reference set B
  int64_t mismatched = 0;   // neither reference — torn or misrouted
  Clock::time_point last_completion;
  std::string first_error;
};

// A shed request waiting out its backoff before resubmission.
struct RetryItem {
  Clock::time_point retry_at;
  Clock::time_point submitted;
  Clock::time_point deadline_at;
  int model = 0;
  int window = 0;
  int attempt = 1;
};

// Shared state of one RunPoint: registry handles for resubmission and
// the outstanding-request barrier that decides when the point is done
// (a retried request stays outstanding until it terminally resolves).
struct PointState {
  serve::ModelRegistry* registry = nullptr;
  const std::vector<std::string>* names = nullptr;
  const std::vector<Tensor>* windows = nullptr;
  std::vector<std::unique_ptr<PendingQueue>>* pending = nullptr;
  OpenLoopOptions options;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<RetryItem> retry_queue;
  bool retry_closed = false;
  int64_t outstanding = 0;
  int64_t retries = 0;

  void AddOutstanding() {
    std::lock_guard<std::mutex> lock(mu);
    ++outstanding;
  }
  void FinishOne() {
    {
      std::lock_guard<std::mutex> lock(mu);
      --outstanding;
    }
    cv.notify_all();
  }
  void PushRetry(RetryItem item) {
    {
      std::lock_guard<std::mutex> lock(mu);
      retry_queue.push_back(item);
    }
    cv.notify_all();
  }
};

// Drains `pending` until closed-and-empty. Every ok answer is checked
// against reference predictions `a` (and optionally `b`; hot reload
// passes both generations) for the same window, and scanned for
// non-finite values. kOverloaded sheds with retry budget left go back
// through the point's retry queue instead of counting as failures.
void WaiterLoop(PendingQueue* pending, PointState* state,
                const std::vector<Tensor>* a, const std::vector<Tensor>* b,
                WaiterResult* out) {
  for (;;) {
    InFlight in_flight;
    {
      std::unique_lock<std::mutex> lock(pending->mu);
      pending->cv.wait(lock, [pending] {
        return pending->closed || !pending->queue.empty();
      });
      if (pending->queue.empty()) return;
      in_flight = std::move(pending->queue.front());
      pending->queue.pop_front();
    }
    Result<Tensor> result = in_flight.future.get();
    const Clock::time_point done = Clock::now();
    if (!result.ok()) {
      const StatusCode code = result.status().code();
      if (code == StatusCode::kOverloaded &&
          in_flight.attempt < state->options.max_attempts) {
        const Clock::time_point retry_at =
            done + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           state->options.backoff_s));
        if (in_flight.deadline_at != Clock::time_point{} &&
            retry_at < in_flight.deadline_at) {
          RetryItem item;
          item.retry_at = retry_at;
          item.submitted = in_flight.submitted;
          item.deadline_at = in_flight.deadline_at;
          item.model = in_flight.model;
          item.window = in_flight.window;
          item.attempt = in_flight.attempt + 1;
          state->PushRetry(item);  // stays outstanding
          continue;
        }
      }
      ++out->failed;
      switch (code) {
        case StatusCode::kOverloaded:
          ++out->shed;
          break;
        case StatusCode::kDeadlineExceeded:
          ++out->expired;
          break;
        case StatusCode::kUnavailable:
          ++out->unavailable;
          break;
        case StatusCode::kInternal:
          ++out->internal;
          break;
        default:
          break;
      }
      if (out->first_error.empty()) {
        out->first_error = result.status().ToString();
      }
      state->FinishOne();
      continue;
    }
    ++out->ok;
    out->last_completion = done;
    out->latencies.push_back(
        std::chrono::duration<double>(done - in_flight.submitted).count());
    const Tensor& answer = result.value();
    // "Zero non-finite answers delivered" is a chaos-gate hard invariant:
    // a poisoned forecast must have been suppressed server-side.
    if (!AllFinite(answer)) ++out->nonfinite;
    if (BitwiseEqual(answer, (*a)[in_flight.window])) {
      ++out->expected_a;
    } else if (b != nullptr && BitwiseEqual(answer, (*b)[in_flight.window])) {
      ++out->expected_b;
    } else {
      ++out->mismatched;
    }
    state->FinishOne();
  }
}

// Resubmits shed requests after their backoff, with whatever deadline
// budget remains. Runs until the point closes it (all work terminal).
void RetryLoop(PointState* state) {
  for (;;) {
    RetryItem item;
    {
      std::unique_lock<std::mutex> lock(state->mu);
      state->cv.wait(lock, [state] {
        return state->retry_closed || !state->retry_queue.empty();
      });
      if (state->retry_queue.empty()) {
        if (state->retry_closed) return;
        continue;
      }
      item = state->retry_queue.front();
      state->retry_queue.pop_front();
    }
    std::this_thread::sleep_until(item.retry_at);
    const Clock::time_point now = Clock::now();
    InFlight in_flight;
    in_flight.submitted = item.submitted;
    in_flight.deadline_at = item.deadline_at;
    in_flight.model = item.model;
    in_flight.window = item.window;
    in_flight.attempt = item.attempt;
    if (now >= item.deadline_at) {
      // Backoff ate the rest of the budget; resolve client-side.
      std::promise<Result<Tensor>> expired;
      expired.set_value(
          Status::DeadlineExceeded("retry backoff exhausted the deadline"));
      in_flight.future = expired.get_future();
    } else {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        ++state->retries;
      }
      in_flight.future = state->registry->Submit(
          (*state->names)[static_cast<size_t>(item.model)],
          (*state->windows)[static_cast<size_t>(item.window)],
          std::chrono::duration_cast<std::chrono::microseconds>(
              item.deadline_at - now),
          serve::SubmitMode::kReject);
    }
    (*state->pending)[static_cast<size_t>(item.model)]->Push(
        std::move(in_flight));
  }
}

struct PointResult {
  int64_t models = 0;
  double util = 0;
  double target_rps = 0;
  double deadline_ms = 0;
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t unavailable = 0;
  int64_t internal = 0;
  int64_t retries = 0;
  int64_t nonfinite = 0;
  int64_t mismatched = 0;
  double goodput_rps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

// Open-loop run: Poisson arrivals at `target_rps` for `duration_s`,
// uniformly routed across `names`. `expected[m][w]` is the reference
// prediction of model m for window w; `expected_b` (optional) is a
// second accepted reference set (hot reload). Submissions use kReject:
// in an open-loop world a full queue is a failed request, not a stalled
// client. With `client.deadline_s` set, requests carry deadlines and
// kOverloaded sheds are retried per `client.max_attempts`.
PointResult RunPoint(serve::ModelRegistry* registry,
                     const std::vector<std::string>& names,
                     const std::vector<Tensor>& windows,
                     const std::vector<std::vector<Tensor>>& expected,
                     const std::vector<std::vector<Tensor>>* expected_b,
                     double target_rps, double duration_s, uint64_t seed,
                     const OpenLoopOptions& client,
                     std::vector<WaiterResult>* waiter_results_out) {
  const size_t num_models = names.size();
  // Pre-draw the whole arrival schedule so the dispatch loop does no RNG
  // work: exponential interarrivals == Poisson process.
  Rng rng(seed);
  struct Arrival {
    double at;
    int model;
    int window;
  };
  std::vector<Arrival> schedule;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / target_rps;
    if (t >= duration_s) break;
    Arrival arrival;
    arrival.at = t;
    arrival.model = static_cast<int>(rng.UniformInt(num_models));
    arrival.window =
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(windows.size())));
    schedule.push_back(arrival);
  }

  std::vector<std::unique_ptr<PendingQueue>> pending(num_models);
  PointState state;
  state.registry = registry;
  state.names = &names;
  state.windows = &windows;
  state.pending = &pending;
  state.options = client;
  std::vector<WaiterResult> results(num_models);
  std::vector<std::thread> waiters;
  for (size_t m = 0; m < num_models; ++m) {
    pending[m] = std::make_unique<PendingQueue>();
    waiters.emplace_back(WaiterLoop, pending[m].get(), &state, &expected[m],
                         expected_b == nullptr ? nullptr : &(*expected_b)[m],
                         &results[m]);
  }
  std::thread retry_thread(RetryLoop, &state);

  const std::chrono::microseconds deadline =
      client.deadline_s > 0
          ? std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::duration<double>(client.deadline_s))
          : std::chrono::microseconds::zero();

  const Clock::time_point start = Clock::now();
  for (const Arrival& arrival : schedule) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival.at)));
    InFlight in_flight;
    in_flight.submitted = Clock::now();
    in_flight.model = arrival.model;
    in_flight.window = arrival.window;
    if (deadline.count() > 0) {
      in_flight.deadline_at = in_flight.submitted + deadline;
    }
    state.AddOutstanding();
    in_flight.future = registry->Submit(
        names[static_cast<size_t>(arrival.model)], windows[arrival.window],
        deadline);
    pending[static_cast<size_t>(arrival.model)]->Push(std::move(in_flight));
  }
  // Every request (including retries) must terminally resolve before the
  // point closes; a retried request stays outstanding across attempts.
  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.cv.wait(lock, [&state] { return state.outstanding == 0; });
    state.retry_closed = true;
  }
  state.cv.notify_all();
  retry_thread.join();
  for (size_t m = 0; m < num_models; ++m) pending[m]->Close();
  for (std::thread& waiter : waiters) waiter.join();

  PointResult point;
  point.models = static_cast<int64_t>(num_models);
  point.target_rps = target_rps;
  point.deadline_ms = client.deadline_s * 1000.0;
  point.offered = static_cast<int64_t>(schedule.size());
  point.retries = state.retries;
  LatencyRecorder recorder;
  Clock::time_point last = start;
  for (const WaiterResult& result : results) {
    point.completed += result.ok;
    point.failed += result.failed;
    point.shed += result.shed;
    point.expired += result.expired;
    point.unavailable += result.unavailable;
    point.internal += result.internal;
    point.nonfinite += result.nonfinite;
    point.mismatched += result.mismatched;
    for (double latency : result.latencies) recorder.Record(latency);
    if (result.ok > 0 && result.last_completion > last) {
      last = result.last_completion;
    }
  }
  const double elapsed = std::chrono::duration<double>(last - start).count();
  point.goodput_rps = elapsed > 0 ? point.completed / elapsed : 0;
  if (recorder.count() > 0) {
    point.p50_us = recorder.Percentile(50.0) * 1e6;
    point.p99_us = recorder.Percentile(99.0) * 1e6;
    point.p999_us = recorder.Percentile(99.9) * 1e6;
  }
  if (waiter_results_out != nullptr) *waiter_results_out = std::move(results);
  return point;
}

// Reference predictions for each window from a fresh serial session of
// `path`. The registry's batched answers must be bitwise equal to these
// (InferenceSession's batched==serial determinism contract).
bool SerialReference(const std::string& path,
                     const std::vector<Tensor>& windows,
                     std::vector<Tensor>* out) {
  serve::SessionOptions options;
  auto session = serve::InferenceSession::Open(path, options);
  if (!session.ok()) {
    std::fprintf(stderr, "reference open failed: %s\n",
                 session.status().ToString().c_str());
    return false;
  }
  out->clear();
  for (const Tensor& window : windows) {
    auto prediction = session.value()->Predict(window);
    if (!prediction.ok()) {
      std::fprintf(stderr, "reference predict failed: %s\n",
                   prediction.status().ToString().c_str());
      return false;
    }
    out->push_back(prediction.value());
  }
  return true;
}

serve::ModelInfo InfoFor(const serve::ModelRegistry& registry,
                         const std::string& name) {
  for (const serve::ModelInfo& info : registry.Models()) {
    if (info.name == name) return info;
  }
  return serve::ModelInfo();
}

void PrintPoint(const char* tag, const PointResult& p) {
  std::fprintf(stderr,
               "%s: models=%lld util=%.2f target=%.1f rps deadline=%.0fms: "
               "offered=%lld completed=%lld failed=%lld shed=%lld "
               "expired=%lld unavailable=%lld internal=%lld retries=%lld "
               "nonfinite=%lld mismatched=%lld goodput=%.1f rps "
               "p50=%.0fus p99=%.0fus\n",
               tag, static_cast<long long>(p.models), p.util, p.target_rps,
               p.deadline_ms, static_cast<long long>(p.offered),
               static_cast<long long>(p.completed),
               static_cast<long long>(p.failed),
               static_cast<long long>(p.shed),
               static_cast<long long>(p.expired),
               static_cast<long long>(p.unavailable),
               static_cast<long long>(p.internal),
               static_cast<long long>(p.retries),
               static_cast<long long>(p.nonfinite),
               static_cast<long long>(p.mismatched), p.goodput_rps, p.p50_us,
               p.p99_us);
}

void WritePointFields(FILE* json, const PointResult& p) {
  std::fprintf(
      json,
      "\"util\": %.2f, \"target_rps\": %.2f, \"deadline_ms\": %.1f, "
      "\"offered\": %lld, \"completed\": %lld, \"failed\": %lld, "
      "\"shed\": %lld, \"expired\": %lld, \"unavailable\": %lld, "
      "\"internal\": %lld, \"retries\": %lld, \"nonfinite\": %lld, "
      "\"mismatched\": %lld, \"goodput_rps\": %.2f, \"p50_us\": %.1f, "
      "\"p99_us\": %.1f, \"p999_us\": %.1f",
      p.util, p.target_rps, p.deadline_ms, static_cast<long long>(p.offered),
      static_cast<long long>(p.completed), static_cast<long long>(p.failed),
      static_cast<long long>(p.shed), static_cast<long long>(p.expired),
      static_cast<long long>(p.unavailable),
      static_cast<long long>(p.internal), static_cast<long long>(p.retries),
      static_cast<long long>(p.nonfinite),
      static_cast<long long>(p.mismatched), p.goodput_rps, p.p50_us,
      p.p99_us, p.p999_us);
}

int Run(int argc, char** argv) {
  const bool chaos_mode = FlagInt(argc, argv, "chaos", 0) != 0;
  const int64_t num_models = chaos_mode
      ? 1
      : std::max<int64_t>(1, FlagInt(argc, argv, "models", 4));
  const int64_t duration_ms = FlagInt(argc, argv, "duration-ms", 2000);
  const int64_t threads = FlagInt(argc, argv, "threads", DefaultNumThreads());
  const int64_t max_batch = FlagInt(argc, argv, "max-batch", 16);
  const bool hot_reload =
      !chaos_mode && FlagInt(argc, argv, "hot-reload", 1) != 0;
  const int64_t chaos_duration_ms =
      FlagInt(argc, argv, "chaos-duration-ms", 4000);
  const int64_t chaos_floor_pct =
      FlagInt(argc, argv, "chaos-goodput-floor-pct", 85);
  const int64_t chaos_slow_ms = FlagInt(argc, argv, "chaos-slow-ms", 30);
  const std::string json_path = FlagStr(argc, argv, "json", "");
  SetNumThreads(static_cast<int>(threads));
  // The loadgen streams progress to a pipe check scripts may close early;
  // dying on SIGPIPE mid-run would read as a chaos failure.
  IgnoreSigPipe();
  fault::Disarm();  // chaos arms its own schedule; start clean

  ForecasterDims dims;
  dims.input_len = 336;
  dims.pred_len = 96;
  dims.channels = 21;

  std::vector<std::string> names;
  std::vector<std::string> paths;
  for (int64_t m = 0; m < num_models; ++m) {
    names.push_back("m" + std::to_string(m));
    paths.push_back("/tmp/lipformer_loadgen_m" + std::to_string(m) + ".ckpt");
    if (!SaveBundle(paths.back(), dims, /*seed=*/7 + static_cast<uint64_t>(m))) {
      return 1;
    }
  }

  // Shared window pool; every model answers every window, each with its
  // own weights.
  Rng rng(11);
  std::vector<Tensor> windows;
  for (int i = 0; i < 8; ++i) {
    windows.push_back(Tensor::Randn({dims.input_len, dims.channels}, rng));
  }
  std::vector<std::vector<Tensor>> expected(
      static_cast<size_t>(num_models));
  for (int64_t m = 0; m < num_models; ++m) {
    if (!SerialReference(paths[static_cast<size_t>(m)], windows,
                         &expected[static_cast<size_t>(m)])) {
      return 1;
    }
  }

  serve::RegistryOptions registry_options;
  registry_options.batcher.max_batch_size = max_batch;
  // Generous: admission control (not queue overflow) is the intended
  // shedding mechanism; a transient scheduler stall on a shared box must
  // not turn into spurious rejections that fail the zero-failure gate.
  registry_options.batcher.queue_capacity = 4096;
  if (chaos_mode) {
    // A low trip threshold + short cooldown keep the breaker's full
    // trip -> half-open -> closed cycle inside the chaos run.
    registry_options.batcher.breaker.failure_threshold = 4;
    registry_options.batcher.breaker.cooldown = std::chrono::milliseconds(150);
    registry_options.batcher.breaker.half_open_successes = 2;
  }
  serve::ModelRegistry registry(registry_options);
  for (int64_t m = 0; m < num_models; ++m) {
    Status loaded = registry.Load(names[static_cast<size_t>(m)],
                                  paths[static_cast<size_t>(m)]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n", loaded.ToString().c_str());
      return 1;
    }
  }

  // Calibrate this box: serial closed-loop capacity of one model (the
  // utilization points are fractions of it) and full-batch closed-loop
  // capacity (the overload points must exceed what BATCHING can serve,
  // not just the serial rate — on a multicore box the batch dimension
  // parallelizes, so "1.5x serial" may not be overload at all).
  double base_rps;
  double batch_rps;
  {
    serve::InferenceSession* session = registry.Find(names[0])->session();
    for (int i = 0; i < 4; ++i) (void)session->Predict(windows[0]);
    Clock::time_point start = Clock::now();
    int64_t calls = 0;
    while (std::chrono::duration<double>(Clock::now() - start).count() <
           0.3) {
      auto prediction = session->Predict(windows[calls % 8]);
      if (!prediction.ok()) {
        std::fprintf(stderr, "calibration predict failed\n");
        return 1;
      }
      ++calls;
    }
    base_rps = calls /
               std::chrono::duration<double>(Clock::now() - start).count();

    Tensor full = Tensor::Empty({max_batch, dims.input_len, dims.channels});
    for (int64_t row = 0; row < max_batch; ++row) {
      std::memcpy(full.data() + row * dims.input_len * dims.channels,
                  windows[static_cast<size_t>(row) % 8].data(),
                  static_cast<size_t>(dims.input_len * dims.channels) *
                      sizeof(float));
    }
    start = Clock::now();
    calls = 0;
    while (std::chrono::duration<double>(Clock::now() - start).count() <
           0.3) {
      if (!session->PredictBatch(full).ok()) {
        std::fprintf(stderr, "calibration batch predict failed\n");
        return 1;
      }
      ++calls;
    }
    batch_rps =
        static_cast<double>(calls * max_batch) /
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  const double capacity_rps = std::max(base_rps, batch_rps);
  std::fprintf(stderr,
               "calibrated capacity: %.1f rps serial, %.1f rps batched\n",
               base_rps, batch_rps);

  bool violations = false;
  const OpenLoopOptions plain_client;  // no deadlines, no retries

  // Overload client: deadlines scaled to this box (the floor matters on
  // sanitizer builds where a single forward costs 10-20x more) and a
  // bounded retry budget for admission sheds.
  OpenLoopOptions overload_client;
  overload_client.deadline_s = std::max(0.25, 40.0 / base_rps);
  overload_client.max_attempts = 3;
  overload_client.backoff_s = std::max(0.01, overload_client.deadline_s / 8);

  if (chaos_mode) {
    const double dur = chaos_duration_ms / 1000.0;
    const double target = 1.5 * capacity_rps;
    const std::vector<std::string> one = {names[0]};
    const auto request_deadline =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::duration<double>(overload_client.deadline_s));

    // Host load on a shared box comes and goes over seconds, so one
    // no-fault baseline measured before one faulted phase can compare two
    // different machines. Run kChaosPairs back-to-back pairs instead, each
    // on one arrival trace, alternating which phase runs first, and gate
    // the median per-pair goodput ratio.
    constexpr int kChaosPairs = 3;
    struct ChaosPair {
      PointResult nofault;
      PointResult faulted;
      int64_t trips = 0;   // breaker trips during the faulted phase
      int64_t probes = 0;  // half-open probes during it and its recovery
      bool recovered = false;
      double ratio = 0;    // faulted / no-fault goodput
    };
    std::vector<ChaosPair> pairs(kChaosPairs);
    for (int p = 0; p < kChaosPairs; ++p) {
      ChaosPair& pair = pairs[static_cast<size_t>(p)];
      const uint64_t seed = 777 + static_cast<uint64_t>(p);
      // No-fault overload baseline at 1.5x capacity.
      const auto run_nofault = [&] {
        pair.nofault = RunPoint(&registry, one, windows, expected, nullptr,
                                target, dur, seed, overload_client, nullptr);
        pair.nofault.util = 1.5;
        PrintPoint("chaos-nofault", pair.nofault);
      };
      // The same load with a fault timeline injected mid-run: slow-infer
      // stragglers early, then a poisoned-output window (which must trip
      // the breaker), then a clean tail for half-open recovery. Windows
      // are wall-clock relative so the schedule adapts to however many
      // batches this box manages (sanitizer builds run 10-20x slower).
      const auto run_faulted = [&] {
        const serve::ModelInfo before = InfoFor(registry, names[0]);
        std::thread fault_timeline([&] {
          fault::Arm("slow_infer_ms=" + std::to_string(chaos_slow_ms) +
                     ",slow_infer_at=1,slow_infer_count=4");
          std::this_thread::sleep_for(
              std::chrono::duration<double>(0.30 * dur));
          // Re-arming resets the serving call counters, so poison hits
          // the next 6 batched forwards from this instant;
          // slow_infer_ms=0 clears the straggler fault.
          fault::Arm(
              "slow_infer_ms=0,poison_output_at=1,poison_output_count=6");
          std::this_thread::sleep_for(
              std::chrono::duration<double>(0.30 * dur));
          fault::Disarm();
        });
        pair.faulted = RunPoint(&registry, one, windows, expected, nullptr,
                                target, dur, seed, overload_client, nullptr);
        pair.faulted.util = 1.5;
        fault_timeline.join();
        fault::Disarm();
        PrintPoint("chaos-faulted", pair.faulted);

        // Recovery: the breaker must close again (half-open probes) once
        // the faults clear, before the next phase starts; bounded wait.
        const Clock::time_point recovery_start = Clock::now();
        while (std::chrono::duration<double>(Clock::now() - recovery_start)
                   .count() < 5.0) {
          const bool answered =
              registry.Submit(names[0], windows[0], request_deadline)
                  .get()
                  .ok();
          if (answered && InfoFor(registry, names[0]).batcher.breaker.state ==
                              serve::BreakerState::kClosed) {
            pair.recovered = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        const serve::ModelInfo after = InfoFor(registry, names[0]);
        pair.trips = after.batcher.breaker.trips - before.batcher.breaker.trips;
        pair.probes =
            after.batcher.breaker.probes - before.batcher.breaker.probes;
      };
      if (p % 2 == 0) {
        run_nofault();
        run_faulted();
      } else {
        run_faulted();
        run_nofault();
      }
      pair.ratio = pair.nofault.goodput_rps > 0
                       ? pair.faulted.goodput_rps / pair.nofault.goodput_rps
                       : 0.0;
      std::fprintf(stderr,
                   "chaos pair %d: breaker trips=%lld probes=%lld "
                   "recovered=%d goodput=%.1f/%.1f rps (%.1f%%)\n",
                   p, static_cast<long long>(pair.trips),
                   static_cast<long long>(pair.probes),
                   pair.recovered ? 1 : 0, pair.faulted.goodput_rps,
                   pair.nofault.goodput_rps, 100.0 * pair.ratio);

      if (pair.nofault.completed == 0 || pair.faulted.completed == 0) {
        std::fprintf(stderr, "FAIL: a chaos phase completed zero requests\n");
        violations = true;
      }
      if (pair.nofault.mismatched != 0 || pair.faulted.mismatched != 0) {
        std::fprintf(stderr, "FAIL: torn answers under overload/chaos\n");
        violations = true;
      }
      if (pair.nofault.nonfinite != 0 || pair.faulted.nonfinite != 0) {
        std::fprintf(stderr, "FAIL: non-finite answers were delivered\n");
        violations = true;
      }
      if (pair.faulted.internal < 1) {
        std::fprintf(stderr,
                     "FAIL: poisoned outputs did not surface as typed "
                     "Internal errors\n");
        violations = true;
      }
      if (pair.trips < 1) {
        std::fprintf(stderr, "FAIL: the circuit breaker never tripped\n");
        violations = true;
      }
      if (pair.probes < 1) {
        std::fprintf(stderr, "FAIL: no half-open probe was admitted\n");
        violations = true;
      }
      if (!pair.recovered) {
        std::fprintf(stderr, "FAIL: breaker did not recover to closed\n");
        violations = true;
      }
    }

    // Cumulative counters: zero after every phase means zero in each.
    const serve::ModelInfo info = InfoFor(registry, names[0]);
    if (info.batcher.executed_past_deadline != 0) {
      std::fprintf(stderr,
                   "FAIL: %lld request(s) executed past their deadline\n",
                   static_cast<long long>(
                       info.batcher.executed_past_deadline));
      violations = true;
    }
    std::vector<ChaosPair*> by_ratio;
    int64_t trips = 0;
    int64_t probes = 0;
    bool recovered = true;
    for (ChaosPair& pair : pairs) {
      by_ratio.push_back(&pair);
      trips += pair.trips;
      probes += pair.probes;
      recovered = recovered && pair.recovered;
    }
    std::sort(by_ratio.begin(), by_ratio.end(),
              [](const ChaosPair* a, const ChaosPair* b) {
                return a->ratio < b->ratio;
              });
    const ChaosPair& median = *by_ratio[by_ratio.size() / 2];
    std::fprintf(
        stderr,
        "chaos: breaker trips=%lld probes=%lld state=%s recovered=%d "
        "executed_past_deadline=%lld server_nonfinite=%lld "
        "median pair goodput=%.1f/%.1f rps (%.1f%%, floor %lld%%)\n",
        static_cast<long long>(trips), static_cast<long long>(probes),
        serve::BreakerStateName(info.batcher.breaker.state),
        recovered ? 1 : 0,
        static_cast<long long>(info.batcher.executed_past_deadline),
        static_cast<long long>(info.batcher.nonfinite_answers),
        median.faulted.goodput_rps, median.nofault.goodput_rps,
        100.0 * median.ratio, static_cast<long long>(chaos_floor_pct));
    if (median.ratio < chaos_floor_pct / 100.0) {
      std::fprintf(stderr,
                   "FAIL: median per-pair chaos goodput ratio %.1f%% below "
                   "the %lld%% floor\n",
                   100.0 * median.ratio,
                   static_cast<long long>(chaos_floor_pct));
      violations = true;
    }

    if (!json_path.empty()) {
      FILE* json = std::fopen(json_path.c_str(), "w");
      if (json == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
      }
      // nofault/faulted are the median pair's phases.
      std::fprintf(json, "{\"base_rps\": %.2f, \"chaos\": {", base_rps);
      std::fprintf(json, "\"nofault\": {");
      WritePointFields(json, median.nofault);
      std::fprintf(json, "}, \"faulted\": {");
      WritePointFields(json, median.faulted);
      std::fprintf(json, "}, \"goodput_ratios\": [");
      for (size_t p = 0; p < pairs.size(); ++p) {
        std::fprintf(json, "%s%.3f", p > 0 ? ", " : "", pairs[p].ratio);
      }
      std::fprintf(
          json,
          "], \"breaker_trips\": %lld, \"breaker_probes\": %lld, "
          "\"breaker_state\": \"%s\", \"recovered\": %d, "
          "\"executed_past_deadline\": %lld, \"server_nonfinite\": %lld, "
          "\"goodput_ratio\": %.3f}}\n",
          static_cast<long long>(trips), static_cast<long long>(probes),
          serve::BreakerStateName(info.batcher.breaker.state),
          recovered ? 1 : 0,
          static_cast<long long>(info.batcher.executed_past_deadline),
          static_cast<long long>(info.batcher.nonfinite_answers),
          median.ratio);
      std::fclose(json);
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    return violations ? 1 : 0;
  }

  const double duration_s = duration_ms / 1000.0;
  const double utils[] = {0.25, 0.5};
  std::vector<PointResult> points;
  std::vector<int64_t> model_counts;
  model_counts.push_back(1);
  if (num_models > 1) model_counts.push_back(num_models);
  for (int64_t count : model_counts) {
    std::vector<std::string> subset(names.begin(), names.begin() + count);
    for (double util : utils) {
      PointResult point =
          RunPoint(&registry, subset, windows, expected, nullptr,
                   util * base_rps, duration_s,
                   /*seed=*/1234 + static_cast<uint64_t>(count * 100 + util * 10),
                   plain_client, nullptr);
      point.util = util;
      points.push_back(point);
      PrintPoint("point", point);
      if (point.mismatched > 0) {
        std::fprintf(stderr,
                     "FAIL: %lld answer(s) did not match their model's "
                     "serial prediction\n",
                     static_cast<long long>(point.mismatched));
        violations = true;
      }
    }
  }

  // Overload point: 1.5x capacity on one model with deadlines, admission
  // control and client retries. check_perf.sh gates the shed rate, the
  // goodput floor, and the hard zeros (executed-past-deadline, delivered
  // non-finite answers).
  PointResult overload =
      RunPoint(&registry, {names[0]}, windows, expected, nullptr,
               1.5 * capacity_rps, std::max(1.5, duration_s), /*seed=*/4321,
               overload_client, nullptr);
  overload.util = 1.5;
  PrintPoint("overload", overload);
  const serve::ModelInfo overload_info = InfoFor(registry, names[0]);
  if (overload.mismatched > 0 || overload.nonfinite > 0 ||
      overload_info.batcher.executed_past_deadline > 0) {
    std::fprintf(stderr,
                 "FAIL: overload point violated a hard invariant "
                 "(mismatched=%lld nonfinite=%lld "
                 "executed_past_deadline=%lld)\n",
                 static_cast<long long>(overload.mismatched),
                 static_cast<long long>(overload.nonfinite),
                 static_cast<long long>(
                     overload_info.batcher.executed_past_deadline));
    violations = true;
  }

  // Hot reload under live load.
  int64_t hot_requests = 0, hot_failed = 0, hot_torn = 0;
  int64_t hot_old = 0, hot_new = 0, hot_reloads = 0, hot_reload_failures = 0;
  int64_t post_corrupt_ok = 0;
  if (hot_reload) {
    const std::string live_path = "/tmp/lipformer_loadgen_live.ckpt";
    const std::string side_path = "/tmp/lipformer_loadgen_side.ckpt";
    if (!SaveBundle(live_path, dims, /*seed=*/100) ||
        !SaveBundle(side_path, dims, /*seed=*/101)) {
      return 1;
    }
    std::vector<std::vector<Tensor>> expected_old(1), expected_new(1);
    if (!SerialReference(live_path, windows, &expected_old[0]) ||
        !SerialReference(side_path, windows, &expected_new[0])) {
      return 1;
    }

    serve::RegistryOptions hot_options;
    hot_options.batcher.max_batch_size = max_batch;
    hot_options.batcher.queue_capacity = 4096;
    hot_options.reload_poll = std::chrono::milliseconds(20);
    serve::ModelRegistry hot_registry(hot_options);
    Status loaded = hot_registry.Load("hot", live_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "hot load failed: %s\n", loaded.ToString().c_str());
      return 1;
    }

    // Atomic publish of the NEW bundle mid-run: exactly what a deploy
    // does (rename(2) over the served path).
    const double hot_duration_s = std::max(1.6, duration_s);
    std::thread publisher([&] {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          hot_duration_s * 0.4));
      if (std::rename(side_path.c_str(), live_path.c_str()) != 0) {
        std::fprintf(stderr, "FAIL: rename publish failed\n");
      }
    });
    std::vector<WaiterResult> hot_results;
    PointResult hot_point = RunPoint(
        &hot_registry, {"hot"}, windows, expected_old, &expected_new,
        0.5 * base_rps, hot_duration_s, /*seed=*/991, plain_client,
        &hot_results);
    publisher.join();
    hot_requests = hot_point.offered;
    hot_failed = hot_point.failed;
    for (const WaiterResult& result : hot_results) {
      hot_old += result.expected_a;
      hot_new += result.expected_b;
      hot_torn += result.mismatched;
      if (result.failed > 0 && !result.first_error.empty()) {
        std::fprintf(stderr, "hot-reload first failure: %s\n",
                     result.first_error.c_str());
      }
    }

    // Corrupt publish: the reload must fail validation and the previous
    // (new) generation must keep serving.
    const char garbage[] = "not a checkpoint";
    Status wrote = AtomicWriteFile(live_path, garbage, sizeof(garbage));
    if (!wrote.ok()) {
      std::fprintf(stderr, "corrupt publish failed: %s\n",
                   wrote.ToString().c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    for (int i = 0; i < 16; ++i) {
      auto answer = hot_registry.Submit("hot", windows[i % 8]).get();
      if (answer.ok() &&
          BitwiseEqual(answer.value(), expected_new[0][i % 8])) {
        ++post_corrupt_ok;
      }
    }
    for (const serve::ModelInfo& info : hot_registry.Models()) {
      hot_reloads = info.reloads;
      hot_reload_failures = info.reload_failures;
    }

    std::fprintf(stderr,
                 "hot reload: %lld requests, %lld failed, %lld torn, "
                 "%lld old-model, %lld new-model, %lld reload(s), %lld "
                 "failed reload(s), %lld/16 post-corrupt ok\n",
                 static_cast<long long>(hot_requests),
                 static_cast<long long>(hot_failed),
                 static_cast<long long>(hot_torn),
                 static_cast<long long>(hot_old),
                 static_cast<long long>(hot_new),
                 static_cast<long long>(hot_reloads),
                 static_cast<long long>(hot_reload_failures),
                 static_cast<long long>(post_corrupt_ok));

    if (hot_failed != 0) {
      std::fprintf(stderr, "FAIL: requests failed during hot reload\n");
      violations = true;
    }
    if (hot_torn != 0) {
      std::fprintf(stderr, "FAIL: torn predictions during hot reload\n");
      violations = true;
    }
    if (hot_old == 0 || hot_new == 0) {
      std::fprintf(stderr,
                   "FAIL: expected answers from both generations "
                   "(old=%lld new=%lld)\n",
                   static_cast<long long>(hot_old),
                   static_cast<long long>(hot_new));
      violations = true;
    }
    if (hot_reload_failures < 1) {
      std::fprintf(stderr, "FAIL: corrupt publish did not fail a reload\n");
      violations = true;
    }
    if (post_corrupt_ok != 16) {
      std::fprintf(stderr,
                   "FAIL: previous model did not keep serving after the "
                   "corrupt publish (%lld/16)\n",
                   static_cast<long long>(post_corrupt_ok));
      violations = true;
    }
  }

  if (!json_path.empty()) {
    FILE* json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(json, "{\"base_rps\": %.2f, \"points\": [", base_rps);
    for (size_t i = 0; i < points.size(); ++i) {
      const PointResult& p = points[i];
      std::fprintf(
          json,
          "%s{\"models\": %lld, \"util\": %.2f, \"target_rps\": %.2f, "
          "\"offered\": %lld, \"completed\": %lld, \"failed\": %lld, "
          "\"mismatched\": %lld, \"goodput_rps\": %.2f, \"p50_us\": %.1f, "
          "\"p99_us\": %.1f, \"p999_us\": %.1f}",
          i == 0 ? "" : ", ", static_cast<long long>(p.models), p.util,
          p.target_rps, static_cast<long long>(p.offered),
          static_cast<long long>(p.completed),
          static_cast<long long>(p.failed),
          static_cast<long long>(p.mismatched), p.goodput_rps, p.p50_us,
          p.p99_us, p.p999_us);
    }
    std::fprintf(json, "], \"overload\": {");
    WritePointFields(json, overload);
    std::fprintf(
        json,
        ", \"executed_past_deadline\": %lld, \"server_nonfinite\": %lld, "
        "\"breaker_trips\": %lld}",
        static_cast<long long>(overload_info.batcher.executed_past_deadline),
        static_cast<long long>(overload_info.batcher.nonfinite_answers),
        static_cast<long long>(overload_info.batcher.breaker.trips));
    if (hot_reload) {
      std::fprintf(
          json,
          ", \"hot_reload\": {\"requests\": %lld, \"failed\": %lld, "
          "\"torn\": %lld, \"old_model\": %lld, \"new_model\": %lld, "
          "\"reloads\": %lld, \"reload_failures\": %lld, "
          "\"post_corrupt_ok\": %lld}",
          static_cast<long long>(hot_requests),
          static_cast<long long>(hot_failed),
          static_cast<long long>(hot_torn), static_cast<long long>(hot_old),
          static_cast<long long>(hot_new),
          static_cast<long long>(hot_reloads),
          static_cast<long long>(hot_reload_failures),
          static_cast<long long>(post_corrupt_ok));
    }
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }

  return violations ? 1 : 0;
}

}  // namespace
}  // namespace lipformer

int main(int argc, char** argv) { return lipformer::Run(argc, argv); }
