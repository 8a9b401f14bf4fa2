// Serving-path benchmark: measures the AOT inference-plan path
// (serve/plan.h) against the module forward, serial and batched, fp32
// and int8. Every phase opens a FRESH InferenceSession from the bundle
// file so configurations are compared cold-start fair (no phase inherits
// another's warmed caches), and the storage pool is cleared between
// phases. The headline determinism claims are verified on every run —
// the plan path must be bitwise identical to the module path, and each
// batched answer bitwise identical to the serial answer for the same
// window — and the benchmark exits non-zero on any mismatch, so
// scripts/check_perf.sh gates correctness together with throughput.
//
//   bench_serving [--requests=N] [--threads=N] [--clients=N]
//                 [--max-batch=N] [--json=FILE]
//
// Phases (all serial timings are batch-1 closed-loop):
//   1. module fp32:  use_plan=false session; also the bitwise reference
//   2. plan fp32:    default session; plan_speedup = plan / module
//   2b. unfused plan fp32: LIPF_NO_FUSE session (no epilogue/chain
//       fusion); fusion_speedup = fused plan / unfused plan
//   3. batched:      `clients` threads through the batcher (plan)
//   4. module int8:  use_plan=false quantized session; int8 bitwise
//      reference
//   5. plan int8:    default quantized session
// plus an untimed profiling pass that prints per-op-kind plan timings.
//
// JSON output (consumed by check_perf.sh):
//   {"single_rps": ..., "module_single_rps": ..., "plan_speedup": ...,
//    "nofuse_single_rps": ..., "fusion_speedup": ...,
//    "batched16_rps": ..., "speedup": ...,
//    "p50_us": ..., "p99_us": ..., "p999_us": ...,
//    "quant_single_rps": ..., "quant_module_rps": ...,
//    "quant_plan_speedup": ..., "quant_speedup": ...,
//    "plan_records": ..., "plan_arena_bytes": ...,
//    "plan_fused_epilogues": ..., "plan_fused_chains": ...,
//    "plan_passes_eliminated": ..., "plan_arena_saved_bytes": ...}
// single_rps / quant_single_rps stay the serial-throughput keys older
// baselines gate on; they now measure the (default) plan path.
// quant_speedup is the module-path int8/fp32 ratio (the VNNI GEMM
// claim); plan_speedup and quant_plan_speedup are plan-vs-module.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/scaler.h"
#include "models/factory.h"
#include "serve/batcher.h"
#include "serve/quantize.h"
#include "serve/session.h"
#include "tensor/storage_pool.h"

namespace lipformer {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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

// Opens a fresh session from `path` with the plan path on or off.
// Exits the benchmark on failure (nullptr return).
std::unique_ptr<serve::InferenceSession> OpenSession(const std::string& path,
                                                     bool use_plan) {
  serve::SessionOptions options;
  options.use_plan = use_plan;
  auto opened = serve::InferenceSession::Open(path, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "bundle open failed: %s\n",
                 opened.status().ToString().c_str());
    return nullptr;
  }
  if (use_plan) {
    const serve::SessionPlanStats ps = opened.value()->plan_stats();
    if (!ps.compile_error.empty()) {
      std::fprintf(stderr, "plan compile failed: %s\n",
                   ps.compile_error.c_str());
      return nullptr;
    }
  }
  return std::move(opened.value());
}

// Serial closed-loop throughput: every request through Predict. An
// untimed pass collects outputs (when `outputs` is non-null) and doubles
// as warmup charging one-time costs (pool growth, lazy module caches);
// then `reps` timed passes, of which the FASTEST counts — rps ratios
// between phases gate against floors in check_perf.sh, and the best-of
// is the least noisy statistic on shared boxes (same policy as the
// kernel benchmarks: scheduler and frequency jitter only ever add time).
// Returns requests/second, negative on failure.
double TimeSerial(serve::InferenceSession* session,
                  const std::vector<Tensor>& requests,
                  std::vector<Tensor>* outputs, int reps = 5) {
  for (int i = 0; i < 4; ++i) (void)session->Predict(requests[0]);
  if (outputs != nullptr) {
    outputs->clear();
    outputs->reserve(requests.size());
  }
  for (const Tensor& request : requests) {
    auto prediction = session->Predict(request);
    if (!prediction.ok()) {
      std::fprintf(stderr, "predict failed: %s\n",
                   prediction.status().ToString().c_str());
      return -1.0;
    }
    if (outputs != nullptr) {
      outputs->push_back(std::move(prediction).value());
    }
  }
  double best_seconds = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    for (const Tensor& request : requests) {
      auto prediction = session->Predict(request);
      if (!prediction.ok()) {
        std::fprintf(stderr, "predict failed: %s\n",
                     prediction.status().ToString().c_str());
        return -1.0;
      }
    }
    const double seconds = SecondsSince(start);
    if (best_seconds < 0 || seconds < best_seconds) best_seconds = seconds;
  }
  return static_cast<double>(requests.size()) / best_seconds;
}

int64_t CountMismatches(const std::vector<Tensor>& got,
                        const std::vector<Tensor>& want) {
  int64_t mismatches = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].numel() != want[i].numel() ||
        std::memcmp(got[i].data(), want[i].data(),
                    static_cast<size_t>(want[i].numel()) * sizeof(float)) !=
            0) {
      ++mismatches;
    }
  }
  return mismatches;
}

int Run(int argc, char** argv) {
  const int64_t num_requests = FlagInt(argc, argv, "requests", 512);
  const int64_t threads =
      FlagInt(argc, argv, "threads", DefaultNumThreads());
  const int64_t clients = FlagInt(argc, argv, "clients", 16);
  const int64_t max_batch = FlagInt(argc, argv, "max-batch", 16);
  const std::string json_path = FlagStr(argc, argv, "json", "");
  SetNumThreads(static_cast<int>(threads));

  // A paper-scale model (Weather-like: 21 channels, 336 -> 96 by
  // default). Single-window forwards on this size leave the tensor
  // kernels below their parallel grain; a 16-way batch crosses it, which
  // is exactly the regime the batcher exists for.
  ForecasterDims dims;
  dims.input_len = FlagInt(argc, argv, "input", 336);
  dims.pred_len = FlagInt(argc, argv, "horizon", 96);
  dims.channels = FlagInt(argc, argv, "channels", 21);
  ModelOptions options;
  options.hidden_dim = FlagInt(argc, argv, "hidden", 64);
  options.seed = 7;
  std::unique_ptr<Forecaster> model = CreateModel("lipformer", dims, options);

  Rng rng(11);
  StandardScaler scaler;
  scaler.Fit(Tensor::Randn({256, dims.channels}, rng));

  const std::string bundle_path = "/tmp/lipformer_bench_serving.ckpt";
  Status st =
      serve::SaveModelBundle(bundle_path, "lipformer", options, *model, scaler);
  if (!st.ok()) {
    std::fprintf(stderr, "bundle save failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::vector<Tensor> requests;
  requests.reserve(static_cast<size_t>(num_requests));
  for (int64_t i = 0; i < num_requests; ++i) {
    requests.push_back(Tensor::Randn({dims.input_len, dims.channels}, rng));
  }

  // Phase 1 — module fp32 serial: the plan-less baseline and the bitwise
  // reference every other fp32 phase is checked against.
  std::vector<Tensor> expected;
  double module_single_rps;
  {
    auto session = OpenSession(bundle_path, /*use_plan=*/false);
    if (session == nullptr) return 1;
    module_single_rps = TimeSerial(session.get(), requests, &expected);
    if (module_single_rps < 0) return 1;
  }
  ClearStoragePool();

  // Phase 2 — plan fp32 serial: same workload, fresh session, AOT plan.
  std::vector<Tensor> plan_outputs;
  double single_rps;
  serve::PlanStats plan_stats;
  {
    auto session = OpenSession(bundle_path, /*use_plan=*/true);
    if (session == nullptr) return 1;
    single_rps = TimeSerial(session.get(), requests, &plan_outputs);
    if (single_rps < 0) return 1;
    plan_stats = session->plan_stats().plan;
  }
  const int64_t plan_mismatches = CountMismatches(plan_outputs, expected);
  plan_outputs.clear();
  const double plan_speedup = single_rps / module_single_rps;
  ClearStoragePool();

  // Phase 2b — fused vs unfused plan, interleaved: LIPF_NO_FUSE disables
  // the compile-time epilogue/chain fusion passes, isolating what fusion
  // alone buys on the identical plan path (check_perf.sh gates the
  // ratio). The fusion effect is a few percent, which phase-to-phase
  // drift (frequency scaling on shared boxes) can swamp, so both
  // sessions are timed in ALTERNATING best-of passes inside one phase —
  // drift hits both sides equally and cancels out of the ratio. The env
  // var is read once at Compile; set/restore around the session open is
  // race-free here (single-threaded phase setup).
  std::vector<Tensor> nofuse_outputs;
  double nofuse_single_rps = -1.0;
  double fused_single_rps = -1.0;
  double fusion_speedup = 0.0;
  {
    const bool had_nofuse = std::getenv("LIPF_NO_FUSE") != nullptr;
    setenv("LIPF_NO_FUSE", "1", 1);
    auto nofuse_session = OpenSession(bundle_path, /*use_plan=*/true);
    if (!had_nofuse) unsetenv("LIPF_NO_FUSE");
    auto fused_session = OpenSession(bundle_path, /*use_plan=*/true);
    if (nofuse_session == nullptr || fused_session == nullptr) return 1;
    // Warmup + bitwise collection for the unfused plan (the fused plan's
    // outputs were already checked in phase 2).
    if (TimeSerial(nofuse_session.get(), requests, &nofuse_outputs, 1) < 0 ||
        TimeSerial(fused_session.get(), requests, nullptr, 1) < 0) {
      return 1;
    }
    // Paired passes back to back; the gated statistic is the MEDIAN of
    // the per-pair ratios, so a load burst that corrupts one pass skews
    // one ratio, not the result.
    std::vector<double> ratios;
    for (int rep = 0; rep < 9; ++rep) {
      double pair_rps[2];
      int side = 0;
      for (serve::InferenceSession* session :
           {nofuse_session.get(), fused_session.get()}) {
        const auto start = Clock::now();
        for (const Tensor& request : requests) {
          if (!session->Predict(request).ok()) return 1;
        }
        pair_rps[side++] =
            static_cast<double>(requests.size()) / SecondsSince(start);
      }
      nofuse_single_rps = std::max(nofuse_single_rps, pair_rps[0]);
      fused_single_rps = std::max(fused_single_rps, pair_rps[1]);
      ratios.push_back(pair_rps[1] / pair_rps[0]);
    }
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    fusion_speedup = ratios[ratios.size() / 2];
  }
  const int64_t nofuse_mismatches = CountMismatches(nofuse_outputs, expected);
  nofuse_outputs.clear();
  ClearStoragePool();

  // Phase 3 — batched plan fp32: closed-loop load from `clients`
  // threads, each submitting its stripe of requests one at a time and
  // waiting for the answer, so at most `clients` requests are in
  // flight — the ones that queue while the worker is busy form the next
  // batch (the served default: no coalescing wait).
  std::vector<Tensor> batched(requests.size());
  std::vector<int> failures(static_cast<size_t>(clients), 0);
  double batched_rps;
  serve::BatcherStats stats;
  {
    auto session = OpenSession(bundle_path, /*use_plan=*/true);
    if (session == nullptr) return 1;
    for (int i = 0; i < 4; ++i) (void)session->Predict(requests[0]);
    serve::BatcherOptions batcher_options;
    batcher_options.max_batch_size = max_batch;
    batcher_options.queue_capacity = 1024;
    serve::Batcher batcher(session.get(), batcher_options);

    const auto batched_start = Clock::now();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(clients));
    for (int64_t w = 0; w < clients; ++w) {
      workers.emplace_back([&, w] {
        for (int64_t i = w; i < num_requests; i += clients) {
          auto result =
              batcher.Submit(requests[static_cast<size_t>(i)]).get();
          if (!result.ok()) {
            ++failures[static_cast<size_t>(w)];
            continue;
          }
          batched[static_cast<size_t>(i)] = std::move(result).value();
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    const double batched_seconds = SecondsSince(batched_start);
    batched_rps = static_cast<double>(num_requests) / batched_seconds;
    batcher.Shutdown();
    stats = batcher.Stats();
  }

  int64_t total_failures = 0;
  for (int f : failures) total_failures += f;
  const int64_t mismatches = CountMismatches(batched, expected);
  batched.clear();
  expected.clear();
  ClearStoragePool();

  // Phases 4 + 5 — int8 bundle (serve/quantize.h), module then plan,
  // same serial workload and the same bitwise discipline.
  const std::string quant_path = "/tmp/lipformer_bench_serving_int8.ckpt";
  st = serve::QuantizeBundleFile(bundle_path, quant_path, /*force=*/true);
  if (!st.ok()) {
    std::fprintf(stderr, "bundle quantize failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::vector<Tensor> quant_expected;
  double quant_module_rps;
  {
    auto session = OpenSession(quant_path, /*use_plan=*/false);
    if (session == nullptr) return 1;
    if (!session->quantized()) {
      std::fprintf(stderr, "quantized bundle open: session not quantized\n");
      return 1;
    }
    quant_module_rps = TimeSerial(session.get(), requests, &quant_expected);
    if (quant_module_rps < 0) return 1;
  }
  ClearStoragePool();

  std::vector<Tensor> quant_outputs;
  double quant_rps;
  {
    auto session = OpenSession(quant_path, /*use_plan=*/true);
    if (session == nullptr) return 1;
    quant_rps = TimeSerial(session.get(), requests, &quant_outputs);
    if (quant_rps < 0) return 1;
  }
  const int64_t quant_mismatches =
      CountMismatches(quant_outputs, quant_expected);
  quant_outputs.clear();
  quant_expected.clear();
  ClearStoragePool();
  const double quant_plan_speedup = quant_rps / quant_module_rps;
  // The int8-vs-fp32 claim check_perf.sh gates under AVX512-VNNI is about
  // the int8 GEMM kernel, so it compares module paths: on the plan path,
  // compile-time prepacked fp32 GEMM B closes most of the gap at this
  // model size (the int8 weights were always prepacked).
  const double quant_speedup = quant_module_rps / module_single_rps;

  // Untimed profiling pass: where does a plan execution spend its time?
  {
    auto session = OpenSession(bundle_path, /*use_plan=*/true);
    if (session == nullptr) return 1;
    session->SetPlanProfiling(true);
    const int64_t profile_iters = std::min<int64_t>(64, num_requests);
    for (int64_t i = 0; i < profile_iters; ++i) {
      (void)session->Predict(requests[static_cast<size_t>(i)]);
    }
    const serve::SessionPlanStats ps = session->plan_stats();
    std::fprintf(stderr,
                 "plan:    %lld ops (%lld traced, %lld elided, %lld "
                 "fused), %lld-byte arena, %lld prepacked GEMMs "
                 "(%lld bytes), %lld constants\n",
                 static_cast<long long>(ps.plan.num_ops),
                 static_cast<long long>(ps.plan.num_traced),
                 static_cast<long long>(ps.plan.num_elided),
                 static_cast<long long>(ps.plan.fused_gemm_operands),
                 static_cast<long long>(ps.plan.arena_bytes),
                 static_cast<long long>(ps.plan.prepacked_gemms),
                 static_cast<long long>(ps.plan.prepacked_bytes),
                 static_cast<long long>(ps.plan.num_constants));
    std::fprintf(stderr,
                 "plan:    fusion %lld GEMM epilogues, %lld elementwise "
                 "chains (%lld ops), %lld passes eliminated, %lld arena "
                 "bytes saved\n",
                 static_cast<long long>(ps.plan.fused_epilogues),
                 static_cast<long long>(ps.plan.fused_chains),
                 static_cast<long long>(ps.plan.fused_chain_ops),
                 static_cast<long long>(ps.plan.passes_eliminated),
                 static_cast<long long>(ps.plan.arena_saved_bytes));
    for (const serve::PlanOpTiming& t : ps.timings) {
      std::fprintf(stderr, "plan:      %-22s %6lld calls %10.1f us total\n",
                   t.name, static_cast<long long>(t.calls),
                   static_cast<double>(t.total_ns) * 1e-3);
    }
  }
  ClearStoragePool();

  const double speedup = batched_rps / single_rps;
  const double p50_us = stats.p50_latency_seconds * 1e6;
  const double p99_us = stats.p99_latency_seconds * 1e6;
  const double p999_us = stats.p999_latency_seconds * 1e6;
  std::fprintf(stderr,
               "module:  %6.1f req/s (serial fp32, %lld requests, "
               "%lld threads)\n"
               "plan:    %6.1f req/s (serial fp32, %.2fx over module, "
               "%.2fx over unfused plan %.1f req/s)\n"
               "batched: %6.1f req/s (%lld clients, max_batch %lld, "
               "%lld batches, p50 %.0f us, p99 %.0f us, p99.9 %.0f us)\n"
               "int8:    %6.1f req/s plan (%.2fx over int8 module "
               "%.1f req/s; module int8/fp32 %.2fx)\n"
               "speedup: %.2fx batched, mismatches: %lld plan, %lld "
               "unfused, %lld batched, %lld int8, failures: %lld\n",
               module_single_rps, static_cast<long long>(num_requests),
               static_cast<long long>(threads), single_rps, plan_speedup,
               fusion_speedup, nofuse_single_rps, batched_rps,
               static_cast<long long>(clients),
               static_cast<long long>(max_batch),
               static_cast<long long>(stats.batches), p50_us, p99_us,
               p999_us, quant_rps, quant_plan_speedup, quant_module_rps,
               quant_speedup, speedup,
               static_cast<long long>(plan_mismatches),
               static_cast<long long>(nofuse_mismatches),
               static_cast<long long>(mismatches),
               static_cast<long long>(quant_mismatches),
               static_cast<long long>(total_failures));

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"single_rps\": %.3f, \"module_single_rps\": %.3f, "
                 "\"plan_speedup\": %.4f, \"nofuse_single_rps\": %.3f, "
                 "\"fusion_speedup\": %.4f, \"batched16_rps\": %.3f, "
                 "\"speedup\": %.4f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
                 "\"p999_us\": %.1f, \"quant_single_rps\": %.3f, "
                 "\"quant_module_rps\": %.3f, \"quant_plan_speedup\": %.4f, "
                 "\"quant_speedup\": %.4f, \"plan_records\": %lld, "
                 "\"plan_arena_bytes\": %lld, "
                 "\"plan_fused_epilogues\": %lld, "
                 "\"plan_fused_chains\": %lld, "
                 "\"plan_passes_eliminated\": %lld, "
                 "\"plan_arena_saved_bytes\": %lld}\n",
                 single_rps, module_single_rps, plan_speedup,
                 nofuse_single_rps, fusion_speedup, batched_rps,
                 speedup, p50_us, p99_us, p999_us, quant_rps,
                 quant_module_rps, quant_plan_speedup, quant_speedup,
                 static_cast<long long>(plan_stats.num_ops),
                 static_cast<long long>(plan_stats.arena_bytes),
                 static_cast<long long>(plan_stats.fused_epilogues),
                 static_cast<long long>(plan_stats.fused_chains),
                 static_cast<long long>(plan_stats.passes_eliminated),
                 static_cast<long long>(plan_stats.arena_saved_bytes));
    std::fclose(f);
  }

  if (plan_mismatches > 0 || nofuse_mismatches > 0 || mismatches > 0 ||
      quant_mismatches > 0 || total_failures > 0) {
    std::fprintf(stderr,
                 "FAIL: plan and batched outputs must be bitwise identical "
                 "to the module-path serial outputs\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lipformer

int main(int argc, char** argv) { return lipformer::Run(argc, argv); }
