// Workload `forecast-lib`: library and edge users calling the inference
// session directly, with no queueing. Isolates serve.session, serve.plan
// and the tensor kernels; batcher or CLI changes should leave it alone.
//
// Edge phase: one caller, closed loop, batch-1 Predict over a stream of
// distinct windows (the paper's Table VII quantity). Bulk phase: one
// caller per core, PredictBatch at one fixed large batch over a window set
// larger than L2. Every answer is memcmp-checked against the module-path
// serial reference (plan == module, batched == serial).

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "serve/quantize.h"
#include "serve/session.h"
#include "tensor/ops.h"

namespace perfbench {
namespace {

using lipformer::Result;
using lipformer::Tensor;
using lipformer::serve::InferencePlan;
using lipformer::serve::InferenceSession;

constexpr int64_t kWindowValues = kInputLen * kChannels;
constexpr int64_t kOutValues = kPredLen * kChannels;
// 256 windows x 28 KB = 7 MB of inputs: larger than L2 on current x86.
constexpr int kWindows = 256;
constexpr int64_t kBulkBatch = 64;
constexpr uint64_t kModelSeed = 21;
// Opens timed per edge/bulk slice, so `setup_s` is a median over 65 Opens
// (at 40 s) spread through the run, not a handful taken in one moment.
constexpr int kOpensPerSlice = 3;

// Callers of the bulk phase: one per CPU this process may run on, the
// `nproc` that run.py records in the fingerprint.
int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

Tensor Window(const std::vector<float>& all, int w) {
  return Tensor({kInputLen, kChannels},
                std::vector<float>(all.begin() + w * kWindowValues,
                                   all.begin() + (w + 1) * kWindowValues));
}

Tensor Batch(const std::vector<float>& all, int first, int64_t b) {
  return Tensor({b, kInputLen, kChannels},
                std::vector<float>(all.begin() + first * kWindowValues,
                                   all.begin() + (first + b) * kWindowValues));
}

bool SameAs(const Tensor& got, const std::vector<float>& ref, int first) {
  return got.numel() % kOutValues == 0 &&
         first * kOutValues + got.numel() <= static_cast<int64_t>(ref.size()) &&
         std::memcmp(got.data(), ref.data() + first * kOutValues,
                     static_cast<size_t>(got.numel()) * sizeof(float)) == 0;
}

std::unique_ptr<InferenceSession> Open(const std::string& path,
                                       bool use_plan = true) {
  lipformer::serve::SessionOptions o;
  o.use_plan = use_plan;
  Result<std::unique_ptr<InferenceSession>> s = InferenceSession::Open(path, o);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: open %s: %s\n", path.c_str(),
                 s.status().ToString().c_str());
    return nullptr;
  }
  return std::move(s.value());
}

// Per-op-kind time of `plan` per forward, from its profiling counters.
struct KindTimes {
  double gemm_us = 0, softmax_us = 0, permute_us = 0, chain_us = 0,
         int8_us = 0;
};
KindTimes ProfilePlan(const InferencePlan& plan, const Tensor& input, int reps) {
  auto totals = [&] {
    KindTimes t;
    for (const lipformer::serve::PlanOpTiming& op : plan.OpTimings()) {
      const std::string n = op.name;
      const double us = static_cast<double>(op.total_ns) / 1e3;
      if (n == "gemm") t.gemm_us += us;
      if (n == "softmax" || n == "scaled_masked_softmax" || n == "log_softmax") t.softmax_us += us;
      if (n == "permute") t.permute_us += us;
      if (n == "fused_chain") t.chain_us += us;
      if (n == "quant_linear") t.int8_us += us;
    }
    return t;
  };
  const bool was = plan.profiling();
  plan.set_profiling(true);
  const KindTimes a = totals();
  for (int i = 0; i < reps; ++i) plan.Execute(input);
  const KindTimes b = totals();
  plan.set_profiling(was);
  const double r = reps;
  return KindTimes{(b.gemm_us - a.gemm_us) / r, (b.softmax_us - a.softmax_us) / r,
                   (b.permute_us - a.permute_us) / r, (b.chain_us - a.chain_us) / r,
                   (b.int8_us - a.int8_us) / r};
}

}  // namespace

Report RunForecastLib(const RunOptions& opt) {
  Report res;
  const std::string bundle = opt.work_dir + "/forecast.fp32.ckpt";
  if (!SaveLipformerBundle(bundle, kModelSeed)) {
    res.Fail("bundle save failed");
    return res;
  }
  // Distinct windows from the seed: a noisy daily cycle per channel.
  lipformer::Rng rng(opt.seed * 104729 + 3);
  std::vector<float> windows(static_cast<size_t>(kWindows * kWindowValues));
  for (int w = 0; w < kWindows; ++w) {
    const double phase = rng.Uniform(0, 6.28);
    for (int64_t s = 0; s < kInputLen; ++s) {
      for (int64_t c = 0; c < kChannels; ++c) {
        windows[static_cast<size_t>((w * kInputLen + s) * kChannels + c)] =
            static_cast<float>(5.0 * std::sin(phase + 0.0436 * s + c) +
                               rng.Normal(0.0, 1.0) + c);
      }
    }
  }
  // One kernel thread everywhere: on a shared 4-vCPU host, phases whose
  // kernels split work across the pool and wait at each op's barrier
  // swung up to 3x between runs under co-tenant load.
  lipformer::SetNumThreads(1);

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  std::vector<double> opens;
  std::unique_ptr<InferenceSession> session;
  // Opens a session of the bundle, timing the Open into `opens`.
  auto timed_open = [&] {
    const int64_t t0 = NowNs();
    std::unique_ptr<InferenceSession> s;
    {
      ScopedSpan span(tr, "session.open");
      s = Open(bundle);
    }
    opens.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return s;
  };
  for (int k = 0; k < 5; ++k) {
    session.reset();
    session = timed_open();
    if (session == nullptr) {
      res.Fail("session open failed");
      return res;
    }
  }

  // Module-path serial reference for every window.
  std::vector<float> ref(static_cast<size_t>(kWindows * kOutValues));
  double macs_per_fwd = 0;
  {
    std::unique_ptr<InferenceSession> module = Open(bundle, /*use_plan=*/false);
    if (module == nullptr) {
      res.Fail("module session open failed");
      return res;
    }
    for (int w = 0; w < kWindows; ++w) {
      if (w == 0) {
        lipformer::SetMacCountingEnabled(true);
        lipformer::ResetMacCount();
      }
      Result<Tensor> p = module->Predict(Window(windows, w));
      if (w == 0) {
        macs_per_fwd = static_cast<double>(lipformer::MacCount());
        lipformer::SetMacCountingEnabled(false);
      }
      if (!p.ok() || p.value().numel() != kOutValues) {
        res.Fail("module reference failed");
        return res;
      }
      std::memcpy(ref.data() + w * kOutValues, p.value().data(),
                  sizeof(float) * kOutValues);
    }
  }

  std::vector<Tensor> edge_inputs;
  for (int w = 0; w < kWindows; ++w) edge_inputs.push_back(Window(windows, w));
  std::vector<Tensor> bulk_inputs;
  for (int first = 0; first + kBulkBatch <= kWindows; first += kBulkBatch) {
    bulk_inputs.push_back(Batch(windows, first, kBulkBatch));
  }

  // Edge: batch 1, closed loop. `traced` wraps each call in a span; the
  // untraced loop is the end-to-end measurement. Returns the busy seconds
  // and appends per-call latencies.
  int w_next = 0;
  auto edge = [&](double seconds, bool traced, std::vector<double>* lat_ms) {
    const int64_t start = NowNs();
    const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < stop) {
      const int w = w_next;
      w_next = (w_next + 1) % kWindows;
      const int64_t t0 = NowNs();
      Result<Tensor> p = session->Predict(edge_inputs[static_cast<size_t>(w)]);
      const int64_t t1 = NowNs();
      if (traced) tracer.Add("session.predict", t0, t1);
      lat_ms->push_back(static_cast<double>(t1 - t0) / 1e6);
      ++res.attempted;
      if (!p.ok() || !SameAs(p.value(), ref, w)) res.Fail("edge answer differs from the module reference");
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  // Bulk: one independent caller per CPU, each running PredictBatch at the
  // fixed batch. Returns {windows, seconds}.
  const int callers_n = AffinityCpus();
  auto bulk = [&](double seconds) {
    const int64_t start = NowNs();
    const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<int64_t> done(static_cast<size_t>(callers_n), 0);
    std::vector<int64_t> wrong(static_cast<size_t>(callers_n), 0);
    std::vector<std::thread> callers;
    for (int t = 0; t < callers_n; ++t) {
      callers.emplace_back([&, t] {
        for (size_t k = static_cast<size_t>(t) % bulk_inputs.size(); NowNs() < stop;
             k = (k + 1) % bulk_inputs.size()) {
          Result<Tensor> p = session->PredictBatch(bulk_inputs[k]);
          done[static_cast<size_t>(t)] += kBulkBatch;
          if (!p.ok() || !SameAs(p.value(), ref, static_cast<int>(k * kBulkBatch))) {
            wrong[static_cast<size_t>(t)] += kBulkBatch;
          }
        }
      });
    }
    for (std::thread& c : callers) c.join();
    const double secs = static_cast<double>(NowNs() - start) / 1e9;
    int64_t windows = 0, bad = 0;
    for (int t = 0; t < callers_n; ++t) {
      windows += done[static_cast<size_t>(t)];
      bad += wrong[static_cast<size_t>(t)];
    }
    res.attempted += windows;
    if (bad > 0) res.Fail("bulk answer differs from the module reference", bad);
    return std::make_pair(static_cast<double>(windows), secs);
  };

  const double S = opt.seconds;
  if (!opt.trace) {
    std::vector<double> warm, lat;
    edge(0.03 * S, false, &warm);
    bulk(0.03 * S);
    // Edge and bulk alternate in short slices across the whole run, so
    // both average over the same spells of machine contention.
    const int slices = std::max(1, static_cast<int>(S / 2));
    double edge_s = 0, bulk_windows = 0, bulk_s = 0;
    for (int k = 0; k < slices; ++k) {
      // Spare sessions, dropped at once: the measured one keeps its plans.
      for (int i = 0; i < kOpensPerSlice; ++i) {
        if (timed_open() == nullptr) {
          res.Fail("session open failed");
          return res;
        }
      }
      edge_s += edge(0.47 * S / slices, false, &lat);
      const auto [windows_done, secs] = bulk(0.42 * S / slices);
      bulk_windows += windows_done;
      bulk_s += secs;
    }
    const double edge_rate = static_cast<double>(lat.size()) / edge_s;
    const double wps = bulk_windows / bulk_s;
    const Summary s = Summarize(lat);
    std::printf("forecast-lib: edge n=%lld p50 %.4f p90 %.4f p%.4g %.4f ms %.1f/s; "
                "bulk batch %lld from %d callers %.1f windows/s\n",
                static_cast<long long>(s.n), s.p50, s.p90, s.tail_level, s.tail,
                edge_rate, static_cast<long long>(kBulkBatch), callers_n, wps);
    res.Set("p50_ms", s.p50, "ms");
    res.Set("slo_rps", edge_rate, "1/s");
    res.Set("peak_ps", wps, "1/s");
    res.Set("setup_s", Percentile(opens, 50), "s");
    res.Set("rss_mb", PeakRssMb(), "MB");
    return res;
  }

  // ---- Traced run: per-layer numbers of session, plan and kernels.
  std::unique_ptr<InferenceSession> fresh = Open(bundle);
  if (fresh == nullptr) {
    res.Fail("session open failed");
    return res;
  }
  double compile_ms[3] = {0, 0, 0};
  const int64_t sizes[3] = {2, 8, 16};
  for (int k = 0; k < 3; ++k) {
    const int64_t t0 = NowNs();
    fresh->PlanForBatch(sizes[k]);
    const int64_t t1 = NowNs();
    tracer.Add(k == 0 ? "session.compile.b2" : k == 1 ? "session.compile.b8" : "session.compile.b16", t0, t1);
    compile_ms[k] = static_cast<double>(t1 - t0) / 1e6;
  }
  fresh.reset();

  // Untraced and traced edge slices alternate: the tracing overhead.
  std::vector<double> warm, plain, traced;
  edge(0.03 * S, false, &warm);
  for (int k = 0; k < 6; ++k) {
    edge(0.05 * S, false, &plain);
    edge(0.05 * S, true, &traced);
  }

  // Plan executions, timed around InferencePlan::Execute directly.
  auto exec = [&](int64_t b, double seconds, const char* name) {
    std::shared_ptr<const InferencePlan> plan = session->PlanForBatch(b);
    std::vector<double> us;
    if (plan == nullptr) {
      res.Fail("no plan for batch " + std::to_string(b));
      return std::make_pair(plan, us);
    }
    const Tensor input = Batch(windows, 0, b);
    const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < stop || us.size() < 50) {
      const int64_t t0 = NowNs();
      Tensor out = plan->Execute(input);
      const int64_t t1 = NowNs();
      tracer.Add(name, t0, t1);
      us.push_back(static_cast<double>(t1 - t0) / 1e3);
      ++res.attempted;
      if (!SameAs(out, ref, 0)) res.Fail(std::string(name) + " differs from the module reference");
    }
    return std::make_pair(plan, us);
  };
  auto [plan1, us1] = exec(1, 0.1 * S, "plan.execute.b1");
  auto [plan16, us16] = exec(16, 0.1 * S, "plan.execute.b16");
  auto [planb, usb] = exec(kBulkBatch, 0.1 * S, "plan.execute.bulk");
  if (plan1 == nullptr || plan16 == nullptr || planb == nullptr) return res;

  const Tensor in1 = Batch(windows, 0, 1);
  const KindTimes kinds = ProfilePlan(*plan1, in1, 400);
  // The int8 variant of the same model, from the library quantizer.
  KindTimes int8_kinds;
  {
    const std::string q = opt.work_dir + "/forecast.int8.ckpt";
    const lipformer::Status st = lipformer::serve::QuantizeBundleFile(bundle, q, true);
    std::unique_ptr<InferenceSession> qs = st.ok() ? Open(q) : nullptr;
    std::shared_ptr<const InferencePlan> qp = qs ? qs->PlanForBatch(1) : nullptr;
    if (qp == nullptr) {
      res.Fail("int8 plan unavailable");
      return res;
    }
    int8_kinds = ProfilePlan(*qp, in1, 400);
  }

  const lipformer::serve::PlanStats& ps = plan1->stats();
  const double exec_b1 = Percentile(us1, 50);
  const double predict_plain_us = Percentile(plain, 50) * 1e3;
  res.Set("session.open_ms", Percentile(opens, 50) * 1e3, "ms");
  res.Set("session.compile_ms.b2", compile_ms[0], "ms");
  res.Set("session.compile_ms.b8", compile_ms[1], "ms");
  res.Set("session.compile_ms.b16", compile_ms[2], "ms");
  res.Set("session.plans_compiled", static_cast<double>(session->plan_stats().plans_compiled), "count");
  res.Set("session.overhead_us", predict_plain_us - exec_b1, "us");
  res.Set("plan.exec_us.b1", exec_b1, "us");
  res.Set("plan.exec_us.b16", Percentile(us16, 50), "us");
  res.Set("plan.exec_us.bulk", Percentile(usb, 50), "us");
  res.Set("plan.arena_bytes",
          static_cast<double>(ps.arena_bytes + plan16->stats().arena_bytes +
                              planb->stats().arena_bytes),
          "bytes");
  res.Set("plan.ops", static_cast<double>(ps.num_ops), "count");
  res.Set("tensor.gemm_us_per_fwd", kinds.gemm_us, "us");
  res.Set("tensor.softmax_us_per_fwd", kinds.softmax_us, "us");
  res.Set("tensor.permute_us_per_fwd", kinds.permute_us, "us");
  res.Set("tensor.chain_us_per_fwd", kinds.chain_us, "us");
  res.Set("tensor.int8_gemm_us_per_fwd", int8_kinds.int8_us, "us");
  res.Set("tensor.gmacs", kinds.gemm_us > 0 ? macs_per_fwd / (kinds.gemm_us * 1e3) : 0, "GMAC/s");
  // Bytes one forward touches, computed from tensor sizes: input, output,
  // the activation arena, captured constants and prepacked weight panels.
  res.Set("tensor.bytes_per_fwd",
          static_cast<double>(sizeof(float) * (kWindowValues + kOutValues) +
                              ps.arena_bytes + ps.constant_bytes + ps.prepacked_bytes),
          "bytes");
  res.Set("trace.overhead_ms", Percentile(traced, 50) - Percentile(plain, 50), "ms");
  std::printf("forecast-lib trace: Predict p50 %.2f us = plan %.2f us + session "
              "%.2f us; per forward gemm %.2f softmax %.2f permute %.2f chain "
              "%.2f int8-gemm %.2f us; %.3g MACs -> %.2f GMAC/s\n",
              predict_plain_us, exec_b1, predict_plain_us - exec_b1, kinds.gemm_us,
              kinds.softmax_us, kinds.permute_us, kinds.chain_us, int8_kinds.int8_us,
              macs_per_fwd, kinds.gemm_us > 0 ? macs_per_fwd / (kinds.gemm_us * 1e3) : 0);
  // Training runs the same kernels through autograd: its layers are
  // measured here too (training.cc).
  MeasureTraining(opt, &res, &tracer);
  if (!opt.trace_path.empty() && !tracer.WriteChromeJson(opt.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_path.c_str());
  }
  return res;
}

}  // namespace perfbench
