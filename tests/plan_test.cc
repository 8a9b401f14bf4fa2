#include "serve/plan.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "serve/arena.h"
#include "serve/batcher.h"
#include "serve/quantize.h"
#include "serve/session.h"
#include "tests/test_util.h"

// AOT inference plans (serve/plan.h): the contract under test is bitwise
// identity with the module path — same bundle, same input, byte-equal
// output — for fp32 and quantized bundles, serial and batched, plus
// clean fallback when a model's forward cannot be compiled.

namespace lipformer {
namespace {

using testing::RandomTensor;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FreshTempPath(const std::string& name) {
  const std::string path = TempPath(name);
  std::remove(path.c_str());
  return path;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Runs fn with the global kernel thread count pinned to `threads` and
// restores the default afterwards.
template <typename Fn>
void WithThreads(int threads, Fn fn) {
  SetNumThreads(threads);
  fn();
  SetNumThreads(DefaultNumThreads());
}

serve::SessionOptions NoPlan() {
  serve::SessionOptions o;
  o.use_plan = false;
  return o;
}

class PlanTest : public ::testing::Test {
 protected:
  // Same small-but-real LiPFormer bundle the session tests use:
  // 24 -> 6 over 2 channels, hidden 8 (below the quantizer floor).
  void SetUp() override {
    dims_.input_len = 24;
    dims_.pred_len = 6;
    dims_.channels = 2;
    options_.hidden_dim = 8;
    options_.num_heads = 2;
    options_.patch_len = 8;
    options_.seed = 11;
    std::unique_ptr<Forecaster> model =
        CreateModel("lipformer", dims_, options_);
    Rng rng(12);
    scaler_.Fit(Tensor::Randn({64, dims_.channels}, rng));
    path_ = TempPath("plan_bundle.ckpt");
    ASSERT_TRUE(serve::SaveModelBundle(path_, "lipformer", options_, *model,
                                       scaler_)
                    .ok());
  }

  // Bundle whose attention projections (hidden 16) clear the quantizer's
  // shape floor, so the int8 plan path actually has quantized Linears.
  std::string QuantizedBundlePath() {
    ModelOptions options = options_;
    options.hidden_dim = 16;
    std::unique_ptr<Forecaster> model =
        CreateModel("lipformer", dims_, options);
    const std::string fp32 = TempPath("plan_bundle_h16.ckpt");
    EXPECT_TRUE(serve::SaveModelBundle(fp32, "lipformer", options, *model,
                                       scaler_)
                    .ok());
    const std::string int8 = FreshTempPath("plan_bundle_h16_int8.ckpt");
    EXPECT_TRUE(serve::QuantizeBundleFile(fp32, int8, /*force=*/false).ok());
    return int8;
  }

  // Predictions from a plan-enabled session must be bitwise identical to
  // a module-only session opened from the same bundle, at every batch
  // size, at 1 kernel thread and at 4 (which spreads the rows of a batch
  // over the pool), and must all be served by the one plan Open compiled.
  void ExpectPlanMatchesModule(const std::string& bundle,
                               const std::vector<int64_t>& batch_sizes) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      WithThreads(threads, [&] { ExpectPlanMatchesModuleNow(bundle,
                                                            batch_sizes); });
    }
  }

  void ExpectPlanMatchesModuleNow(const std::string& bundle,
                                  const std::vector<int64_t>& batch_sizes) {
    auto planned = serve::InferenceSession::Open(bundle);
    auto module = serve::InferenceSession::Open(bundle, NoPlan());
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    ASSERT_TRUE(module.ok()) << module.status().ToString();
    ASSERT_TRUE(planned.value()->plan_enabled());
    ASSERT_FALSE(module.value()->plan_enabled());

    const int64_t in = planned.value()->input_len();
    const int64_t ch = planned.value()->channels();
    int64_t requests = 0;
    for (size_t i = 0; i < batch_sizes.size(); ++i) {
      const int64_t b = batch_sizes[i];
      const Tensor histories =
          RandomTensor({b, in, ch}, 900 + static_cast<uint64_t>(i));
      auto got = planned.value()->PredictBatch(histories);
      auto want = module.value()->PredictBatch(histories);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_TRUE(BitwiseEqual(got.value(), want.value()))
          << "batch size " << b;
      ++requests;
      // No batch size compiles anything: Open's plan serves them all.
      EXPECT_EQ(planned.value()->plan_stats().plans_compiled, 1)
          << "batch size " << b;
      EXPECT_NE(planned.value()->PlanForBatch(b), nullptr);
      EXPECT_EQ(planned.value()->PlanForBatch(b),
                planned.value()->PlanForBatch(1))
          << "batch size " << b;
    }

    const serve::SessionPlanStats stats = planned.value()->plan_stats();
    EXPECT_EQ(stats.compile_error, "");
    EXPECT_EQ(stats.plan_requests, requests);
    EXPECT_EQ(stats.module_requests, 0);
  }

  ForecasterDims dims_;
  ModelOptions options_;
  StandardScaler scaler_;
  std::string path_;
};

TEST_F(PlanTest, CompilesForLipformerBundleAtOpen) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  serve::InferenceSession* session = opened.value().get();

  ASSERT_TRUE(session->plan_enabled());
  const serve::SessionPlanStats stats = session->plan_stats();
  // Open precompiles the batch-1 plan; a compile failure would be a
  // silent fallback every other test could miss, so pin it here.
  EXPECT_EQ(stats.compile_error, "") << stats.compile_error;
  EXPECT_EQ(stats.plans_compiled, 1);
  EXPECT_GT(stats.plan.num_ops, 0);
  EXPECT_GE(stats.plan.num_traced, stats.plan.num_ops);
  EXPECT_GT(stats.plan.num_elided, 0);  // head split/merge, full slices
  // num_heads > 1 makes the attention head-split permutes non-identity;
  // all of them feed GEMM operands and must fold into the pack phase.
  EXPECT_GT(stats.plan.fused_gemm_operands, 0);
  EXPECT_GT(stats.plan.arena_bytes, 0);
  EXPECT_GT(stats.plan.num_constants, 0);
  EXPECT_GT(stats.plan.prepacked_gemms, 0);

  std::shared_ptr<const serve::InferencePlan> plan = session->PlanForBatch(1);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->input_shape(), (Shape{1, 24, 2}));
  EXPECT_EQ(plan->output_shape(), (Shape{1, 6, 2}));
}

TEST_F(PlanTest, Fp32BitwiseMatchesModulePath) {
  ExpectPlanMatchesModule(path_, {1, 3, 16});
}

TEST_F(PlanTest, QuantizedBitwiseMatchesModulePath) {
  const std::string bundle = QuantizedBundlePath();
  auto opened = serve::InferenceSession::Open(bundle);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened.value()->quantized());
  ExpectPlanMatchesModule(bundle, {1, 3, 16});
}

TEST_F(PlanTest, OddShapesBitwiseMatchModulePath) {
  // Non-power-of-two everything: input 35 with patch 7, pred 9, three
  // channels — exercises remainder slices and unaligned arena values.
  ForecasterDims dims;
  dims.input_len = 35;
  dims.pred_len = 9;
  dims.channels = 3;
  ModelOptions options;
  options.hidden_dim = 12;
  options.num_heads = 2;
  options.patch_len = 7;
  options.seed = 29;
  std::unique_ptr<Forecaster> model = CreateModel("lipformer", dims, options);
  StandardScaler scaler;
  Rng rng(30);
  scaler.Fit(Tensor::Randn({48, dims.channels}, rng));
  const std::string path = TempPath("plan_bundle_odd.ckpt");
  ASSERT_TRUE(
      serve::SaveModelBundle(path, "lipformer", options, *model, scaler)
          .ok());
  ExpectPlanMatchesModule(path, {1, 3, 5});
}

TEST_F(PlanTest, ManyThreadsShareOnePlan) {
  // The plan is immutable and runs without the module mutex; hammer one
  // session from many threads and require every result bitwise-correct.
  // check_sanitize.sh runs this under TSan.
  auto planned = serve::InferenceSession::Open(path_);
  auto module = serve::InferenceSession::Open(path_, NoPlan());
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(module.ok());
  serve::InferenceSession* session = planned.value().get();

  const int kThreads = 8;
  const int kPerThread = 16;
  std::vector<Tensor> windows;
  std::vector<Tensor> expected;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    windows.push_back(RandomTensor({24, 2}, 500 + i));
    auto want = module.value()->Predict(windows.back());
    ASSERT_TRUE(want.ok());
    expected.push_back(want.value());
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int idx = t * kPerThread + i;
        auto got = session->Predict(windows[idx]);
        if (!got.ok() || !BitwiseEqual(got.value(), expected[idx])) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }

  const serve::SessionPlanStats stats = session->plan_stats();
  EXPECT_EQ(stats.plan_requests, kThreads * kPerThread);
  EXPECT_EQ(stats.module_requests, 0);
  std::shared_ptr<const serve::InferencePlan> plan = session->PlanForBatch(1);
  ASSERT_NE(plan, nullptr);
  // +3: Compile ran the program twice for bitwise validation, and Open's
  // timed admission-control probe executed it once more.
  EXPECT_EQ(plan->executions(), kThreads * kPerThread + 3);
}

TEST_F(PlanTest, BatcherServesConcurrentRequestsFromOnePlan) {
  auto planned = serve::InferenceSession::Open(path_);
  auto module = serve::InferenceSession::Open(path_, NoPlan());
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(module.ok());

  const int kClients = 6;
  const int kPerClient = 4;
  std::vector<Tensor> windows;
  std::vector<Tensor> expected;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    windows.push_back(RandomTensor({24, 2}, 700 + i));
    auto want = module.value()->Predict(windows[i]);
    ASSERT_TRUE(want.ok());
    expected.push_back(want.value());
  }

  serve::BatcherOptions opts;
  opts.max_batch_size = 4;
  opts.max_delay = std::chrono::microseconds(200);
  serve::Batcher batcher(planned.value().get(), opts);
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  for (int cl = 0; cl < kClients; ++cl) {
    clients.emplace_back([&, cl] {
      for (int i = 0; i < kPerClient; ++i) {
        const int idx = cl * kPerClient + i;
        auto got = batcher.Submit(windows[idx]).get();
        if (!got.ok() || !BitwiseEqual(got.value(), expected[idx])) {
          ++mismatches[cl];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int cl = 0; cl < kClients; ++cl) {
    EXPECT_EQ(mismatches[cl], 0) << "client " << cl;
  }

  // Coalesced batches of any size run Open's one plan row by row;
  // nothing compiled later and nothing fell back to the module path.
  const serve::SessionPlanStats stats = planned.value()->plan_stats();
  EXPECT_GT(stats.plan_requests, 0);
  EXPECT_EQ(stats.module_requests, 0);
  EXPECT_EQ(stats.plans_compiled, 1);
}

TEST_F(PlanTest, UncompilableModelFallsBackToModulePath) {
  // Autoformer selects top autocorrelation lags with IndexSelect —
  // data-dependent control flow poisons the trace, compilation fails, and
  // the session must serve correct results from the module path.
  std::unique_ptr<Forecaster> model =
      CreateModel("autoformer", dims_, options_);
  const std::string path = TempPath("plan_bundle_autoformer.ckpt");
  ASSERT_TRUE(
      serve::SaveModelBundle(path, "autoformer", options_, *model, scaler_)
          .ok());

  auto planned = serve::InferenceSession::Open(path);
  auto module = serve::InferenceSession::Open(path, NoPlan());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_TRUE(module.ok());

  EXPECT_TRUE(planned.value()->plan_enabled());
  EXPECT_EQ(planned.value()->PlanForBatch(1), nullptr);
  const Tensor histories = RandomTensor({2, 24, 2}, 41);
  auto got = planned.value()->PredictBatch(histories);
  auto want = module.value()->PredictBatch(histories);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(BitwiseEqual(got.value(), want.value()));

  const serve::SessionPlanStats stats = planned.value()->plan_stats();
  EXPECT_EQ(stats.plans_compiled, 0);
  EXPECT_NE(stats.compile_error, "");
  EXPECT_NE(stats.compile_error.find("data-dependent"), std::string::npos)
      << stats.compile_error;
  EXPECT_EQ(stats.plan_requests, 0);
  EXPECT_EQ(stats.module_requests, 1);
}

TEST_F(PlanTest, SessionOptionDisablesPlanPath) {
  auto opened = serve::InferenceSession::Open(path_, NoPlan());
  ASSERT_TRUE(opened.ok());
  serve::InferenceSession* session = opened.value().get();

  EXPECT_FALSE(session->plan_enabled());
  EXPECT_EQ(session->PlanForBatch(1), nullptr);
  auto pred = session->Predict(RandomTensor({24, 2}, 55));
  ASSERT_TRUE(pred.ok());

  const serve::SessionPlanStats stats = session->plan_stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.plans_compiled, 0);
  EXPECT_EQ(stats.plan_requests, 0);
  EXPECT_EQ(stats.module_requests, 1);
}

TEST_F(PlanTest, ProfilingReportsPerOpTimings) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::InferenceSession* session = opened.value().get();

  // Off by default: no timings even after traffic.
  ASSERT_TRUE(session->Predict(RandomTensor({24, 2}, 60)).ok());
  EXPECT_TRUE(session->plan_stats().timings.empty());

  session->SetPlanProfiling(true);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->Predict(RandomTensor({24, 2}, 61 + i)).ok());
  }
  const serve::SessionPlanStats stats = session->plan_stats();
  ASSERT_FALSE(stats.timings.empty());
  int64_t calls = 0;
  for (const serve::PlanOpTiming& t : stats.timings) {
    EXPECT_NE(t.name, nullptr);
    EXPECT_GT(t.calls, 0);
    calls += t.calls;
  }
  // Three profiled executions of a fixed program.
  EXPECT_EQ(calls, 3 * stats.plan.num_ops);
}

// The fusion pass must actually fire on the default LiPFormer config:
// every Linear is bias+GEMM (epilogue fusion) and the de/normalization
// around the model is an elementwise run (chain fusion). If these drop
// to zero the pass has silently stopped matching and every fusion
// benchmark measures nothing.
TEST_F(PlanTest, FusionFiresOnDefaultConfig) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const serve::SessionPlanStats stats = opened.value()->plan_stats();
  EXPECT_EQ(stats.compile_error, "");
  EXPECT_GE(stats.plan.fused_epilogues, 1);
  EXPECT_GE(stats.plan.fused_chains, 1);
  // A chain absorbs at least two elementwise ops by construction.
  EXPECT_GE(stats.plan.fused_chain_ops, 2 * stats.plan.fused_chains);
  // Each absorbed epilogue op and each chained op beyond the first
  // removes one whole read-modify-write pass. (>= because one GEMM can
  // absorb both a bias and a residual and count once.)
  EXPECT_GE(stats.plan.passes_eliminated,
            stats.plan.fused_epilogues +
                (stats.plan.fused_chain_ops - stats.plan.fused_chains));
  EXPECT_GE(stats.plan.arena_saved_bytes, 0);
}

// LIPF_NO_FUSE=1 must disable the pass (counters at zero) and the
// unfused plan must still serve bitwise-identical predictions — it is
// the baseline side of the bench_serving fusion gate.
TEST_F(PlanTest, NoFuseEnvDisablesFusionAndStaysBitwise) {
  ASSERT_EQ(setenv("LIPF_NO_FUSE", "1", 1), 0);
  auto unfused = serve::InferenceSession::Open(path_);
  unsetenv("LIPF_NO_FUSE");
  auto module = serve::InferenceSession::Open(path_, NoPlan());
  ASSERT_TRUE(unfused.ok()) << unfused.status().ToString();
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  ASSERT_TRUE(unfused.value()->plan_enabled());

  const serve::SessionPlanStats stats = unfused.value()->plan_stats();
  EXPECT_EQ(stats.compile_error, "");
  EXPECT_EQ(stats.plan.fused_epilogues, 0);
  EXPECT_EQ(stats.plan.fused_chains, 0);
  EXPECT_EQ(stats.plan.fused_chain_ops, 0);
  EXPECT_EQ(stats.plan.passes_eliminated, 0);

  const Tensor histories = RandomTensor({3, 24, 2}, 77);
  auto got = unfused.value()->PredictBatch(histories);
  auto want = module.value()->PredictBatch(histories);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(BitwiseEqual(got.value(), want.value()));
}

// ---------------------------------------------------------------------
// ArenaLayout (serve/arena.h): the liveness allocator behind plan
// arenas. The invariants: offsets are 16-float (64-byte) aligned, two
// simultaneously-live allocations never overlap, freed space is reused
// (same-size churn must not grow the slab), and adjacent holes coalesce
// so a large value fits where several small ones died.

// Tracks live [off, off+len) intervals and fails on any overlap — the
// one bug class an arena allocator must never have.
class ArenaChecker {
 public:
  explicit ArenaChecker(serve::ArenaLayout* arena) : arena_(arena) {}

  int64_t Alloc(int64_t numel) {
    const int64_t off = arena_->Alloc(numel);
    const int64_t len = serve::ArenaAlignUp(numel);
    EXPECT_EQ(off % serve::kArenaAlignFloats, 0) << "unaligned offset";
    for (size_t i = 0; i < live_.size(); ++i) {
      const bool disjoint = off + len <= live_[i].off ||
                            live_[i].off + live_[i].len <= off;
      EXPECT_TRUE(disjoint) << "overlap: [" << off << "," << off + len
                            << ") vs [" << live_[i].off << ","
                            << live_[i].off + live_[i].len << ")";
    }
    live_.push_back({off, len});
    return off;
  }

  void Free(int64_t off, int64_t numel) {
    arena_->Free(off, numel);
    for (size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].off == off) {
        live_.erase(live_.begin() + i);
        return;
      }
    }
    FAIL() << "freed an offset that was not live: " << off;
  }

 private:
  struct Interval {
    int64_t off;
    int64_t len;
  };
  serve::ArenaLayout* arena_;
  std::vector<Interval> live_;
};

TEST(ArenaLayoutTest, SameSizeChurnReusesTheHole) {
  serve::ArenaLayout arena;
  const int64_t a = arena.Alloc(100);
  const int64_t grown = arena.end();
  arena.Free(a, 100);
  // Ten generations of the same size must keep landing in a's hole.
  for (int i = 0; i < 10; ++i) {
    const int64_t b = arena.Alloc(100);
    EXPECT_EQ(b, a);
    arena.Free(b, 100);
  }
  EXPECT_EQ(arena.end(), grown);
}

TEST(ArenaLayoutTest, InterleavedLongAndShortLifetimes) {
  serve::ArenaLayout arena;
  ArenaChecker check(&arena);
  // A long-lived value pinned at the bottom while short-lived pairs of
  // different sizes churn above it — the pattern plan residuals create
  // (defined early, consumed late, dozens of temporaries in between).
  const int64_t pinned = check.Alloc(64);
  int64_t high_water = 0;
  for (int i = 0; i < 50; ++i) {
    const int64_t s = check.Alloc(16 + (i % 7) * 16);
    const int64_t t = check.Alloc(128);
    check.Free(s, 16 + (i % 7) * 16);
    const int64_t u = check.Alloc(48);
    check.Free(t, 128);
    check.Free(u, 48);
    high_water = std::max(high_water, arena.end());
  }
  check.Free(pinned, 64);
  // Reuse must keep the slab at its steady-state size, not 50 rounds of
  // growth: one pinned value + the widest in-flight trio.
  EXPECT_EQ(arena.end(), high_water);
  EXPECT_LE(arena.end(),
            serve::ArenaAlignUp(64) + serve::ArenaAlignUp(16 + 6 * 16) +
                serve::ArenaAlignUp(128) + serve::ArenaAlignUp(48));
}

TEST(ArenaLayoutTest, AdjacentHolesCoalesceForLargeValues) {
  serve::ArenaLayout arena;
  ArenaChecker check(&arena);
  // Four 32-float neighbors; free them out of order (middle pair last)
  // so coalescing has to merge on both sides.
  const int64_t a = check.Alloc(32);
  const int64_t b = check.Alloc(32);
  const int64_t c = check.Alloc(32);
  const int64_t d = check.Alloc(32);
  const int64_t grown = arena.end();
  check.Free(a, 32);
  check.Free(d, 32);
  check.Free(b, 32);
  check.Free(c, 32);
  // One value the size of all four must fit in the merged hole.
  const int64_t big = check.Alloc(128);
  EXPECT_EQ(big, a);
  EXPECT_EQ(arena.end(), grown);
}

TEST(ArenaLayoutTest, AdversarialChurnNeverOverlapsAndStaysAligned) {
  serve::ArenaLayout arena;
  ArenaChecker check(&arena);
  // Deterministic pseudo-random alloc/free storm with odd (unaligned)
  // sizes; ArenaChecker asserts alignment and non-overlap on every step.
  std::vector<std::pair<int64_t, int64_t>> live;  // {off, numel}
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int step = 0; step < 400; ++step) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int64_t roll = static_cast<int64_t>((state >> 33) % 100);
    if (live.size() > 8 || (roll < 40 && !live.empty())) {
      const size_t victim = static_cast<size_t>((state >> 17) % live.size());
      check.Free(live[victim].first, live[victim].second);
      live.erase(live.begin() + victim);
    } else {
      const int64_t numel = 1 + static_cast<int64_t>((state >> 7) % 517);
      live.push_back({check.Alloc(numel), numel});
    }
  }
  for (size_t i = 0; i < live.size(); ++i) {
    check.Free(live[i].first, live[i].second);
  }
  // Everything freed: the next allocation must reuse offset 0.
  EXPECT_EQ(arena.Alloc(8), 0);
}

}  // namespace
}  // namespace lipformer
