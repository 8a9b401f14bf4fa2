// Per-layer measurement of training, run inside forecast-lib's traced run:
// the paper's full model with weak data enriching (dual-encoder
// pre-training, then LiPFormer with vector mapping) on the `weather`
// registry stand-in at 336 -> 96, as an explicit step loop with spans
// around DataLoader::Next, Forecaster::Forward, Variable::Backward and the
// optimizer step. It runs the same tensor kernels as inference, through
// autograd with backward passes and storage-pool churn.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "bench_core.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/dual_encoder.h"
#include "core/lipformer.h"
#include "data/dataloader.h"
#include "data/registry.h"
#include "data/window_dataset.h"
#include "optim/adamw.h"
#include "optim/optimizer.h"
#include "tensor/storage_pool.h"
#include "train/losses.h"
#include "train/trainer.h"

namespace perfbench {
namespace {

using namespace lipformer;

constexpr double kDataScale = 0.1;    // weather: 5270 steps x 21 channels
constexpr int64_t kBatch = 32;
constexpr int64_t kPretrainBatch = 64;
constexpr int64_t kEpochs = 2;
constexpr int64_t kEvalBatches = 8;

// Fixed schedule: batch caps scale with the run length, so a fixed
// --seconds always trains the same windows.
struct Schedule {
  int64_t pretrain_batches;
  int64_t train_batches;  // per epoch
};
Schedule MakeSchedule(double seconds) {
  return Schedule{std::max<int64_t>(2, std::llround(seconds * 0.2)),
                  std::max<int64_t>(4, std::llround(seconds * 0.7))};
}

struct Setup {
  std::unique_ptr<WindowDataset> data;
  std::unique_ptr<LiPFormer> model;
  std::unique_ptr<DualEncoder> dual;
};

Setup Build(uint64_t seed) {
  Setup s;
  const DatasetSpec spec = MakeDataset("weather", kDataScale);
  WindowDataset::Options o;
  o.input_len = kInputLen;
  o.pred_len = kPredLen;
  o.train_ratio = spec.train_ratio;
  o.val_ratio = spec.val_ratio;
  o.test_ratio = spec.test_ratio;
  s.data = std::make_unique<WindowDataset>(spec.series, o);
  LiPFormerConfig config;
  config.input_len = kInputLen;
  config.pred_len = kPredLen;
  config.channels = s.data->channels();
  config.hidden_dim = 64;
  config.seed = seed;
  s.model = std::make_unique<LiPFormer>(config);
  Rng rng(seed + 1);
  s.dual = std::make_unique<DualEncoder>(
      MakeCovariateConfig(*s.data, kPredLen), s.data->channels(), rng);
  return s;
}

PretrainConfig Pretrain(const Schedule& sch, uint64_t seed) {
  PretrainConfig p;
  p.epochs = 1;
  p.batch_size = kPretrainBatch;
  p.max_batches_per_epoch = sch.pretrain_batches;
  p.seed = seed + 2;
  return p;
}

}  // namespace

void MeasureTraining(const RunOptions& opt, Report* out, Tracer* trace) {
  Report& res = *out;
  Tracer& tracer = *trace;
  // One kernel thread, as in every timed phase.
  SetNumThreads(1);
  const Schedule sch = MakeSchedule(opt.seconds);
  Setup s = Build(opt.seed);
  const int64_t per_epoch =
      std::min(sch.train_batches, DataLoader(s.data.get(), Split::kTrain, kBatch,
                                             false, Rng(0)).NumBatches());
  {
    ScopedSpan span(&tracer, "train.pretrain");
    PretrainDualEncoder(s.dual.get(), *s.data, Pretrain(sch, opt.seed));
  }
  s.dual->SetTraining(false);
  s.dual->SetRequiresGrad(false);
  s.model->AttachCovariateEncoder(s.dual->covariate_encoder());
  s.model->SetTraining(true);
  AdamW optimizer(s.model->Parameters(), 1e-3f, 0.9f, 0.999f, 1e-8f, 1e-2f);
  Rng rng(opt.seed);
  DataLoader loader(s.data.get(), Split::kTrain, kBatch, true, rng.Fork());
  std::vector<double> plain_ms, traced_ms;
  double loss_sum = 0;
  int64_t steps_run = 0;
  const StoragePoolStats pool0 = GetStoragePoolStats();
  for (int64_t epoch = 0; epoch < kEpochs; ++epoch) {
    loader.Reset();
    for (int64_t step = 0; step < per_epoch && loader.HasNext(); ++step) {
      // Every other step runs without spans: the tracing-overhead baseline.
      const bool traced = step % 2 == 1;
      int64_t t[5];
      t[0] = NowNs();
      Batch batch = loader.Next();
      t[1] = NowNs();
      optimizer.ZeroGrad();
      Variable pred = s.model->Forward(batch);
      t[2] = NowNs();
      Variable loss = ForecastLoss(LossKind::kSmoothL1, pred, batch.y);
      loss.Backward();
      t[3] = NowNs();
      const float norm = GlobalGradNorm(optimizer.params());
      if (norm > 5.0f) ScaleGradients(optimizer.params(), 5.0f / norm);
      optimizer.Step();
      t[4] = NowNs();
      if (traced) {
        static const char* kNames[] = {"data.next", "train.forward",
                                       "train.backward", "train.optim"};
        const int32_t root = tracer.Add("train.step", t[0], t[4]);
        for (int k = 0; k < 4; ++k) tracer.Add(kNames[k], t[k], t[k + 1], root);
      }
      const float value = loss.value().item();
      if (!std::isfinite(value)) res.Fail("non-finite training loss");
      ++res.attempted;
      ++steps_run;
      loss_sum += value;
      const double ms = static_cast<double>(t[4] - t[0]) / 1e6;
      if (traced) {
        traced_ms.push_back(ms);
      } else {
        plain_ms.push_back(ms);
      }
    }
  }
  const StoragePoolStats pool1 = GetStoragePoolStats();
  const EvalResult test = Evaluate(s.model.get(), *s.data, Split::kTest, kBatch, kEvalBatches);
  if (!std::isfinite(test.mse)) res.Fail("non-finite test MSE");

  auto p50 = [&](const char* name) { return Percentile(tracer.DurationsMs(name), 50); };
  const double steps = static_cast<double>(std::max<int64_t>(1, steps_run));
  const double acquires = static_cast<double>(pool1.acquires - pool0.acquires);
  res.Set("data.next_ms", p50("data.next"), "ms");
  res.Set("train.forward_ms", p50("train.forward"), "ms");
  res.Set("train.backward_ms", p50("train.backward"), "ms");
  res.Set("train.optim_ms", p50("train.optim"), "ms");
  res.Set("train.loss", loss_sum / steps, "1");
  res.Set("train.mse", test.mse, "1");
  res.Set("tensor.pool_heap_allocs_per_step",
          static_cast<double>(pool1.heap_allocs - pool0.heap_allocs) / steps, "count");
  res.Set("tensor.pool_hit_rate",
          acquires > 0 ? static_cast<double>(pool1.pool_hits - pool0.pool_hits) / acquires : 1.0,
          "fraction");
  std::printf("training trace: step p50 %.3f ms untraced / %.3f ms traced; "
              "next %.3f forward %.3f backward %.3f optim %.3f ms; test mse %.6f\n",
              Percentile(plain_ms, 50), Percentile(traced_ms, 50), p50("data.next"),
              p50("train.forward"), p50("train.backward"), p50("train.optim"), test.mse);
}

}  // namespace perfbench
