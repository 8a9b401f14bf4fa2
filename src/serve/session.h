#ifndef LIPFORMER_SERVE_SESSION_H_
#define LIPFORMER_SERVE_SESSION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/scaler.h"
#include "models/factory.h"
#include "serve/checkpoint.h"
#include "serve/plan.h"

// Train-once / serve-many: a serving bundle is a checkpoint v2 file that
// additionally carries the model architecture (factory name + dims +
// ModelOptions as metadata) and the fitted scaler (reserved "__scaler__.*"
// tensors), so inference needs nothing but the file — no retraining, no
// out-of-band config. InferenceSession loads a bundle once and answers
// Predict calls in raw (unscaled) units.

namespace lipformer {
namespace serve {

// Reserved tensor names carrying the fitted scaler inside a bundle.
inline constexpr char kScalerMeanTensor[] = "__scaler__.mean";
inline constexpr char kScalerStdTensor[] = "__scaler__.std";

// Writes a self-contained serving bundle for a factory-reconstructible
// model. `model_name` must be a RegisteredModelNames() entry and
// `options` the hyperparameters the model was built with (the factory
// rebuilds the architecture from them at load time; LoadParameters'
// per-tensor name/shape verification then guarantees the metadata and
// the weights agree). A LiPFormer with an attached covariate encoder is
// rejected: its weak-label path needs the dual encoder, which bundles do
// not carry. An unfitted scaler is allowed (the session then serves in
// model units).
Status SaveModelBundle(const std::string& path, const std::string& model_name,
                       const ModelOptions& options, const Forecaster& model,
                       const StandardScaler& scaler);

// Parses and validates the architecture metadata of a serving bundle:
// bundle marker present, model name registered, dimensions positive, and
// every value strictly parsed (out-of-range integers and trailing junk
// are InvalidArgument, never silently clamped). `path` is used only for
// error messages. Shared by InferenceSession::Open and the bundle
// quantizer (serve/quantize.h).
Status ParseBundleConfig(const Checkpoint& ckpt, const std::string& path,
                         std::string* model_name, ForecasterDims* dims,
                         ModelOptions* options);

// Session knobs. `use_plan` controls the AOT plan path (serve/plan.h); a
// model whose forward cannot be compiled (data-dependent ops) falls back
// to the module path automatically.
struct SessionOptions {
  bool use_plan = true;
};

// Plan-path observability for `lipformer_cli serve` stats and
// bench_serving, read from the session's one plan.
struct SessionPlanStats {
  bool enabled = false;          // plan path on for this session
  int64_t plans_compiled = 0;    // 1 when Open compiled the plan, else 0
  std::string compile_error;     // failure reason, if compilation failed
  int64_t plan_requests = 0;     // PredictBatch calls served by the plan
  int64_t module_requests = 0;   // PredictBatch calls on the module path
  PlanStats plan;                // the plan's compile-time facts
  std::vector<PlanOpTiming> timings;  // per op kind; profiling only
};

// A loaded model + scaler ready for inference. Forwards run in eval mode
// under NoGradGuard on pooled buffers. Safe for concurrent callers: a
// mutex serializes module-path model access (modules keep lazily-built
// caches, so Forward is not reentrant), while the plan path executes an
// immutable compiled program against per-request arenas and runs fully
// concurrently; the dynamic batcher (serve/batcher.h) coalesces
// concurrent requests into one PredictBatch call either way.
class InferenceSession {
 public:
  // Reads a bundle written by SaveModelBundle and reconstructs the model.
  // The default options compile the session's one plan (batch 1) here;
  // nothing is compiled after Open.
  static Result<std::unique_ptr<InferenceSession>> Open(
      const std::string& path);
  static Result<std::unique_ptr<InferenceSession>> Open(
      const std::string& path, const SessionOptions& options);

  // history: [input_len, channels] raw units -> [pred_len, channels].
  Result<Tensor> Predict(const Tensor& history);

  // histories: [b, input_len, channels] -> [b, pred_len, channels].
  // Row i of the result is bitwise identical to Predict(histories[i]):
  // every kernel computes each output element with the same serial inner
  // loop regardless of batch size (see common/thread_pool.h).
  Result<Tensor> PredictBatch(const Tensor& histories);

  const std::string& model_name() const { return model_name_; }
  int64_t input_len() const { return model_->input_len(); }
  int64_t pred_len() const { return model_->pred_len(); }
  int64_t channels() const { return model_->channels(); }
  int64_t num_covariates() const { return num_covariates_; }
  // True when the bundle carried int8 weights (serve/quantize.h) and
  // Predict runs the quantized Linear path.
  bool quantized() const { return quantized_; }

  // Wall-clock seconds of the timed single-window forward run at Open
  // (after plan compilation, so it measures the path requests will take).
  // Seeds the batcher's admission-control cost EWMA; 0 if the probe was
  // skipped.
  double probe_latency_seconds() const { return probe_latency_seconds_; }

  // True when the AOT plan path is on (SessionOptions::use_plan).
  bool plan_enabled() const { return use_plan_; }
  // The session's one plan, compiled at Open, for every batch size
  // b >= 1: InferencePlan::Execute runs it once per row of a [b, ...]
  // input, so `b` does not select anything. Null when the plan path is
  // disabled or compilation failed for this model.
  std::shared_ptr<const InferencePlan> PlanForBatch(int64_t b) const;
  // Plan counters; `timings` is populated while profiling.
  SessionPlanStats plan_stats() const;
  // Toggles per-op timing on the plan.
  void SetPlanProfiling(bool enabled);

 private:
  InferenceSession() = default;

  // One module forward at fixed shapes: scaled [b, input_len, channels]
  // in, scaled [b, pred_len, channels] out, under mu_ + NoGradGuard.
  Tensor ModuleForwardScaled(const Tensor& x_scaled);
  // Full module request path: raw histories in, raw predictions out
  // (scaler transform + forward + inverse transform). Shared by the
  // module serving path and plan compilation/tracing, so a compiled plan
  // covers the scaler arithmetic too.
  Tensor ModuleForwardRaw(const Tensor& histories);

  std::string model_name_;
  std::unique_ptr<Forecaster> model_;
  StandardScaler scaler_;
  int64_t num_covariates_ = 0;
  bool quantized_ = false;
  bool use_plan_ = true;
  double probe_latency_seconds_ = 0;
  std::mutex mu_;  // serializes module-path Forward on the shared model

  // Set once in Open and immutable afterwards, so reads need no lock.
  // Null when the plan path is off or compilation failed (plan_error_).
  std::shared_ptr<const InferencePlan> plan_;
  std::string plan_error_;
  std::atomic<int64_t> plan_requests_{0};
  std::atomic<int64_t> module_requests_{0};
};

}  // namespace serve
}  // namespace lipformer

#endif  // LIPFORMER_SERVE_SESSION_H_
