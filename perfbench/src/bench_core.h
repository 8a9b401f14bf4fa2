#ifndef PERFBENCH_BENCH_CORE_H_
#define PERFBENCH_BENCH_CORE_H_

// Shared machinery of the repository benchmark: statistics with the
// sample-count rule, the SLO ladder rule, due-time latency, the serve
// answer-text check, an in-memory span tracer with Chrome trace-event
// output, and the result record printed as the run's last stdout line.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated percentile (p in [0, 100]) of `v`; NaN when empty.
// Sorts a copy.
double Percentile(std::vector<double> v, double p);

// The highest percentile level, no higher than `wanted`, that leaves at
// least ten samples beyond it out of `n` (99 needs n >= 1000). Returns 50
// when even the median has fewer than ten samples beyond it.
double TailLevel(int64_t n, double wanted);

// Median, p90 and the highest tail with ten samples beyond it
// (TailLevel(n, 99)) of one set of timings. p90 also follows the rule: it
// falls back to a lower level below 100 samples.
struct Summary {
  int64_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double tail = 0;
  double tail_level = 0;
};
Summary Summarize(const std::vector<double>& v);

// One rung of the open-loop rate ladder, as measured.
struct Rung {
  double rate = 0;         // scheduled arrivals per second
  int64_t scheduled = 0;   // requests in the pre-drawn schedule
  int64_t failed = 0;      // errors, client-backlog overflow, mismatches
  double p90_ms = 0;       // due-time latency p90 of all scheduled requests
  bool backlog_growing = false;
  bool valid = true;       // the generator kept to its schedule
};

// Index of the highest rung whose p90 meets `limit_ms` with at most
// `max_fail_frac` of its schedule failed, no growing backlog and a valid
// generator; -1 when no rung passes. A failed request counts as missing
// the limit, so failures enter the p90 as +inf before this is called.
int SelectSloRung(const std::vector<Rung>& rungs, double limit_ms,
                  double max_fail_frac);

// Answers of a pipelined server leave in request order: request i's
// answer is out no earlier than i-1's. Given the time each request's
// result became ready, in request order, returns the time each answer is
// out. Timed from the due time, a stall therefore charges every request
// queued behind it, not just the one being served.
std::vector<int64_t> InOrderAnswerTimes(const std::vector<int64_t>& ready_ns);

// Outcome of checking one `lipformer_cli serve` answer line.
enum class AnswerCheck { kExact, kWithinText, kMismatch, kErrorLine };

// Compares an answer line with the reference forecast. kExact: the line is
// byte-identical to `expected_text` (the reference printed the way the
// server prints it). Otherwise every comma-separated number is parsed and
// must lie within half a unit of its own last printed digit of the
// reference value (plus one float ulp), i.e. agree to the precision the
// text carries; `n` numbers are required. Lines starting with "error:"
// are kErrorLine.
AnswerCheck CheckAnswer(std::string_view line, std::string_view expected_text,
                        const float* ref, int64_t n);

// Formats a forecast exactly as the server does ("%g", comma-joined).
std::string FormatForecast(const float* v, int64_t n);

// In-memory spans. Not thread-safe: workloads record per-thread
// timestamps while running and add spans from one thread afterwards, or
// add them directly from their single measuring thread.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the causing span, -1 for a root
  int64_t req = -1;     // request id shared by one request's spans
  int32_t tid = 0;      // thread lane for non-request spans
};

class Tracer {
 public:
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent = -1, int64_t req = -1, int32_t tid = 0);
  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the union of its direct children's intervals (ns).
  std::vector<int64_t> SelfTimes() const;
  // Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(std::string_view name) const;
  // Writes Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  // Request spans become nestable async events keyed by request id; the
  // others complete ("X") events on their thread lane.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// RAII span for single-threaded measuring code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent = -1)
      : tracer_(tracer), name_(name), parent_(parent), start_(NowNs()) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Add(name_, start_, NowNs(), parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  int32_t parent_;
  int64_t start_;
};

// Peak resident set (VmHWM) of a process in MB; "self" for this one.
double PeakRssMb(const std::string& pid = "self");

// The run's result. Metrics keep insertion order.
struct Metric {
  double value = 0;
  std::string unit;
};
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  // Records a correctness failure with a reason on stderr.
  void Fail(const std::string& why, int64_t count = 1);
  std::string ToJson() const;
};

// Shape of every served model: the paper's 336 -> 96 window over the
// Weather stand-in's 21 channels.
constexpr int64_t kInputLen = 336;
constexpr int64_t kPredLen = 96;
constexpr int64_t kChannels = 21;

// Writes a serving bundle of an untrained hidden-64 LiPFormer of that
// shape whose weights and scaler come from `seed`.
bool SaveLipformerBundle(const std::string& path, uint64_t seed);

// Options every workload receives from main.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;   // where lipformer_cli / quantize_bundle live
  std::string work_dir;  // scratch files of this run (inside the checkout)
  std::string trace_path;  // Chrome JSON output of a traced run
};

// Workload entry points (one file each).
Report RunServeCli(const RunOptions& opt);
Report RunForecastLib(const RunOptions& opt);
// Per-layer metrics of the weak-data-enriched training loop, with spans in
// `trace`; part of forecast-lib's traced run.
void MeasureTraining(const RunOptions& opt, Report* res, Tracer* trace);

// Self-tests of the logic above on synthetic inputs; returns failures.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CORE_H_
