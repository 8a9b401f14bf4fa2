// perfbench: the repository benchmark's measuring binary. perfbench/run.py
// builds it and runs it; see perfbench/README.md.
//
//   perfbench --workload=serve-cli|forecast-lib --seed=N
//             --seconds=S --trace=0|1 --bin-dir=DIR --work-dir=DIR
//             [--trace-out=FILE]
//   perfbench --selftest
//
// The last stdout line is the result JSON. With --trace=0 it carries the
// end-to-end metrics; with --trace=1 every per-layer metric, 0 for a layer
// the workload does not measure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_core.h"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
const LayerMetric kLayerMetrics[] = {
    {"cli.parse_us", "us"},
    {"cli.overhead_ms", "ms"},
    {"registry.submit_us_p50", "us"},
    {"registry.submit_us_p99", "us"},
    {"batcher.resolve_ms_p50", "ms"},
    {"batcher.resolve_ms_p99", "ms"},
    {"batcher.wait_ms", "ms"},
    {"batcher.cost_ms", "ms"},
    {"batcher.batch_size_mean", "count"},
    {"batcher.batches", "count"},
    {"batcher.shed", "count"},
    {"batcher.expired", "count"},
    {"batcher.rejected", "count"},
    {"batcher.useful_frac", "fraction"},
    {"session.open_ms", "ms"},
    {"session.compile_ms.b2", "ms"},
    {"session.compile_ms.b8", "ms"},
    {"session.compile_ms.b16", "ms"},
    {"session.plans_compiled", "count"},
    {"session.overhead_us", "us"},
    {"plan.exec_us.b1", "us"},
    {"plan.exec_us.b16", "us"},
    {"plan.exec_us.bulk", "us"},
    {"plan.arena_bytes", "bytes"},
    {"plan.ops", "count"},
    {"tensor.gemm_us_per_fwd", "us"},
    {"tensor.softmax_us_per_fwd", "us"},
    {"tensor.permute_us_per_fwd", "us"},
    {"tensor.chain_us_per_fwd", "us"},
    {"tensor.int8_gemm_us_per_fwd", "us"},
    {"tensor.gmacs", "GMAC/s"},
    {"tensor.bytes_per_fwd", "bytes"},
    {"tensor.pool_heap_allocs_per_step", "count"},
    {"tensor.pool_hit_rate", "fraction"},
    {"data.next_ms", "ms"},
    {"train.forward_ms", "ms"},
    {"train.backward_ms", "ms"},
    {"train.optim_ms", "ms"},
    {"train.loss", "1"},
    {"train.mse", "1"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.r20.sent", "count"},
    {"loadgen.r20.ok", "count"},
    {"loadgen.r20.failed", "count"},
    {"loadgen.r400.sent", "count"},
    {"loadgen.r400.ok", "count"},
    {"loadgen.r400.failed", "count"},
    {"loadgen.r800.sent", "count"},
    {"loadgen.r800.ok", "count"},
    {"loadgen.r800.failed", "count"},
    {"loadgen.r1600.sent", "count"},
    {"loadgen.r1600.ok", "count"},
    {"loadgen.r1600.failed", "count"},
    {"loadgen.over.sent", "count"},
    {"loadgen.over.ok", "count"},
    {"loadgen.over.failed", "count"},
    {"trace.twin_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.accounted_frac", "fraction"},
};

// Orders a traced result as kLayerMetrics, filling layers the workload
// does not measure with 0. A metric missing from the table is a bug.
bool CompleteLayerMetrics(Report* res) {
  Report out = *res;
  out.metrics.clear();
  for (const LayerMetric& m : kLayerMetrics) out.Set(m.name, 0, m.unit);
  for (const auto& [name, metric] : res->metrics) {
    bool known = false;
    for (auto& [n, slot] : out.metrics) {
      if (n == name) {
        slot = metric;
        known = true;
      }
    }
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s missing from the table\n",
                   name.c_str());
      return false;
    }
  }
  *res = std::move(out);
  return true;
}

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--selftest") == 0) return RunSelfTests() == 0 ? 0 : 1;
    if (Flag(a, "--workload", &v)) {
      opt.workload = v;
    } else if (Flag(a, "--seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(a, "--seconds", &v)) {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(a, "--trace", &v)) {
      opt.trace = v == "1";
    } else if (Flag(a, "--bin-dir", &v)) {
      opt.bin_dir = v;
    } else if (Flag(a, "--work-dir", &v)) {
      opt.work_dir = v;
    } else if (Flag(a, "--trace-out", &v)) {
      opt.trace_path = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a);
      return 2;
    }
  }
  if (opt.seconds <= 0 || opt.work_dir.empty()) {
    std::fprintf(stderr, "perfbench: need --seconds > 0 and --work-dir\n");
    return 2;
  }
  Report res;
  if (opt.workload == "serve-cli") {
    if (opt.bin_dir.empty()) {
      std::fprintf(stderr, "perfbench: serve-cli needs --bin-dir\n");
      return 2;
    }
    res = RunServeCli(opt);
  } else if (opt.workload == "forecast-lib") {
    res = RunForecastLib(opt);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (opt.trace && !CompleteLayerMetrics(&res)) return 1;
  std::printf("%s\n", res.ToJson().c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
