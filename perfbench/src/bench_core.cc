#include "bench_core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>

#include "common/random.h"
#include "data/scaler.h"
#include "models/factory.h"
#include "serve/session.h"

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double TailLevel(int64_t n, double wanted) {
  static const double kLevels[] = {99.9, 99.0, 95.0, 90.0, 75.0};
  for (double level : kLevels) {
    if (level > wanted) continue;
    // Samples strictly beyond the level, rounded down.
    const double beyond = std::floor(static_cast<double>(n) *
                                     (100.0 - level) / 100.0 + 1e-9);
    if (beyond >= 10) return level;
  }
  return 50.0;
}

Summary Summarize(const std::vector<double>& v) {
  Summary s;
  s.n = static_cast<int64_t>(v.size());
  if (v.empty()) return s;
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = Percentile(sorted, 50);
  s.p90 = Percentile(sorted, TailLevel(s.n, 90));
  s.tail_level = TailLevel(s.n, 99);
  s.tail = Percentile(std::move(sorted), s.tail_level);
  return s;
}

int SelectSloRung(const std::vector<Rung>& rungs, double limit_ms,
                  double max_fail_frac) {
  int best = -1;
  for (size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    const bool pass =
        r.valid && !r.backlog_growing && r.scheduled > 0 &&
        r.p90_ms <= limit_ms &&
        static_cast<double>(r.failed) <=
            max_fail_frac * static_cast<double>(r.scheduled);
    if (pass && (best < 0 || r.rate > rungs[best].rate)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::vector<int64_t> InOrderAnswerTimes(const std::vector<int64_t>& ready_ns) {
  std::vector<int64_t> out(ready_ns.size());
  int64_t answered = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < ready_ns.size(); ++i) {
    answered = std::max(answered, ready_ns[i]);
    out[i] = answered;
  }
  return out;
}

namespace {

// Weight of the last printed digit of a decimal token ("1.25e-3" ->
// 1e-5); 0 when the token is not a plain decimal number.
double LastDigitWeight(std::string_view tok) {
  size_t i = 0;
  if (i < tok.size() && (tok[i] == '-' || tok[i] == '+')) ++i;
  int frac_digits = 0;
  bool seen_point = false;
  bool any_digit = false;
  for (; i < tok.size(); ++i) {
    const char c = tok[i];
    if (c >= '0' && c <= '9') {
      any_digit = true;
      if (seen_point) ++frac_digits;
    } else if (c == '.' && !seen_point) {
      seen_point = true;
    } else {
      break;
    }
  }
  if (!any_digit) return 0;
  long exponent = 0;
  if (i < tok.size()) {
    if (tok[i] != 'e' && tok[i] != 'E') return 0;
    const std::string exp_str(tok.substr(i + 1));
    char* end = nullptr;
    exponent = std::strtol(exp_str.c_str(), &end, 10);
    if (exp_str.empty() || *end != '\0') return 0;
  }
  return std::pow(10.0, static_cast<double>(exponent - frac_digits));
}

}  // namespace

AnswerCheck CheckAnswer(std::string_view line, std::string_view expected_text,
                        const float* ref, int64_t n) {
  if (line == expected_text) return AnswerCheck::kExact;
  if (line.substr(0, 6) == "error:") return AnswerCheck::kErrorLine;
  int64_t k = 0;
  size_t pos = 0;
  while (pos <= line.size()) {
    size_t comma = line.find(',', pos);
    if (comma == std::string_view::npos) comma = line.size();
    const std::string_view tok = line.substr(pos, comma - pos);
    if (k >= n || tok.empty()) return AnswerCheck::kMismatch;
    const double weight = LastDigitWeight(tok);
    if (weight <= 0) return AnswerCheck::kMismatch;
    const std::string tok_str(tok);
    char* end = nullptr;
    const double got = std::strtod(tok_str.c_str(), &end);
    if (*end != '\0' || !std::isfinite(got)) return AnswerCheck::kMismatch;
    const double want = ref[k];
    const double ulp = std::fabs(want) * std::ldexp(1.0, -23);
    if (std::fabs(got - want) > 0.5 * weight * (1 + 1e-9) + ulp) {
      return AnswerCheck::kMismatch;
    }
    ++k;
    pos = comma + 1;
  }
  return k == n ? AnswerCheck::kWithinText : AnswerCheck::kMismatch;
}

std::string FormatForecast(const float* v, int64_t n) {
  std::string out;
  out.reserve(static_cast<size_t>(n) * 12);
  char buf[48];
  for (int64_t j = 0; j < n; ++j) {
    const int len = std::snprintf(buf, sizeof(buf), j == 0 ? "%g" : ",%g",
                                  static_cast<double>(v[j]));
    out.append(buf, static_cast<size_t>(len));
  }
  return out;
}

int32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int32_t parent, int64_t req, int32_t tid) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, req, tid});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<std::vector<int32_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (int32_t c : children[i]) {
      const int64_t a = std::max(s.start_ns, spans_[c].start_ns);
      const int64_t b = std::min(s.end_ns, spans_[c].end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::vector<double> Tracer::DurationsMs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = static_cast<double>(s.start_ns - t0) / 1e3;
    const double te = static_cast<double>(s.end_ns - t0) / 1e3;
    if (s.req >= 0) {
      // Nestable async pair; children of one request share its id.
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                   "\"id\":%lld,\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"args\":{\"span\":%zu,\"parent\":%d}}",
                   s.name, static_cast<long long>(s.req), s.tid, ts, i,
                   s.parent);
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                   "\"id\":%lld,\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
                   s.name, static_cast<long long>(s.req), s.tid, te);
    } else {
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"span\":%zu,\"parent\":%d}}",
                   s.name, s.tid, ts, te - ts, i, s.parent);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

bool SaveLipformerBundle(const std::string& path, uint64_t seed) {
  lipformer::ModelOptions options;
  options.hidden_dim = 64;
  options.seed = seed;
  const lipformer::ForecasterDims dims{kInputLen, kPredLen, kChannels};
  std::unique_ptr<lipformer::Forecaster> model =
      lipformer::CreateModel("lipformer", dims, options);
  lipformer::Rng rng(seed + 1000);
  lipformer::StandardScaler scaler;
  scaler.Fit(lipformer::Tensor::Randn({256, kChannels}, rng));
  const lipformer::Status st = lipformer::serve::SaveModelBundle(
      path, "lipformer", options, *model, scaler);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: bundle save failed: %s\n",
                 st.ToString().c_str());
  }
  return st.ok();
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, m] : metrics) {
    if (n == name) {
      m = Metric{value, unit};
      return;
    }
  }
  metrics.emplace_back(name, Metric{value, unit});
}

void Report::Fail(const std::string& why, int64_t count) {
  correct = false;
  failed += count;
  std::fprintf(stderr, "perfbench: INCORRECT: %s (x%lld)\n", why.c_str(),
               static_cast<long long>(count));
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    // All digits as measured; non-finite values are not valid JSON.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
