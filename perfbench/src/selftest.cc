// Self-tests of the benchmark's own logic on synthetic inputs:
// `perfbench --selftest` (run.py --selftest).

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_core.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  Expect(Near(Percentile(v, 50), 51), "median of 1..101 is 51");
  Expect(Near(Percentile(v, 99), 100), "p99 of 1..101 is 100");
  Expect(Near(Percentile({3.0}, 99), 3), "percentile of one sample");
  // p99 needs ten samples beyond it: 1000 samples, not 999.
  Expect(Near(TailLevel(1000, 99), 99), "1000 samples support p99");
  Expect(Near(TailLevel(999, 99), 95), "999 samples fall back to p95");
  Expect(Near(TailLevel(100000, 99), 99), "the tail never exceeds the wanted level");
  Expect(Near(TailLevel(200, 99), 95), "200 samples support p95");
  Expect(Near(TailLevel(20, 99), 50), "20 samples support only the median");
  std::vector<double> big;
  for (int i = 0; i < 1000; ++i) big.push_back(i < 989 ? 1.0 : 100.0);
  const Summary s = Summarize(big);
  Expect(s.n == 1000 && Near(s.tail_level, 99) && Near(s.p50, 1) && Near(s.p90, 1) &&
             s.tail > 1,
         "11 slow samples out of 1000 show in p99, not in p90");
  std::vector<double> few(50, 2.0);
  Expect(Near(Summarize(few).p90, 2) && Near(TailLevel(50, 90), 75),
         "p90 falls back to p75 below 100 samples");
}

void TestSlo() {
  auto rung = [](double rate, double p90, int64_t failed, bool backlog, bool valid) {
    Rung r;
    r.rate = rate;
    r.scheduled = 1000;
    r.failed = failed;
    r.p90_ms = p90;
    r.backlog_growing = backlog;
    r.valid = valid;
    return r;
  };
  std::vector<Rung> ladder = {rung(100, 5, 0, false, true), rung(300, 8, 0, false, true),
                              rung(600, 20, 10, false, true), rung(1200, 80, 0, false, true),
                              rung(2400, 900, 500, true, true)};
  Expect(SelectSloRung(ladder, 50, 0.01) == 2, "highest rung within limit and 1% failures");
  ladder[2].failed = 11;
  Expect(SelectSloRung(ladder, 50, 0.01) == 1, "more than 1% failed fails the rung");
  ladder[1].backlog_growing = true;
  Expect(SelectSloRung(ladder, 50, 0.01) == 0, "a growing backlog fails the rung");
  ladder[0].valid = false;
  Expect(SelectSloRung(ladder, 50, 0.01) == -1, "an invalid generator phase never passes");
  ladder[3].p90_ms = std::numeric_limits<double>::infinity();
  Expect(SelectSloRung(ladder, 50, 0.01) == -1, "a failure-inflated p90 misses the limit");
}

void TestDueTimeLatency() {
  // One request per ms; each takes 0.5 ms, except that request 10 stalls
  // the server for 50 ms.
  std::vector<int64_t> due, ready;
  for (int i = 0; i < 100; ++i) {
    due.push_back(i * 1'000'000LL);
    ready.push_back(due.back() + (i == 10 ? 50'000'000LL : 500'000LL));
  }
  const std::vector<int64_t> out = InOrderAnswerTimes(ready);
  std::vector<double> lat;
  for (size_t i = 0; i < out.size(); ++i) lat.push_back(static_cast<double>(out[i] - due[i]) / 1e6);
  Expect(Near(lat[9], 0.5), "a request before the stall is unaffected");
  Expect(Near(lat[10], 50), "the stalled request waits 50 ms");
  Expect(Near(lat[11], 49), "the request queued behind the stall waits 49 ms from due");
  Expect(Near(lat[59], 1) && Near(lat[60], 0.5), "the stall drains after 50 requests");
  int over = 0;
  for (double l : lat) over += l > 10;
  Expect(over == 40, "due-time latency charges the stall to every queued request");
}

void TestAnswerCheck() {
  const float ref[4] = {1.5f, -0.000123456f, 123456.7f, 3.0f};
  const std::string exact = FormatForecast(ref, 4);
  Expect(exact == "1.5,-0.000123456,123457,3", "answers print as %g: " + exact);
  Expect(CheckAnswer(exact, exact, ref, 4) == AnswerCheck::kExact, "identical text is exact");
  Expect(CheckAnswer("1.50000,-1.23456e-04,123456.7,3.0", exact, ref, 4) ==
             AnswerCheck::kWithinText,
         "other formatting of the same values agrees to its precision");
  Expect(CheckAnswer("1.5,-0.000123456,123458,3", exact, ref, 4) == AnswerCheck::kMismatch,
         "a value off by more than half its last digit mismatches");
  Expect(CheckAnswer("1.5,-0.000123,123457,3", exact, ref, 4) == AnswerCheck::kWithinText,
         "fewer printed digits widen the tolerance to the text's precision");
  Expect(CheckAnswer("1.5,-0.000124,123457,3", exact, ref, 4) == AnswerCheck::kMismatch,
         "a rounded value must still round from the reference");
  Expect(CheckAnswer("1.5,-0.000123456,123457", exact, ref, 4) == AnswerCheck::kMismatch,
         "too few values mismatch");
  Expect(CheckAnswer("1.5,-0.000123456,123457,3,4", exact, ref, 4) == AnswerCheck::kMismatch,
         "too many values mismatch");
  Expect(CheckAnswer("1.5,nan,123457,3", exact, ref, 4) == AnswerCheck::kMismatch,
         "non-numbers mismatch");
  Expect(CheckAnswer("error: DeadlineExceeded: late", exact, ref, 4) ==
             AnswerCheck::kErrorLine,
         "error lines are errors");
}

void TestSelfTime() {
  Tracer t;
  const int32_t root = t.Add("request", 0, 100, -1, 7);
  t.Add("a", 10, 30, root, 7);
  t.Add("b", 20, 50, root, 7);  // overlaps a: counted once
  t.Add("c", 60, 70, root, 7);
  t.Add("d", 90, 120, root, 7);  // clipped to the parent
  const int32_t orphan = t.Add("other", 0, 10);
  const std::vector<int64_t> self = t.SelfTimes();
  Expect(self[static_cast<size_t>(root)] == 100 - 40 - 10 - 10,
         "self time subtracts the union of children, clipped to the parent");
  Expect(self[1] == 20 && self[static_cast<size_t>(orphan)] == 10, "leaf self time is its duration");
  Expect(t.DurationsMs("request").size() == 1, "durations by name");
}

}  // namespace

int RunSelfTests() {
  TestPercentiles();
  TestSlo();
  TestDueTimeLatency();
  TestAnswerCheck();
  TestSelfTime();
  std::printf("selftest: %d failure(s)\n", g_failures);
  return g_failures;
}

}  // namespace perfbench
