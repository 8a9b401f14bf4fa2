// Workload `serve-cli`: users sending forecasts through `lipformer_cli
// serve`. The only workload where the CLI's request parsing, the model
// registry and the micro-batcher do most of the work.
//
// Untraced run: spawn the Release server with four 336->96, 21-channel
// tenants (one int8), drive it open loop over one stdin/stdout pipe pair
// from one sender and one reader thread, and time every answer from its
// due time. Traced run: an in-process twin with the same schedule, request
// text, tenants and registry options (each request goes
// cli::ParseRequestValues -> ModelRegistry::Submit -> future), once
// untraced and once traced, plus the CLI at the reference rate so the
// CLI's own cost shows as cli.overhead_ms.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.h"
#include "cli/cli.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "serve/registry.h"
#include "serve/session.h"

namespace perfbench {
namespace {

using lipformer::Result;
using lipformer::Rng;
using lipformer::Status;
using lipformer::Tensor;

constexpr int64_t kOutValues = kPredLen * kChannels;
constexpr int kWindows = 32;          // distinct request windows per tenant
// Server --deadline-ms: long enough that a host stall does not expire
// requests at the reference rung.
constexpr int kDeadlineMs = 1000;
constexpr double kLimitMs = 100;      // p90 limit of the SLO ladder
constexpr double kMaxFailFrac = 0.01;
constexpr size_t kClientBacklog = 64;  // requests waiting for the pipe
constexpr double kMaxLagMs = 5;       // generator lag p90 that voids a phase
// How far the traced blocking path's summed p50 self times may stray from
// the untraced twin's p50, as a share of it (trace.accounted_frac).
constexpr double kAccountedShare = 0.2;
// Kernel threads of the server and the twin. Batches here hold 1-2
// windows, where a wider pool only adds wake-ups and scheduling jitter.
constexpr int kServerThreads = 1;

struct Tenant {
  const char* name;
  uint64_t seed;
  bool int8;
  double share;  // of requests routed to it
};
constexpr Tenant kTenants[] = {
    {"hot", 11, false, 0.70},
    {"t1", 12, false, 0.10},
    {"t2", 13, false, 0.10},
    {"q8", 14, true, 0.10},
};
constexpr int kNumTenants = 4;

// The ladder: fixed absolute rates, the same on every commit. Today the
// server reads its stdin pipe at roughly 125-220 requests/s on a shared
// 4-core Xeon, depending on how busy the host is (its --requests file path
// is ~4x faster). The reference rung sits far below that knee: one request
// takes ~10 ms, so at 40/s two in five requests queued behind another and
// that queueing amplified the host's CPU steal (run to run, 0.1-13% of
// the guest's time) into a 34% swing of the median; at 20/s fewer queue.
// Nearer the knee a rung at 100/s passed or failed with the host's mood.
// The rungs above the knee are spaced widely enough that the knee never
// falls on one. The overload rate is above the top rung. `share` is the
// rung's part of the run's seconds; the reference rung gets ~480 samples
// at 40 s.
struct RungSpec {
  const char* name;
  double rate;
  double share;
};
constexpr RungSpec kLadder[] = {
    {"r20", 20, 0.60},
    {"r400", 400, 0.08},
    {"r800", 800, 0.06},
    {"r1600", 1600, 0.06},
};
constexpr int kRefRung = 0;
constexpr RungSpec kOverload = {"over", 3200, 0.10};
// The reference rung and the overload rate run as slices spread over the
// run, so each averages over the run's spells of machine contention: a
// reference slice, then an overload slice or another rung, in turn.
constexpr int kOverSlices = static_cast<int>(std::size(kLadder));
constexpr int kRefSlices = 2 * kOverSlices;
constexpr double kWarmupShare = 0.04;

struct Req {
  int tenant = 0;
  int window = 0;
  int64_t offset_ns = 0;  // due time relative to the phase start
};

struct Phase {
  std::string name;
  double rate = 0;
  std::vector<Req> reqs;
};

// Poisson arrivals conditioned on their count: `rate * seconds` uniform
// offsets, sorted. Routing and windows are drawn from the same stream.
Phase DrawPhase(const std::string& name, double rate, double seconds,
                Rng* rng) {
  Phase p;
  p.name = name;
  p.rate = rate;
  const int64_t n = std::max<int64_t>(1, std::llround(rate * seconds));
  p.reqs.resize(static_cast<size_t>(n));
  for (Req& r : p.reqs) {
    r.offset_ns = static_cast<int64_t>(rng->Uniform() * seconds * 1e9);
    double u = rng->Uniform();
    r.tenant = kNumTenants - 1;
    for (int t = 0; t < kNumTenants; ++t) {
      if (u < kTenants[t].share) {
        r.tenant = t;
        break;
      }
      u -= kTenants[t].share;
    }
    r.window = static_cast<int>(rng->UniformInt(kWindows));
  }
  std::sort(p.reqs.begin(), p.reqs.end(),
            [](const Req& a, const Req& b) { return a.offset_ns < b.offset_ns; });
  return p;
}

// Request text, references and expected answers of every (tenant, window).
struct Corpus {
  std::string bundle[kNumTenants];
  std::string line[kNumTenants][kWindows];  // "name|v,...,v\n"
  std::vector<float> input[kNumTenants][kWindows];
  std::vector<float> ref[kNumTenants][kWindows];
  std::string expected[kNumTenants][kWindows];
};

// Spawned `lipformer_cli serve`; the destructor kills a server still
// running.
class Server {
 public:
  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (in_fd_ >= 0) ::close(in_fd_);
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  bool Start(const std::vector<std::string>& args, const std::string& log) {
    int in_pipe[2], out_pipe[2];
    if (::pipe2(in_pipe, O_CLOEXEC) != 0) return false;
    if (::pipe2(out_pipe, O_CLOEXEC) != 0) return false;
    // Big pipes: one request is ~50 KB.
    ::fcntl(in_pipe[1], F_SETPIPE_SZ, 1 << 20);
    ::fcntl(out_pipe[1], F_SETPIPE_SZ, 1 << 20);
    const int log_fd =
        ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // The server must not outlive a benchmark that is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(in_pipe[0], 0);
      ::dup2(out_pipe[1], 1);
      if (log_fd >= 0) ::dup2(log_fd, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    if (log_fd >= 0) ::close(log_fd);
    in_fd_ = in_pipe[1];
    out_fd_ = out_pipe[0];
    ::fcntl(in_fd_, F_SETFL, ::fcntl(in_fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }

  int in_fd() const { return in_fd_; }
  int out_fd() const { return out_fd_; }
  pid_t pid() const { return pid_; }

  // Closes stdin, drains stdout to EOF and reaps the process; returns the
  // exit status (-1 on a kill or a hang).
  int Stop() {
    if (in_fd_ >= 0) ::close(in_fd_);
    in_fd_ = -1;
    char buf[1 << 16];
    const int64_t give_up = NowNs() + 30'000'000'000LL;
    while (NowNs() < give_up) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      if (::read(out_fd_, buf, sizeof(buf)) <= 0) break;
    }
    int status = 0;
    for (int i = 0; i < 300; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      ::usleep(10'000);
    }
    return -1;  // the destructor kills it
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
};

// Splits a stream of bytes into lines, stamping each with the time the
// read() that completed it returned.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd), buf_(1 << 22) {}
  // Waits up to `timeout_ms` for data and hands over every completed
  // line; returns false on EOF or a read error.
  template <typename Fn>
  bool Poll(int timeout_ms, Fn&& on_line) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return true;
    if (len_ == buf_.size()) buf_.resize(buf_.size() * 2);
    const ssize_t n = ::read(fd_, buf_.data() + len_, buf_.size() - len_);
    if (n <= 0) return false;
    const int64_t t = NowNs();
    const size_t old = len_;
    len_ += static_cast<size_t>(n);
    size_t start = 0;
    for (size_t i = old; i < len_; ++i) {
      if (buf_[i] != '\n') continue;
      on_line(std::string_view(buf_.data() + start, i - start), t);
      start = i + 1;
    }
    std::memmove(buf_.data(), buf_.data() + start, len_ - start);
    len_ -= start;
    return true;
  }

 private:
  int fd_;
  std::vector<char> buf_;
  size_t len_ = 0;
};

bool WriteAll(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EAGAIN) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

void SleepUntil(int64_t t_ns) {
  timespec ts{static_cast<time_t>(t_ns / 1'000'000'000),
              static_cast<long>(t_ns % 1'000'000'000)};
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

enum Outcome : char { kPending = 0, kOk, kError, kOverflow, kMismatch };

// What one phase (or several slices of one rung, merged) measured, from
// either client.
struct PhaseRun {
  std::string name;
  double rate = 0;
  int64_t start_ns = 0;
  std::vector<int64_t> due;      // absolute due time per request
  std::vector<int64_t> done;     // answer time (in order), 0 if none
  std::vector<char> outcome;
  std::vector<double> lag_ms;    // generator lag per admitted request
  double span_s = 0;             // phase start -> last answer, summed
  bool backlog_growing = false;  // in any slice (see Finish)
  // Twin-only timestamps (traced runs).
  std::vector<int64_t> parse_start, parse_end, submit_end, ready;

  // Called once the phase's last answer is in. The backlog grew when the
  // last quarter of the schedule waited, at the median, longer than the
  // latency limit (a failure counts as over it); one host stall near the
  // end delays only a few answers and does not count.
  void Finish() {
    int64_t last = start_ns;
    for (size_t i = 0; i < due.size(); ++i) last = std::max(last, done[i]);
    span_s = static_cast<double>(last - start_ns) / 1e9;
    std::vector<double> tail_ms;
    for (size_t i = due.size() - due.size() / 4; i < due.size(); ++i) {
      tail_ms.push_back(outcome[i] == kOk ? static_cast<double>(done[i] - due[i]) / 1e6
                                          : std::numeric_limits<double>::infinity());
    }
    backlog_growing = !tail_ms.empty() && Percentile(std::move(tail_ms), 50) > kLimitMs;
  }
  void Merge(const PhaseRun& o) {
    due.insert(due.end(), o.due.begin(), o.due.end());
    done.insert(done.end(), o.done.begin(), o.done.end());
    outcome.insert(outcome.end(), o.outcome.begin(), o.outcome.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    span_s += o.span_s;
    backlog_growing = backlog_growing || o.backlog_growing;
  }

  int64_t Count(Outcome o) const {
    return std::count(outcome.begin(), outcome.end(), static_cast<char>(o));
  }
  int64_t Failed() const { return Count(kError) + Count(kOverflow) + Count(kMismatch); }
  std::vector<double> OkLatenciesMs() const {
    std::vector<double> v;
    for (size_t i = 0; i < due.size(); ++i) {
      if (outcome[i] == kOk) v.push_back(static_cast<double>(done[i] - due[i]) / 1e6);
    }
    return v;
  }
  // Failures count as missing the limit.
  double P90WithFailuresMs() const {
    std::vector<double> v = OkLatenciesMs();
    v.resize(due.size(), std::numeric_limits<double>::infinity());
    return Percentile(std::move(v), 90);
  }
  double LagMs(double p) const { return lag_ms.empty() ? 0 : Percentile(lag_ms, p); }
  double GoodputRps() const {
    return span_s > 0 ? static_cast<double>(Count(kOk)) / span_s : 0;
  }
  Rung AsRung() const {
    Rung r;
    r.rate = rate;
    r.scheduled = static_cast<int64_t>(due.size());
    r.failed = Failed();
    r.p90_ms = P90WithFailuresMs();
    r.backlog_growing = backlog_growing;
    r.valid = LagMs(90) <= kMaxLagMs;
    return r;
  }
};

// Admits due arrivals into a bounded client backlog; a request arriving
// at a full backlog overflows (failed, never sent).
struct Arrivals {
  const Phase& phase;
  PhaseRun* run;
  size_t next = 0;
  std::deque<size_t> backlog;

  void Admit(int64_t now) {
    while (next < phase.reqs.size() && run->due[next] <= now) {
      run->lag_ms.push_back(static_cast<double>(now - run->due[next]) / 1e6);
      if (backlog.size() >= kClientBacklog) {
        run->outcome[next] = kOverflow;
      } else {
        backlog.push_back(next);
      }
      ++next;
    }
  }
  bool Done() const { return next == phase.reqs.size() && backlog.empty(); }
  int64_t NextDue() const {
    return next < phase.reqs.size() ? run->due[next]
                                    : std::numeric_limits<int64_t>::max();
  }
};

PhaseRun NewRun(const Phase& phase) {
  PhaseRun run;
  run.name = phase.name;
  run.rate = phase.rate;
  const size_t n = phase.reqs.size();
  run.start_ns = NowNs() + 20'000'000;
  run.due.resize(n);
  for (size_t i = 0; i < n; ++i) run.due[i] = run.start_ns + phase.reqs[i].offset_ns;
  run.done.assign(n, 0);
  run.outcome.assign(n, kPending);
  run.lag_ms.reserve(n);
  return run;
}

// Drives one phase against the spawned server: the sender never blocks on
// a full pipe (it waits for writability or the next due time, whichever
// comes first); the reader matches answers to requests in send order.
bool RunCliPhase(Server* server, const Corpus& corpus, const Phase& phase,
                 PhaseRun* run_out) {
  PhaseRun run = NewRun(phase);
  const size_t n = phase.reqs.size();
  std::vector<size_t> sent_order(n);
  std::atomic<size_t> sent_count{0};
  std::atomic<bool> sender_done{false};
  std::atomic<bool> broken{false};

  std::thread reader([&] {
    LineReader lines(server->out_fd());
    size_t got = 0;
    const int64_t give_up_after = 30'000'000'000LL;
    int64_t last_progress = NowNs();
    while (!(sender_done.load(std::memory_order_acquire) &&
             got == sent_count.load(std::memory_order_acquire))) {
      const bool alive = lines.Poll(5, [&](std::string_view line, int64_t t) {
        while (got >= sent_count.load(std::memory_order_acquire)) {
          if (sender_done.load(std::memory_order_acquire) &&
              got >= sent_count.load(std::memory_order_acquire)) {
            broken = true;  // an answer nobody asked for
            return;
          }
          std::this_thread::yield();  // write() returned, count not yet out
        }
        const size_t i = sent_order[got++];
        const Req& r = phase.reqs[i];
        const AnswerCheck c =
            CheckAnswer(line, corpus.expected[r.tenant][r.window],
                        corpus.ref[r.tenant][r.window].data(), kOutValues);
        run.done[i] = t;
        run.outcome[i] = c == AnswerCheck::kErrorLine ? kError
                         : c == AnswerCheck::kMismatch ? kMismatch : kOk;
        if (c == AnswerCheck::kMismatch) {
          std::fprintf(stderr, "perfbench: mismatched answer (%s, window %d)\n",
                       kTenants[r.tenant].name, r.window);
        }
        last_progress = t;
      });
      if (!alive || NowNs() - last_progress > give_up_after) {
        broken = true;
        return;
      }
    }
  });

  Arrivals arrivals{phase, &run, 0, {}};
  size_t off = 0;  // bytes of backlog.front() already written
  while (!broken) {
    arrivals.Admit(NowNs());
    while (!arrivals.backlog.empty()) {
      const size_t i = arrivals.backlog.front();
      const std::string& text = corpus.line[phase.reqs[i].tenant][phase.reqs[i].window];
      const ssize_t w = ::write(server->in_fd(), text.data() + off, text.size() - off);
      if (w < 0 && errno == EAGAIN) break;
      if (w < 0) {
        broken = true;
        break;
      }
      off += static_cast<size_t>(w);
      if (off == text.size()) {
        const size_t k = sent_count.load(std::memory_order_relaxed);
        sent_order[k] = i;
        sent_count.store(k + 1, std::memory_order_release);
        arrivals.backlog.pop_front();
        off = 0;
      }
    }
    if (arrivals.Done()) break;
    const int64_t next_due = arrivals.NextDue();
    if (!arrivals.backlog.empty()) {
      const int64_t wait_ns = std::min<int64_t>(next_due - NowNs(), 10'000'000);
      pollfd pfd{server->in_fd(), POLLOUT, 0};
      timespec ts{0, std::max<int64_t>(0, wait_ns)};
      ::ppoll(&pfd, 1, &ts, nullptr);
    } else {
      SleepUntil(next_due);
    }
  }
  sender_done.store(true, std::memory_order_release);
  reader.join();
  if (broken) {
    std::fprintf(stderr, "perfbench: server pipe broke during phase %s\n",
                 phase.name.c_str());
    return false;
  }
  run.Finish();
  *run_out = std::move(run);
  return true;
}

// Spawns the server and times spawn -> the first answer of every tenant.
bool SpawnServer(Server* server, const std::vector<std::string>& args,
                 const std::string& log, const Corpus& corpus,
                 double* setup_s) {
  const int64_t t0 = NowNs();
  if (!server->Start(args, log)) return false;
  std::string burst;
  for (int t = 0; t < kNumTenants; ++t) burst += corpus.line[t][0];
  if (!WriteAll(server->in_fd(), burst)) return false;
  LineReader lines(server->out_fd());
  int got = 0;
  bool ok = true;
  const int64_t give_up = t0 + 120'000'000'000LL;
  int64_t t_last = 0;
  while (got < kNumTenants && NowNs() < give_up) {
    if (!lines.Poll(50, [&](std::string_view line, int64_t t) {
          const AnswerCheck c = CheckAnswer(line, corpus.expected[got][0],
                                            corpus.ref[got][0].data(), kOutValues);
          if (c != AnswerCheck::kExact && c != AnswerCheck::kWithinText) ok = false;
          ++got;
          t_last = t;
        })) {
      break;
    }
  }
  if (got < kNumTenants || !ok) {
    std::fprintf(stderr, "perfbench: server start check failed (%d answers)\n", got);
    return false;
  }
  *setup_s = static_cast<double>(t_last - t0) / 1e9;
  return true;
}

// In-process twin of the server's request path.
class Twin {
 public:
  Twin(const Corpus& corpus, int threads) : corpus_(corpus) {
    lipformer::SetNumThreads(threads);
    lipformer::serve::RegistryOptions o;  // lipformer_cli serve defaults
    o.batcher.max_batch_size = 16;
    o.batcher.max_delay = std::chrono::milliseconds(2);
    o.batcher.queue_capacity = 256;
    o.reload_poll = std::chrono::milliseconds(200);
    o.batcher.breaker.failure_threshold = 8;
    o.batcher.breaker.cooldown = std::chrono::milliseconds(250);
    registry_ = std::make_unique<lipformer::serve::ModelRegistry>(o);
  }

  bool Load() {
    for (int t = 0; t < kNumTenants; ++t) {
      const Status st = registry_->Load(kTenants[t].name, corpus_.bundle[t]);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: twin load: %s\n", st.ToString().c_str());
        return false;
      }
      registry_->Find(kTenants[t].name)->session()->SetPlanProfiling(true);
    }
    return true;
  }

  lipformer::serve::ModelRegistry* registry() { return registry_.get(); }

  // Same schedule discipline as the CLI client; `traced` adds the clock
  // reads at every layer boundary.
  PhaseRun Run(const Phase& phase, bool traced) {
    PhaseRun run = NewRun(phase);
    const size_t n = phase.reqs.size();
    if (traced) {
      run.parse_start.assign(n, 0);
      run.parse_end.assign(n, 0);
      run.submit_end.assign(n, 0);
    }
    run.ready.assign(n, 0);
    struct Waiting {
      size_t i = 0;
      std::future<Result<Tensor>> future;
    };
    struct Queue {
      std::mutex mu;
      std::condition_variable cv;
      std::deque<Waiting> q;
      bool closed = false;
    };
    Queue queues[kNumTenants];
    std::vector<std::thread> waiters;
    for (int t = 0; t < kNumTenants; ++t) {
      waiters.emplace_back([&, t] {
        Queue& q = queues[t];
        for (;;) {
          Waiting w;
          {
            std::unique_lock<std::mutex> lock(q.mu);
            q.cv.wait(lock, [&] { return q.closed || !q.q.empty(); });
            if (q.q.empty()) return;
            w = std::move(q.q.front());
            q.q.pop_front();
          }
          Result<Tensor> res = w.future.get();
          run.ready[w.i] = NowNs();
          const Req& r = phase.reqs[w.i];
          if (!res.ok()) {
            run.outcome[w.i] = kError;
          } else {
            const std::vector<float>& ref = corpus_.ref[r.tenant][r.window];
            const bool same = res.value().numel() == kOutValues &&
                              std::memcmp(res.value().data(), ref.data(),
                                          ref.size() * sizeof(float)) == 0;
            run.outcome[w.i] = same ? kOk : kMismatch;
          }
        }
      });
    }
    Arrivals arrivals{phase, &run, 0, {}};
    std::vector<size_t> order;
    order.reserve(n);
    const auto deadline = std::chrono::milliseconds(kDeadlineMs);
    while (!arrivals.Done()) {
      arrivals.Admit(NowNs());
      if (arrivals.backlog.empty()) {
        SleepUntil(arrivals.NextDue());
        continue;
      }
      const size_t i = arrivals.backlog.front();
      arrivals.backlog.pop_front();
      const Req& r = phase.reqs[i];
      const std::string& text = corpus_.line[r.tenant][r.window];
      if (traced) run.parse_start[i] = NowNs();
      // The CLI's getline strips the newline before parsing.
      const std::string line(text.data(), text.size() - 1);
      std::string model, csv, error;
      std::vector<float> values;
      if (!lipformer::cli::SplitModelPrefix(line, &model, &csv) ||
          !lipformer::cli::ParseRequestValues(csv, kInputLen * kChannels,
                                              &values, &error)) {
        run.outcome[i] = kMismatch;
        continue;
      }
      if (traced) run.parse_end[i] = NowNs();
      Waiting w{i, registry_->Submit(model, Tensor({kInputLen, kChannels},
                                                   std::move(values)),
                                     deadline,
                                     lipformer::serve::SubmitMode::kBlock)};
      if (traced) run.submit_end[i] = NowNs();
      order.push_back(i);
      {
        std::lock_guard<std::mutex> lock(queues[r.tenant].mu);
        queues[r.tenant].q.push_back(std::move(w));
      }
      queues[r.tenant].cv.notify_one();
    }
    for (Queue& q : queues) {
      {
        std::lock_guard<std::mutex> lock(q.mu);
        q.closed = true;
      }
      q.cv.notify_all();
    }
    for (std::thread& t : waiters) t.join();
    // Answers leave in request order, as the server writes them.
    std::vector<int64_t> ready;
    for (size_t i : order) ready.push_back(run.ready[i]);
    const std::vector<int64_t> answered = InOrderAnswerTimes(ready);
    for (size_t k = 0; k < order.size(); ++k) run.done[order[k]] = answered[k];
    run.Finish();
    return run;
  }

 private:
  const Corpus& corpus_;
  std::unique_ptr<lipformer::serve::ModelRegistry> registry_;
};

// Sum of every tenant's batcher counters.
struct BatchTotals {
  int64_t submitted = 0, batches = 0, shed = 0, expired = 0, rejected = 0;
  int64_t rows = 0;  // sum of batch sizes
  double cost_s = 0;  // hot tenant's cost EWMA
};
BatchTotals Totals(const lipformer::serve::ModelRegistry& reg) {
  BatchTotals t;
  for (const lipformer::serve::ModelInfo& m : reg.Models()) {
    const lipformer::serve::BatcherStats& b = m.batcher;
    t.submitted += b.submitted;
    t.batches += b.batches;
    t.shed += b.shed_overload;
    t.expired += b.expired;
    t.rejected += b.rejected_full;
    for (size_t s = 0; s < b.batch_size_histogram.size(); ++s) {
      t.rows += static_cast<int64_t>(s + 1) * b.batch_size_histogram[s];
    }
    if (m.name == kTenants[0].name) t.cost_s = b.cost_ewma_seconds;
  }
  return t;
}

void PrintPhase(const char* who, const PhaseRun& r) {
  const Summary s = Summarize(r.OkLatenciesMs());
  std::printf(
      "%s phase %-6s rate %6.0f/s: sent %zu ok %lld failed %lld "
      "(overflow %lld, error %lld, mismatch %lld) p50 %.3f p90 %.3f p%.4g %.3f ms "
      "(n=%lld) goodput %.1f/s lag_p99 %.3f ms%s%s\n",
      who, r.name.c_str(), r.rate, r.due.size() - r.Count(kOverflow),
      static_cast<long long>(r.Count(kOk)), static_cast<long long>(r.Failed()),
      static_cast<long long>(r.Count(kOverflow)),
      static_cast<long long>(r.Count(kError)),
      static_cast<long long>(r.Count(kMismatch)), s.p50, s.p90, s.tail_level, s.tail,
      static_cast<long long>(s.n), r.GoodputRps(), r.LagMs(99),
      r.LagMs(90) > kMaxLagMs ? " INVALID(generator lag)" : "",
      r.backlog_growing ? " backlog-growing" : "");
}

bool BuildCorpus(const RunOptions& opt, Corpus* c) {
  for (int t = 0; t < kNumTenants; ++t) {
    const std::string fp32 = opt.work_dir + "/" + kTenants[t].name + ".fp32.ckpt";
    if (!SaveLipformerBundle(fp32, kTenants[t].seed)) return false;
    c->bundle[t] = fp32;
    if (kTenants[t].int8) {
      // The int8 tenant comes from the repository's quantizer tool.
      c->bundle[t] = opt.work_dir + "/" + kTenants[t].name + ".int8.ckpt";
      const std::string cmd = "'" + opt.bin_dir + "/quantize_bundle' --in='" +
                              fp32 + "' --out='" + c->bundle[t] +
                              "' --force > /dev/null";
      if (std::system(cmd.c_str()) != 0) {
        std::fprintf(stderr, "perfbench: quantize_bundle failed\n");
        return false;
      }
    }
  }
  Rng rng(opt.seed * 7919 + 17);
  char buf[32];
  for (int t = 0; t < kNumTenants; ++t) {
    Result<std::unique_ptr<lipformer::serve::InferenceSession>> session =
        lipformer::serve::InferenceSession::Open(c->bundle[t]);
    if (!session.ok()) {
      std::fprintf(stderr, "perfbench: reference open: %s\n",
                   session.status().ToString().c_str());
      return false;
    }
    for (int w = 0; w < kWindows; ++w) {
      std::string csv;
      csv.reserve(kInputLen * kChannels * 8);
      for (int64_t s = 0; s < kInputLen; ++s) {
        for (int64_t ch = 0; ch < kChannels; ++ch) {
          const double v = 10.0 * std::sin(0.05 * static_cast<double>(s) + ch) +
                           rng.Normal(0.0, 2.0) + static_cast<double>(ch);
          std::snprintf(buf, sizeof(buf), "%.3f", v);
          if (!csv.empty()) csv += ',';
          csv += buf;
        }
      }
      std::string error;
      if (!lipformer::cli::ParseRequestValues(csv, kInputLen * kChannels,
                                              &c->input[t][w], &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return false;
      }
      c->line[t][w] = std::string(kTenants[t].name) + "|" + csv + "\n";
      // The tenant's serial in-process reference.
      Result<Tensor> pred = session.value()->Predict(
          Tensor({kInputLen, kChannels}, c->input[t][w]));
      if (!pred.ok() || pred.value().numel() != kOutValues) return false;
      c->ref[t][w].assign(pred.value().data(), pred.value().data() + kOutValues);
      c->expected[t][w] = FormatForecast(c->ref[t][w].data(), kOutValues);
    }
  }
  return true;
}

std::vector<std::string> ServerArgs(const RunOptions& opt, const Corpus& c) {
  std::vector<std::string> args = {opt.bin_dir + "/lipformer_cli", "serve"};
  for (int t = 0; t < kNumTenants; ++t) {
    args.push_back(std::string("--load=") + kTenants[t].name + "=" + c.bundle[t]);
  }
  args.push_back("--threads=" + std::to_string(kServerThreads));
  args.push_back("--deadline-ms=" + std::to_string(kDeadlineMs));
  return args;
}

// The run's pre-drawn schedule.
struct Schedule {
  // Short pass over every rung and the overload rate so each batch size
  // the batcher forms has compiled its plan before timing.
  std::vector<Phase> warmup;
  // Timed phases in run order: the reference rung's slices interleaved
  // with the other rungs, the overload rate last.
  std::vector<Phase> timed;
};

Schedule DrawSchedule(uint64_t seed, double seconds) {
  Rng rng(seed);
  Schedule s;
  const double each = kWarmupShare * seconds / (std::size(kLadder) + 1);
  for (const RungSpec& r : kLadder) s.warmup.push_back(DrawPhase(r.name, r.rate, each, &rng));
  s.warmup.push_back(DrawPhase(kOverload.name, kOverload.rate, each, &rng));
  const RungSpec& ref = kLadder[kRefRung];
  auto slice = [&](const RungSpec& r, int slices) {
    s.timed.push_back(DrawPhase(r.name, r.rate, r.share * seconds / slices, &rng));
  };
  // Reference, overload, reference, then the next rung; the same once more
  // without a rung at the end.
  for (size_t k = 0; k <= std::size(kLadder); ++k) {
    if (static_cast<int>(k) == kRefRung) continue;
    slice(ref, kRefSlices);
    slice(kOverload, kOverSlices);
    slice(ref, kRefSlices);
    if (k < std::size(kLadder)) slice(kLadder[k], 1);
  }
  return s;
}

// Merges the slices of each rung; returns them in ladder order, the
// overload phase last.
std::vector<PhaseRun> ByRung(const std::vector<PhaseRun>& runs) {
  std::vector<PhaseRun> out;
  auto merged = [&](const char* name, double rate) {
    PhaseRun m;
    m.name = name;
    m.rate = rate;
    for (const PhaseRun& r : runs) {
      if (r.name == name) m.Merge(r);
    }
    out.push_back(std::move(m));
  };
  for (const RungSpec& r : kLadder) merged(r.name, r.rate);
  merged(kOverload.name, kOverload.rate);
  return out;
}

bool IsRef(const PhaseRun& r) { return r.name == kLadder[kRefRung].name; }

// Batcher counter deltas accumulated over chosen phases.
struct BatchDelta {
  int64_t submitted = 0, batches = 0, shed = 0, expired = 0, rejected = 0, rows = 0;
  void Add(const BatchTotals& a, const BatchTotals& b) {
    submitted += b.submitted - a.submitted;
    batches += b.batches - a.batches;
    shed += b.shed - a.shed;
    expired += b.expired - a.expired;
    rejected += b.rejected - a.rejected;
    rows += b.rows - a.rows;
  }
};

}  // namespace

Report RunServeCli(const RunOptions& opt) {
  ::signal(SIGPIPE, SIG_IGN);
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Report res;
  Corpus corpus;
  if (!BuildCorpus(opt, &corpus)) {
    res.Fail("serve-cli set-up failed");
    return res;
  }
  const Schedule schedule = DrawSchedule(opt.seed, opt.seconds);
  const std::vector<std::string> args = ServerArgs(opt, corpus);
  const std::string log = opt.work_dir + "/server.log";

  // Every scheduled request counts as attempted; a wrong answer anywhere
  // is a failure. Refused, expired and overflowed requests are load
  // outcomes: they count against their rung, not against correctness.
  auto account = [&](const PhaseRun& r) {
    res.attempted += static_cast<int64_t>(r.due.size());
    if (r.Count(kMismatch) > 0) res.Fail("mismatched answers in " + r.name, r.Count(kMismatch));
  };
  // Runs phases against a spawned server; false when the server broke.
  auto drive = [&](Server* server, const std::vector<Phase>& phases,
                   std::vector<PhaseRun>* runs) {
    for (const Phase& p : phases) {
      PhaseRun r;
      if (!RunCliPhase(server, corpus, p, &r)) {
        res.Fail("server failed during " + p.name);
        return false;
      }
      account(r);
      if (runs != nullptr) runs->push_back(std::move(r));
    }
    return true;
  };

  if (!opt.trace) {
    // Set-up: spawn -> every tenant answered, four times before the run
    // and once more after each timed phase (while the measured server
    // idles), so the median spans the run's spells. The gated footprint is
    // read at the same point: every tenant's weights, batch-1 plan and
    // arena. Later peaks are printed, not gated: under overload a burst of
    // allocations lifts the server's peak by 5-70 MB at a random moment,
    // so neither the post-warm-up nor the whole-run peak repeats.
    std::vector<double> setups, rss;
    auto set_up = [&](Server* server) {
      double s = 0;
      if (!SpawnServer(server, args, log, corpus, &s)) {
        res.Fail("server did not start");
        return false;
      }
      setups.push_back(s);
      rss.push_back(PeakRssMb(std::to_string(server->pid())));
      return true;
    };
    // A spare server: set up, timed, stopped.
    auto spare_set_up = [&] {
      Server spare;
      if (!set_up(&spare)) return false;
      if (spare.Stop() != 0) res.Fail("spare server exit code");
      return true;
    };
    for (int k = 0; k < 3; ++k) {
      if (!spare_set_up()) return res;
    }
    Server server;
    if (!set_up(&server)) return res;
    const std::string pid = std::to_string(server.pid());
    const double rss_start_mb = rss.back();
    std::vector<PhaseRun> runs;
    if (!drive(&server, schedule.warmup, nullptr)) return res;
    const double rss_warm_mb = PeakRssMb(pid);
    for (const Phase& p : schedule.timed) {
      if (!drive(&server, {p}, &runs) || !spare_set_up()) return res;
    }
    const double rss_run_mb = PeakRssMb(pid);
    const int exit_code = server.Stop();
    if (exit_code != 0) res.Fail("server exit code " + std::to_string(exit_code));

    const std::vector<PhaseRun> rungs = ByRung(runs);
    std::vector<Rung> ladder;
    for (size_t k = 0; k < std::size(kLadder); ++k) {
      PrintPhase("cli", rungs[k]);
      ladder.push_back(rungs[k].AsRung());
    }
    PrintPhase("cli", rungs.back());
    const Summary ref = Summarize(rungs[kRefRung].OkLatenciesMs());
    const int slo = SelectSloRung(ladder, kLimitMs, kMaxFailFrac);
    std::printf("serve-cli: reference %s n=%lld, p99 level %.4g; slo rung %s "
                "(limit p90 <= %.0f ms)\n",
                kLadder[kRefRung].name, static_cast<long long>(ref.n),
                ref.tail_level, slo >= 0 ? kLadder[slo].name : "none", kLimitMs);
    res.Set("p50_ms", ref.p50, "ms");
    // The rung's achieved rate: its correct answers over its measured span.
    res.Set("slo_rps", slo >= 0 ? rungs[slo].GoodputRps() : 0, "1/s");
    res.Set("peak_ps", rungs.back().GoodputRps(), "1/s");
    res.Set("setup_s", Percentile(setups, 50), "s");
    res.Set("rss_mb", Percentile(rss, 50), "MB");
    std::printf("serve-cli: server peak RSS %.2f MB at start-up, %.2f MB after the "
                "warm-up, %.2f MB after the whole run\n",
                rss_start_mb, rss_warm_mb, rss_run_mb);
    // A slow rung is a load outcome, not a wrong answer: slo_rps reads 0.
    if (slo < 0) std::printf("serve-cli: no ladder rung met the latency limit\n");
    return res;
  }

  // ---- Traced run: the in-process twin, then the CLI at the reference.
  Twin twin(corpus, kServerThreads);
  if (!twin.Load()) {
    res.Fail("twin load failed");
    return res;
  }
  for (const Phase& p : schedule.warmup) twin.Run(p, false);
  // Each reference slice runs untraced and then traced (the tracing
  // overhead); every rung runs traced.
  std::vector<PhaseRun> plain, traced;
  BatchDelta ladder_delta, ref_delta;
  double cost_ms = 0;
  for (const Phase& p : schedule.timed) {
    if (p.name == kLadder[kRefRung].name) {
      plain.push_back(twin.Run(p, false));
      account(plain.back());
    }
    const BatchTotals a = Totals(*twin.registry());
    traced.push_back(twin.Run(p, true));
    const BatchTotals b = Totals(*twin.registry());
    ladder_delta.Add(a, b);
    if (IsRef(traced.back())) {
      ref_delta.Add(a, b);
      cost_ms = b.cost_s * 1e3;  // as of the latest reference slice
    }
    account(traced.back());
  }
  const int64_t plans = twin.registry()->Find(kTenants[0].name)->session()->plan_stats().plans_compiled;
  twin.registry()->Shutdown();
  const std::vector<PhaseRun> rungs = ByRung(traced);
  for (const PhaseRun& r : rungs) PrintPhase("twin+trace", r);

  // Spans of every traced request: the request, then its blocking path.
  static const char* const kPath[] = {"client.wait", "cli.parse", "registry.submit",
                                      "batcher.resolve", "order.wait"};
  constexpr size_t kSteps = std::size(kPath);
  Tracer tracer;
  std::vector<double> parse_us, submit_us, resolve_ms;
  std::vector<int32_t> ref_path[kSteps];  // reference requests' path spans
  int64_t req_id = 0;
  for (const PhaseRun& r : traced) {
    for (size_t i = 0; i < r.due.size(); ++i, ++req_id) {
      if (r.outcome[i] == kOverflow || r.parse_end[i] == 0) continue;
      const int64_t edges[kSteps + 1] = {r.due[i],        r.parse_start[i], r.parse_end[i],
                                         r.submit_end[i], r.ready[i],       r.done[i]};
      const int32_t root = tracer.Add("request", r.due[i], r.done[i], -1, req_id);
      for (size_t k = 0; k < kSteps; ++k) {
        const int32_t span = tracer.Add(kPath[k], edges[k], edges[k + 1], root, req_id);
        if (IsRef(r)) ref_path[k].push_back(span);
      }
      if (!IsRef(r)) continue;
      parse_us.push_back(static_cast<double>(r.parse_end[i] - r.parse_start[i]) / 1e3);
      submit_us.push_back(static_cast<double>(r.submit_end[i] - r.parse_end[i]) / 1e3);
      resolve_ms.push_back(static_cast<double>(r.ready[i] - r.submit_end[i]) / 1e6);
    }
  }
  if (!opt.trace_path.empty() && !tracer.WriteChromeJson(opt.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_path.c_str());
  }
  PhaseRun plain_ref;
  for (const PhaseRun& r : plain) plain_ref.Merge(r);
  const Summary twin_plain = Summarize(plain_ref.OkLatenciesMs());
  const Summary twin_traced = Summarize(rungs[kRefRung].OkLatenciesMs());
  // The p50 self times along the traced blocking path, summed, against the
  // untraced twin's p50: two separate measurements of one latency.
  const std::vector<int64_t> self = tracer.SelfTimes();
  double path_p50_ms = 0;
  for (const std::vector<int32_t>& spans : ref_path) {
    std::vector<double> ms;
    for (int32_t sp : spans) ms.push_back(static_cast<double>(self[static_cast<size_t>(sp)]) / 1e6);
    path_p50_ms += Percentile(ms, 50);
  }
  const double accounted = twin_plain.p50 > 0 ? path_p50_ms / twin_plain.p50 : 0;
  if (std::fabs(accounted - 1) > kAccountedShare) {
    std::printf("serve-cli trace: blocking-path self times sum to %.4f of the untraced "
                "p50, outside 1 +/- %.2f\n", accounted, kAccountedShare);
  }

  // The CLI at the reference rung, for the CLI's own overhead.
  double cli_p50 = 0;
  {
    Server server;
    double s = 0;
    if (!SpawnServer(&server, args, log, corpus, &s)) {
      res.Fail("server did not start");
      return res;
    }
    std::vector<Phase> ref_slices;
    for (const Phase& p : schedule.timed) {
      if (p.name == kLadder[kRefRung].name) ref_slices.push_back(p);
    }
    std::vector<PhaseRun> runs;
    if (!drive(&server, schedule.warmup, nullptr) || !drive(&server, ref_slices, &runs)) {
      return res;
    }
    PhaseRun cli_ref;
    for (const PhaseRun& r : runs) cli_ref.Merge(r);
    cli_p50 = Summarize(cli_ref.OkLatenciesMs()).p50;
    if (server.Stop() != 0) res.Fail("server exit code");
  }

  const double resolve_p50 = Percentile(resolve_ms, 50);
  int64_t ok_total = 0;
  for (const PhaseRun& r : traced) ok_total += r.Count(kOk);
  res.Set("cli.parse_us", Percentile(parse_us, 50), "us");
  res.Set("cli.overhead_ms", cli_p50 - twin_plain.p50, "ms");
  res.Set("registry.submit_us_p50", Percentile(submit_us, 50), "us");
  res.Set("registry.submit_us_p99", Percentile(submit_us, 99), "us");
  res.Set("batcher.resolve_ms_p50", resolve_p50, "ms");
  res.Set("batcher.resolve_ms_p99", Percentile(resolve_ms, 99), "ms");
  res.Set("batcher.cost_ms", cost_ms, "ms");
  res.Set("batcher.wait_ms", resolve_p50 - cost_ms, "ms");
  res.Set("batcher.batch_size_mean",
          ref_delta.batches > 0 ? static_cast<double>(ref_delta.rows) /
                                      static_cast<double>(ref_delta.batches)
                                : 0,
          "count");
  res.Set("batcher.batches", static_cast<double>(ladder_delta.batches), "count");
  res.Set("batcher.shed", static_cast<double>(ladder_delta.shed), "count");
  res.Set("batcher.expired", static_cast<double>(ladder_delta.expired), "count");
  res.Set("batcher.rejected", static_cast<double>(ladder_delta.rejected), "count");
  res.Set("batcher.useful_frac",
          ladder_delta.submitted > 0
              ? static_cast<double>(ok_total) / static_cast<double>(ladder_delta.submitted)
              : 0,
          "fraction");
  res.Set("session.plans_compiled", static_cast<double>(plans), "count");
  std::vector<double> lags;
  for (const PhaseRun& r : traced) lags.insert(lags.end(), r.lag_ms.begin(), r.lag_ms.end());
  res.Set("loadgen.lag_p99_ms", Percentile(lags, 99), "ms");
  for (const PhaseRun& r : rungs) {
    const std::string base = "loadgen." + r.name;
    res.Set(base + ".sent", static_cast<double>(r.due.size() - r.Count(kOverflow)), "count");
    res.Set(base + ".ok", static_cast<double>(r.Count(kOk)), "count");
    res.Set(base + ".failed", static_cast<double>(r.Failed()), "count");
  }
  res.Set("trace.twin_p50_ms", twin_plain.p50, "ms");
  res.Set("trace.overhead_ms", twin_traced.p50 - twin_plain.p50, "ms");
  res.Set("trace.accounted_frac", accounted, "fraction");
  std::printf("serve-cli trace: cli p50 %.3f ms, twin p50 %.3f ms untraced / "
              "%.3f ms traced; blocking-path p50 self times sum to %.4f of "
              "the untraced p50; parse %.1f us, submit %.1f us, resolve %.3f ms "
              "(batch cost %.3f ms)\n",
              cli_p50, twin_plain.p50, twin_traced.p50, accounted,
              Percentile(parse_us, 50), Percentile(submit_us, 50), resolve_p50, cost_ms);
  return res;
}

}  // namespace perfbench
