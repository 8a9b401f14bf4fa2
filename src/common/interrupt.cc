#include "common/interrupt.h"

#include <atomic>
#include <csignal>

namespace lipformer {

namespace {

// Written from signal context and from other threads (the serve writer
// requests an interrupt on EPIPE): lock-free atomics are both
// async-signal-safe and race-free, where a volatile sig_atomic_t is only
// the former.
static_assert(std::atomic<int>::is_always_lock_free);
std::atomic<int> g_interrupted{0};

void HandleSignal(int /*signum*/) { g_interrupted.store(1); }

std::atomic<int> g_stats_requested{0};

void HandleStatsSignal(int /*signum*/) { g_stats_requested.store(1); }

}  // namespace

void InstallInterruptHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  // One-shot: a second SIGINT/SIGTERM falls through to the default
  // disposition and kills the process.
  action.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

void InstallStatsRequestHandler() {
  struct sigaction action = {};
  action.sa_handler = HandleStatsSignal;
  sigemptyset(&action.sa_mask);
  // Persistent and restarting: a status poke must neither uninstall
  // itself nor fail the server's restartable calls with EINTR.
  action.sa_flags = SA_RESTART;
  sigaction(SIGHUP, &action, nullptr);
}

void IgnoreSigPipe() {
  struct sigaction action = {};
  action.sa_handler = SIG_IGN;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPIPE, &action, nullptr);
}

bool ConsumeStatsRequest() { return g_stats_requested.exchange(0) != 0; }

void RequestStats() { g_stats_requested.store(1); }

bool InterruptRequested() { return g_interrupted.load() != 0; }

void RequestInterrupt() { g_interrupted.store(1); }

void ClearInterrupt() { g_interrupted.store(0); }

}  // namespace lipformer
