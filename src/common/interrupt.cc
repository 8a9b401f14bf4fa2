#include "common/interrupt.h"

#include <csignal>

namespace lipformer {

namespace {

// Written from signal context: must be a lock-free sig_atomic-compatible
// type with no constructor side effects.
volatile std::sig_atomic_t g_interrupted = 0;

void HandleSignal(int /*signum*/) { g_interrupted = 1; }

volatile std::sig_atomic_t g_stats_requested = 0;

void HandleStatsSignal(int /*signum*/) { g_stats_requested = 1; }

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

bool ConsumeStatsRequest() {
  if (g_stats_requested == 0) return false;
  g_stats_requested = 0;
  return true;
}

void RequestStats() { g_stats_requested = 1; }

bool InterruptRequested() { return g_interrupted != 0; }

void RequestInterrupt() { g_interrupted = 1; }

void ClearInterrupt() { g_interrupted = 0; }

}  // namespace lipformer
