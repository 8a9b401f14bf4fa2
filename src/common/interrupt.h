#ifndef LIPFORMER_COMMON_INTERRUPT_H_
#define LIPFORMER_COMMON_INTERRUPT_H_

// Process-wide graceful-shutdown flag shared by long-running loops: the
// trainer (snapshot after the in-flight step, then exit) and the serve
// loop (stop accepting requests, drain the batcher). The flag is set by
// SIGINT/SIGTERM once InstallInterruptHandlers() has run, by fault
// injection (interrupt_after_step), or programmatically from tests.
//
// The handlers are one-shot (SA_RESETHAND): the first signal requests a
// graceful stop, a second one kills the process with default semantics —
// a wedged drain must stay killable.

namespace lipformer {

// Installs SIGINT + SIGTERM handlers that set the interrupt flag.
// Idempotent.
void InstallInterruptHandlers();

// True once an interrupt was requested (signal, fault injection, or
// RequestInterrupt).
bool InterruptRequested();

// Sets the flag without a signal (fault injection, tests).
void RequestInterrupt();

// Clears the flag (tests; a new CLI run starts clean anyway).
void ClearInterrupt();

// SIGHUP is repurposed as a status request for the serve loop: it sets a
// separate flag that the server polls and clears after dumping registry
// stats to stderr. Unlike the interrupt handlers this one is persistent
// (SA_RESTART, no SA_RESETHAND): operators poke a long-lived server
// repeatedly, and a poke must not fail its restartable calls with EINTR.
void InstallStatsRequestHandler();

// Returns true (and clears the flag) if a SIGHUP arrived since the last
// call. Tests may set the flag directly with RequestStats().
bool ConsumeStatsRequest();
void RequestStats();

// Ignores SIGPIPE process-wide. A serving process writes answers to a
// pipe/socket a client may close mid-stream; without this the default
// disposition kills the whole server from inside the writer thread.
// Writes then fail with EPIPE, which the serve loop maps to a clean
// drain-and-shutdown. Idempotent.
void IgnoreSigPipe();

}  // namespace lipformer

#endif  // LIPFORMER_COMMON_INTERRUPT_H_
