#!/usr/bin/env bash
# Serving-path chaos gate: drives the registry through overload and
# injected faults and asserts the resilience invariants hold.
#
# Part 1 — bench_loadgen --chaos=1: open-loop Poisson load at 1.5x the
# box's calibrated capacity with per-request deadlines, in three pairs of
# a fault-free phase (the overload baseline) and a phase with slow-infer
# and poison-output faults injected mid-run, alternating which runs first
# so host load that drifts between phases does not bias the ratio. The
# binary exits non-zero unless, in every faulted phase:
#   - the per-model circuit breaker trips on the poisoned forecasts and
#     recovers to closed via half-open probes once the faults clear,
#   - zero requests execute past their deadline (batcher invariant
#     counter),
#   - zero non-finite answers are delivered (poison surfaces as typed
#     Internal errors),
#   - zero torn answers (every delivered answer bitwise matches the
#     serial reference),
# and unless the median per-pair goodput ratio (faulted / no-fault)
# stays >= LIPF_CHAOS_GOODPUT_FLOOR_PCT% (85 by default).
#
# Part 2 — lipformer_cli serve under LIPF_FAULT: a registry-backed
# server runs with a stalled reload watcher (watcher_stall_ms) and an
# injected bundle-open failure on the first reload attempt (fail_open_at;
# open #1 is the initial --load). Asserted:
#   - serving continues while the watcher is stalled,
#   - the failed-open reload keeps the previous model serving (and is
#     retried successfully on the next publish),
#   - "!health" reports the breaker closed with machine-parseable
#     key=value fields,
#   - a client closing the answer stream mid-flight (EPIPE) drains the
#     server to a clean exit 0 instead of killing it via SIGPIPE.
#
# Part 4 — signals on an idle stdin: with the request pipe held open but
# silent, SIGHUP prints a registry dump within 1 s while the server keeps
# serving, and SIGTERM then exits 0 within 1 s. A reader that blocks in a
# read() retried on EINTR (e.g. unsynced iostreams) fails this.
#
# Usage:
#   scripts/check_chaos.sh path/to/bench_loadgen path/to/lipformer_cli
#
# Env knobs (for sanitizer/CI runs, see scripts/check_sanitize.sh):
#   LIPF_CHAOS_DURATION_MS       per-phase open-loop duration (def 4000)
#   LIPF_CHAOS_GOODPUT_FLOOR_PCT goodput floor vs no-fault baseline (85)
#
# Registered as the `chaos` ctest (tests/CMakeLists.txt).

set -euo pipefail

LOADGEN="${1:?usage: check_chaos.sh path/to/bench_loadgen path/to/lipformer_cli}"
CLI="${2:?usage: check_chaos.sh path/to/bench_loadgen path/to/lipformer_cli}"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "${SERVE_PID}" ] && kill "${SERVE_PID}" 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "---- serve log ----" >&2
  cat "${WORK}/serve.log" >&2 2>/dev/null || true
  exit 1
}

DURATION_MS="${LIPF_CHAOS_DURATION_MS:-4000}"
FLOOR_PCT="${LIPF_CHAOS_GOODPUT_FLOOR_PCT:-85}"

echo "== chaos part 1: bench_loadgen overload + fault injection" \
     "(duration ${DURATION_MS}ms/phase, goodput floor ${FLOOR_PCT}%)"
"${LOADGEN}" --chaos=1 --chaos-duration-ms="${DURATION_MS}" \
  --chaos-goodput-floor-pct="${FLOOR_PCT}" --json="${WORK}/chaos.json" \
  || fail "bench_loadgen --chaos=1 reported violations"
grep -q '"breaker_state": "closed"' "${WORK}/chaos.json" \
  || fail "chaos JSON does not record a closed breaker"

echo "== chaos part 2: CLI serve under LIPF_FAULT"
FLAGS=(--dataset=etth1 --scale=0.05 --model=lipformer --input=48
       --horizon=12 --hidden=16 --epochs=1 --batch=32)
"${CLI}" train "${FLAGS[@]}" --seed=7 --save="${WORK}/a.bundle" \
  >"${WORK}/train.log" 2>&1 || fail "training bundle A failed"
"${CLI}" train "${FLAGS[@]}" --seed=8 --save="${WORK}/b.bundle" \
  >>"${WORK}/train.log" 2>&1 || fail "training bundle B failed"

REQ="$(awk 'BEGIN{for(i=0;i<336;i++)printf "%s%.4f",(i?",":""),sin(i/7.0)}')"
printf '%s\n' "${REQ}" >"${WORK}/req.txt"

"${CLI}" serve --load="${WORK}/a.bundle" --requests="${WORK}/req.txt" \
  >"${WORK}/ans_a.txt" 2>"${WORK}/serve.log" || fail "reference serve A failed"
"${CLI}" serve --load="${WORK}/b.bundle" --requests="${WORK}/req.txt" \
  >"${WORK}/ans_b.txt" 2>"${WORK}/serve.log" || fail "reference serve B failed"
ANS_A="$(cat "${WORK}/ans_a.txt")"
ANS_B="$(cat "${WORK}/ans_b.txt")"
[ -n "${ANS_A}" ] && [ "${ANS_A}" != "${ANS_B}" ] \
  || fail "reference bundles unusable (empty or identical predictions)"

wait_for() {
  local deadline=$((SECONDS + $1)); shift
  until "$@" >/dev/null 2>&1; do
    [ "${SECONDS}" -lt "${deadline}" ] || return 1
    sleep 0.05
  done
}
answer_count() { [ "$(wc -l <"${WORK}/answers.txt")" -ge "$1" ]; }
nth_answer() { sed -n "$1p" "${WORK}/answers.txt"; }

# fail_open_at=2: bundle open #1 is the initial --load; #2 is the first
# reload attempt, which must fail without disturbing the serving model.
# watcher_stall_ms stalls every watcher wake; serving must not notice.
cp "${WORK}/a.bundle" "${WORK}/live.bundle"
mkfifo "${WORK}/req.fifo"
LIPF_FAULT="watcher_stall_ms=200,fail_open_at=2" \
  "${CLI}" serve --load="m=${WORK}/live.bundle" --reload-poll-ms=50 \
  --requests="${WORK}/req.fifo" \
  >"${WORK}/answers.txt" 2>"${WORK}/serve.log" &
SERVE_PID=$!
exec 3>"${WORK}/req.fifo"

echo "== serving continues while the watcher is stalled"
printf 'm|%s\n' "${REQ}" >&3
wait_for 20 answer_count 1 || fail "no answer while the watcher was stalled"
[ "$(nth_answer 1)" = "${ANS_A}" ] || fail "answer is not bundle A's"

echo "== injected open failure rejects the reload; old model keeps serving"
cp "${WORK}/b.bundle" "${WORK}/live.bundle.tmp"
mv "${WORK}/live.bundle.tmp" "${WORK}/live.bundle"
wait_for 30 grep -q "registry: reload failed for model 'm'" "${WORK}/serve.log" \
  || fail "injected open fault never failed a reload"
printf 'm|%s\n' "${REQ}" >&3
wait_for 20 answer_count 2 || fail "no answer after the failed reload"
[ "$(nth_answer 2)" = "${ANS_A}" ] \
  || fail "failed reload changed the served predictions"

echo "== next publish reloads cleanly (fault was one-shot)"
cp "${WORK}/b.bundle" "${WORK}/live.bundle.tmp"
mv "${WORK}/live.bundle.tmp" "${WORK}/live.bundle"
wait_for 30 grep -q "registry: reloaded model 'm'" "${WORK}/serve.log" \
  || fail "watcher never reloaded after the one-shot fault"
printf 'm|%s\n' "${REQ}" >&3
wait_for 20 answer_count 3 || fail "no answer after the reload"
[ "$(nth_answer 3)" = "${ANS_B}" ] || fail "post-reload answer is not bundle B's"

echo "== !health reports a closed breaker and the failed reload"
printf '!health\n' >&3
wait_for 20 answer_count 4 || fail "!health produced no answer line"
HEALTH="$(nth_answer 4)"
case "${HEALTH}" in
  "health model=m breaker=closed "*) : ;;
  *) fail "unexpected !health line: ${HEALTH}" ;;
esac
echo "${HEALTH}" | grep -q "reload_failures=1" \
  || fail "!health did not report the failed reload: ${HEALTH}"
echo "${HEALTH}" | grep -q "executed_past_deadline=0" \
  || fail "!health reports executed-past-deadline work: ${HEALTH}"

echo "== EOF drains and exits cleanly"
exec 3>&-
SERVE_RC=0
wait "${SERVE_PID}" || SERVE_RC=$?
SERVE_PID=""
[ "${SERVE_RC}" -eq 0 ] || fail "server exited ${SERVE_RC} on EOF"

echo "== chaos part 3: closing the answer stream must not kill the server"
mkfifo "${WORK}/req2.fifo"
rm -f "${WORK}/epipe.log"
( set +e
  LIPF_FAULT="" "${CLI}" serve --load="m=${WORK}/b.bundle" \
    --requests="${WORK}/req2.fifo" 2>"${WORK}/epipe.log" \
    | head -n 1 >"${WORK}/epipe_first.txt"
  echo "pipeline_rc=${PIPESTATUS[0]}" >>"${WORK}/epipe.log" ) &
PIPE_PID=$!
exec 4>"${WORK}/req2.fifo"
# head exits after the first answer, breaking the server's stdout; a later
# answer hits EPIPE, which must trigger a drain, not a SIGPIPE kill. Keep
# feeding requests until the server reports it (at most 500 lines or 30 s):
# a fixed few answers can all reach the pipe before head exits, and then
# none of their writes fails. Once the server has drained and exited, a
# write to the FIFO fails with EPIPE here too, which ends the feed.
trap '' PIPE
FEED_DEADLINE=$((SECONDS + 30))
for _ in $(seq 500); do
  grep -q "client closed the answer stream" "${WORK}/epipe.log" && break
  [ "${SECONDS}" -lt "${FEED_DEADLINE}" ] || break
  printf 'm|%s\n' "${REQ}" >&4 2>/dev/null || break
  sleep 0.05
done
trap - PIPE
wait_for 30 grep -q "client closed the answer stream" "${WORK}/epipe.log" \
  || { cat "${WORK}/epipe.log" >&2; fail "server never detected EPIPE"; }
exec 4>&-
wait "${PIPE_PID}" || true
grep -q "pipeline_rc=0" "${WORK}/epipe.log" \
  || { cat "${WORK}/epipe.log" >&2; \
       fail "server did not exit 0 after the client closed the stream"; }
[ "$(cat "${WORK}/epipe_first.txt")" = "${ANS_B}" ] \
  || fail "first streamed answer wrong before the stream closed"

echo "== chaos part 4: signals are serviced while stdin is idle"
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
# within_ms MS CMD...: true once CMD succeeds, polled for at most MS ms.
within_ms() {
  local deadline=$(( $(now_ms) + $1 )); shift
  until "$@" >/dev/null 2>&1; do
    [ "$(now_ms)" -lt "${deadline}" ] || return 1
    sleep 0.02
  done
}
idle_answer_count() { [ "$(wc -l <"${WORK}/idle_answers.txt")" -ge "$1" ]; }
mkfifo "${WORK}/idle.fifo"
"${CLI}" serve --load="m=${WORK}/b.bundle" <"${WORK}/idle.fifo" \
  >"${WORK}/idle_answers.txt" 2>"${WORK}/serve.log" &
SERVE_PID=$!
# The writer end stays open and silent: the server sees no EOF, only an
# idle pipe.
exec 5>"${WORK}/idle.fifo"
# One answered request proves the signal handlers are installed.
printf 'm|%s\n' "${REQ}" >&5
wait_for 30 idle_answer_count 1 || fail "no answer on the idle-stdin server"
sleep 0.3

kill -HUP "${SERVE_PID}"
within_ms 1000 grep -q "^registry: 1 model(s)" "${WORK}/serve.log" \
  || fail "SIGHUP on an idle stdin printed no registry dump within 1 s"
printf 'm|%s\n' "${REQ}" >&5
wait_for 20 idle_answer_count 2 || fail "server stopped serving after SIGHUP"
[ "$(sed -n 2p "${WORK}/idle_answers.txt")" = "${ANS_B}" ] \
  || fail "answer after SIGHUP is not bundle B's"
sleep 0.3

# A watchdog kills a server that ignores SIGTERM, so `wait` cannot hang.
TERM_START="$(now_ms)"
kill -TERM "${SERVE_PID}"
( sleep 5; kill -KILL "${SERVE_PID}" ) >/dev/null 2>&1 &
WATCHDOG_PID=$!
SERVE_RC=0
wait "${SERVE_PID}" || SERVE_RC=$?
TERM_MS=$(( $(now_ms) - TERM_START ))
SERVE_PID=""
pkill -P "${WATCHDOG_PID}" 2>/dev/null || true  # its sleep
kill "${WATCHDOG_PID}" 2>/dev/null || true
wait "${WATCHDOG_PID}" 2>/dev/null || true
exec 5>&-
[ "${SERVE_RC}" -eq 0 ] \
  || fail "server exited ${SERVE_RC} after SIGTERM on an idle stdin"
[ "${TERM_MS}" -le 1000 ] \
  || fail "server took ${TERM_MS} ms to exit after SIGTERM on an idle stdin"
echo "   SIGTERM to exit: ${TERM_MS} ms"

echo "== chaos checks passed"
