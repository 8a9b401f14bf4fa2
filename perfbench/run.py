#!/usr/bin/env python3
"""The repository benchmark. Builds the program from this checkout's
sources, runs one workload and prints its result as the last stdout line.

  python3 perfbench/run.py --workload serve-cli --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --selftest      # the benchmark's own logic
  python3 perfbench/run.py --quick         # every workload, traced and not, in seconds
  python3 perfbench/run.py --report        # every workload once, metric table
  python3 perfbench/run.py --compare A.json B.json

Run it from the root of the checkout. Results, with their fingerprint, are
saved under .bench_results/; traced runs also write a Chrome trace-event
file there that opens in https://ui.perfetto.dev. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
WORK_DIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("serve-cli", "forecast-lib")
# Every timed phase runs its kernels on one thread (perfbench/README.md).
KERNEL_THREADS = 1
# The benchmark's own threads driving each workload.
CLIENT_THREADS = {
    "serve-cli": "cli: 1 sender + 1 reader; twin: 1 sender + 4 waiters",
    "forecast-lib": "edge: 1 caller; bulk: nproc callers",
}
# Fingerprint fields that must match for two results to be compared.
COMPARABLE = ("nproc", "cpu_model", "cpu_flags", "kernel_threads",
              "build_type", "benchmark_digest", "workload", "seconds", "trace")


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def digest(paths):
    """sha256 over the code files under `paths`, in path order."""
    h = hashlib.sha256()
    files = []
    for p in paths:
        full = os.path.join(ROOT, p)
        if os.path.isfile(full):
            files.append(full)
        for d, dirs, names in os.walk(full):
            dirs[:] = sorted(x for x in dirs if not x.startswith("."))
            files.extend(os.path.join(d, n) for n in names)
    for f in sorted(files):
        if f.endswith((".pyc", ".md")):  # documentation does not change results
            continue
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint(workload, seconds, trace):
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                if line.startswith("flags"):
                    have = set(line.split(":", 1)[1].split())
                    flags = [x for x in ("avx2", "avx512f", "avx512_vnni",
                                         "avx512_bf16") if x in have]
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    n = nproc()
    return {
        "nproc": n,
        "cpu_model": model,
        "cpu_flags": flags,
        "kernel_threads": KERNEL_THREADS,
        "server_threads": KERNEL_THREADS if workload == "serve-cli" else 0,
        "client_threads": CLIENT_THREADS.get(workload, ""),
        "build_type": "Release",
        "commit": commit,
        "program_digest": digest(["src", "tools", "CMakeLists.txt"]),
        "benchmark_digest": digest(["perfbench"]),
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "host": platform.node(),
    }


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no program sources here (src/CMakeLists.txt missing); run from "
            "the root of a lipformer checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    out = sys.stderr
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out)
        if r.returncode != 0:
            die("cmake configure failed", 1)
    r = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(nproc()),
                        "--target", "perfbench"], stdout=out, stderr=out)
    if r.returncode != 0:
        die("build failed", 1)
    return os.path.join(BUILD_DIR, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(res, trace, spec):
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(res)
    want = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in want]
    if sorted(names) != sorted(res["metrics"]):
        missing = sorted(set(names) - set(res["metrics"]))
        extra = sorted(set(res["metrics"]) - set(names))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            missing, extra)
    for m in want:
        if res["metrics"][m["name"]]["unit"] != m["unit"]:
            return "unit of %s differs from BENCHMARK.json" % m["name"]
    return None


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (result dict or None, saved record path)."""
    work = os.path.join(WORK_DIR, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    trace_path = os.path.join(RESULTS_DIR, stem + ".trace.json")
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--bin-dir=" + os.path.join(BUILD_DIR, "lipformer", "tools"),
           "--work-dir=" + work]
    if trace:
        cmd.append("--trace-out=" + trace_path)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=170 if seconds <= 30 else 6 * seconds)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = p.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        res = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("perfbench: %s printed no result (exit %d)" % (workload, p.returncode),
              file=sys.stderr)
        return None, None
    fp = fingerprint(workload, seconds, trace)
    record = {"fingerprint": fp, "seed": seed, "result": res,
              "trace_file": trace_path if trace else None,
              "time": time.strftime("%Y-%m-%dT%H:%M:%S")}
    path = os.path.join(RESULTS_DIR, stem + ".json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    if echo:
        print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if p.returncode != 0:
        res["correct"] = False
    return res, path


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    diff = [k for k in COMPARABLE if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    if diff:
        for k in diff:
            print("  %s: %r vs %r" % (k, a["fingerprint"].get(k), b["fingerprint"].get(k)))
        die("refusing to compare results with different fingerprints", 1)
    print("%-36s %14s %14s %8s" % ("metric", "A", "B", "B/A"))
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print("%-36s %14.6g %14.6g %8.3f %s" % (name, ma["value"], mb["value"],
                                                ratio, ma["unit"]))
    print("A commit %s, B commit %s" % (a["fingerprint"]["commit"],
                                        b["fingerprint"]["commit"]))


def table(rows):
    for workload, res in rows:
        print("== %s: correct=%s attempted=%d failed=%d" % (
            workload, res["correct"], res["attempted"], res["failed"]))
        for name, m in res["metrics"].items():
            print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    os.chdir(ROOT)

    if args.compare:
        compare(*args.compare)
        return
    binary = build()
    spec = load_spec() if os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")) else None
    if args.selftest or args.quick:
        if subprocess.run([binary, "--selftest"]).returncode != 0:
            die("selftest failed", 1)
    if args.quick or args.report:
        rows, bad = [], 0
        for trace in ((0, 1) if args.quick else (0,)):
            for w in WORKLOADS:
                seconds = 2 if args.quick else (args.seconds or spec["run_seconds"])
                res, _ = run_one(binary, w, args.seed, seconds, trace, echo=False)
                problem = "no result" if res is None else (
                    check_result(res, trace, spec) if spec else None)
                if res is not None and not res["correct"]:
                    problem = "incorrect output"
                if trace and res is not None:
                    with open(os.path.join(RESULTS_DIR, "%s-seed%d-trace1.trace.json"
                                           % (w, args.seed))) as f:
                        events = len(json.load(f)["traceEvents"])
                    print("%s trace: %d events" % (w, events))
                if problem:
                    print("perfbench: %s trace=%d: %s" % (w, trace, problem),
                          file=sys.stderr)
                    bad += 1
                if res is not None:
                    rows.append(("%s (trace=%d)" % (w, trace), res))
        table(rows)
        sys.exit(1 if bad else 0)
    if args.selftest:
        return
    if args.workload is None or args.seconds is None:
        die("need --workload and --seconds (or --selftest/--quick/--report)")
    res, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        sys.exit(1)
    if spec is not None:
        problem = check_result(res, args.trace, spec)
        if problem:
            die(problem, 1)
    print(json.dumps(res))
    sys.exit(0 if res["correct"] else 1)


if __name__ == "__main__":
    main()
