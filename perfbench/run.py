#!/usr/bin/env python3
"""Pipeline benchmark: edge list -> hierarchy -> snapshot -> routed reads and
live updates, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds perfbench/pipeline_bench (and the nucleus library it
links) from source into .bench_build/, runs one workload and relays its
output; the last line is the JSON result. BENCHMARK.json lists the workloads
and metrics.

--selftest is the benchmark's own test, at toy size: every workload's emitted
metric names and units must match BENCHMARK.json exactly, counters must
repeat exactly for a fixed seed, every negative control (one answer
corrupted on purpose) must fail its workload, and the benchmark must refuse
to run in a directory that holds only BENCHMARK.json and perfbench/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(CMAKE_BUILD, "pipeline_bench")
RUN_TIMEOUT_S = 170

# Per-layer counters that must repeat exactly for a fixed seed. Queue depth
# and every timing depend on scheduling, so they are left out.
REPEATABLE_COUNTS = [
    "cliques.kr_count", "core.nodes", "core.subnuclei", "core.adj",
    "net.lines_rejected", "router.backend_failures", "router.lines_rejected",
    "registry.loads", "registry.evictions", "live.subcore_visits_per_edit",
    "graph.input_mb", "store.snapshot_mb",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on any failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    configure = ["cmake", "-S", BENCH_DIR, "-B", CMAKE_BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", CMAKE_BUILD, "-j", "4",
                  "--target", "pipeline_bench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return os.path.exists(BINARY)


def run_workload(workload, seed, seconds, trace, extra=(), relay=True):
    """Runs one workload; returns (exit code, stdout text)."""
    work = os.path.join(BUILD_ROOT, "work", "%s-%d" % (workload, os.getpid()))
    traces = os.path.join(BUILD_ROOT, "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", work,
           "--trace-out",
           os.path.join(traces, "%s-seed%s.jsonl" % (workload, seed))]
    cmd += list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired as e:
        code = 124
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        out += "\nperfbench: timed out after %d s\n" % RUN_TIMEOUT_S
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if relay:
        sys.stdout.write(out)
        sys.stdout.flush()
    return code, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        runs = {}
        for trace, seed in ((0, 1), (1, 1), (1, 1)):
            code, out = run_workload(name, seed, 2, trace, ["--toy"],
                                     relay=False)
            result = last_json(out)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0,
                  "%s trace=%d: runs correct with no failures" % (name, trace))
            if result is None:
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace],
                  "%s trace=%d: metric names and units match BENCHMARK.json"
                  % (name, trace))
            runs.setdefault(trace, []).append(result["metrics"])
        if len(runs.get(1, [])) == 2:
            a, b = runs[1]
            same = [k for k in REPEATABLE_COUNTS
                    if a.get(k, {}).get("value") == b.get(k, {}).get("value")]
            check(len(same) == len(REPEATABLE_COUNTS),
                  "%s: counters repeat for a fixed seed (differ: %s)"
                  % (name, sorted(set(REPEATABLE_COUNTS) - set(same))))
        controls = ["probe", "live"]
        if name != "serve_live_update":  # its reads race the writer
            controls.append("transcript")
        for control in controls:
            code, out = run_workload(name, 1, 2, 0,
                                     ["--toy", "--negative-control", control],
                                     relay=False)
            result = last_json(out)
            check(code != 0 and result is not None and not result["correct"]
                  and result["failed"] > 0,
                  "%s: negative control '%s' fails the run" % (name, control))

    # A directory holding only BENCHMARK.json and perfbench/ has no sources
    # to build, so the benchmark must fail without printing a result.
    bare = os.path.join(BUILD_ROOT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    w0 = spec["workloads"][0]["name"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", w0, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=180)
    check(done.returncode != 0 and not done.stdout.strip(),
          "bare directory: fails without printing a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("PASS" if not problems else
                            "FAIL (%d problems)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return selftest()
    code, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
