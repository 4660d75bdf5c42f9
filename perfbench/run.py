"""Benchmark entry point for extremal_poly.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run from the repository root. The package is imported from ./src, so
nothing needs installing. Each workload prints a table of its metrics;
the last line of stdout is one JSON object with the correctness
verdict and the end-to-end metrics (--trace 0) or the per-layer
metrics of a traced run (--trace 1). With `--workload all` every
workload runs in turn and the metric names in the JSON are prefixed
with the workload.

setup_s is measured here: the median over fresh interpreters that start
and `import extremal_poly`. The workload runs in child processes
(perfbench/harness.py), so their peak RSS is the workload's own. All
times are taken to a reference host speed (perfbench/probe.py).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("solve-small", "solve-large", "lemniscate", "verify-deep")
SETUP_LAUNCHES = 7
DEADLINE_S = 170
WORKERS = 3


def child_env(hash_seed: int) -> dict:
    """The package from ./src, numpy's BLAS on one thread (the benchmark
    is one client in one thread), and a fixed hash seed, so that the
    layout of sets and dicts is the same in every run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("out of time")
    return left


def measure_setup(deadline: float) -> float:
    """Median seconds for a fresh interpreter to start and import the
    package; each launch samples the host's speed while it imports. One
    untimed launch first fills the bytecode cache."""
    cmd = [sys.executable, os.path.join(HERE, "import_once.py")]
    env = child_env(0)
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=remaining(deadline), stdout=subprocess.DEVNULL)
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=remaining(deadline), stdout=subprocess.PIPE)
        wall = time.perf_counter() - t0
        times.append(wall * float(proc.stdout.decode().strip().splitlines()[-1]))
    return statistics.median(times)


def run_harness(args: list, hash_seed: int, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "harness.py")] + args
    proc = subprocess.run(cmd, env=child_env(hash_seed), cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining(deadline))
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("harness %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def percentile(op_s, op_ok, q: float) -> float:
    """Nearest-rank percentile of per-op times; a failed op ranks above
    every completed op, at no less than the slowest one."""
    done = sorted(t for t, ok in zip(op_s, op_ok) if ok)
    failed = sorted(t for t, ok in zip(op_s, op_ok) if not ok)
    slowest = done[-1] if done else 0.0
    ranked = done + [max(t, slowest) for t in failed]
    return ranked[max(1, math.ceil(q * len(ranked))) - 1]


def end_to_end(parts: list) -> dict:
    """Each op's latency is its median over every pass of every worker;
    ops_per_s counts the ops passed per pass against the median pass."""
    op_s = [statistics.median(times) for times in zip(*(p["summary"]["op_s"] for p in parts))]
    op_ok = [all(oks) for oks in zip(*(p["summary"]["op_ok"] for p in parts))]
    pass_s = [t for p in parts for t in p["summary"]["pass_s"]]
    attempted = sum(p["attempted"] for p in parts)
    passed = attempted - sum(p["failed"] for p in parts)
    return {
        "ops_per_s": {"value": passed / len(pass_s) / statistics.median(pass_s), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * percentile(op_s, op_ok, 0.5), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * percentile(op_s, op_ok, 0.9), "unit": "ms"},
        "pass_ratio": {"value": passed / attempted, "unit": "1"},
        "peak_rss_mb": {"value": max(p["summary"]["peak_rss_mb"] for p in parts), "unit": "MB"},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """A traced run is one process. Otherwise the time is split over
    WORKERS processes, each with its own hash seed and address layout,
    which move a process's speed by up to a fifth."""
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if trace:
        return run_harness(args + ["--seconds", str(seconds)], 0, deadline)
    setup_s = measure_setup(deadline)
    parts = [run_harness(args + ["--seconds", str(seconds / WORKERS)], k + 1, deadline) for k in range(WORKERS)]
    metrics = end_to_end(parts)
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    return {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="extremal_poly benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "extremal_poly", "__init__.py")):
        print("src/extremal_poly not found under %s" % ROOT, file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print("benchmark failed: %s" % exc, file=sys.stderr)
            return 1
        print("%s: correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            print("  %-48s %14.6g %s" % (name, metric["value"], metric["unit"]))
            total["metrics"]["%s.%s" % (workload, name)] = metric
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(result if len(names) == 1 else total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
