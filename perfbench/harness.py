"""Run one workload in this process and print its result as one JSON line.

    PYTHONPATH=src python3 perfbench/harness.py --workload solve-small --seed 1 --seconds 4 --trace 0

perfbench/run.py is the entry point: it starts this script in several
processes and turns their summaries into the end-to-end metrics; a
traced run (--trace 1) prints its per-layer metrics itself. One client drives the library as
a closed loop: each op starts when the previous one has returned.
Inputs are generated from the seed before timing. The timed loop runs
whole passes over the inputs, starting another pass while less than
--seconds have gone by, so every pass has the same mix. Each answer is
checked by check.py after its latency has been taken.

An op fails when it raises or its answer misses the reference. The
solve-large cells listed by known_defect fail at the commit that
introduced this benchmark; they count as failures like any other, but
only a failure outside that list marks the run incorrect.
"""

import argparse
import json
import math
import random
import resource
import sys
import time
import warnings

import numpy as np

import extremal_poly as lib
from extremal_poly import cli

import check
from probe import REF_S, Sampler
from spans import NOT_ALL_REAL, TRACED, Tracer

WORKLOADS = ("solve-small", "solve-large", "lemniscate", "verify-deep")
DEEP_CHECKS = (
    "binomial-sum", "cos-product", "sine-product", "pairwise-bound",
    "reference-max-disc", "pinned-values", "duality-roundtrip",
    "multiplier-vs-resultant", "jacobi-vs-resultant", "jacobi-gegenbauer",
    "multiplier-jacobi-connection", "binomial-equality", "boundary-glue",
    "lagrange-stationarity", "degenerate-not-real-rooted",
    "lemniscate-witness", "lemniscate-upper-bound", "energy-equilibrium",
    "arctan-cdf", "oracle-agreement",
)
LARGE_DEGREES = (30, 60, 100, 300, 1000)
LARGE_FRACS = (0.05, 0.5, 0.999, 1.0, 1.01)


def known_defect(kind: str, d: int, frac: float) -> bool:
    """solve-large cells that fail at the commit introducing this
    benchmark: the multiplier root finder refuses or misplaces roots
    (ROADMAP item 1), and at d = 1000 the expanded coefficients overflow
    so the solution's JSON cannot be written (ROADMAP item 2)."""
    multiplier_root_finder = frac < 1.0 and (d >= 60 or frac > 0.99)
    coefficient_overflow = kind == "max_disc" and d >= 1000
    return multiplier_root_finder or coefficient_overflow


class Op:
    """One library call plus the canonical JSON the CLI would print."""

    def __init__(self, kind, args, check_args, may_fail=False):
        self.kind = kind
        self.args = args
        self.check_args = check_args
        self.may_fail = may_fail

    def run(self):
        if self.kind == "max_disc":
            out = lib.solve_max_disc(*self.args)
            cli.canonical_json(cli.solution_to_dict(out))
        elif self.kind == "min_abs":
            out = lib.solve_min_abs(*self.args)
            cli.canonical_json(cli.solution_to_dict(out))
        elif self.kind == "equilibrium":
            out = lib.solve_equilibrium(*self.args)
            cli.canonical_json(cli.config_to_dict(out))
        elif self.kind == "disk":
            out = lib.largest_disk(lib.poly_from_roots(self.args[0]))
            cli.canonical_json(cli.disk_to_dict(out, None))
        else:
            results = lib.run_suite(deep=True)
            out = (results, lib.format_report(results))
        return out

    def describe(self) -> str:
        if self.kind == "disk":
            return "disk(d=%d)" % len(self.args[0])
        return "%s%r" % (self.kind, self.args)

    def verdict(self, out, first_report):
        """None when the answer is right, else the reason."""
        if self.kind in ("max_disc", "min_abs"):
            return check.check_solution(self.kind, *self.check_args, out)
        if self.kind == "equilibrium":
            return check.check_equilibrium(*self.check_args, out)
        if self.kind == "disk":
            return check.check_disk(self.args[0], out)
        return check.check_suite(out[0], out[1], first_report, DEEP_CHECKS)


def _log_m(a: float, d: int, u: float) -> float:
    """log m at the share u of the way from a^d to the crossover, in logs."""
    return d * math.log(a) + u * (d - 1) * math.log(2.0)


def _solve_small(rng):
    """Stratified: every (solver, d) cell gets the same slots, one in ten
    exactly at the crossover, half above it, the rest below."""
    ops = []
    for kind in ("max_disc", "min_abs", "equilibrium"):
        for d in range(2, 9):
            for slot in range(60):
                a = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
                side = 0 if slot % 10 == 0 else (1 if slot % 2 else -1)
                if kind == "min_abs":
                    disc = math.exp(check.crossover_log_disc(a, d) + side * rng.uniform(0.1, 3.0) * d)
                    ops.append(Op(kind, (a, d, disc), (a, d, math.log(disc))))
                    continue
                u = 1.0 if side == 0 else (rng.uniform(1.02, 1.6) if side > 0 else rng.uniform(0.05, 0.98))
                m = math.exp(_log_m(a, d, u))
                if kind == "max_disc":
                    ops.append(Op(kind, (a, d, m), (a, d, math.log(m))))
                else:
                    ops.append(Op(kind, (a, d, -math.log(m) / d), (a, d, math.log(m))))
    rng.shuffle(ops)
    return ops


def _solve_large():
    """The fixed grid in grid order: a seed has nothing to vary here, and
    a fixed order keeps one op's heap from depending on the ops before."""
    ops = []
    for d in LARGE_DEGREES:
        for frac in LARGE_FRACS:
            log_m = frac * (d - 1) * math.log(2.0)
            ops.append(Op("max_disc", (1.0, d, math.exp(log_m)), (1.0, d, log_m), known_defect("max_disc", d, frac)))
            ops.append(Op("equilibrium", (1.0, d, -log_m / d), (1.0, d, log_m), known_defect("equilibrium", d, frac)))
    return ops


def _lemniscate(rng):
    """Per degree: two uniform root sets on [-2, 2], one binomial-family
    member and one boundary member, the latter built here, untimed."""
    ops = []
    for d in (6, 20, 50):
        for _ in range(2):
            roots = sorted(rng.uniform(-2.0, 2.0) for _ in range(d))
            ops.append(Op("disk", (roots,), None))
        for u in (rng.uniform(1.05, 1.5), 1.0):
            a = rng.uniform(0.3, 1.0)
            sol = lib.solve_max_disc(a, d, math.exp(_log_m(a, d, u)))
            ops.append(Op("disk", (list(sol.polys[0].roots),), None))
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int):
    rng = random.Random(seed)
    if workload == "solve-small":
        return _solve_small(rng)
    if workload == "solve-large":
        return _solve_large()
    if workload == "lemniscate":
        return _lemniscate(rng)
    return [Op("suite", (), None)]


class Loop:
    """Timed passes over a fixed op list, with per-op verdicts.

    An op's latency is the CPU time its thread took, taken to the host's
    reference speed by the sampler (probe.py). The library is
    single-threaded compute (BLAS is held to one thread), so on an idle
    host at reference speed this is its wall latency.
    """

    def __init__(self, ops, sampler):
        self.ops = ops
        self.sampler = sampler
        self.rows = []  # per pass: seconds per op at reference speed
        self.ok = [True] * len(ops)  # passed in every pass so far
        self.attempted = 0
        self.exceptions = 0
        self.wrong = 0
        self.unexpected = []
        self.warnings = 0
        self.first_report = None

    def run_pass(self) -> float:
        """Run every op once; return the pass's wall time."""
        clock = time.thread_time  # the process clock turns coarse while the sampler's timer runs
        start = time.perf_counter()
        row = np.empty(len(self.ops))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i, op in enumerate(self.ops):
                mark = self.sampler.mark()
                t0 = clock()
                try:
                    out = op.run()
                    err = None
                except Exception as exc:  # any raise is a failed op, not a crash
                    err = "%s: %s" % (type(exc).__name__, exc)
                row[i] = self.sampler.at_reference(clock() - t0, mark)
                if err is None:
                    err = op.verdict(out, self.first_report)
                    if op.kind == "suite" and self.first_report is None:
                        self.first_report = out[1]
                    self.wrong += err is not None
                else:
                    self.exceptions += 1
                self.ok[i] = self.ok[i] and err is None
                if err is not None and not op.may_fail:
                    self.unexpected.append("%s: %s" % (op.describe(), err))
            self.warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        self.attempted += len(self.ops)
        self.rows.append(row)
        return time.perf_counter() - start

    def run_for(self, seconds: float, after_first=None) -> int:
        """Whole passes, starting another while less than `seconds` of
        wall time has gone by. Returns the pass count."""
        spent = self.run_pass()
        if after_first is not None:
            after_first()
        passes = 1
        while spent < seconds:
            spent += self.run_pass()
            passes += 1
        return passes


def summary(loop: Loop) -> dict:
    """What perfbench/run.py needs to combine this process with the
    others: each op's median time over the passes and whether it passed
    every time, each pass's time, and the peak RSS."""
    rows = np.array(loop.rows)
    factors = [REF_S / p for p in loop.sampler.samples]
    print("host speed vs reference: mean %.3f over %d samples" % (math.fsum(factors) / max(len(factors), 1), len(factors)), file=sys.stderr)
    return {
        "op_s": [float(t) for t in np.median(rows, axis=0)],
        "op_ok": loop.ok,
        "pass_s": [float(t) for t in rows.sum(axis=1)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_names() -> list[str]:
    """Every per-layer metric name, in a fixed order."""
    names = []
    for short, fns in TRACED.items():
        for fn in fns:
            names += ["%s.%s.calls" % (short, fn), "%s.%s.self_ms" % (short, fn)]
    names.append(NOT_ALL_REAL)
    names += ["verification.%s.self_ms" % c for c in DEEP_CHECKS]
    names += ["fail.exception", "fail.wrong_answer", "op.runtime_warnings", "trace.overhead_pct"]
    return names


def per_layer(loop: Loop, tracer: Tracer, passes: int, first_calls: dict, speed: float) -> dict:
    """Per-pass numbers of the traced passes, which follow one untraced
    reference pass. Counts are those of the first traced pass, so they
    repeat exactly for a given seed; span times are wall times taken to
    the reference speed by the host's mean speed over the traced passes."""
    busy = np.array(loop.rows).sum(axis=1)
    untraced = float(busy[0])
    traced = float(np.median(busy[1:]))
    out = {}
    for name in layer_names():
        if name.endswith(".calls"):
            out[name] = {"value": first_calls.get(name[: -len(".calls")], 0), "unit": "count"}
        elif name.endswith(".self_ms"):
            self_s = tracer.self_s.get(name[: -len(".self_ms")], 0.0)
            out[name] = {"value": 1e3 * self_s * speed / passes, "unit": "ms"}
    all_passes = passes + 1
    out[NOT_ALL_REAL] = {"value": tracer.counts[NOT_ALL_REAL] // passes, "unit": "count"}
    out["fail.exception"] = {"value": loop.exceptions // all_passes, "unit": "count"}
    out["fail.wrong_answer"] = {"value": loop.wrong // all_passes, "unit": "count"}
    out["op.runtime_warnings"] = {"value": loop.warnings // all_passes, "unit": "count"}
    out["trace.overhead_pct"] = {"value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problems = check.selftest()
    if problems:
        print("checker self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    ops = make_ops(args.workload, args.seed)
    with Sampler() as sampler:
        Loop([op for op in ops if op.kind != "suite" and not op.may_fail][:20], sampler).run_pass()
        loop = Loop(ops, sampler)
        if args.trace:
            untraced_wall = loop.run_pass()
            tracer = Tracer()
            first_calls = {}
            mark = sampler.mark()
            tracer.install(lib)
            try:
                passes = loop.run_for(args.seconds - untraced_wall, lambda: first_calls.update(tracer.calls))
            finally:
                tracer.uninstall()
            metrics = per_layer(loop, tracer, passes, first_calls, sampler.factor(mark))
        else:
            loop.run_for(args.seconds)
            metrics = summary(loop)

    for line in loop.unexpected[:10]:
        print("unexpected failure: " + line, file=sys.stderr)
    print(json.dumps({
        "correct": not loop.unexpected,
        "attempted": loop.attempted,
        "failed": loop.exceptions + loop.wrong,
        ("metrics" if args.trace else "summary"): metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
