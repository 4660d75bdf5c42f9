"""Span tracing installed from outside the package.

Tracer.install replaces every extremal_poly.* module attribute that
refers to a listed function with a wrapper that records a span, so call
sites that went through `from .x import f` are covered too. Spans are
aggregated in memory per name (calls, self time); a span's self time is
its duration minus the durations of the spans it directly encloses.
Recursive re-entry of the same function records no new span.
"""

import sys
import time
from collections import defaultdict

TRACED = {
    "jacobi_family": ("solve_multiplier", "constraint_sum", "closed_form_disc", "family_coeffs"),
    "poly_core": (
        "even_odd_structured_roots",
        "poly_from_roots",
        "log_disc_from_roots",
        "log_modulus_at_ai",
        "disc_resultant_oracle",
    ),
    "energy": ("config_from_points", "solve_equilibrium"),
    "binomial_family": ("tangent_lattice_roots",),
    "solvers": ("solve_max_disc", "solve_min_abs", "numeric_oracle_max_disc"),
    "cli": ("canonical_json",),
    "lemniscate": ("largest_disk", "_halfwidth_grid", "_halfwidth"),
    "trig_products": ("pairwise_sin_sq_product",),
}
# every `_check_*` function of the verification module is traced too,
# under the name of the check it reports
CHECK_PREFIX = "_check_"
NOT_ALL_REAL = "poly_core.even_odd_structured_roots.not_all_real"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [name, start, child_seconds]
        self._active = set()
        self._undo = []

    def _wrap(self, name, fn, name_from_result=False, on_result=None):
        stack, active = self._stack, self._active
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if fn in active:
                return fn(*args, **kwargs)
            active.add(fn)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active.discard(fn)
                span = end - frame[1]
                if stack:
                    stack[-1][2] += span
            key = "verification." + result.name if name_from_result else name
            calls[key] += 1
            self_s[key] += span - frame[2]
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the listed functions wherever the package exposes them."""
        modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
        wrappers = {}
        for short, names in TRACED.items():
            mod = getattr(package, short)
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:
                    continue  # function gone in this version: its metrics read 0
                hook = self._count_not_all_real if fname == "even_odd_structured_roots" else None
                wrappers[fn] = self._wrap("%s.%s" % (short, fname), fn, on_result=hook)
        verification = package.verification
        for fname in dir(verification):
            fn = getattr(verification, fname)
            if fname.startswith(CHECK_PREFIX) and callable(fn):
                wrappers[fn] = self._wrap("verification." + fname, fn, name_from_result=True)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def _count_not_all_real(self, result) -> None:
        if not isinstance(result, list):
            self.counts[NOT_ALL_REAL] += 1
