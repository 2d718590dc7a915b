"""Spans around the calls into each triccati module, recorded from outside.

The package is not changed: its functions and methods are replaced, for the
duration of a traced run, by wrappers that open a span on entry and close it
on return.  A name bound with ``from .x import f`` lives in the importing
module too, so each such binding is replaced where it is looked up (for
example ``newton_lowrank.lr_truncate`` as well as ``lowrank.lr_truncate``).

Spans are held in memory as [name, start, end, parent] and written out once,
when the run ends.  A span's self time is its duration minus the durations
of its direct children, so the self times under one root add up to the
root's duration exactly.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from triccati import generators, krylov, lowrank, newton_lowrank, riccati_dense, tsylv_dense

_clock = time.perf_counter


def _cols(Y):
    return Y.shape[1] if Y.ndim == 2 else 1


# after-call notes: (args, result) -> (counter name, value); how a counter
# adds up is set in COUNTERS
def _note_order(args, result):
    return "tsylv_dense.order_max", args[0].n


def _note_op_cols(args, result):
    return "lowrank.op_solve_cols", _cols(result)


def _note_basis(args, result):
    return "krylov.basis_dim_max", args[0].built_dim


def _note_reduced(args, result):
    return "krylov.reduced_dim_max", args[0].T.shape[0]


def _note_rank(args, result):
    return "newton_lowrank.rank_max", result[0].rank


def _lu_pending(args):
    return args[0]._lu is None


# (owner, attribute, span name, note after the call, condition on the call)
PATCHES = [
    (generators, "spectral_radius", "dense_core.spectral_radius", None, None),
    (tsylv_dense.TSylvSolver, "__init__", "tsylv_dense.factor", _note_order, None),
    (tsylv_dense.TSylvSolver, "solve", "tsylv_dense.solve", None, None),
    (riccati_dense, "solve_newton", "riccati_dense.newton", None, None),
    (riccati_dense, "residual", "riccati_dense.residual", None, None),
    (riccati_dense, "line_search_poly", "riccati_dense.line_search", None, None),
    (riccati_dense, "minimize_quartic", "riccati_dense.line_search", None, None),
    (newton_lowrank, "minimize_quartic", "riccati_dense.line_search", None, None),
    (lowrank.MatrixOperator, "_factor", "lowrank.lu", None, _lu_pending),
    (lowrank.MatrixOperator, "solve", "lowrank.op_solve", _note_op_cols, None),
    (lowrank.MatrixOperator, "solve_t", "lowrank.op_solve", _note_op_cols, None),
    # the SMW correction; its base solve is the nested MatrixOperator span
    (lowrank.ShiftedOperator, "solve", "lowrank.op_solve", None, None),
    (lowrank.ShiftedOperator, "solve_t", "lowrank.op_solve", None, None),
    (lowrank.ShiftedOperator, "__init__", "lowrank.shift_setup", None, None),
    (lowrank, "lr_truncate", "lowrank.truncate", None, None),
    (newton_lowrank, "lr_truncate", "lowrank.truncate", None, None),
    (lowrank, "lr_frobenius_norm", "lowrank.norm", None, None),
    (newton_lowrank, "lr_frobenius_norm", "lowrank.norm", None, None),
    (krylov, "lr_frobenius_norm", "lowrank.norm", None, None),
    (lowrank, "lr_inner_product", "lowrank.norm", None, None),
    (newton_lowrank, "lr_inner_product", "lowrank.norm", None, None),
    (lowrank, "lr_riccati_residual", "lowrank.residual", None, None),
    (newton_lowrank, "lr_riccati_residual", "lowrank.residual", None, None),
    (lowrank, "lr_step_and_Lresidual", "lowrank.residual", None, None),
    (newton_lowrank, "lr_step_and_Lresidual", "lowrank.residual", None, None),
    (krylov, "solve_tsylv_krylov", "krylov.solve", None, None),
    (newton_lowrank, "solve_tsylv_krylov", "krylov.solve", None, None),
    (krylov.ExtendedKrylovTSylv, "__init__", "krylov.seed", None, None),
    (krylov.ExtendedKrylovTSylv, "stage", "krylov.stage", _note_basis, None),
    (krylov.ExtendedKrylovTSylv, "solve_reduced", "krylov.reduced", _note_reduced, None),
    (krylov.ExtendedKrylovTSylv, "residual_norm", "krylov.residual_norm", None, None),
    (krylov.ExtendedKrylovTSylv, "absorb", "krylov.absorb", None, None),
    (krylov.ExtendedKrylovTSylv, "extract", "krylov.extract", None, None),
    (newton_lowrank, "solve_inexact_newton", "newton_lowrank.newton", _note_rank, None),
    (newton_lowrank, "nonnegativity_monitor", "newton_lowrank.monitor", None, None),
    # called once per candidate step, halvings included
    (newton_lowrank, "decrease_condition_check", "newton_lowrank.step_trial", None, None),
]

MODULES = ["tsylv_dense", "riccati_dense", "lowrank", "krylov", "newton_lowrank"]

# per-layer metric -> (span name, what): "self" is self seconds per round,
# "calls" calls per round; counters come from the notes above
SPAN_METRICS = {
    "tsylv_dense.factor_s": ("tsylv_dense.factor", "self"),
    "tsylv_dense.factor_calls": ("tsylv_dense.factor", "calls"),
    "tsylv_dense.solve_s": ("tsylv_dense.solve", "self"),
    "tsylv_dense.solve_calls": ("tsylv_dense.solve", "calls"),
    "riccati_dense.residual_s": ("riccati_dense.residual", "self"),
    "riccati_dense.line_search_s": ("riccati_dense.line_search", "self"),
    "riccati_dense.newton_self_s": ("riccati_dense.newton", "self"),
    "lowrank.lu_s": ("lowrank.lu", "self"),
    "lowrank.shift_setup_s": ("lowrank.shift_setup", "self"),
    "lowrank.op_solve_s": ("lowrank.op_solve", "self"),
    "lowrank.truncate_s": ("lowrank.truncate", "self"),
    "lowrank.truncate_calls": ("lowrank.truncate", "calls"),
    "lowrank.norm_s": ("lowrank.norm", "self"),
    "lowrank.residual_s": ("lowrank.residual", "self"),
    "krylov.solve_s": ("krylov.solve", "self"),
    "krylov.seed_s": ("krylov.seed", "self"),
    "krylov.stage_s": ("krylov.stage", "self"),
    "krylov.reduced_s": ("krylov.reduced", "self"),
    "krylov.residual_norm_s": ("krylov.residual_norm", "self"),
    "krylov.absorb_s": ("krylov.absorb", "self"),
    "krylov.extract_s": ("krylov.extract", "self"),
    "krylov.expansions": ("krylov.stage", "calls"),
    "newton_lowrank.self_s": ("newton_lowrank.newton", "self"),
    "newton_lowrank.monitor_s": ("newton_lowrank.monitor", "self"),
    "newton_lowrank.step_trials": ("newton_lowrank.step_trial", "calls"),
}
# counter -> "sum" (reported per round) or "max" (largest value seen)
COUNTERS = {"tsylv_dense.order_max": "max", "lowrank.op_solve_cols": "sum",
            "krylov.basis_dim_max": "max", "krylov.reduced_dim_max": "max",
            "newton_lowrank.rank_max": "max"}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    @contextmanager
    def span(self, name):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent])
        i = len(self.spans) - 1
        self._stack.append(i)
        return i

    def _close(self, i):
        self.spans[i][2] = _clock()
        self._stack.pop()

    def _count(self, key, value):
        if COUNTERS[key] == "sum":
            self.counters[key] += value
        else:
            self.counters[key] = max(self.counters[key], value)

    def _wrap(self, fn, name, note, when):
        tracer = self

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if note is not None:
                tracer._count(*note(args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every binding in PATCHES by its traced wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, note, when in PATCHES:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, note, when))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self):
        """Self seconds of every span, in span order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def roots(self):
        """Index of the root span above each span."""
        root = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def summary(self, root_name):
        """calls, total and self seconds by span name, over spans under roots named root_name."""
        own = self.self_times()
        roots = self.roots()
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), s, r in zip(self.spans, own, roots):
            if self.spans[r][0] != root_name:
                continue
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += s
        return dict(out)

    def layer_metrics(self, rounds, setups):
        """Per-layer figures of a traced run, per round of solves.

        bench.solve_s is the traced wall time of a round; the module self
        times plus bench.unattributed_s add up to it.
        """
        solve = self.summary("bench.solve")
        setup = self.summary("bench.setup")
        m = {}
        for key, (name, what) in SPAN_METRICS.items():
            agg = solve.get(name, {"calls": 0, "self_s": 0.0})
            m[key] = agg["calls" if what == "calls" else "self_s"] / rounds
        for key, kind in COUNTERS.items():
            m[key] = self.counters[key] / (rounds if kind == "sum" else 1)
        sr = setup.get("dense_core.spectral_radius", {"self_s": 0.0})
        m["dense_core.spectral_radius_s"] = sr["self_s"] / setups
        modules = dict.fromkeys(MODULES, 0.0)
        for name, agg in solve.items():
            module = name.split(".")[0]
            if module in modules:
                modules[module] += agg["self_s"]
        for module, s in modules.items():
            m[module + ".module_self_s"] = s / rounds
        m["bench.solve_s"] = solve["bench.solve"]["total_s"] / rounds
        m["bench.unattributed_s"] = solve["bench.solve"]["self_s"] / rounds
        attributed = sum(modules.values()) + solve["bench.solve"]["self_s"]
        total = solve["bench.solve"]["total_s"]
        if abs(attributed - total) > 1e-9 * max(total, 1.0):
            raise RuntimeError("self times add up to %.9f s, not %.9f s" % (attributed, total))
        return m

    def write(self, path):
        """Write every span (name, start, end, parent; times from the first span) as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows,
                       "by_name": self.summary("bench.solve")}, f)
