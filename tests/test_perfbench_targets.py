"""Every function and method that perfbench's tracing replaces must be bound
on its owner itself (``owner.__dict__``, which the tracer reads; inherited
or aliased names do not count), and every counter it reads must fill, so
that a rename in the package fails here rather than in a benchmark run."""

import importlib.util
import pathlib

from triccati import generators, newton_lowrank, riccati_dense

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_exists():
    patches = _load_spans().PATCHES
    assert patches
    missing = ["%s.%s" % (getattr(owner, "__qualname__", owner), attr)
               for owner, attr, *_ in patches if attr not in vars(owner)]
    assert missing == []


def test_every_counter_fills():
    spans = _load_spans()
    dense = generators.generate_ex2_dense(20, seed=0)[0]
    lowrank = generators.generate_ex1_lowrank(100, p=1, q=2, gamma=100, seed=0)[0]
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("bench.solve"):
        riccati_dense.solve_newton(dense, line_search="exact")
        newton_lowrank.solve_inexact_newton(lowrank)
    metrics = tracer.layer_metrics(1, 1)
    assert {k: metrics[k] for k in spans.COUNTERS if not metrics[k] > 0} == {}
    # a space is grown only for a projected solve that uses it
    assert metrics["krylov.basis_dim_max"] == metrics["krylov.reduced_dim_max"]
