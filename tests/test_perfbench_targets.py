"""Every function and method that perfbench's tracing replaces must exist,
so that a rename in the package fails here rather than in a benchmark run."""

import importlib.util
import pathlib

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
               for owner, attr, *_ in patches if not hasattr(owner, attr)]
    assert missing == []
