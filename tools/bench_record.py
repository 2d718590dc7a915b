"""Time a parent revision against this checkout with perfbench and record it.

    python tools/bench_record.py --workload dense-newton --parent HEAD~1 [--pairs 10]

Extracts the parent revision with ``git archive`` into a temporary
directory, then runs ``perfbench/run.py`` of that tree and of the checkout
holding this script (working tree, uncommitted changes included) as
subprocesses, with the benchmark's settings (its default seed, and the
run length ``run_seconds`` of BENCHMARK.json): --pairs untraced process
pairs, the side that runs first alternating from pair to pair, then one
``--trace 1`` run per tree.  Nothing from ``perfbench/`` is imported; each
run is read from the JSON object on the last line of its standard output.

For every end-to-end metric the entry holds each side's median, quartiles
and raw values, and the number of pairs in which the change read better
(and worse; ties count for neither), the direction taken from
BENCHMARK.json.  It also holds both traced runs' per-layer metrics, each
run's correctness counts, both trees' git HEADs (the checkout's with the
paths it changes since HEAD and a SHA-256 of its ``src/`` files, so the
tree that ran can be told apart from its HEAD), the Python, numpy, scipy
and BLAS versions, the BLAS thread count and the core count.  The entry is
appended to the JSON list in ``BENCH_<workload>.json`` at the repo root.

BLAS runs on one thread, as ``perfbench/run.py`` defaults to, unless
OPENBLAS_NUM_THREADS is set; the value is passed to every run and recorded.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 1800


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.rstrip("\n")


def extract(rev, into):
    """Write the files of revision rev under the directory into."""
    archive = os.path.join(into, "tree.tar")
    with open(archive, "wb") as f:
        subprocess.run(["git", "-C", ROOT, "archive", rev], check=True, stdout=f)
    tree = os.path.join(into, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return tree


def src_digest(tree):
    """SHA-256 prefix of every file under tree/src, paths and bytes, in path order."""
    h = hashlib.sha256()
    src = os.path.join(tree, "src")
    paths = sorted(os.path.join(d, f) for d, _, fs in os.walk(src) for f in fs
                   if "__pycache__" not in d)
    for p in paths:
        h.update(os.path.relpath(p, src).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_bench(tree, workload, seconds, trace, env):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                         timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("bench_record.py: %s exited with %d"
                         % (" ".join(cmd), out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def environment(threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads, "cpus": os.cpu_count()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    return args


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    changed = git("status", "--porcelain", "--untracked-files=no")
    trees = {
        "parent": {"head": git("rev-parse", args.parent + "^{commit}")},
        "change": {"head": git("rev-parse", "HEAD"),
                   "changed_paths": [line[3:] for line in changed.splitlines()],
                   "src_sha256": src_digest(ROOT)},
    }
    runs = {"parent": [], "change": []}
    traced = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"parent": extract(trees["parent"]["head"], tmp), "change": ROOT}
        trees["parent"]["src_sha256"] = src_digest(paths["parent"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(paths[side], args.workload,
                                            seconds, 0, env))
                print("pair %d %s: %s" % (i, side, runs[side][-1]["metrics"]),
                      file=sys.stderr, flush=True)
        for side in ("parent", "change"):
            traced[side] = run_bench(paths[side], args.workload, seconds, 1, env)

    end_to_end = {}
    for name in runs["parent"][0]["metrics"]:
        p = [r["metrics"][name] for r in runs["parent"]]
        c = [r["metrics"][name] for r in runs["change"]]
        sign = 1.0 if better[name] == "lower" else -1.0
        end_to_end[name] = {
            "better": better[name],
            "parent": summary(p), "change": summary(c),
            "pairs_won": sum(sign * (a - b) > 0 for a, b in zip(p, c)),
            "pairs_lost": sum(sign * (a - b) < 0 for a, b in zip(p, c)),
        }
    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload, "seconds": seconds,
        "pairs": args.pairs, "environment": environment(threads), "trees": trees,
        "end_to_end": end_to_end,
        "per_layer": {side: traced[side]["metrics"] for side in traced},
        "checks": {side: [{k: r[k] for k in ("correct", "attempted", "failed")}
                          for r in runs[side] + [traced[side]]] for side in runs},
    }
    path = os.path.join(ROOT, "BENCH_%s.json" % args.workload)
    entries = []
    if os.path.exists(path):
        with open(path) as f:
            entries = json.load(f)
    entries.append(entry)
    with open(path, "w") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")
    for name, m in end_to_end.items():
        print("%-18s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  won %d/%d"
              % (name, m["parent"]["median"], m["parent"]["q1"], m["parent"]["q3"],
                 m["change"]["median"], m["change"]["q1"], m["change"]["q3"],
                 m["pairs_won"], args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
