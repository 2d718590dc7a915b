"""Problem persistence: Matrix Market files plus a tiny JSON manifest.

A saved problem is a directory containing one .mtx file per coefficient
and a manifest listing them by role.  Dense problems store A, B, C, D;
factored problems store A, D (sparse) and the four thin factors B1, B2,
C1, C2.  Sparse matrices round-trip as coordinate files, dense ones as
arrays; the manifest's relative paths keep the directory relocatable.
"""

import json
import pathlib

import numpy as np
import scipy.io
import scipy.sparse as sp

from .lowrank import LowRankTRiccatiProblem, MatrixOperator
from .riccati_dense import TRiccatiProblem

__all__ = ["save_problem", "load_problem"]

_DENSE_ROLES = ("A", "B", "C", "D")
_LOWRANK_ROLES = ("A", "D", "B1", "B2", "C1", "C2")


def _write_matrix(path, M):
    if isinstance(M, MatrixOperator):
        M = M.A  # the wrapped CSC matrix
    if sp.issparse(M):
        scipy.io.mmwrite(str(path), M.tocoo())
    else:
        scipy.io.mmwrite(str(path), np.asarray(M))


def _read_matrix(path):
    M = scipy.io.mmread(str(path))
    if sp.issparse(M):
        return M.tocsr()
    return np.asarray(M, dtype=float)


def save_problem(directory, prob, name="problem"):
    """Write prob's coefficients and a manifest; returns the manifest path."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(prob, LowRankTRiccatiProblem):
        kind = "lowrank"
        roles = _LOWRANK_ROLES
    elif isinstance(prob, TRiccatiProblem):
        kind = "dense"
        roles = _DENSE_ROLES
    else:
        raise TypeError("cannot save %r" % (type(prob),))
    files = {}
    for role in roles:
        fname = "%s_%s.mtx" % (name, role)
        _write_matrix(directory / fname, getattr(prob, role))
        files[role] = fname
    manifest = {"kind": kind, "files": files}
    mpath = directory / ("%s.json" % name)
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return mpath


def load_problem(manifest_path):
    """Rebuild a problem from a manifest written by save_problem."""
    mpath = pathlib.Path(manifest_path)
    with open(mpath) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError("manifest %s is not a JSON object" % mpath)
    kind = manifest.get("kind")
    files = manifest.get("files", {})
    if not isinstance(files, dict):
        raise ValueError("manifest %s: 'files' is not a JSON object" % mpath)
    base = mpath.parent

    def _load(role):
        if role not in files:
            raise ValueError("manifest %s lacks the %r entry" % (mpath, role))
        if not isinstance(files[role], str):
            raise ValueError("manifest %s: the %r entry is not a file name"
                             % (mpath, role))
        return _read_matrix(base / files[role])

    if kind == "dense":
        mats = {r: _load(r) for r in _DENSE_ROLES}
        mats = {r: (m.toarray() if sp.issparse(m) else m)
                for r, m in mats.items()}
        return TRiccatiProblem(**mats)
    if kind == "lowrank":
        mats = {r: _load(r) for r in _LOWRANK_ROLES}
        for r in ("B1", "B2", "C1", "C2"):
            if sp.issparse(mats[r]):
                mats[r] = mats[r].toarray()
        return LowRankTRiccatiProblem(**mats)
    raise ValueError("unknown problem kind %r in %s" % (kind, mpath))
