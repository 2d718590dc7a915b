"""Round-tripping problems through Matrix Market files."""

import json
import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from triccati.generators import generate_admissible_dense, generate_ex1_lowrank
from triccati.lowrank import LowRankTRiccatiProblem
from triccati.mmio import load_problem, save_problem
from triccati.riccati_dense import TRiccatiProblem


class TestDenseRoundTrip:
    def test_values_preserved(self, tmp_path):
        prob = generate_admissible_dense(12, seed=5)
        mpath = save_problem(tmp_path, prob, name="adm")
        assert mpath.name == "adm.json"
        back = load_problem(mpath)
        assert isinstance(back, TRiccatiProblem)
        for role in "ABCD":
            assert np.allclose(getattr(back, role), getattr(prob, role),
                               atol=1e-14)

    def test_manifest_contents(self, tmp_path):
        prob = generate_admissible_dense(6, seed=1)
        mpath = save_problem(tmp_path, prob)
        manifest = json.loads(mpath.read_text())
        assert manifest["kind"] == "dense"
        assert sorted(manifest["files"]) == ["A", "B", "C", "D"]
        for fname in manifest["files"].values():
            assert (tmp_path / fname).exists()


class TestLowRankRoundTrip:
    def test_values_preserved(self, tmp_path):
        prob, _ = generate_ex1_lowrank(36, p=1, q=2, gamma=1e4, seed=7)
        mpath = save_problem(tmp_path, prob, name="lr")
        back = load_problem(mpath)
        assert isinstance(back, LowRankTRiccatiProblem)
        assert sp.issparse(back.A.A) and sp.issparse(back.D.A)
        assert np.max(np.abs((back.A.A - prob.A.A))) < 1e-14
        assert np.max(np.abs((back.D.A - prob.D.A))) < 1e-14
        for role in ("B1", "B2", "C1", "C2"):
            assert np.allclose(getattr(back, role), getattr(prob, role),
                               atol=1e-14)

    def test_coordinate_factor_read_dense(self, tmp_path):
        # a thin factor saved as a coordinate file still loads as an array
        prob, _ = generate_ex1_lowrank(16, p=1, q=2, gamma=1e4, seed=3)
        mpath = save_problem(tmp_path, prob, name="lr")
        scipy.io.mmwrite(str(tmp_path / "lr_B1.mtx"), sp.coo_matrix(prob.B1))
        assert sp.issparse(scipy.io.mmread(str(tmp_path / "lr_B1.mtx")))
        back = load_problem(mpath)
        assert isinstance(back.B1, np.ndarray)
        assert np.allclose(back.B1, prob.B1, rtol=0.0, atol=1e-14)

    def test_relocatable(self, tmp_path):
        # moving the directory keeps the manifest usable (relative paths)
        prob, _ = generate_ex1_lowrank(16, p=1, q=5, gamma=1e4, seed=2)
        src = tmp_path / "orig"
        mpath = save_problem(src, prob, name="x")
        dst = tmp_path / "moved"
        src.rename(dst)
        back = load_problem(dst / "x.json")
        assert back.n == 16


class TestErrors:
    def test_unknown_kind(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "mystery", "files": {}}))
        with pytest.raises(ValueError):
            load_problem(bad)

    def test_missing_role(self, tmp_path):
        prob = generate_admissible_dense(5, seed=0)
        mpath = save_problem(tmp_path, prob)
        manifest = json.loads(mpath.read_text())
        del manifest["files"]["C"]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            load_problem(mpath)

    @pytest.mark.parametrize("manifest", [
        [{"kind": "dense", "files": {}}],
        {"kind": "dense", "files": ["A", "B", "C", "D"]},
        {"kind": "dense",
         "files": {"A": 7, "B": "b.mtx", "C": "c.mtx", "D": "d.mtx"}},
    ], ids=["not-an-object", "files-not-an-object", "entry-not-a-string"])
    def test_malformed_manifest(self, tmp_path, manifest):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            load_problem(bad)

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_problem(tmp_path, object())
