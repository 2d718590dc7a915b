"""Experiment harness and command-line entry points."""

import csv
import io
import json
import pathlib

import numpy as np
import pytest

from triccati.cli import _spec_from_args, build_parser, main
from triccati.reports import Status
from triccati.runner import (
    ProblemSpec,
    build_problem,
    emit_report,
    run_experiment,
)


class TestProblemSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ProblemSpec(family="Ex3Dense")

    def test_file_needs_path(self):
        with pytest.raises(ValueError):
            ProblemSpec(family="File")

    def test_to_dict_drops_unused_path(self):
        d = ProblemSpec(family="Ex2Dense", n=50).to_dict()
        assert "path" not in d
        assert d["family"] == "Ex2Dense" and d["n"] == 50


class TestBuildProblem:
    def test_each_family(self):
        prob, meta = build_problem(ProblemSpec(family="Ex1Dense", n=16))
        assert prob.n == 16 and meta["family"] == "Ex1Dense"
        prob, meta = build_problem(ProblemSpec(family="Ex1LowRank", n=16,
                                               p=1, q=2))
        assert prob.q == 2
        prob, meta = build_problem(ProblemSpec(family="Ex2Dense", n=20))
        assert "X_exact" in meta
        prob, meta = build_problem(ProblemSpec(family="Ex2LowRank", n=150))
        assert prob.n == 150

    def test_file_family(self, tmp_path):
        from triccati.generators import generate_admissible_dense
        from triccati.mmio import save_problem
        mpath = save_problem(tmp_path, generate_admissible_dense(8, seed=1))
        prob, meta = build_problem(ProblemSpec(family="File",
                                               path=str(mpath)))
        assert prob.n == 8 and meta["family"] == "File"


class TestRunExperiment:
    def test_dense_newton_report(self):
        spec = ProblemSpec(family="Ex2Dense", n=60, seed=0)
        run = run_experiment(spec, "newton", {"tol": 1e-12})
        assert run.status is Status.CONVERGED
        d = run.to_dict()
        json.dumps(d)  # fully serializable
        for key in ("spec", "solver", "config", "status", "trace",
                    "wall_time_s", "final_relative_residual", "rhs_norm",
                    "audit", "metadata"):
            assert key in d, key
        assert d["solver"] == "newton"
        assert d["metadata"]["err_rel"] <= 1e-8  # vs the manufactured solution
        assert d["audit"]["b_nonnegative"] is True
        assert d["trace"][0]["k"] >= 1

    def test_determinism_modulo_walltime(self):
        spec = ProblemSpec(family="Ex2Dense", n=40, seed=3)
        a = run_experiment(spec, "newton", {"tol": 1e-12}).to_dict()
        b = run_experiment(spec, "newton", {"tol": 1e-12}).to_dict()
        a.pop("wall_time_s"); b.pop("wall_time_s")
        assert a == b

    def test_callable_config_serializes(self):
        spec = ProblemSpec(family="Ex2LowRank", n=50, seed=0)
        run = run_experiment(spec, "inexact-newton",
                             {"eta_schedule": lambda k: 0.1})
        d = json.loads(emit_report(run, "json"))
        assert isinstance(d["config"]["eta_schedule"], str)
        assert d["config"]["eta_schedule"].endswith("<lambda>")

    def test_audit_skipped_for_large(self):
        spec = ProblemSpec(family="Ex2LowRank", n=300, seed=0)
        run = run_experiment(spec, "inexact-newton", {"eps": 1e-6})
        assert run.audit is None

    def test_lowrank_run(self):
        spec = ProblemSpec(family="Ex2LowRank", n=150, seed=0)
        run = run_experiment(spec, "inexact-newton", {"eps": 1e-8})
        assert run.status is Status.CONVERGED
        rows = run.report.trace_rows()
        assert rows[-1]["rel_res"] <= 1e-8
        assert all("inner_residuals" in r for r in rows)

    def test_solver_failure_contained(self):
        # m_max = 0 forces an inner failure; run_experiment must not raise
        spec = ProblemSpec(family="Ex2LowRank", n=150, seed=1)
        run = run_experiment(spec, "inexact-newton",
                             {"eps": 1e-8, "m_max": 0})
        assert run.status is Status.INNER_SOLVE_FAILED

    def test_rank_cap_overflow_is_a_status(self):
        # the overflowing sweep is recorded; the report describes X_0 = 0
        spec = ProblemSpec(family="Ex2LowRank", n=150, seed=0)
        run = run_experiment(spec, "inexact-newton",
                             {"eps": 1e-10, "rank_cap": 1})
        assert run.status is Status.DIVERGED
        assert len(run.report.iterations) == 1
        assert run.report.rhs_norm == pytest.approx(1.0, rel=1e-12)
        assert np.isfinite(run.report.final_relative_residual)

    def test_unknown_config_key(self):
        # eps, not tol, sets the inexact Newton accuracy
        spec = ProblemSpec(family="Ex2LowRank", n=50, seed=0)
        with pytest.raises(ValueError, match=r"key\(s\): tol \("):
            run_experiment(spec, "inexact-newton", {"tol": 1e-10})
        with pytest.raises(ValueError, match=r"key\(s\): eps \("):
            run_experiment(ProblemSpec(family="Ex2Dense", n=10), "newton",
                           {"eps": 1e-10})
        # the truncation floor is a fixed constant, not a setting
        with pytest.raises(ValueError, match=r"key\(s\): trunc_tol \("):
            run_experiment(spec, "inexact-newton", {"trunc_tol": 1e-12})

    def test_unknown_solver(self):
        spec = ProblemSpec(family="Ex2Dense", n=10)
        with pytest.raises(ValueError):
            run_experiment(spec, "gauss-seidel")

    def test_wrong_problem_kind(self):
        dense = ProblemSpec(family="Ex2Dense", n=10)
        with pytest.raises(ValueError, match=r"'inexact-newton' takes a "
                           r"LowRankTRiccatiProblem, got a TRiccatiProblem"):
            run_experiment(dense, "inexact-newton")
        factored = ProblemSpec(family="Ex2LowRank", n=50)
        for solver in ("newton", "fixed-point"):
            with pytest.raises(ValueError, match=r"'%s' takes a TRiccatiProblem, "
                               r"got a LowRankTRiccatiProblem" % solver):
                run_experiment(factored, solver)


class TestEmitReport:
    def test_csv_rows_match_trace(self, tmp_path):
        spec = ProblemSpec(family="Ex2Dense", n=40, seed=1)
        run = run_experiment(spec, "newton", {"tol": 1e-12})
        text = emit_report(run, fmt="csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(run.report.iterations)
        assert set(rows[0]) == {"k", "res", "rel_res", "lambda",
                                "inner_its", "rank"}
        float(rows[-1]["rel_res"])  # numeric cells

    def test_json_written_to_path(self, tmp_path):
        spec = ProblemSpec(family="Ex2Dense", n=30, seed=0)
        run = run_experiment(spec, "newton", {"tol": 1e-10})
        out = tmp_path / "sub" / "rep.json"
        text = emit_report(run, fmt="json", path=out)
        assert out.exists()
        assert json.loads(out.read_text()) == json.loads(text)

    def test_fixed_point_divergence_contained(self):
        # this family violates the sign hypotheses; the basic iteration
        # overflows and must come back quickly as Diverged, not spin
        spec = ProblemSpec(family="Ex2Dense", n=30, seed=0)
        run = run_experiment(spec, "fixed-point", {"tol": 1e-10})
        assert run.status is Status.DIVERGED
        assert len(run.report.iterations) < 100
        assert run.report.warnings

    def test_diverged_report_is_strict_json(self):
        # RFC 8259 has no Infinity or NaN: non-finite numbers become null
        def reject(name):
            raise ValueError("non-standard JSON constant %s" % name)

        spec = ProblemSpec(family="Ex2Dense", n=30, seed=0)
        run = run_experiment(spec, "fixed-point", {"tol": 1e-10})
        data = json.loads(emit_report(run, fmt="json"),
                          parse_constant=reject)
        assert data["status"] == "Diverged"
        assert data["final_relative_residual"] is None
        assert data["trace"][-1]["res"] is None

    def test_bad_format(self):
        spec = ProblemSpec(family="Ex2Dense", n=10)
        run = run_experiment(spec, "newton", {"tol": 1e-10})
        with pytest.raises(ValueError):
            emit_report(run, fmt="yaml")


class TestCLI:
    def test_solve_dense_exit_zero(self, tmp_path, capsys):
        rc = main(["solve-dense", "--family", "ex2-dense", "--n", "40",
                   "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith(".json")
        data = json.loads(pathlib.Path(printed).read_text())
        assert data["status"] == "Converged"

    def test_solve_dense_stdout_json(self, capsys):
        rc = main(["solve-dense", "--family", "ex2-dense", "--n", "30"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spec"]["family"] == "Ex2Dense"

    def test_exit_code_two_on_failure(self, tmp_path, capsys):
        rc = main(["solve-lowrank", "--family", "ex2-lowrank", "--n", "150",
                   "--max-inner", "0", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "solver error" in err or err == ""  # stagnation is a status

    def test_exit_code_one_on_usage(self, capsys):
        rc = main(["solve-dense"])  # neither --family nor --problem
        assert rc == 1

    def test_bad_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve-dense", "--family", "nope"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["solve-lowrank", "--family", "ex2-lowrank",
                  "--trunc-tol", "1e-10"])
        assert exc.value.code == 1

    def test_malformed_manifest_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(["not", "a", "manifest"]))
        rc = main(["solve-dense", "--problem", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.json" in err

    @pytest.mark.parametrize("family, cmd, solver", [
        ("ex2-dense", "solve-lowrank", "inexact-newton"),
        ("ex2-lowrank", "solve-dense", "newton")])
    def test_wrong_problem_kind_exits_one(self, tmp_path, capsys, family, cmd,
                                          solver):
        rc = main(["generate", "--family", family, "--n", "16",
                   "--out", str(tmp_path)])
        assert rc == 0
        manifest = capsys.readouterr().out.strip()
        for source in (["--family", family, "--n", "16"],
                       ["--problem", manifest]):
            rc = main([cmd] + source)
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "'%s'" % solver in err

    @pytest.mark.parametrize("family", ["ex1-dense", "ex1-lowrank",
                                        "ex2-dense", "ex2-lowrank"])
    def test_empty_problem_exits_one(self, capsys, family):
        cmd = "solve-lowrank" if family.endswith("lowrank") else "solve-dense"
        for argv in ([cmd, "--family", family, "--n", "0"],
                     ["generate", "--family", family, "--n", "0"]):
            rc = main(argv)
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "n=0" in err

    def test_generate_then_solve_file(self, tmp_path, capsys):
        rc = main(["generate", "--family", "ex2-dense", "--n", "25",
                   "--name", "cell", "--out", str(tmp_path)])
        assert rc == 0
        manifest = capsys.readouterr().out.strip()
        rc = main(["solve-dense", "--problem", manifest])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spec"]["family"] == "File"

    def test_q_default_matches_problem_spec(self):
        # a generated factored problem is the one solve-lowrank solves
        parser = build_parser()
        for cmd in ("generate", "solve-dense", "solve-lowrank"):
            args = parser.parse_args([cmd, "--family", "ex2-lowrank"])
            q = _spec_from_args(args).q
            assert q == ProblemSpec(family="Ex2LowRank").q == 1

    @pytest.mark.parametrize("family, reads, unread", [
        ("ex1-dense", {"n": 12, "gamma": 50.0, "seed": 3}, ["p", "q"]),
        ("ex1-lowrank", {"n": 12, "p": 2, "q": 3, "gamma": 50.0, "seed": 3},
         []),
        ("ex2-dense", {"n": 12, "seed": 3}, ["p", "q", "gamma"]),
        ("ex2-lowrank", {"n": 12, "p": 2, "q": 3, "seed": 3}, ["gamma"])])
    def test_problem_flags_a_family_does_not_read(self, capsys, family,
                                                  reads, unread):
        argv = ["generate", "--family", family]
        for flag, value in reads.items():
            argv += ["--" + flag, str(value)]
        spec = _spec_from_args(build_parser().parse_args(argv))
        assert {f: getattr(spec, f) for f in reads} == reads
        name = spec.family
        for flag in unread:
            for cmd in ("generate", "solve-dense", "solve-lowrank"):
                rc = main([cmd, "--family", family, "--n", "8",
                           "--" + flag, "2"])
                assert rc == 1
                err = capsys.readouterr().err
                assert err.startswith("error:")
                assert "--" + flag in err and name in err

    def test_problem_flags_with_a_manifest(self, tmp_path, capsys):
        rc = main(["generate", "--family", "ex2-dense", "--n", "8",
                   "--out", str(tmp_path)])
        assert rc == 0
        manifest = capsys.readouterr().out.strip()
        rc = main(["solve-dense", "--problem", manifest, "--seed", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err
        assert "--problem" in err

    def test_negative_seed_exits_one(self, capsys):
        for argv in (["solve-dense", "--family", "ex2-dense", "--n", "4"],
                     ["generate", "--family", "ex1-lowrank", "--n", "4"]):
            rc = main(argv + ["--seed", "-1"])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "seed=-1" in err

    def test_csv_output(self, tmp_path, capsys):
        rc = main(["solve-dense", "--family", "ex2-dense", "--n", "30",
                   "--format", "csv", "--out", str(tmp_path)])
        assert rc == 0
        path = capsys.readouterr().out.strip()
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and "rel_res" in rows[0]

    def test_bench_smoke(self, tmp_path, capsys):
        rc = main(["bench", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("Converged") == 3
