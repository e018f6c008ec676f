"""CLI behavior: exit codes, determinism, generation, sweep."""

import configparser
import inspect
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import krymat
from krymat import cli, dlebdf, dleexp, dsylv, smallmat
from krymat.cli import main
from krymat.errors import (CapExceededError, FactorizationError, IllPosedError,
                           NumericError, StepFailureError)
from krymat.oracle import dense_dle_exact
from krymat.probio import (DLEProblem, gen_dle_problem, gen_sylvester_q2, read_matrix_market,
                           save_problem)
from krymat.solution import LowRankSolution, TimeGrid

from conftest import deadline, refuse_basis_allocation

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL_EGADL = """\
[run]
method = egadl

[problem]
kind = laplacian2d
n0 = 6
p = 2
seed = 1

[grid]
t0 = 0.0
tf = 1.0
steps = 10

[solver]
m_max = 20
tol = 1e-8
l = 2
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


BUNDLE_EGADL = """\
[run]
method = egadl

[problem]
bundle = {bundle}

[grid]
steps = 8

[solver]
m_max = 15
tol = 1e-8
l = 2
"""


# expo on a random-stable A whose projected T_5 takes the Van Loan path: a
# step of 5e306 needs 2.5e305 segments, which once hung the run
HUGE_HORIZON_EXPO = """\
[run]
method = expo

[problem]
kind = random-stable
n = 150
p = 2
density = 0.05
seed = 1

[grid]
t0 = 0.0
tf = 1e308
steps = 20

[solver]
m_max = 30
tol = 1e-8
"""


def _record_solution(monkeypatch, module, name):
    """The solutions the run's solver returns, in a list that fills as it runs."""
    solver, solved = getattr(module, name), []

    def recording(*args, **kwargs):
        solution, report = solver(*args, **kwargs)
        solved.append(solution)
        return solution, report

    monkeypatch.setattr(module, name, recording)
    return solved


class TestRun:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_EGADL)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert lines[0] == "m,t,residual_bound,rank"
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert "converged = True" in summary
        assert "trust.small_form = eigen" in summary
        assert len([ln for ln in summary if ln.startswith("trust.eig_cond = ")]) == 1

    def test_unreachable_tolerance_exits_3_with_history(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_EGADL.replace("tol = 1e-8", "tol = 0"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        report = (tmp_path / "out" / "report.csv").read_text()
        assert len(report.splitlines()) > 1

    def test_csv_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_EGADL)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "report.csv").read_bytes()
        b = (tmp_path / "b" / "report.csv").read_bytes()
        assert a == b

    def test_bad_config_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "[run]\nmethod = nonsense\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        cfg2 = write_cfg(tmp_path, "[problem]\nkind = laplacian2d\n", "no_run.cfg")
        assert main(["run", "--config", str(cfg2)]) == 2
        assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
        # non-finite horizons: tf itself, and tf - t0 past the largest float
        for horizon in ("t0 = 0.0\ntf = inf", "t0 = -1e308\ntf = 1e308"):
            text = SMALL_EGADL.replace("t0 = 0.0\ntf = 1.0", horizon)
            cfg3 = write_cfg(tmp_path, text, "horizon.cfg")
            assert main(["run", "--config", str(cfg3), "--out", str(tmp_path / "o")]) == 2

    def test_unsupported_bdf_steps_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_EGADL.replace("l = 2", "l = 7"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "l = 7" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method,setting", [
        ("egadl", "m_max = 0"),
        ("egadl", "m_max = abc"),
        ("egadl", "tol = x"),
        ("egadl", "tol = nan"),
        ("expo", "factor_tol = 1.5"),
        ("expo", "variant = bogus"),
        ("egadl", "[output]\nfactors = maybe"),
    ])
    def test_bad_solver_setting_exits_2(self, tmp_path, capsys, method, setting):
        key = setting.split(" = ")[0].split("\n")[-1]
        lines = SMALL_EGADL.replace("method = egadl", f"method = {method}").splitlines()
        text = "\n".join([ln for ln in lines if not ln.startswith(f"{key} =")] + [setting])
        cfg = write_cfg(tmp_path, text + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp_path / "o").exists()

    def test_malformed_config_file_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_EGADL + "m_max = 5\n")     # duplicate key
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        cfg = write_cfg(tmp_path, "method = egadl\n" + SMALL_EGADL)  # no header
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all(ln.startswith("error:") for ln in err)

    def test_expo_with_initial_value_exits_2(self, tmp_path, capsys):
        # EgAdl refuses X0 as well: its Galerkin ansatz on the B-seeded basis
        # cannot carry Z0 Z0^T apart from B B^T
        problem = gen_dle_problem(n0=5, p=1, seed=1)
        problem = DLEProblem(problem.a, problem.b, z0=np.ones((25, 1)))
        save_problem(problem, tmp_path / "bundle")
        for method in ("expo", "egadl"):
            cfg = write_cfg(tmp_path, f"""\
[run]
method = {method}

[problem]
bundle = {tmp_path / 'bundle'}
""")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "X0" in err[0]
            assert not (tmp_path / "o").exists()

    def test_misspelt_problem_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_EGADL.replace("n0 = 6", "n_0 = 6"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "n_0" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,line", [
        ("problem", "n0 = 50"),
        ("problem", "seed = 4"),
        ("problem", "kind = laplacian2d"),
        ("grid", "t0 = 0.5"),
        ("grid", "tf = 3.0"),
    ])
    def test_bundle_with_other_problem_keys_exits_2(self, tmp_path, capsys, section, line):
        # a bundle carries its own problem and horizon
        bundle = tmp_path / "bundle"
        save_problem(gen_dle_problem(n0=4, p=1, seed=3, tf=0.5), bundle)
        text = SMALL_EGADL.replace("kind = laplacian2d\nn0 = 6\np = 2\nseed = 1\n",
                                   f"bundle = {bundle}\n")
        text = text.replace("t0 = 0.0\ntf = 1.0\n", "")
        assert main(["run", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(tmp_path / "ok")]) == 0
        cfg = write_cfg(tmp_path, text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        key = line.split(" = ")[0]
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,line", [
        ("solver", "tolerance = 1e-3"),
        ("solver", "probe_stride = 2"),
        ("run", "outdir = elsewhere"),
        ("grid", "step = 5"),
        ("output", "factor = true"),
    ])
    def test_unknown_key_exits_2(self, tmp_path, capsys, section, line):
        text = SMALL_EGADL + "\n[output]\n"
        cfg = write_cfg(tmp_path, text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        key = line.split(" = ")[0]
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"[{section}]" in err[0] and key in err[0]
        assert ("no method reads it" in err[0]) == (section == "solver")
        assert not (tmp_path / "o").exists()

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_EGADL.replace("[solver]", "[solvr]"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "[solvr]" in err[0]

    @pytest.mark.parametrize("error", [NumericError, StepFailureError, IllPosedError,
                                       FactorizationError, CapExceededError])
    def test_solver_failure_exits_5(self, tmp_path, capsys, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error("the step at t = 0.1 failed")

        monkeypatch.setattr(dlebdf, "egadl_solve", failing)
        cfg = write_cfg(tmp_path, SMALL_EGADL)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: the step at t = 0.1 failed"]
        assert not (tmp_path / "o").exists()
        if error is NumericError:
            # the same exit from a real NumericError: a horizon no Van Loan
            # accumulation can reach
            cfg = write_cfg(tmp_path, HUGE_HORIZON_EXPO, "huge.cfg")
            with deadline(60):
                code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "h")])
            assert code == 5
            assert "segments" in capsys.readouterr().err
            assert not (tmp_path / "h").exists()

    def test_failure_on_the_solve_worker_exits_5(self, tmp_path, capsys, monkeypatch):
        # EgAdl's rank column is the only eigvalsh of its solve, on the worker
        def failing(*args, **kwargs):
            raise NumericError("eigvalsh did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        cfg = write_cfg(tmp_path, SMALL_EGADL)
        before = threading.active_count()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
        assert threading.active_count() == before
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: eigvalsh did not converge"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method", ["egadl", "expo", "galerkin"])
    def test_basis_allocation_failure_exits_2(self, tmp_path, capsys, monkeypatch, method):
        text = SMALL_EGADL.replace("method = egadl", f"method = {method}")
        if method == "galerkin":
            text = text.replace("kind = laplacian2d\nn0 = 6", "kind = sylvester-q2\nn = 30")
        cfg = write_cfg(tmp_path, text)
        refuse_basis_allocation(monkeypatch)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: m_max = 20: cannot allocate the Krylov basis")
        assert not (tmp_path / "o").exists()

    def test_method_problem_mismatch_exits_2(self, tmp_path):
        bad = SMALL_EGADL.replace("method = egadl", "method = galerkin")
        cfg = write_cfg(tmp_path, bad)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_oracle_check_writes_deviation(self, tmp_path):
        cfg_text = SMALL_EGADL.replace("method = egadl",
                                       "method = oracle-check\ncheck = egadl")
        cfg = write_cfg(tmp_path, cfg_text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        dev_line = [ln for ln in summary.splitlines()
                    if ln.startswith("oracle_max_deviation")]
        assert len(dev_line) == 1
        assert float(dev_line[0].split("=")[1]) < 1e-2

    def test_oracle_check_above_dense_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(smallmat, "DENSE_CAP", 20)      # n = 36 is above it
        cfg_text = SMALL_EGADL.replace("method = egadl",
                                       "method = oracle-check\ncheck = egadl")
        cfg = write_cfg(tmp_path, cfg_text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "dense cap" in err[0]
        assert not (tmp_path / "o").exists()

    def test_factor_output(self, tmp_path, monkeypatch):
        # the saved factors reload to the solver's own, bit for bit, and
        # assemble to the dense exact solution within each method's oracle
        # tolerance (egadl's is BDF2's temporal error)
        exact = dense_dle_exact(gen_dle_problem(n0=6, p=2, seed=1), TimeGrid(0.0, 1.0, 10))
        for method, module, name, tol in (("egadl", dlebdf, "egadl_solve", 1e-2),
                                          ("expo", dleexp, "expo_dle_solve", 1e-6)):
            solved = _record_solution(monkeypatch, module, name)
            text = SMALL_EGADL.replace("method = egadl", f"method = {method}")
            cfg = write_cfg(tmp_path, text + "\n[output]\nfactors = true\n")
            out = tmp_path / method
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            solution = solved[0]
            loaded = LowRankSolution.load(out / "factors")
            assert loaded.grid == solution.grid
            for k in range(solution.grid.nnodes):
                (z, signs), (z_mem, signs_mem) = loaded.factor(k), solution.factor(k)
                assert z.tobytes() == z_mem.tobytes() and z.shape == (36, signs.size)
                assert signs.tobytes() == signs_mem.tobytes()
                assert np.linalg.norm((z * signs) @ z.T - exact[k]) <= tol

    def test_factor_output_reproducible_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_EGADL.replace("method = egadl", "method = expo")
                        + "\n[output]\nfactors = true\n")
        files = []
        for out in (tmp_path / "one", tmp_path / "two"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            files.append({p.name: p.read_bytes() for p in (out / "factors").iterdir()})
        assert files[0] == files[1]
        assert len(files[0]) == 2 + 2 * 11        # basis, manifest, z and signs per node

    def test_factor_output_replaces_a_longer_run(self, tmp_path):
        # a 4-step run into the directory of a 10-step run leaves no node of
        # the first run; a file of another name stays
        text = (CONFIG_DIR / "expo_laplacian.cfg").read_text() + "\n[output]\nfactors = true\n"
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        cfg = write_cfg(tmp_path, text.replace("steps = 20", "steps = 10"))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(list((out / "factors").glob("node_*"))) == 2 * 11
        (out / "factors" / "notes.txt").write_text("kept")
        cfg = write_cfg(tmp_path, text.replace("steps = 20", "steps = 4"))
        for d in (out, fresh):
            assert main(["run", "--config", str(cfg), "--out", str(d)]) == 0
        files = {p.name: p.read_bytes() for p in (out / "factors").iterdir()}
        assert files.pop("notes.txt") == b"kept"
        assert len(files) == 12
        assert files == {p.name: p.read_bytes() for p in (fresh / "factors").iterdir()}
        loaded = LowRankSolution.load(out / "factors")
        assert loaded.grid.steps == 4 and len(loaded.factors) == 5

    def test_galerkin_factor_output_is_the_snapshots(self, tmp_path, monkeypatch):
        solved = _record_solution(monkeypatch, dsylv, "galerkin_solve")
        text = SMALL_EGADL.replace("method = egadl", "method = galerkin").replace(
            "kind = laplacian2d\nn0 = 6", "kind = sylvester-q2\nn = 20")
        cfg = write_cfg(tmp_path, text + "\n[output]\nfactors = true\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for k in range(11):
            x = read_matrix_market(out / "factors" / f"node_{k:04d}_X.mtx")
            assert x.tobytes() == solved[0].snapshot(k).tobytes()

    def test_seed_on_bundle_exits_2(self, tmp_path, capsys):
        # a bundle's B is fixed, so a --seed could only be dropped
        save_problem(gen_dle_problem(n0=4, p=1, seed=3), tmp_path / "bundle")
        cfg = write_cfg(tmp_path, BUNDLE_EGADL.format(bundle=tmp_path / "bundle"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--seed", "4",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--seed" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("damage", ["no q", "not INI"])
    def test_bad_bundle_manifest_exits_2(self, tmp_path, capsys, damage):
        bundle = tmp_path / "bundle"
        save_problem(gen_sylvester_q2(n=6, p=2, seed=1), bundle)
        manifest = bundle / "problem.cfg"
        text = manifest.read_text()
        assert "q = 2\n" in text
        manifest.write_text(text.replace("q = 2\n", "") if damage == "no q"
                            else "kind = gensylv\n" + text)
        cfg = write_cfg(tmp_path, f"[run]\nmethod = galerkin\n\n[problem]\nbundle = {bundle}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "problem.cfg" in err[0]
        assert not (tmp_path / "o").exists()

    def test_run_from_bundle(self, tmp_path):
        assert main(["generate", "laplacian2d", "--out", str(tmp_path / "bundle"),
                     "--seed", "3", "--param", "n0=5", "--param", "p=1"]) == 0
        cfg = write_cfg(tmp_path, BUNDLE_EGADL.format(bundle=tmp_path / "bundle"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestGenerate:
    # n0=4 with p=2 legitimately trips the p > n/10 advisory
    @pytest.mark.filterwarnings("ignore:B is not low rank")
    def test_laplacian_bundle_counts(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["generate", "laplacian2d", "--out", str(out),
                     "--seed", "1", "--param", "n0=4", "--param", "p=2"]) == 0
        a = read_matrix_market(out / "A.mtx")
        assert a.shape == (16, 16)
        offdiag = a.nnz - 16
        # 5-point stencil on a 4 x 4 grid: 2 * 2 * n0 * (n0 - 1) couplings
        assert offdiag == 48
        manifest = configparser.ConfigParser()
        manifest.read(out / "problem.cfg")
        assert manifest["problem"]["kind"] == "dle"

    def test_random_stable_reproducible_bytes(self, tmp_path):
        for sub in ("one", "two"):
            assert main(["generate", "random-stable", "--out", str(tmp_path / sub),
                         "--seed", "7", "--param", "n=50"]) == 0
        a = (tmp_path / "one" / "A.mtx").read_bytes()
        b = (tmp_path / "two" / "A.mtx").read_bytes()
        assert a == b

    def test_sylvester_manifest_members(self, tmp_path):
        out = tmp_path / "syl"
        assert main(["generate", "sylvester-q2", "--out", str(out),
                     "--param", "n=40", "--param", "p=3"]) == 0
        manifest = configparser.ConfigParser()
        manifest.read(out / "problem.cfg")
        assert set(manifest["matrices"]) == {"a1", "a2", "b1", "b2", "c"}

    def test_bad_params_exit_2(self, tmp_path):
        assert main(["generate", "laplacian2d", "--out", str(tmp_path / "x"),
                     "--param", "bogus=1"]) == 2
        assert main(["generate", "laplacian2d", "--out", str(tmp_path / "y"),
                     "--param", "n0"]) == 2

    @pytest.mark.parametrize("command,change,key", [
        ("generate", ["--param", "p=abc"], "p"),
        ("generate", ["--param", "t0=abc"], "t0"),
        ("generate", ["--param", "seed=x1"], "seed"),
        ("generate", ["--seed", "-4"], "seed"),
        ("run", ("n0 = 6", "n0 = five"), "n0"),
        ("run", ("seed = 1", "seed = -2"), "seed"),
        ("run", ("steps = 10", "steps = abc"), "steps"),
    ])
    def test_refused_value_names_its_key(self, tmp_path, capsys, command, change, key):
        out = tmp_path / "x"
        if command == "generate":
            argv = ["generate", "laplacian2d", "--out", str(out), *change]
        else:
            cfg = write_cfg(tmp_path, SMALL_EGADL.replace(*change))
            argv = ["run", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and f"{key} = " in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("kind,param", [
        ("sylvester-q2", "p=0"), ("sylvester-q2", "n=0"), ("random-stable", "n=0"),
        ("random-stable", "p=0"), ("laplacian2d", "p=0"), ("laplacian2d", "p=-2"),
    ])
    def test_size_below_one_exits_2(self, tmp_path, capsys, kind, param):
        out = tmp_path / "x"
        assert main(["generate", kind, "--out", str(out), "--param", param]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        key = param.split("=")[0]
        assert len(err) == 1 and err[0].startswith("error:") and f"need {key} >= 1" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("kind,params", [
        ("laplacian2d", ["n0=6", "tf=inf"]), ("laplacian2d", ["n0=6", "t0=nan"]),
        ("random-stable", ["n=20", "t0=-1e308", "tf=1e308"]),
        ("sylvester-q2", ["n=20", "tf=inf"]),
    ])
    def test_non_finite_horizon_exits_2(self, tmp_path, capsys, kind, params):
        out = tmp_path / "x"
        args = [arg for param in params for arg in ("--param", param)]
        assert main(["generate", kind, "--out", str(out), *args]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: need finite t0, tf and tf - t0")
        assert not out.exists()

    @pytest.mark.parametrize("density", ["-1", "0", "1.5", "nan"])
    def test_density_outside_unit_interval_exits_2(self, tmp_path, capsys, density):
        out = tmp_path / "x"
        assert main(["generate", "random-stable", "--out", str(out),
                     "--param", "n=20", "--param", f"density={density}"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "density" in err[0]
        assert not out.exists()

    # density 0.1 at n = 10^8 asks for 10^15 random indices: numpy refuses the
    # 7.11 PiB array at once, so nothing is allocated
    @pytest.mark.parametrize("command", ["generate", "run", "sweep"])
    def test_unallocatable_problem_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        cfg = write_cfg(tmp_path, SMALL_EGADL.replace("kind = laplacian2d\nn0 = 6",
                                                      "kind = random-stable\nn = 100000000"))
        argv = {"generate": ["generate", "random-stable", "--out", str(out),
                             "--param", "n=100000000", "--param", "p=2"],
                "run": ["run", "--config", str(cfg), "--out", str(out)],
                "sweep": ["sweep", "--configs", str(cfg), "--out", str(out)]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: random-stable with n = 100000000, p = 2: "
                       "cannot allocate the problem"]
        assert not (out / "run").exists() if command == "sweep" else not out.exists()

    def test_seed_option_wins_over_seed_param(self, tmp_path):
        for sub, extra in (("plain", []), ("both", ["--param", "seed=2"])):
            assert main(["generate", "laplacian2d", "--out", str(tmp_path / sub),
                         "--seed", "1", "--param", "n0=6", *extra]) == 0
        for name in ("A.mtx", "B.mtx", "problem.cfg"):
            assert ((tmp_path / "both" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())


class TestSweep:
    def test_parallel_runs(self, tmp_path):
        cfg1 = write_cfg(tmp_path, SMALL_EGADL, "one.cfg")
        cfg2 = write_cfg(tmp_path, SMALL_EGADL.replace("seed = 1", "seed = 2"),
                         "two.cfg")
        code = main(["sweep", "--configs", str(cfg1), str(cfg2),
                     "--out", str(tmp_path / "sweep"), "--threads", "2"])
        assert code == 0
        assert (tmp_path / "sweep" / "one" / "report.csv").exists()
        assert (tmp_path / "sweep" / "two" / "report.csv").exists()


    def test_parallel_runs_write_the_sequential_reports(self, tmp_path):
        # two solves, each with its own worker thread, side by side
        cfgs = [write_cfg(tmp_path, SMALL_EGADL, "one.cfg"),
                write_cfg(tmp_path, SMALL_EGADL.replace("seed = 1", "seed = 2")
                          .replace("l = 2", "l = 3"), "two.cfg")]
        assert main(["sweep", "--configs", *map(str, cfgs), "--out", str(tmp_path / "sweep"),
                     "--threads", "2"]) == 0
        for cfg in cfgs:
            out = tmp_path / "seq" / cfg.stem
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            assert ((tmp_path / "sweep" / cfg.stem / "report.csv").read_bytes()
                    == (out / "report.csv").read_bytes())

    def test_bad_config_does_not_sink_the_others(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, SMALL_EGADL.replace("m_max = 20", "m_max = 0"),
                        "bad.cfg")
        good = write_cfg(tmp_path, SMALL_EGADL, "good.cfg")
        code = main(["sweep", "--configs", str(bad), str(good),
                     "--out", str(tmp_path / "sweep")])
        assert code == 2
        out = capsys.readouterr().out.splitlines()
        assert f"{bad}: exit 2" in out and f"{good}: exit 0" in out
        assert (tmp_path / "sweep" / "good" / "report.csv").exists()

    def test_configs_with_one_output_name_exit_2(self, tmp_path, capsys):
        # a/run.cfg and b/run.cfg would both write sweep/run
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write_cfg(tmp_path / "a", SMALL_EGADL)
        second = write_cfg(tmp_path / "b", SMALL_EGADL.replace("seed = 1", "seed = 2"))
        other = write_cfg(tmp_path, SMALL_EGADL, "other.cfg")
        code = main(["sweep", "--configs", str(first), str(other), str(second),
                     "--out", str(tmp_path / "sweep"), "--threads", "2"])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(first) in err[0] and str(second) in err[0] and str(other) not in err[0]
        assert captured.out == ""
        assert not (tmp_path / "sweep").exists()

    def test_seed_fails_only_the_bundle_configs(self, tmp_path, capsys):
        save_problem(gen_dle_problem(n0=4, p=1, seed=3), tmp_path / "bundle")
        bundle = write_cfg(tmp_path, BUNDLE_EGADL.format(bundle=tmp_path / "bundle"),
                           "bundle.cfg")
        generated = write_cfg(tmp_path, SMALL_EGADL, "generated.cfg")
        code = main(["sweep", "--configs", str(bundle), str(generated), "--seed", "4",
                     "--out", str(tmp_path / "sweep")])
        assert code == 2
        captured = capsys.readouterr()
        assert f"{bundle}: exit 2" in captured.out.splitlines()
        assert f"{generated}: exit 0" in captured.out.splitlines()
        assert "--seed" in captured.err
        assert not (tmp_path / "sweep" / "bundle").exists()
        assert (tmp_path / "sweep" / "generated" / "report.csv").exists()

    def test_solver_failure_is_exit_5_per_config(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise StepFailureError("implicit BDF step is ill posed")

        monkeypatch.setattr(dlebdf, "egadl_solve", failing)
        bad = write_cfg(tmp_path, SMALL_EGADL, "bad.cfg")
        good = write_cfg(tmp_path, SMALL_EGADL.replace("method = egadl", "method = expo"),
                         "good.cfg")
        code = main(["sweep", "--configs", str(bad), str(good),
                     "--out", str(tmp_path / "sweep")])
        assert code == 5
        out = capsys.readouterr().out.splitlines()
        assert f"{bad}: exit 5" in out and f"{good}: exit 0" in out

    def test_unexpected_error_is_reported_per_config(self, tmp_path, capsys,
                                                     monkeypatch):
        run = cli.cmd_run

        def flaky(args):
            if args.config.endswith("bad.cfg"):
                raise RuntimeError("boom")
            return run(args)

        monkeypatch.setattr(cli, "cmd_run", flaky)
        bad = write_cfg(tmp_path, SMALL_EGADL, "bad.cfg")
        good = write_cfg(tmp_path, SMALL_EGADL, "good.cfg")
        code = main(["sweep", "--configs", str(bad), str(good),
                     "--out", str(tmp_path / "sweep"), "--threads", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert f"{bad}: exit 1" in captured.out.splitlines()
        assert f"{good}: exit 0" in captured.out.splitlines()
        assert "RuntimeError: boom" in captured.err


class TestSolverCallContract:
    """A run calls the method's solver as a module attribute, looked up when
    the run starts, with (problem, grid, m_max, tol) positional and every
    other setting as a keyword, defaults included.  The benchmark times the
    solve and checks the solution through a wrapper installed there."""

    @pytest.mark.parametrize("method,module,name,keywords", [
        ("egadl", dlebdf, "egadl_solve", {"l", "factor_tol"}),
        ("expo", dleexp, "expo_dle_solve", {"variant", "factor_tol"}),
        ("galerkin", dsylv, "galerkin_solve", set()),
    ], ids=["egadl", "expo", "galerkin"])
    def test_wrapper_on_the_module_is_called(self, tmp_path, monkeypatch,
                                             method, module, name, keywords):
        calls = []
        solver = getattr(module, name)

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return solver(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        text = SMALL_EGADL.replace("method = egadl", f"method = {method}")
        if method == "galerkin":
            text = text.replace("kind = laplacian2d\nn0 = 6", "kind = sylvester-q2\nn = 20")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        args, kwargs = calls[0]
        assert len(args) == 4 and set(kwargs) == keywords
        assert isinstance(args[1], TimeGrid) and args[2:] == (20, 1e-8)


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["egadl_laplacian.cfg", "expo_laplacian.cfg",
                                      "galerkin_sylvester.cfg", "README.md"])
    def test_documented_configs_run(self, tmp_path, name):
        path = CONFIG_DIR / name
        if name == "README.md":
            # the README's annotated example, so that it cannot go stale
            text = (CONFIG_DIR.parent / name).read_text()
            path = write_cfg(tmp_path, text.split("```ini\n", 1)[1].split("```", 1)[0])
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0

    @pytest.mark.parametrize("value", ["abc", "1"])
    def test_environment_does_not_change_a_run(self, tmp_path, value):
        # the dense cap is a constant: a KRYMAT_DENSE_CAP left in the
        # environment, malformed or far too small, changes nothing
        path = str(CONFIG_DIR / "egadl_laplacian.cfg")
        assert main(["run", "--config", path, "--out", str(tmp_path / "plain")]) == 0
        env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"),
                   KRYMAT_DENSE_CAP=value)
        res = subprocess.run([sys.executable, "-m", "krymat.cli", "run", "--config", path,
                              "--out", str(tmp_path / "env")],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert ((tmp_path / "env" / "report.csv").read_bytes()
                == (tmp_path / "plain" / "report.csv").read_bytes())


def _documented_keys(text, keys):
    """The `key` (default) pairs of a README cell or sentence, each default
    parsed with the type ``keys`` gives its key."""
    pairs = dict(re.findall(r"`(\w+)` \(([^)]*)\)", text))
    assert set(pairs) == set(keys)
    return {key: keys[key][0](default) for key, default in pairs.items()}


class TestMethodTable:
    def test_readme_table_matches_solvers(self):
        # the README's method table, so that it cannot go stale
        lines = (CONFIG_DIR.parent / "README.md").read_text().splitlines()
        start = lines.index("| method | solver | problem | reference | other `[solver]` keys |")
        rows = {}
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            method, solver, _, reference, keys = (c.strip() for c in line.strip("|").split("|"))
            rows[method.strip("`")] = (solver.strip("`"), reference.strip("`"), keys)
        assert set(rows) == set(cli.SOLVERS)
        for method, (solver, reference, keys) in rows.items():
            entry = cli.SOLVERS[method]
            assert solver == f"{entry.module.__name__.rsplit('.', 1)[1]}.{entry.solver}"
            assert reference == entry.reference.__name__
            assert _documented_keys(keys, entry.keys) == {
                key: default for key, (_, default) in entry.keys.items()}
        common = next(line for line in lines if "every method also reads" in line)
        assert _documented_keys(common, cli._COMMON) == {
            key: default for key, (_, default) in cli._COMMON.items()}

    @pytest.mark.parametrize("method", list(cli.SOLVERS))
    def test_solver_signature_matches_the_table(self, method):
        # a solver keyword without a [solver] key, or a default that drifted
        # from the table's, fails here
        entry = cli.SOLVERS[method]
        params = list(inspect.signature(getattr(entry.module, entry.solver)).parameters.values())
        assert [p.name for p in params[:4]] == ["problem", "grid", *cli._COMMON]
        assert [(p.name, p.default) for p in params[4:]] == [
            (key, default) for key, (_, default) in entry.keys.items()]

    def test_readme_exports_resolve(self):
        # every name the README's exports paragraph gives is reachable from
        # krymat, so that a removed or renamed export cannot linger there
        text = (CONFIG_DIR.parent / "README.md").read_text()
        start = text.index("The building blocks are exported too")
        names = re.findall(r"`([^`]+)`", text[start:text.index("\n\n", start)])
        assert "lyap_solve" in names
        for name in names:
            obj = krymat
            for part in name.split("."):
                assert hasattr(obj, part), f"README names `{name}`, which krymat lacks"
                obj = getattr(obj, part)
