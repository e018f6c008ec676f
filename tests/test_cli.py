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
import scipy.sparse as sp

import krymat
from krymat import cli, dlebdf, dleexp, dsylv, probio, smallmat
from krymat.cli import main
from krymat.errors import (CapExceededError, FactorizationError, IllPosedError,
                           NumericError, StepFailureError)
from krymat.oracle import dense_dle_exact
from krymat.probio import (DLEProblem, GenSylvesterProblem, gen_dle_problem, gen_sylvester_q2,
                           read_matrix_market, save_problem, write_matrix_market)
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
# step of 5e306 asks for 1022 doublings, past the cap (its 2.5e305
# segments once hung the run)
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
        assert not [ln for ln in summary if ln.startswith("trust.eig_cond")]

    def test_warning_prints_as_one_line(self, tmp_path):
        # a zero B is refused by nothing: the run goes on after one line
        save_problem(gen_dle_problem(n0=4, p=1, seed=3), tmp_path / "bundle")
        write_matrix_market(tmp_path / "bundle" / "B.mtx", np.zeros((16, 1)))
        cfg = write_cfg(tmp_path, BUNDLE_EGADL.format(bundle=tmp_path / "bundle"))
        env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
        res = subprocess.run([sys.executable, "-m", "krymat.cli", "run", "--config", str(cfg),
                              "--out", str(tmp_path / "out")],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stderr == "warning: factor B looks rank deficient (columns [0])\n"

    @pytest.mark.parametrize("command", ["run", "generate"])
    def test_warning_made_an_error_exits_1_with_one_line(self, tmp_path, command):
        # a filter that makes the warning an error ends the command like any
        # unexpected error: one line, no traceback
        cfg = write_cfg(tmp_path, SMALL_EGADL.replace("n0 = 6", "n0 = 3"))
        args = {"run": ["--config", str(cfg), "--out", str(tmp_path / "out")],
                "generate": ["laplacian2d", "--out", str(tmp_path / "bundle"),
                             "--param", "n0=3", "--param", "p=2"]}[command]
        env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
        res = subprocess.run([sys.executable, "-W", "error::UserWarning", "-m", "krymat.cli",
                              command, *args], capture_output=True, text=True, env=env)
        assert res.returncode == 1
        assert res.stderr == "error: UserWarning: B is not low rank relative to n (p > n/10)\n"

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

    def test_coordinate_z0_is_read_as_dense(self, tmp_path, capsys):
        # a coordinate-layout Z0.mtx is read like B: a nonzero one is refused
        # by name, a zero one runs
        base = gen_dle_problem(n0=4, p=1, seed=3)
        save_problem(DLEProblem(base.a, base.b, z0=np.zeros((16, 1))), tmp_path / "bundle")
        cfg = write_cfg(tmp_path, BUNDLE_EGADL.format(bundle=tmp_path / "bundle"))
        z0 = tmp_path / "bundle" / "Z0.mtx"
        write_matrix_market(z0, sp.csr_matrix(np.eye(16, 1)))
        assert b"coordinate" in z0.read_bytes()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: egadl assumes X0 = 0\n"
        write_matrix_market(z0, sp.csr_matrix((16, 1)))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0

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
            assert "a step of 5e+306" in capsys.readouterr().err
            assert not (tmp_path / "h").exists()

    def test_expm_overflow_exits_5_with_one_line(self, tmp_path):
        # 50 I - A_1 makes the operator unstable: the exponential of the
        # projected H_m over steps of 25 overflows inside scipy, whose
        # warnings must not reach the user
        base = gen_sylvester_q2(n=30, p=2, seed=1)
        a_list = ((50 * sp.identity(30) - base.a_list[0]).tocsr(), base.a_list[1])
        save_problem(GenSylvesterProblem(a_list, base.b_list, base.c, tf=100.0),
                     tmp_path / "bundle")
        cfg = write_cfg(tmp_path, GALERKIN_BUNDLE.format(bundle=tmp_path / "bundle")
                        + "\n[grid]\nsteps = 4\n\n[solver]\nm_max = 5\n")
        env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
        res = subprocess.run([sys.executable, "-m", "krymat.cli", "run", "--config", str(cfg),
                              "--out", str(tmp_path / "o")], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 5
        assert res.stderr == "error: expm overflowed\n"
        assert not (tmp_path / "o").exists()

    def test_bdf_step_overflow_exits_5_with_one_line(self, tmp_path, capsys):
        # h beta T of a step of 2.5e307 overflows: one error line, no
        # RuntimeWarning, which the suite's filter would make exit 1
        cfg = write_cfg(tmp_path, SMALL_EGADL.replace("tf = 1.0", "tf = 1e308")
                        .replace("steps = 10", "steps = 4"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: implicit BDF step of 2.5e+307 overflows; reduce the step size"]
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("method", ["egadl", "expo", "galerkin"])
    def test_grid_too_large_to_allocate_exits_2(self, tmp_path, capsys, method):
        # 10**15 nodes are petabytes: the allocation is refused at once and
        # touches no memory.  Numpy cannot even size EgAdl's stack at 2**58
        # nodes, nor the nodes past that, and np.arange(2**63 - 1) returns an
        # empty array instead of failing
        for steps in (10**15, 2**58, 2**62, 2**63 - 1, 10**20):
            text = SMALL_EGADL.replace("method = egadl", f"method = {method}")
            text = text.replace("steps = 10", f"steps = {steps}")
            if method == "galerkin":
                text = text.replace("kind = laplacian2d\nn0 = 6", "kind = sylvester-q2\nn = 30")
            cfg = write_cfg(tmp_path, text)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"error: [grid] steps = {steps}: cannot allocate")
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("check", ["egadl", "expo", "galerkin"])
    def test_oracle_check_reference_too_large_exits_2(self, tmp_path, capsys, check):
        # the dense reference is made before the solve: numpy cannot allocate
        # its stack of 10**15 nodes, nor size one of 2**58
        for steps in (10**15, 2**58):
            text = SMALL_EGADL.replace("method = egadl", f"method = oracle-check\ncheck = {check}")
            text = text.replace("steps = 10", f"steps = {steps}")
            if check == "galerkin":
                text = text.replace("kind = laplacian2d\nn0 = 6", "kind = sylvester-q2\nn = 30")
            cfg = write_cfg(tmp_path, text)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"error: [grid] steps = {steps}: cannot allocate the dense "
                           f"reference at {steps + 1} nodes"]
            assert not (tmp_path / "o").exists()

    def test_method_problem_mismatch_exits_2(self, tmp_path):
        bad = SMALL_EGADL.replace("method = egadl", "method = galerkin")
        cfg = write_cfg(tmp_path, bad)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("method", ["egadl", "expo", "galerkin"])
    def test_oracle_check_writes_deviation(self, tmp_path, method):
        # egadl's bound is BDF2's temporal error; expo and galerkin are exact in time
        bound = 1e-2 if method == "egadl" else 1e-6
        cfg_text = SMALL_EGADL.replace("method = egadl",
                                       f"method = oracle-check\ncheck = {method}")
        if method == "galerkin":
            cfg_text = cfg_text.replace("kind = laplacian2d\nn0 = 6",
                                        "kind = sylvester-q2\nn = 30")
        cfg = write_cfg(tmp_path, cfg_text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        dev_line = [ln for ln in summary.splitlines()
                    if ln.startswith("oracle_max_deviation")]
        assert len(dev_line) == 1
        assert float(dev_line[0].split("=")[1]) < bound

    def test_check_without_oracle_check_exits_2(self, tmp_path, capsys):
        # [run] check names the method oracle-check runs; no other method reads it
        cfg = write_cfg(tmp_path, SMALL_EGADL.replace("method = egadl",
                                                      "method = egadl\ncheck = galerkin"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: [run] check = galerkin: only method = oracle-check reads it"]
        assert not (tmp_path / "o").exists()

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

    def test_run_without_factors_removes_an_earlier_runs(self, tmp_path):
        # an n = 36 solution must not stay beside an n = 64 report; a file
        # of another name stays
        text = SMALL_EGADL.replace("method = egadl", "method = expo")
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, text + "\n[output]\nfactors = true\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "factors" / "basis.mtx").exists()
        (out / "factors" / "notes.txt").write_text("kept")
        cfg = write_cfg(tmp_path, text.replace("n0 = 6", "n0 = 8")
                        + "\n[output]\nfactors = false\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "dims.n = 64" in (out / "summary.txt").read_text().splitlines()
        assert {p.name: p.read_bytes() for p in (out / "factors").iterdir()} == {
            "notes.txt": b"kept"}

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


def _exits_2_alone(tmp_path, capsys, cfg, *words):
    """``run`` and ``sweep`` on ``cfg`` exit 2; ``run`` prints one ``error:``
    line holding ``words`` and makes no output directory."""
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert all(word in err[0] for word in words), err
    assert "Traceback" not in err[0] and not (tmp_path / "o").exists()
    assert main(["sweep", "--configs", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert f"{cfg}: exit 2" in capsys.readouterr().out.splitlines()


GALERKIN_BUNDLE = "[run]\nmethod = galerkin\n\n[problem]\nbundle = {bundle}\n"


class TestRefusedInputs:
    """Configs and bundles that a run refuses before any solve: exit 2 with
    one line naming what is wrong, and for a bundle the bundle's manifest."""

    @pytest.mark.parametrize("change,words", [
        (("method = egadl\n", ""), ["[run] must set method"]),
        (("method = egadl", "method = nonsense"), ["unknown method 'nonsense'"]),
        (("kind = laplacian2d\n", ""), ["[problem] needs a kind or a bundle"]),
        (("kind = laplacian2d", "kind = laplace"), ["[problem] kind = laplace"]),
    ], ids=["no method", "unknown method", "no kind", "unknown kind"])
    def test_config(self, tmp_path, capsys, change, words):
        _exits_2_alone(tmp_path, capsys, write_cfg(tmp_path, SMALL_EGADL.replace(*change)),
                       *words)

    @staticmethod
    def _bundle(tmp_path, problem, template):
        bundle = tmp_path / "bundle"
        save_problem(problem, bundle)
        return bundle, write_cfg(tmp_path, template.format(bundle=bundle))

    @pytest.mark.parametrize("damage,words", [
        ("kind", ["unknown problem kind 'nonsense'"]),
        ("no B", ["manifest is missing matrix 'B'"]),
        ("B rows", ["B row count does not match A"]),
        ("A not square", ["expected square"]),
        ("A NaN", ["A has non-finite entries"]),
        ("B inf", ["B has non-finite entries"]),
    ])
    def test_dle_bundle(self, tmp_path, capsys, damage, words):
        problem = gen_dle_problem(n0=4, p=1, seed=3)
        bundle, cfg = self._bundle(tmp_path, problem, BUNDLE_EGADL)
        manifest = bundle / "problem.cfg"
        if damage == "A NaN":
            a = problem.a.copy()
            a.data[0] = np.nan
            write_matrix_market(bundle / "A.mtx", a)
        elif damage == "B inf":
            write_matrix_market(bundle / "B.mtx", np.where(problem.b > 0, np.inf, problem.b))
        elif damage == "kind":
            manifest.write_text(manifest.read_text().replace("kind = dle", "kind = nonsense"))
        elif damage == "no B":
            manifest.write_text(manifest.read_text().replace("b = B.mtx\n", ""))
        elif damage == "B rows":
            write_matrix_market(bundle / "B.mtx", np.ones((17, 1)))
        else:
            write_matrix_market(bundle / "A.mtx", sp.identity(16, format="csr")[:, :15])
        _exits_2_alone(tmp_path, capsys, cfg, str(bundle / "problem.cfg"), *words)

    @pytest.mark.parametrize("damage,words", [
        ("q = 0", ["need equally many A_i and B_i terms, at least one"]),
        ("C shape", ["C must be 6 x 2, got (6, 3)"]),
        ("X0 shape", ["X0 must be 6 x 2, got (5, 2)"]),
        ("A1 NaN", ["A1 has non-finite entries"]),
    ])
    def test_gensylv_bundle(self, tmp_path, capsys, damage, words):
        problem = gen_sylvester_q2(n=6, p=2, seed=1)
        bundle, cfg = self._bundle(tmp_path, problem, GALERKIN_BUNDLE)
        manifest = bundle / "problem.cfg"
        if damage == "A1 NaN":
            a1 = problem.a_list[0].copy()
            a1.data[-1] = np.nan
            write_matrix_market(bundle / "A1.mtx", a1)
        elif damage == "q = 0":
            manifest.write_text(manifest.read_text().replace("q = 2", "q = 0"))
        elif damage == "C shape":
            write_matrix_market(bundle / "C.mtx", np.ones((6, 3)))
        else:
            write_matrix_market(bundle / "X0.mtx", np.ones((5, 2)))
            manifest.write_text(manifest.read_text() + "x0 = X0.mtx\n")
        _exits_2_alone(tmp_path, capsys, cfg, str(bundle / "problem.cfg"), *words)

    # sizes whose row pointers numpy cannot index: refused at the size line,
    # before anything is allocated
    @pytest.mark.parametrize("rows", [2**62, 2**63], ids=["2^62", "2^63"])
    def test_member_too_large_to_index(self, tmp_path, capsys, monkeypatch, rows):
        def allocating(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(probio, "_coordinate_matrix", allocating)
        bundle, cfg = self._bundle(tmp_path, gen_dle_problem(n0=4, p=1, seed=3),
                                   BUNDLE_EGADL)
        (bundle / "A.mtx").write_text("%%MatrixMarket matrix coordinate real general\n"
                                      f"{rows} {rows} 1\n1 1 1.0\n")
        _exits_2_alone(tmp_path, capsys, cfg, str(bundle / "A.mtx"),
                       f"line 2: cannot allocate a {rows} x {rows} matrix")

    def test_member_allocation_failure(self, tmp_path, capsys, monkeypatch):
        # 10^12 rows pass the index check; the 8 TB of row pointers do not
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(probio, "_coordinate_matrix", out_of_memory)
        bundle, cfg = self._bundle(tmp_path, gen_dle_problem(n0=4, p=1, seed=3),
                                   BUNDLE_EGADL)
        (bundle / "A.mtx").write_text("%%MatrixMarket matrix coordinate real general\n"
                                      "1000000000000 1000000000000 1\n1 1 1.0\n")
        _exits_2_alone(tmp_path, capsys, cfg, str(bundle / "A.mtx"), "line 2: cannot "
                       "allocate a 1000000000000 x 1000000000000 matrix")


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
        named = f"{cfg}: " if command == "sweep" else ""
        assert err == [f"error: {named}random-stable with n = 100000000, p = 2: "
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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        # refused before any config runs and before --out is made
        cfg = write_cfg(tmp_path, SMALL_EGADL)
        assert main(["sweep", "--configs", str(cfg), "--out", str(tmp_path / "sweep"),
                     "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: --threads = {threads}: "
                                             "need an integer >= 1"]
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

        def flaky(args, out, err):
            if args.config.endswith("bad.cfg"):
                raise RuntimeError("boom")
            return run(args, out, err)

        monkeypatch.setattr(cli, "cmd_run", flaky)
        bad = write_cfg(tmp_path, SMALL_EGADL, "bad.cfg")
        good = write_cfg(tmp_path, SMALL_EGADL, "good.cfg")
        code = main(["sweep", "--configs", str(bad), str(good),
                     "--out", str(tmp_path / "sweep"), "--threads", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert f"{bad}: exit 1" in captured.out.splitlines()
        assert f"{good}: exit 0" in captured.out.splitlines()
        assert captured.err.splitlines() == [f"error: {bad}: RuntimeError: boom"]

    def test_error_lines_name_their_config_in_config_order(self, tmp_path, capsys):
        # two configs refused on two threads at once: each error line is the
        # one that `run` prints for its config alone, with the config named
        cfgs = [write_cfg(tmp_path, SMALL_EGADL.replace("tol = 1e-8", "tol = -1"), "tol.cfg"),
                write_cfg(tmp_path, SMALL_EGADL.replace("m_max = 20", "m_max = 0"), "m.cfg")]
        assert main(["sweep", "--configs", *map(str, cfgs), "--out", str(tmp_path / "sweep"),
                     "--threads", "2"]) == 2
        swept = capsys.readouterr().err
        alone = []
        for cfg in cfgs:
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 2
            line = capsys.readouterr().err
            assert line.startswith("error: ") and line.count("\n") == 1
            alone.append(f"error: {cfg}: {line.removeprefix('error: ')}")
        assert swept == "".join(alone)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_config_prints_its_warnings_named(self, tmp_path, threads):
        # both configs warn from the same line: each prints its own warning,
        # named, in config order beside its error lines, as the third's error
        text = SMALL_EGADL.replace("n0 = 6", "n0 = 3").replace("steps = 10", "steps = 5")
        text = text.replace("m_max = 20", "m_max = 5")
        cfgs = [write_cfg(tmp_path, text.replace("p = 2", f"p = {p}"), f"p{p}.cfg")
                for p in (2, 3)]
        cfgs.append(write_cfg(tmp_path, text.replace("tol = 1e-8", "tol = -1"), "bad.cfg"))
        env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
        res = subprocess.run([sys.executable, "-m", "krymat.cli", "sweep", "--configs",
                              *map(str, cfgs), "--out", str(tmp_path / "sweep"),
                              "--threads", str(threads)], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 2
        warning = "B is not low rank relative to n (p > n/10)"
        assert res.stderr.splitlines() == [
            f"warning: {cfgs[0]}: {warning}", f"warning: {cfgs[1]}: {warning}",
            f"warning: {cfgs[2]}: {warning}", f"error: {cfgs[2]}: tol = -1.0: need 0 <= tol < inf"]
        # a filter that makes the warning an error still wins
        res = subprocess.run([sys.executable, "-W", "error::UserWarning", "-m", "krymat.cli",
                              "sweep", "--configs", *map(str, cfgs[:2]),
                              "--out", str(tmp_path / "strict"), "--threads", str(threads)],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 1
        assert res.stderr.splitlines() == [f"error: {cfg}: UserWarning: {warning}"
                                           for cfg in cfgs[:2]]

    def test_summaries_print_as_whole_blocks_in_config_order(self, tmp_path, capsys):
        # four configs that finish together on four threads, with a real
        # stdout: each summary is the block that `run` prints for its config
        # alone, in config order, and the exit lines follow
        text = (CONFIG_DIR / "egadl_laplacian.cfg").read_text()
        cfgs = [write_cfg(tmp_path, text.replace("seed = 1", f"seed = {seed}"), f"s{seed}.cfg")
                for seed in range(1, 5)]
        env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
        res = subprocess.run([sys.executable, "-m", "krymat.cli", "sweep", "--configs",
                              *map(str, cfgs), "--out", str(tmp_path / "sweep"),
                              "--threads", "4"], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        alone = []
        for cfg in cfgs:
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
            alone.append(capsys.readouterr().out)
        alone += [f"{cfg}: exit 0\n" for cfg in cfgs]
        wall_time = re.compile(r"^wall_time_s = [0-9.]+$", re.M)
        assert wall_time.sub("wall_time_s", res.stdout) == wall_time.sub("wall_time_s",
                                                                        "".join(alone))


class TestIOFailureExits4:
    """A file a command must read is gone, or a directory it must write is a file."""

    def test_run_on_a_bundle_without_its_b(self, tmp_path, capsys):
        save_problem(gen_dle_problem(n0=4, p=1, seed=3), tmp_path / "bundle")
        (tmp_path / "bundle" / "B.mtx").unlink()
        cfg = write_cfg(tmp_path, BUNDLE_EGADL.format(bundle=tmp_path / "bundle"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "B.mtx" in err[0]
        assert not (tmp_path / "o").exists()

    def test_run_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        cfg = write_cfg(tmp_path, SMALL_EGADL)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "file" / "o")]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_generate_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["generate", "laplacian2d", "--out", str(tmp_path / "file" / "b"),
                     "--param", "n0=4", "--param", "p=1"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_sweep_out_is_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        cfg = write_cfg(tmp_path, SMALL_EGADL)
        assert main(["sweep", "--configs", str(cfg), "--out", str(tmp_path / "file")]) == 4
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert captured.out == ""


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
