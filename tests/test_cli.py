"""CLI behavior: exit codes, determinism, generation, sweep."""

import configparser
from pathlib import Path

import numpy as np
import pytest

from krymat.cli import main
from krymat.probio import read_matrix_market

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


class TestRun:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_EGADL)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert lines[0] == "m,t,residual_bound,rank"
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "converged = True" in summary

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

    def test_unsupported_bdf_steps_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_EGADL.replace("l = 2", "l = 7"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "l = 7" in err[0]
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

    def test_factor_output(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_EGADL + "\n[output]\nfactors = true\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        z = read_matrix_market(out / "factors" / "node_0005_Z.mtx")
        signs = read_matrix_market(out / "factors" / "node_0005_signs.mtx")
        assert z.shape[0] == 36
        assert z.shape[1] == signs.shape[0]

    def test_run_from_bundle(self, tmp_path):
        assert main(["generate", "laplacian2d", "--out", str(tmp_path / "bundle"),
                     "--seed", "3", "--param", "n0=5", "--param", "p=1"]) == 0
        cfg = write_cfg(tmp_path, f"""\
[run]
method = egadl

[problem]
bundle = {tmp_path / 'bundle'}

[grid]
steps = 8

[solver]
m_max = 15
tol = 1e-8
l = 2
""")
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


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["egadl_laplacian.cfg", "expo_laplacian.cfg",
                                      "galerkin_sylvester.cfg"])
    def test_documented_configs_run(self, tmp_path, name):
        code = main(["run", "--config", str(CONFIG_DIR / name),
                     "--out", str(tmp_path / "out")])
        assert code == 0
