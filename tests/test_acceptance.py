"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success) and enforces its stated tolerance.  Fixtures are seeded, so every
number here is reproducible.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from krymat.blockmat import BlockRow, diamond, global_qr, kron_apply
from krymat.dlebdf import (bdf_coefficients, bdf_integrate, egadl_solve, residual_bound_bdf,
                          residual_bound_exp)
from krymat.dleexp import apriori_error_bound, expo_dle_solve, gram_trajectory, lognorm2_operator
from krymat.dsylv import galerkin_solve, integrate_projected, project_rhs, residual_norm
from krymat.egarnoldi import ExtendedGlobalArnoldi
from krymat.garnoldi import GlobalArnoldi
from krymat.oracle import dense_dle_exact, dense_dme_solve
from krymat.probio import (DLEProblem, LinearSolver, gen_dle_problem,
                           gen_sylvester_q2, gsylv_apply, random_full_rank)
from krymat.smallmat import small_form
from krymat.solution import TimeGrid

from conftest import (bdf_derivatives, bdf_step, dense_dle_bdf, explicit_kron_apply,
                      random_block_row, rect_hessenberg, stable_sparse, stable_sym, vanloan_gram)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# the CLI subprocesses import the same krymat as the tests: this checkout's src
CLI_ENV = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))


def _verdict(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{name} {status}: {detail}")
    return ok


def test_ac1_block_algebra_laws():
    """AC-1: 1000 randomized trials of the product rules and the two norm
    identities, 1e-12 relative."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        width = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        a = random_block_row(rng, n, m, width)
        b = random_block_row(rng, n, m, width)
        c = random_block_row(rng, n, l, width)
        d = rng.standard_normal((n, n))
        l_mat = rng.standard_normal((l, l))
        alpha = float(rng.standard_normal())
        na, nb, nc = (np.linalg.norm(x.data) for x in (a, b, c))

        def rel(err, scale):
            return err / max(scale, 1e-300)

        ab = BlockRow(a.data + b.data, width)
        worst = max(worst, rel(
            np.linalg.norm(diamond(ab, c) - diamond(a, c) - diamond(b, c)),
            (na + nb) * nc))
        worst = max(worst, rel(
            np.linalg.norm(diamond(c, ab) - diamond(c, a) - diamond(c, b)),
            (na + nb) * nc))
        worst = max(worst, rel(
            np.linalg.norm(diamond(BlockRow(alpha * a.data, width), b)
                           - alpha * diamond(a, b)), abs(alpha) * na * nb))
        worst = max(worst, rel(
            np.linalg.norm(diamond(a, b).T - diamond(b, a)), na * nb))
        worst = max(worst, rel(
            np.linalg.norm(diamond(BlockRow(d @ a.data, width), b)
                           - diamond(a, BlockRow(d.T @ b.data, width))),
            np.linalg.norm(d) * na * nb))
        worst = max(worst, rel(
            np.linalg.norm(diamond(a, BlockRow(explicit_kron_apply(c, l_mat), width))
                           - diamond(a, c) @ l_mat),
            na * nc * np.linalg.norm(l_mat)))
        # || A^T diamond B ||_F <= ||A||_F ||B||_F
        worst = max(worst, (np.linalg.norm(diamond(a, b)) - na * nb) / (na * nb))
        # norm identities on an orthonormalized block row
        q, _, deficient = global_qr(random_block_row(rng, n + m * width, m, width))
        if not deficient:
            z = rng.standard_normal((m, int(rng.integers(1, 4))))
            nz = np.linalg.norm(z)
            worst = max(worst, rel(
                abs(np.linalg.norm(kron_apply(q, z).data) - nz), nz))
            g = rng.standard_normal((m * width, 2))
            worst = max(worst,
                        (np.linalg.norm(q.data @ g) - np.linalg.norm(g))
                        / np.linalg.norm(g))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    assert _verdict("AC-1", ok, f"worst relative defect {worst:.2e}, {elapsed:.2f}s")


def test_ac2_arnoldi_relations():
    """AC-2: global and extended Arnoldi relations on 50 random operators."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_orth = 0.0
    for trial in range(50):
        n = int(rng.integers(10, 61))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9))
        # global process on a two-term operator
        prob = gen_sylvester_q2(n, p, seed=trial)
        op = lambda x: gsylv_apply(prob, x)
        seed_blk = rng.standard_normal((n, p))
        proc = GlobalArnoldi(op, seed_blk, m)
        mm = proc.advance_to(m)
        basis = proc.basis()
        vm, hm, coupling = proc.projection(mm)
        htilde = rect_hessenberg(hm, coupling)
        applied = np.hstack([op(vm.block(j)) for j in range(mm)])
        tol = 1e-11 * (1 + np.linalg.norm(htilde))
        tail = np.zeros_like(applied)
        if basis.m > mm:
            err1 = np.linalg.norm(applied - kron_apply(basis, htilde).data)
            tail[:, (mm - 1) * p:] = coupling[0, 0] * basis.block(mm)
        else:
            # lucky breakdown at the last step: the htilde last row is zero
            err1 = np.linalg.norm(applied - kron_apply(vm, hm).data)
        err2 = np.linalg.norm(applied - kron_apply(vm, hm).data - tail)
        worst_rel = max(worst_rel, err1 / tol, err2 / tol)
        worst_orth = max(worst_orth, basis.orth_defect() / (1e-12 * max(basis.m, 1)))

        # extended process on a sparse stable operator; on early truncation
        # the relations are checked for the clean prefix
        a = stable_sparse(n, rng)
        b = rng.standard_normal((n, p))
        eproc = ExtendedGlobalArnoldi(a, LinearSolver(a), b, m)
        me = eproc.advance_to(m)
        if me == 0:
            continue
        sub = eproc.sub_basis(2 * me + 2)
        # the recurrence's T_m and T_{m+1,m}: after a breakdown projection(me)
        # projects directly onto every retained sub-block instead
        tm, t_sub = eproc.hessenberg(me)
        ttilde = rect_hessenberg(tm, t_sub)
        etol = 1e-11 * (1 + np.linalg.norm(ttilde))
        av = a @ sub.narrow(2 * me).data
        err3 = np.linalg.norm(av - kron_apply(sub, ttilde).data)
        tail_cols = np.zeros((2 * me + 2, 2 * me))
        tail_cols[2 * me:, 2 * me - 2:] = t_sub
        err4 = np.linalg.norm(av - kron_apply(sub.narrow(2 * me), tm).data
                              - kron_apply(sub, tail_cols).data)
        worst_rel = max(worst_rel, err3 / etol, err4 / etol)
        worst_orth = max(worst_orth, sub.orth_defect() / (1e-12 * sub.m))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1.0 and worst_orth <= 1.0 and elapsed < 30.0
    assert _verdict("AC-2", ok,
                    f"relation defect {worst_rel:.3f}x tol, orthonormality "
                    f"{worst_orth:.3f}x tol, {elapsed:.2f}s")


def test_ac3_galerkin_exactness_and_residual_formula():
    """AC-3: full-subspace equivalence with the Kronecker oracle and the
    closed-form residual norm, 20 random instances with n p <= 60."""
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    shapes = [(6, 3), (10, 2), (12, 1), (20, 3), (15, 2), (30, 1), (8, 2),
              (20, 2), (10, 3), (25, 2)]
    worst_dev = 0.0
    worst_resgap = 0.0
    for trial in range(20):
        n, p = shapes[trial % len(shapes)]
        prob = gen_sylvester_q2(n, p, seed=1000 + trial)
        grid = TimeGrid(0.0, 1.0, 10)
        sol, rep = galerkin_solve(prob, grid, m_max=n * p, tol=0.0)
        ref = dense_dme_solve(prob, grid)
        dev = max(np.linalg.norm(sol.snapshot(k) - ref[k])
                  for k in range(grid.nnodes))
        worst_dev = max(worst_dev, dev)

        # truncated subspace: closed-form residual against the dense residual
        r0 = -prob.c
        m_t = 4
        proc = GlobalArnoldi(lambda x: gsylv_apply(prob, x), r0, m_t)
        vm, hm, coupling = proc.projection(proc.advance_to(m_t))
        cm = project_rhs(vm, r0)
        samples = integrate_projected(hm, cm, None, grid)
        for k in range(grid.nnodes):
            y = samples[k]
            xm = kron_apply(vm, y[:, None]).data
            xdot = kron_apply(vm, (hm @ y + cm)[:, None]).data
            dense = np.linalg.norm(xdot - gsylv_apply(prob, xm) - prob.c)
            worst_resgap = max(worst_resgap, abs(dense - residual_norm(coupling, y)))
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 1e-8 and worst_resgap <= 1e-10 and elapsed < 60.0
    assert _verdict("AC-3", ok,
                    f"full-dim deviation {worst_dev:.2e}, residual formula gap "
                    f"{worst_resgap:.2e}, {elapsed:.2f}s")


def test_ac4_egadl_convergence():
    """AC-4: EgAdl on the Laplacian fixture (n0=10, p=2, Tf=1, N=20, l=2).

    First clause: the residual bound reaches 1e-8 within m <= 30.  Second
    clause: node-wise Frobenius deviation below 1e-6, at every node, from the
    dense solution that EgAdl approximates.  EgAdl projects the equation and
    integrates the projected equation with l-step BDF, and its residual bound
    measures the projection only; so the dense solution is the full-dimension
    BDF2 trajectory on the same grid with the same startup
    (``conftest.dense_dle_bdf``), built on scipy's Lyapunov solver.

    The gap to the continuous solution (``dense_dle_exact``) is the temporal
    error, printed in the verdict line but not asserted.  It is 5.0e-5, and
    all of it sits at node 1 (t = 0.05): the BDF1 startup step inside the
    stiff initial layer, where the slowest Lyapunov mode 2 lambda_max = -39.2
    gives h|s| ~ 2.  By t = 1 it has decayed to 6e-14.  Against the same-grid
    reference the deviation falls from 2.8e-4 at m = 1 to 6.7e-12 at m = 8,
    so the clause fails for any basis with m <= 3.
    """
    prob = gen_dle_problem(n0=10, p=2, seed=1)
    grid = TimeGrid(0.0, 1.0, 20)
    t0 = time.perf_counter()
    sol, rep = egadl_solve(prob, grid, m_max=30, tol=1e-8, l=2)
    ref = dense_dle_bdf(prob, grid, 2)
    exact = dense_dle_exact(prob, grid)
    dev = max(np.linalg.norm(sol.snapshot(k) - ref[k]) for k in range(grid.nnodes))
    temporal = max(np.linalg.norm(ref[k] - exact[k]) for k in range(grid.nnodes))
    elapsed = time.perf_counter() - t0
    bound_ok = rep.converged and rep.m_final <= 30 and rep.final_bounds().max() < 1e-8
    dev_ok = dev < 1e-6
    ok = bound_ok and dev_ok and elapsed < 60.0
    _verdict("AC-4", ok,
             f"bound {rep.final_bounds().max():.2e} at m={rep.m_final} "
             f"(clause {'PASS' if bound_ok else 'FAIL'}), deviation from dense "
             f"BDF2 {dev:.2e} vs 1e-6 (clause {'PASS' if dev_ok else 'FAIL'}), "
             f"temporal error vs exact {temporal:.2e} (not asserted), "
             f"{elapsed:.2f}s")
    assert bound_ok
    assert dev_ok, (f"deviation {dev:.3e} from the same-grid dense BDF2 solution "
                    f"exceeds 1e-6; the temporal error (BDF1 startup step at "
                    f"node 1, h|s| ~ 2) is common to both, so this gap is the "
                    f"projection's")


def test_ac5_bdf_orders():
    """AC-5: observed convergence orders 1/2/3 on the scalar problem with
    exact solution (1 - e^{-2t})/2; the 3-step case starts from exact history
    so the bootstrap transient does not cap the order."""
    t0 = time.perf_counter()
    tm = np.array([[-1.0]])
    bm = np.array([1.0])
    exact = lambda t: (1.0 - np.exp(-2.0 * t)) / 2.0
    steps_list = [20, 40, 80, 160, 320, 640]
    observed = {}
    for l in (1, 2):
        errs = []
        for steps in steps_list:
            traj = bdf_integrate(small_form(tm), bm, None, TimeGrid(0.0, 1.0, steps), l)
            errs.append(abs(traj.samples[-1][0, 0] - exact(1.0)))
        observed[l] = np.log2(errs[-2] / errs[-1])
    # l = 3 with exact starting values
    scheme = bdf_coefficients(3)
    errs3 = []
    for steps in steps_list:
        h = 1.0 / steps
        prev = [np.array([[exact((2 - i) * h)]]) for i in range(3)]
        for _ in range(2, steps):
            y = bdf_step(tm, bm, prev, h, scheme)
            prev = [y] + prev[:2]
        errs3.append(abs(prev[0][0, 0] - exact(1.0)))
    observed[3] = np.log2(errs3[-2] / errs3[-1])
    elapsed = time.perf_counter() - t0
    ok = all(abs(observed[l] - l) <= 0.2 for l in (1, 2, 3)) and elapsed < 5.0
    assert _verdict("AC-5", ok,
                    "orders " + ", ".join(f"l={l}: {observed[l]:.2f}"
                                          for l in (1, 2, 3)) + f", {elapsed:.2f}s")


def test_ac6_residual_bound_validity():
    """AC-6: the reported bounds dominate the densely computed residuals on 20
    small instances.  BDF case: the time derivative is the BDF divided
    difference, which cancels the temporal error exactly, so the documented
    margin is roundoff (1e-9 absolute plus 1e-8 relative).  Exponential case:
    the bound holds for the spectral norm of the residual (the Frobenius norm
    can exceed it by sqrt(2)); margin 1e-9."""
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    worst_bdf = -np.inf
    worst_exp = -np.inf
    for trial in range(20):
        n = int(rng.integers(20, 51))
        p = (1, 2, 3, 1)[trial % 4]
        a = stable_sparse(n, rng)
        b = random_full_rank(n, p, seed=trial)
        a_dense = a.toarray()
        bbt = b @ b.T
        grid = TimeGrid(0.0, 1.0, 10)
        l = 2

        # BDF case
        eproc = ExtendedGlobalArnoldi(a, LinearSolver(a), b, 3)
        vm, tm, t_sub = eproc.projection(eproc.advance_to(3))
        bm = np.zeros(vm.m)
        bm[0] = eproc.beta
        traj = bdf_integrate(small_form(tm), bm, None, grid, l)
        derivs = bdf_derivatives(traj.samples, grid.h, l)
        for k in range(1, grid.nnodes):
            y = traj.samples[k]
            xm = kron_apply(vm, y).data @ vm.data.T
            xdot = kron_apply(vm, derivs[k - 1]).data @ vm.data.T
            dense = np.linalg.norm(xdot - a_dense @ xm - xm @ a_dense.T - bbt)
            bound = residual_bound_bdf(t_sub, y)
            worst_bdf = max(worst_bdf, dense - bound * (1 + 1e-8))

        # exponential case
        gproc = GlobalArnoldi(lambda x: a @ x, b, 5)
        gv, ghm, gcoupling = gproc.projection(gproc.advance_to(5))
        gm = gv.m
        beta = np.linalg.norm(b)
        grams = gram_trajectory(ghm, beta, grid, small_form(ghm)).samples
        e11 = np.zeros((gm, gm))
        e11[0, 0] = beta ** 2
        for k in range(grid.nnodes):
            g = grams[k]
            gdot = ghm @ g + g @ ghm.T + e11
            xm = kron_apply(gv, g).data @ gv.data.T
            xdot = kron_apply(gv, gdot).data @ gv.data.T
            dense2 = np.linalg.norm(xdot - a_dense @ xm - xm @ a_dense.T - bbt, 2)
            worst_exp = max(worst_exp, dense2 - residual_bound_exp(gcoupling, g))
    elapsed = time.perf_counter() - t0
    ok = worst_bdf <= 1e-9 and worst_exp <= 1e-9 and elapsed < 60.0
    assert _verdict("AC-6", ok,
                    f"BDF excess {worst_bdf:.2e}, exponential excess "
                    f"{worst_exp:.2e} (both vs 1e-9 margin), {elapsed:.2f}s")


def test_ac7_apriori_bound():
    """AC-7: the true error never exceeds the a-priori bound on 10 stable
    symmetric instances with mu2(A) < 0 (spectral norm, X0 = 0)."""
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    worst = -np.inf
    for trial in range(10):
        n = int(rng.integers(20, 51))
        a_dense = stable_sym(n, rng, lo=0.4, hi=10.0)
        b = random_full_rank(n, 1, seed=trial + 50)
        mu2, _ = lognorm2_operator(a_dense, None, True)
        assert mu2 < 0
        proc = GlobalArnoldi(lambda x: a_dense @ x, b, 7)
        vm, hm, coupling = proc.projection(proc.advance_to(7))
        grid = TimeGrid(0.0, 1.0, 10)
        grams = gram_trajectory(hm, 1.0, grid, small_form(hm)).samples
        gbar = max(np.linalg.norm(g[-1, :]) for g in grams)
        prob = DLEProblem(sp.csr_matrix(a_dense), b)
        ref = dense_dle_exact(prob, grid)
        for k in range(1, grid.nnodes):
            xm = kron_apply(vm, grams[k]).data @ vm.data.T
            err = np.linalg.norm(xm - ref[k], 2)
            bound = apriori_error_bound(coupling[0, 0], gbar, mu2, grid.nodes[k], 0.0)
            worst = max(worst, err - bound)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 30.0
    assert _verdict("AC-7", ok, f"max (error - bound) = {worst:.2e}, {elapsed:.2f}s")


def test_ac8_gram_ode_consistency():
    """AC-8: finite differences of the Gram trajectory match the projected
    Lyapunov ODE right-hand side to 1e-6 on 20 random matrices."""
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 9))
        hm = rng.standard_normal((k, k))
        hm = hm - (np.abs(np.linalg.eigvals(hm).real).max() + 0.3) * np.eye(k)
        beta = float(rng.uniform(0.5, 2.0))
        grid = TimeGrid(0.0, 1.0, 5)
        grams = gram_trajectory(hm, beta, grid, small_form(hm)).samples
        q = np.zeros(k)
        q[0] = beta
        dt = 1e-5
        for node in (2, 4):
            t = grid.nodes[node]
            fd = (vanloan_gram(hm, q, t + dt) - vanloan_gram(hm, q, t - dt)) / (2 * dt)
            g = grams[node]
            rhs = hm @ g + g @ hm.T + np.outer(q, q)
            worst = max(worst, np.abs(fd - rhs).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    assert _verdict("AC-8", ok, f"max derivative defect {worst:.2e}, {elapsed:.2f}s")


def test_ac9_extended_vs_global_efficiency():
    """AC-9: on the Laplacian fixture the extended variant needs a basis no
    larger than the global variant to reach 1e-8; both sizes are recorded."""
    prob = gen_dle_problem(n0=10, p=2, seed=1)
    grid = TimeGrid(0.0, 1.0, 20)
    t0 = time.perf_counter()
    _, rep_g = expo_dle_solve(prob, grid, 60, 1e-8, variant="global")
    _, rep_e = expo_dle_solve(prob, grid, 30, 1e-8, variant="extended")
    elapsed = time.perf_counter() - t0
    cols_g = rep_g.dims["basis_cols"]
    cols_e = rep_e.dims["basis_cols"]
    ok = (rep_g.converged and rep_e.converged and cols_e <= cols_g
          and elapsed < 60.0)
    assert _verdict("AC-9", ok,
                    f"extended {cols_e} columns (m={rep_e.m_final}) vs global "
                    f"{cols_g} columns (m={rep_g.m_final}), {elapsed:.2f}s")


def test_ac10_cli_end_to_end(tmp_path):
    """AC-10: the documented configs exit 0 and the EgAdl run reproduces its
    residual-bound history bit-identically across two seeded runs."""
    t0 = time.perf_counter()
    env_cmd = [sys.executable, "-m", "krymat.cli"]
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        res = subprocess.run(
            env_cmd + ["run", "--config", str(CONFIG_DIR / "egadl_laplacian.cfg"),
                       "--out", str(out), "--seed", "1"],
            capture_output=True, text=True, env=CLI_ENV)
        assert res.returncode == 0, res.stderr
        outputs.append((out / "report.csv").read_bytes())
    identical = outputs[0] == outputs[1]

    others_ok = True
    for name in ("expo_laplacian.cfg", "galerkin_sylvester.cfg"):
        res = subprocess.run(
            env_cmd + ["run", "--config", str(CONFIG_DIR / name),
                       "--out", str(tmp_path / name)],
            capture_output=True, text=True, env=CLI_ENV)
        others_ok = others_ok and res.returncode == 0

    # the CSV must agree with the in-process AC-4 run, float for float
    prob = gen_dle_problem(n0=10, p=2, seed=1)
    _, rep = egadl_solve(prob, TimeGrid(0.0, 1.0, 20), 30, 1e-8, l=2)
    final = rep.final_bounds()
    lines = outputs[0].decode().splitlines()[1:]
    csv_final = [float(ln.split(",")[2]) for ln in lines
                 if int(ln.split(",")[0]) == rep.m_final]
    reproduced = np.array_equal(np.asarray(csv_final), final)
    elapsed = time.perf_counter() - t0
    ok = identical and others_ok and reproduced
    assert _verdict(
        "AC-10", ok,
        f"bit-identical reruns: {identical}, other configs exit 0: {others_ok}, "
        f"matches in-process bounds: {reproduced}, {elapsed:.2f}s")
