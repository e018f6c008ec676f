"""One `krymat run` process, as the benchmark launches it.

    python3 bench/child.py --mode run|setup|solve|trace --workload NAME
        --config CFG --out DIR --result FILE [--trace-file FILE]

It does what the `krymat` entry point does, `krymat.cli.main(["run", ...])`,
and records monotonic timestamps around it.  Only two functions are wrapped
in every mode: `probio.load_problem`, to note when the problem is in memory,
and the workload's solver, to time the solve and keep the solution it
returns.  In `setup` mode the process ends as soon as the problem is loaded,
in `solve` mode as soon as the solver has returned (it then records a
fingerprint of the report, so that the benchmark can tell it computed what
the checked full run computed).  In `trace` mode every public function
listed in spans.py is wrapped as well.

Once `main` has returned, and outside every timed span, the process reads
its peak RSS and output size, then checks the returned solution against
checks.py, and writes one JSON result.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _write(path, record):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh)
    os.replace(tmp, path)


def _read_report(out_dir):
    lines = (Path(out_dir) / "report.csv").read_text().splitlines()
    cols = lines[0].split(",")
    return [dict(zip(cols, map(float, ln.split(",")))) for ln in lines[1:]]


def _read_summary(out_dir):
    pairs = (ln.split(" = ", 1) for ln in (Path(out_dir) / "summary.txt").read_text().splitlines())
    return {k: v for k, v in pairs}


def fingerprint(report):
    """Digest of the report's m, t and residual_bound columns, exact to the
    last bit.  Later columns are left out: expo's apriori_bound comes from an
    ARPACK eigensolve that starts from an unseeded random vector, so it
    differs between processes in its last digits."""
    rows = [tuple(row[:3]) for row in report.rows]
    return hashlib.sha256(repr((report.m_final, rows)).encode()).hexdigest()


def run_checks(workload, call, out_dir):
    """The workload's correctness check on the solution the solver returned."""
    import numpy as np

    import checks

    (problem, grid, _, tol), kwargs, (solution, _) = call
    rows = _read_report(out_dir)
    summary = _read_summary(out_dir)
    result = checks.check_report(rows, summary.get("converged") == "True", tol)
    final = [r for r in rows if r["m"] == max(r["m"] for r in rows)]
    h = (grid.tf - grid.t0) / grid.steps
    nodes = grid.t0 + h * np.arange(grid.steps + 1)
    if workload == "egadl-lap90k":
        result.update(checks.check_egadl(
            problem.a, problem.b, solution.basis.data, solution.basis.width,
            solution.kernel.samples, h, kwargs["l"], tol))
    elif workload == "expo-lap10k-factors":
        n0 = int(round(np.sqrt(problem.n)))
        basis = checks.SineBasis(n0)
        checks.require_laplacian(basis, problem.a)
        v_norm2 = np.linalg.norm(solution.basis.data, 2) ** 2
        probes = checks.probe_vectors(problem.b, 2, np.random.default_rng(0))
        for k in (grid.steps // 4, grid.steps // 2, grid.steps):
            z, signs = solution.factor(k)
            y_norm = np.linalg.norm(solution.kernel.samples[k], 2)
            res = checks.check_expo(basis, problem.b, nodes[k] - grid.t0, z, signs,
                                    final[k]["apriori_bound"],
                                    kwargs["factor_tol"] * y_norm * v_norm2, probes)
            result[f"node{k}_error"] = res["error"]
    elif workload == "galerkin-lapsylv10k":
        a, b2 = problem.a_list[0], problem.b_list[1].toarray()
        basis = checks.SineBasis(int(round(np.sqrt(problem.n))))
        checks.require_laplacian(basis, a)
        mu = float(basis.lam.max()) + checks.lognorm2(b2)
        snaps = [solution.snapshot(k) for k in range(grid.nnodes)]
        result.update(checks.check_galerkin(
            basis, b2, problem.c, nodes, snaps,
            np.array([r["residual_bound"] for r in final]), mu))
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["run", "setup", "solve", "trace"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    import krymat.cli as cli
    t_imported = time.monotonic()

    import spans
    import workloads

    record = {"t_imported": t_imported}
    call = []

    def stop():
        record["exit_code"] = 0
        _write(args.result, record)
        os._exit(0)

    def loaded_hook(fn):
        def load_problem(*a, **k):
            problem = fn(*a, **k)
            record["t_loaded"] = time.monotonic()
            if args.mode == "setup":
                stop()
            return problem
        return load_problem

    def solver_hook(fn):
        def solve(*a, **k):
            t0 = time.monotonic()
            result = fn(*a, **k)
            record["solve_s"] = time.monotonic() - t0
            if args.mode == "solve":
                record["fingerprint"] = fingerprint(result[1])
                stop()
            call.append((a, k, result))
            return result
        return solve

    tracer = spans.Tracer() if args.mode == "trace" else None
    missing = tracer.install() if tracer else []
    if missing:
        print(f"bench: not traced, no such krymat function: {', '.join(missing)}",
              file=sys.stderr)
    module, function = workloads.WORKLOADS[args.workload].solver
    # installed after the tracer, so these wrap the traced functions
    for target, hook in ((("probio", "load_problem"), loaded_hook),
                         ((module, function), solver_hook)):
        if not spans.patch(*target, hook):
            print(f"bench: cannot time krymat.{'.'.join(target)}: no such function",
                  file=sys.stderr)
            return 3

    run = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    code = run(["run", "--config", args.config, "--out", args.out])
    record["t_end"] = time.monotonic()
    record["exit_code"] = code
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    record["output_mb"] = _dir_bytes(args.out) / 1e6

    if tracer:
        record["trace"] = tracer.metrics()
        if args.trace_file:
            tracer.dump(args.trace_file)
    if code == 0 and call:
        report = call[0][2][1]
        record["fingerprint"] = fingerprint(report)
        record["m_final"] = report.m_final
        record["basis_cols"] = report.dims.get("basis_cols", 0)
        try:
            record["check"] = run_checks(args.workload, call[0], args.out)
            record["check_ok"] = True
        except AssertionError as exc:
            record["check_ok"] = False
            record["check_error"] = str(exc)
    _write(args.result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
