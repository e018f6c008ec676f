"""Command-line driver.

Subcommands:

  run       load or generate a problem, run the configured solver, write the
            residual history CSV, a run summary, and optional solution factors
  generate  write a reproducible problem bundle (Matrix Market + manifest)
  sweep     run several configs in parallel workers, one output dir each

Configs are INI files; see the README for the documented keys.  Exit codes:
0 success, 2 bad configuration, 3 solver did not converge, 4 I/O failure.
"""

import argparse
import configparser
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dlebdf, dleexp, dsylv, oracle, probio
from .errors import ConfigError, KrymatError, ParseError
from .solution import TimeGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_IO = 4


def _load_config(path):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if not parser.has_section("run"):
        raise ConfigError("config needs a [run] section")
    return parser


def _build_problem(cfg, seed_override=None):
    if not cfg.has_section("problem"):
        raise ConfigError("config needs a [problem] section")
    sec = cfg["problem"]
    t0 = cfg.getfloat("grid", "t0", fallback=0.0)
    tf = cfg.getfloat("grid", "tf", fallback=1.0)
    if "bundle" in sec:
        return probio.load_problem(sec["bundle"])
    kind = sec.get("kind")
    seed = seed_override if seed_override is not None else sec.getint("seed", fallback=0)
    if kind == "laplacian2d":
        return probio.gen_dle_problem(
            n0=sec.getint("n0", fallback=10), p=sec.getint("p", fallback=2),
            seed=seed, t0=t0, tf=tf)
    if kind == "random-stable":
        n = sec.getint("n", fallback=50)
        a = probio.gen_random_stable(n, density=sec.getfloat("density", fallback=0.1),
                                     seed=seed)
        b = probio.random_full_rank(n, sec.getint("p", fallback=1), seed=seed)
        return probio.DLEProblem(a, b, t0=t0, tf=tf)
    if kind == "sylvester-q2":
        return probio.gen_sylvester_q2(
            sec.getint("n", fallback=40), sec.getint("p", fallback=3),
            seed=seed, t0=t0, tf=tf)
    raise ConfigError(f"unknown problem kind {kind!r}")


def _grid(cfg, problem):
    steps = cfg.getint("grid", "steps", fallback=20)
    return TimeGrid(problem.t0, problem.tf, steps)


def _dispatch(method, cfg, problem, grid):
    sol = cfg["solver"] if cfg.has_section("solver") else {}

    def fget(key, default):
        return float(sol.get(key, default))

    def iget(key, default):
        return int(sol.get(key, default))

    m_max = iget("m_max", 30)
    tol = fget("tol", 1e-8)
    stride = iget("probe_stride", 1)
    if method == "galerkin":
        if not isinstance(problem, probio.GenSylvesterProblem):
            raise ConfigError("method galerkin needs a generalized Sylvester problem")
        return dsylv.galerkin_solve(problem, grid, m_max, tol, report_stride=stride)
    if not isinstance(problem, probio.DLEProblem):
        raise ConfigError(f"method {method} needs a Lyapunov problem")
    if method == "egadl":
        l = iget("l", 2)
        try:
            dlebdf.bdf_coefficients(l)
        except ValueError as exc:
            raise ConfigError(f"[solver] l = {l}: {exc}") from None
        return dlebdf.egadl_solve(problem, grid, m_max, tol,
                                  l=l, probe_stride=stride,
                                  factor_tol=fget("factor_tol", 1e-10))
    if method == "expo":
        return dleexp.expo_dle_solve(problem, grid, m_max, tol,
                                     variant=sol.get("variant", "extended"),
                                     probe_stride=stride,
                                     factor_tol=fget("factor_tol", 1e-10))
    raise ConfigError(f"unknown method {method!r}")


def _oracle_deviation(method, problem, grid, solution):
    if method == "galerkin":
        ref = oracle.dense_dme_solve(problem, grid)
        traj = solution.trajectory()
    else:
        ref = oracle.dense_dle_exact(problem, grid)
        traj = np.stack([solution.snapshot(k) for k in range(grid.nnodes)])
    return float(max(np.linalg.norm(traj[k] - ref[k]) for k in range(grid.nnodes)))


def _write_factors(solution, out_dir):
    fac_dir = Path(out_dir) / "factors"
    fac_dir.mkdir(parents=True, exist_ok=True)
    for k in range(solution.grid.nnodes):
        if hasattr(solution, "factor"):
            z, signs = solution.factor(k)
            probio.write_matrix_market(fac_dir / f"node_{k:04d}_Z.mtx", z)
            probio.write_matrix_market(fac_dir / f"node_{k:04d}_signs.mtx", signs)
        else:
            probio.write_matrix_market(fac_dir / f"node_{k:04d}_X.mtx",
                                       solution.snapshot(k))


def cmd_run(args):
    try:
        cfg = _load_config(args.config)
        method = cfg.get("run", "method", fallback=None)
        if method is None:
            raise ConfigError("[run] must set method")
        check_method = None
        if method == "oracle-check":
            check_method = cfg.get("run", "check", fallback="egadl")
            method = check_method
        problem = _build_problem(cfg, args.seed)
        grid = _grid(cfg, problem)
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    out_dir = Path(args.out if args.out else cfg.get("run", "out", fallback="krymat-out"))
    try:
        solution, report = _dispatch(method, cfg, problem, grid)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KrymatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    summary_extra = []
    if check_method is not None:
        deviation = _oracle_deviation(method, problem, grid, solution)
        summary_extra.append(f"oracle_max_deviation = {deviation:.17g}")

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report.write_csv(out_dir / "report.csv")
        lines = report.summary_lines() + summary_extra
        with open(out_dir / "summary.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if cfg.getboolean("output", "factors", fallback=False):
            _write_factors(solution, out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    for line in report.summary_lines() + summary_extra:
        print(line)
    return EXIT_OK if report.converged else EXIT_NOCONV


def _parse_params(pairs):
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--param needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def cmd_generate(args):
    try:
        params = _parse_params(args.param)
        seed = args.seed if args.seed is not None else int(params.pop("seed", 0))
        t0 = float(params.pop("t0", 0.0))
        tf = float(params.pop("tf", 1.0))
        kind = args.kind
        if kind == "laplacian2d":
            problem = probio.gen_dle_problem(
                n0=int(params.pop("n0", 10)), p=int(params.pop("p", 2)),
                seed=seed, t0=t0, tf=tf)
        elif kind == "random-stable":
            n = int(params.pop("n", 50))
            a = probio.gen_random_stable(n, density=float(params.pop("density", 0.1)),
                                         seed=seed)
            b = probio.random_full_rank(n, int(params.pop("p", 1)), seed=seed)
            problem = probio.DLEProblem(a, b, t0=t0, tf=tf)
        elif kind == "sylvester-q2":
            problem = probio.gen_sylvester_q2(
                int(params.pop("n", 40)), int(params.pop("p", 3)),
                seed=seed, t0=t0, tf=tf)
        else:
            raise ConfigError(f"unknown problem kind {kind!r}")
        if params:
            raise ConfigError(f"unused parameters: {sorted(params)}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        probio.save_problem(problem, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.kind} bundle to {args.out}")
    return EXIT_OK


def cmd_sweep(args):
    configs = [Path(c) for c in args.configs]
    out_root = Path(args.out)

    def one(cfg_path):
        ns = argparse.Namespace(config=str(cfg_path), seed=args.seed,
                                out=str(out_root / cfg_path.stem))
        return cmd_run(ns)

    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    with ThreadPoolExecutor(max_workers=max(1, args.threads)) as pool:
        codes = list(pool.map(one, configs))
    for cfg_path, code in zip(configs, codes):
        print(f"{cfg_path}: exit {code}")
    return max(codes) if codes else EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(prog="krymat",
                                     description="differential matrix equation solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a solver from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("generate", help="write a problem bundle")
    p_gen.add_argument("kind", choices=["laplacian2d", "random-stable", "sylvester-q2"])
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--param", action="append",
                       help="generator parameter key=value (repeatable)")
    p_gen.set_defaults(func=cmd_generate)

    p_sweep = sub.add_parser("sweep", help="run several configs in parallel")
    p_sweep.add_argument("--configs", nargs="+", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
