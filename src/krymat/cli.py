"""Command-line driver.

Subcommands:

  run       load or generate a problem, run the configured solver, write the
            residual history CSV, a run summary, and optional solution factors
  generate  write a reproducible problem bundle (Matrix Market + manifest)
  sweep     run several configs in parallel workers, one output dir each

Configs are INI files; see the README for the documented keys.  Exit codes:
0 success, 1 unexpected error (reported per config by sweep), 2 bad
configuration, 3 solver did not converge, 4 I/O failure, 5 the solver failed
(a numeric, step, factorization or dense-cap error inside the solve).
"""

import argparse
import configparser
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dlebdf, dleexp, dsylv, oracle, probio
from .errors import ConfigError, KrymatError
from .solution import TimeGrid

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_IO = 4
EXIT_SOLVER = 5


def _load_config(path):
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        # some parser messages span lines; the CLI reports one
        raise ConfigError(f"malformed config file: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if not parser.has_section("run"):
        raise ConfigError("config needs a [run] section")
    for section in parser.sections():
        if section == "problem":          # its keys are the generator's
            continue
        if section not in SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(parser[section]) - SECTIONS[section])
        if unknown:
            reason = ": no method reads it" if section == "solver" else ""
            raise ConfigError(f"unknown [{section}] key {', '.join(unknown)}{reason}")
    return parser


# problem kind -> (generator, type of each parameter); the defaults are the
# generator's own
GENERATORS = {
    "laplacian2d": (probio.gen_dle_problem, {"n0": int, "p": int}),
    "random-stable": (probio.gen_random_dle_problem,
                      {"n": int, "p": int, "density": float}),
    "sylvester-q2": (probio.gen_sylvester_q2, {"n": int, "p": int}),
}


class Method(NamedTuple):
    module: object
    solver: str            # looked up on the module at run time, so that a wrapper
                           # installed there is the function called
    problem: type
    reference: object      # dense reference, (problem, grid) -> one X per node
    keys: dict             # [solver] key, the solver's keyword -> (type, default)


_COMMON = {"m_max": (int, 30), "tol": (float, 1e-8)}
_FACTOR_TOL = {"factor_tol": (float, 1e-10)}

# method -> solver, problem type, dense reference and [solver] keys past
# those of _COMMON, which every method reads
SOLVERS = {
    "galerkin": Method(dsylv, "galerkin_solve", probio.GenSylvesterProblem,
                       oracle.dense_dme_solve, {}),
    "egadl": Method(dlebdf, "egadl_solve", probio.DLEProblem, oracle.dense_dle_exact,
                    {"l": (int, 2), **_FACTOR_TOL}),
    "expo": Method(dleexp, "expo_dle_solve", probio.DLEProblem, oracle.dense_dle_exact,
                   {"variant": (str, "extended"), **_FACTOR_TOL}),
}

# the keys each section past [problem] may hold
SECTIONS = {
    "run": {"method", "check", "out"},
    "grid": {"t0", "tf", "steps"},
    "solver": set(_COMMON).union(*(entry.keys for entry in SOLVERS.values())),
    "output": {"factors"},
}


def _parse(kind, raw, what):
    """``raw`` as a ``kind``; a value it cannot be is a ConfigError naming ``what``."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{what} = {raw}: not {kind.__name__}") from None


def _generate(kind, params, seed_override, t0, tf):
    """The problem of a GENERATORS kind, from parameters given as text.

    A ``seed_override`` (a --seed) wins over the parameter ``seed``, which is
    0 when neither is given.
    """
    if kind not in GENERATORS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    gen, types = GENERATORS[kind]
    seed = params.pop("seed", 0)
    seed = _parse(int, seed, "seed") if seed_override is None else seed_override
    if seed < 0:
        raise ConfigError(f"seed = {seed}: not a non-negative integer")
    unknown = sorted(set(params) - set(types))
    if unknown:
        raise ConfigError(f"unknown {kind} parameters: {unknown}")
    return gen(**{key: _parse(types[key], value, key) for key, value in params.items()},
               seed=seed, t0=t0, tf=tf)


def _build_problem(cfg, seed_override=None):
    if not cfg.has_section("problem"):
        raise ConfigError("config needs a [problem] section")
    params = dict(cfg["problem"])
    if "bundle" in params:
        # the bundle fixes the problem and its horizon: a key or a --seed that
        # would change either is refused rather than dropped
        dropped = sorted(set(params) - {"bundle"})
        dropped += [f"[grid] {key}" for key in ("t0", "tf") if cfg.has_option("grid", key)]
        dropped += ["--seed"] if seed_override is not None else []
        if dropped:
            raise ConfigError(f"[problem] bundle takes no {', '.join(dropped)}")
        return probio.load_problem(params["bundle"])
    t0 = _parse(float, cfg.get("grid", "t0", fallback=0.0), "[grid] t0")
    tf = _parse(float, cfg.get("grid", "tf", fallback=1.0), "[grid] tf")
    kind = params.pop("kind", None)
    return _generate(kind, params, seed_override, t0, tf)


def _grid(cfg, problem):
    steps = _parse(int, cfg.get("grid", "steps", fallback=20), "[grid] steps")
    return TimeGrid(problem.t0, problem.tf, steps)


def _configure(method, cfg, problem, grid):
    """The method's solve as a call without arguments, every [solver] setting
    parsed to its type (defaults included) and passed as a keyword.

    The values themselves are checked by the solver, before any work.
    """
    if method not in SOLVERS:
        raise ConfigError(f"unknown method {method!r}")
    entry = SOLVERS[method]
    if not isinstance(problem, entry.problem):
        raise ConfigError(f"method {method} needs a {entry.problem.__name__}")
    sol = cfg["solver"] if cfg.has_section("solver") else {}
    kwargs = {}
    for key, (kind, default) in (_COMMON | entry.keys).items():
        kwargs[key] = _parse(kind, sol.get(key, default), f"[solver] {key}")
    solver = getattr(entry.module, entry.solver)
    return partial(solver, problem, grid, kwargs.pop("m_max"), kwargs.pop("tol"), **kwargs)


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
        solve = _configure(method, cfg, problem, grid)
        try:
            write_factors = cfg.getboolean("output", "factors", fallback=False)
        except ValueError:
            raise ConfigError(f"[output] factors = {cfg['output']['factors']}: "
                              "not a boolean") from None
        # the dense reference first: above the dense cap it fails before the solve
        ref = None if check_method is None else SOLVERS[method].reference(problem, grid)
    except (KrymatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    out_dir = Path(args.out if args.out else cfg.get("run", "out", fallback="krymat-out"))
    try:
        solution, report = solve()
    except KrymatError as exc:
        # the solver checks its settings before any work: a ConfigError is a
        # bad config, anything else a failure inside the solve
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_SOLVER

    summary_extra = []
    if ref is not None:
        deviation = max(np.linalg.norm(solution.snapshot(k) - ref[k])
                        for k in range(grid.nnodes))
        summary_extra.append(f"oracle_max_deviation = {deviation:.17g}")

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report.write_csv(out_dir / "report.csv")
        lines = report.summary_lines() + summary_extra
        with open(out_dir / "summary.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if write_factors:
            solution.save(out_dir / "factors")
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
        t0 = _parse(float, params.pop("t0", 0.0), "t0")
        tf = _parse(float, params.pop("tf", 1.0), "tf")
        problem = _generate(args.kind, params, args.seed, t0, tf)
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
    # each config writes out_root/<its file name>, which must be its own
    by_name = {}
    for cfg_path in configs:
        by_name.setdefault(cfg_path.stem, []).append(str(cfg_path))
    clashes = [" and ".join(paths) for paths in by_name.values() if len(paths) > 1]
    if clashes:
        print(f"error: configs would share an output directory: {'; '.join(clashes)}",
              file=sys.stderr)
        return EXIT_CONFIG

    def one(cfg_path):
        ns = argparse.Namespace(config=str(cfg_path), seed=args.seed,
                                out=str(out_root / cfg_path.stem))
        try:
            return cmd_run(ns)
        except Exception as exc:      # one failing config must not sink the others
            print(f"error: {cfg_path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_ERROR

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
    p_gen.add_argument("kind", choices=list(GENERATORS))
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
