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
import io
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dlebdf, dleexp, dsylv, oracle, probio
from .errors import ConfigError, DimensionError, KrymatError
from .solution import TimeGrid, remove_solution_files

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_IO = 4
EXIT_SOLVER = 5


def _fail(message, code, err=None):
    """Print a failed command's one ``error:`` line (to stderr by default); returns its code."""
    print(f"error: {message}", file=sys.stderr if err is None else err)
    return code


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
    0 when neither is given.  A problem too large to allocate is a
    ConfigError.
    """
    if kind not in GENERATORS:
        raise ConfigError(f"[problem] kind = {kind}: not one of {', '.join(GENERATORS)}"
                          if kind else "[problem] needs a kind or a bundle")
    gen, types = GENERATORS[kind]
    seed = params.pop("seed", 0)
    seed = _parse(int, seed, "seed") if seed_override is None else seed_override
    if seed < 0:
        raise ConfigError(f"seed = {seed}: not a non-negative integer")
    unknown = sorted(set(params) - set(types))
    if unknown:
        raise ConfigError(f"unknown {kind} parameters: {unknown}")
    values = {key: _parse(types[key], value, key) for key, value in params.items()}
    try:
        return gen(**values, seed=seed, t0=t0, tf=tf)
    except MemoryError:
        given = ", ".join(f"{key} = {value}" for key, value in sorted(values.items()))
        raise ConfigError(f"{kind} with {given or 'its default parameters'}: "
                          "cannot allocate the problem") from None


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
    try:
        return TimeGrid(problem.t0, problem.tf, steps)
    except DimensionError as exc:
        raise ConfigError(f"[grid] {exc}") from None


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


def cmd_run(args, out=None, err=None):
    try:
        cfg = _load_config(args.config)
        method = cfg.get("run", "method", fallback=None)
        if method is None:
            raise ConfigError("[run] must set method")
        check = cfg.get("run", "check", fallback=None)
        if method == "oracle-check":
            method = check = "egadl" if check is None else check
        elif check is not None:
            raise ConfigError(f"[run] check = {check}: only method = oracle-check reads it")
        problem = _build_problem(cfg, args.seed)
        grid = _grid(cfg, problem)
        solve = _configure(method, cfg, problem, grid)
        try:
            write_factors = cfg.getboolean("output", "factors", fallback=False)
        except ValueError:
            raise ConfigError(f"[output] factors = {cfg['output']['factors']}: "
                              "not a boolean") from None
        # the dense reference first: above the dense cap it fails before the solve
        ref = None if check is None else SOLVERS[method].reference(problem, grid)
    except (KrymatError, ValueError) as exc:
        return _fail(exc, EXIT_CONFIG, err)
    except OSError as exc:
        return _fail(exc, EXIT_IO, err)

    out_dir = Path(args.out if args.out else cfg.get("run", "out", fallback="krymat-out"))
    try:
        solution, report = solve()
    except KrymatError as exc:
        # the solver checks its settings before any work: a ConfigError is a
        # bad config, anything else a failure inside the solve
        return _fail(exc, EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_SOLVER, err)

    lines = report.summary_lines()
    if ref is not None:
        deviation = max(np.linalg.norm(solution.snapshot(k) - ref[k])
                        for k in range(grid.nnodes))
        lines.append(f"oracle_max_deviation = {probio.float_text(deviation)}")

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report.write_csv(out_dir / "report.csv")
        with open(out_dir / "summary.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if write_factors:
            solution.save(out_dir / "factors")
        else:
            # an earlier run's solution must not pass for this one's
            remove_solution_files(out_dir / "factors")
    except OSError as exc:
        return _fail(exc, EXIT_IO, err)

    print("\n".join(lines), file=out)
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
        return _fail(exc, EXIT_CONFIG)
    try:
        probio.save_problem(problem, args.out)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    print(f"wrote {args.kind} bundle to {args.out}")
    return EXIT_OK


def cmd_sweep(args):
    if args.threads < 1:
        return _fail(f"--threads = {args.threads}: need an integer >= 1", EXIT_CONFIG)
    configs = [Path(c) for c in args.configs]
    out_root = Path(args.out)
    # each config writes out_root/<its file name>, which must be its own
    by_name = {}
    for cfg_path in configs:
        by_name.setdefault(cfg_path.stem, []).append(str(cfg_path))
    clashes = [" and ".join(paths) for paths in by_name.values() if len(paths) > 1]
    if clashes:
        return _fail(f"configs would share an output directory: {'; '.join(clashes)}",
                     EXIT_CONFIG)

    def one(cfg_path, out, err):
        ns = argparse.Namespace(config=str(cfg_path), seed=args.seed,
                                out=str(out_root / cfg_path.stem))
        _warnings_to.err = err
        try:
            return cmd_run(ns, out, err)
        except Exception as exc:      # one failing config must not sink the others
            return _fail(f"{type(exc).__name__}: {exc}", EXIT_ERROR, err)
        finally:
            _warnings_to.err = None

    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    # each config's summary is one block, and its warning and error lines
    # follow one another as they came, all printed in config order once every
    # config has finished
    blocks = [io.StringIO() for _ in configs]
    errors = [io.StringIO() for _ in configs]
    # every config's warnings are its own: none is dropped as a repeat of
    # another's, while a filter before this one (an error) still wins
    with warnings.catch_warnings():
        warnings.simplefilter("always", append=True)
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            codes = list(pool.map(one, configs, blocks, errors))
    print("".join(block.getvalue() for block in blocks), end="")
    for cfg_path, err in zip(configs, errors):
        for line in err.getvalue().splitlines():
            kind = "warning" if line.startswith("warning: ") else "error"
            print(f"{kind}: {cfg_path}: {line.removeprefix(f'{kind}: ')}", file=sys.stderr)
    for cfg_path, code in zip(configs, codes):
        print(f"{cfg_path}: exit {code}")
    return max(codes) if codes else EXIT_OK


# where a sweep's worker thread writes its config's warnings; stderr when unset
_warnings_to = threading.local()


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one ``warning:`` line in one write, like the ``error:`` lines."""
    if file is None:
        file = getattr(_warnings_to, "err", None) or sys.stderr
    file.write(f"warning: {message}\n")


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
    # the filters stay: a warning that they make an error is an unexpected error
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except Exception as exc:      # no failure ends in a traceback
            return _fail(f"{type(exc).__name__}: {exc}", EXIT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
