"""Fuzzed command lines: `run` configs drawn over the README's sections and
keys, `generate --param` and `sweep --threads`, each through `cli.main`.

Every draw must end in a documented exit code (0, 2, 3, 4 or 5: an
unexpected error is exit 1, and a find), with at most one `error:` line per
config and no traceback on stderr, and an exit 2 must leave no output
behind.  Sizes stay small: problems of order <= 36, `steps` and `m_max`
<= 8, at most 4 sweep threads.  A huge value is drawn only for a key that
refuses it before anything is allocated.  p <= max(1, n // 10) and
generated full-rank data keep the draws clear of krymat's advisory
warnings, which the suite's warning filter makes errors (exit 1).
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from krymat.cli import main

DOCUMENTED = {0, 2, 3, 4, 5}
HUGE = str(2 ** 63)
# values at the edges of every parser: zero, negative, past int64 and
# float64, non-finite, empty, a non-ASCII digit (int("١") is 1) and an
# underscore (int("1_0") is 10)
BOUNDARY = ("0", "-1", HUGE, "1e308", "nan", "inf", "", "١", "1_0")
WRONG = ("abc", "1.5", "true", "2 3")


@st.composite
def values(draw, valid, drop=()):
    """A key's value: mostly one of its valid texts, else a boundary value
    outside ``drop`` (those that would parse to a size past the limits) or a
    wrongly typed text."""
    pool = draw(st.sampled_from(["valid"] * 6 + ["edge", "wrong"]))
    if pool == "edge":
        return draw(st.sampled_from([v for v in BOUNDARY if v not in drop]))
    return draw(st.sampled_from(valid if pool == "valid" else WRONG))


def rarely(draw):
    return draw(st.integers(0, 9)) == 5


def counts(lo, hi):
    return [str(k) for k in range(lo, hi + 1)]


# kind -> size key, its valid texts, the order n of a valid size, and the
# boundary values it must not take ("1_0" is n0 = 10, order 100)
SIZES = {
    "laplacian2d": ("n0", counts(2, 6), lambda s: s * s, ("1_0",)),
    "random-stable": ("n", counts(1, 36), lambda s: s, ()),
    "sylvester-q2": ("n", counts(1, 36), lambda s: s, ()),
}
# the kinds each method solves
KINDS = {"galerkin": ["sylvester-q2"], "egadl": ["laplacian2d", "random-stable"],
         "expo": ["laplacian2d", "random-stable"]}


def _int(text):
    try:
        return int(text)
    except ValueError:
        return None


@st.composite
def problem_sections(draw, tmp, kinds):
    """[problem] lines: mostly a generator kind of ``kinds`` with a small
    size and a p that B or C carries without a warning; rarely a missing
    bundle, another kind or a bad one."""
    if rarely(draw):
        choice = draw(st.sampled_from([*SIZES, "bundle", "bogus", ""]))
    else:
        choice = draw(st.sampled_from(kinds))
    if choice == "bundle":
        return {"bundle": str(tmp / "no-bundle")}
    if choice not in SIZES:
        return {"kind": choice}
    key, valid, order, drop = SIZES[choice]
    lines = {"kind": choice, key: draw(values(valid, drop))}
    size = _int(lines[key])
    n = order(size) if size is not None and 1 <= size <= int(valid[-1]) else 36
    # "1_0" would be p = 10, past max(1, n // 10) for every n <= 36
    lines["p"] = draw(values(counts(1, max(1, n // 10)), ("1_0",)))
    if choice == "random-stable" and draw(st.booleans()):
        lines["density"] = draw(values(["0.05", "0.3", "1"]))
    if draw(st.booleans()):
        lines["seed"] = draw(values(["0", "1", "7"]))
    if rarely(draw):
        lines["unknown"] = "1"
    return lines


def optional(draw, options):
    """Each key of ``options`` (key -> strategy) in or out, drawn."""
    return {key: draw(strategy) for key, strategy in options.items() if draw(st.booleans())}


@st.composite
def configs(draw, tmp):
    """A config text over the README's sections and keys: mostly valid,
    with a boundary or wrongly typed value here and there, and rarely a
    missing section or an unknown one."""
    method = draw(st.sampled_from(["galerkin", "egadl", "expo", "oracle-check"]))
    run = {"method": method}
    check = draw(st.sampled_from(list(KINDS)))
    if method == "oracle-check" or rarely(draw):
        run["check"] = check
    if rarely(draw):
        run["method"] = draw(st.sampled_from(["", "nope"]))
    if draw(st.booleans()):
        run["out"] = str(tmp / "elsewhere")
    sections = {
        "run": run,
        "problem": draw(problem_sections(tmp, KINDS.get(method, KINDS[check]))),
        "grid": optional(draw, {
            "t0": values(["0.0", "0.5"]),
            "tf": values(["1.0", "2.0"]),
            "steps": values(counts(1, 8), ("1_0",)),
        }),
        "solver": optional(draw, {
            "m_max": values(counts(1, 8), (HUGE, "1_0")),
            "tol": values(["1e-8", "1e-3", "0"]),
            "l": values(["1", "2", "3"]),
            "variant": values(["global", "extended"]),
            "factor_tol": values(["1e-10", "0", "0.5"]),
        }),
        "output": optional(draw, {"factors": values(["true", "false"])}),
    }
    # a run that reaches the solver is bounded by small defaults
    sections["solver"].setdefault("m_max", "8")
    sections["grid"].setdefault("steps", "4")
    if rarely(draw):
        sections["extra"] = {"key": "1"}
    if rarely(draw):
        del sections[draw(st.sampled_from(list(sections)))]
    order = draw(st.permutations(list(sections)))
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sections[name].items())
                   + "\n" for name in order)


def call(argv):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, err, errors_allowed=1):
    assert code in DOCUMENTED, err
    assert "Traceback" not in err
    assert sum(line.startswith("error: ") for line in err.splitlines()) <= errors_allowed, err


def seed_args(draw):
    if not rarely(draw):
        return []
    return draw(st.sampled_from([["--seed=3"], ["--seed=-1"], [f"--seed={HUGE}"]]))


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(data=st.data())
def test_run_ends_in_a_documented_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "run.cfg"
        cfg.write_text(data.draw(configs(tmp), label="config"))
        out = tmp / "out"
        code, _, err = call(["run", "--config", str(cfg), "--out", str(out)]
                            + seed_args(data.draw))
        assert_clean(code, err)
        if code == 2:
            assert not out.exists()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_generate_ends_in_a_documented_code(data):
    kind = data.draw(st.sampled_from(list(SIZES)), label="kind")
    params = data.draw(problem_sections(Path("bundle"), [kind]), label="params")
    params.pop("kind", None)
    # without its size key the kind's default order (40 to 100) would run
    key, valid, _, _ = SIZES[kind]
    params.setdefault(key, valid[0])
    params.update(optional(data.draw, {"t0": values(["0.0"]), "tf": values(["1.0", "3.0"])}))
    argv = [f"--param={key}={value}" for key, value in params.items()]
    if rarely(data.draw):
        argv.append("--param=no-equals-sign")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bundle"
        code, _, err = call(["generate", kind, "--out", str(out), *argv]
                            + seed_args(data.draw))
        assert_clean(code, err)
        if code == 2:
            assert not out.exists()


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_sweep_ends_in_a_documented_code(data):
    threads = data.draw(st.sampled_from([1, 2, 3, 4, 0, -1]), label="threads")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = []
        for i in range(data.draw(st.integers(1, 3), label="configs")):
            paths.append(tmp / f"c{i}.cfg")
            paths[-1].write_text(data.draw(configs(tmp), label=f"config {i}"))
        out = tmp / "sweep"
        code, stdout, err = call(["sweep", "--configs", *map(str, paths), "--out", str(out),
                                  f"--threads={threads}"])
        assert_clean(code, err, errors_allowed=len(paths))
        if threads < 1:
            assert code == 2 and not out.exists()
            return
        for path in paths:
            assert sum(line.startswith(f"error: {path}: ") for line in err.splitlines()) <= 1
            run_code = int(re.search(rf"^{re.escape(str(path))}: exit (\d+)$", stdout,
                                     re.MULTILINE).group(1))
            assert run_code in DOCUMENTED
            if run_code == 2:
                assert not (out / path.stem).exists()
