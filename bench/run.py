"""krymat's benchmark: run `krymat run` on one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; krymat is imported from its src/.
The workload's bundle is generated from the seed (and kept under
bench/work/ for the next run with that seed).  One discarded process that
stops once the problem is loaded then compiles __pycache__ and warms the
file cache.  After that the benchmark repeats whole rounds until S seconds
have passed.  A round is `setup_reps` processes that stop once the problem
is loaded, `solve_reps` that stop once the solver returns, and one full
`krymat run`; each is a fresh interpreter with the BLAS/OpenMP pools pinned
to one thread.  With --trace 1 a round is a single traced `krymat run`.
The full run's solution is checked; a stopped run must reproduce its
report exactly.

The last line of standard output is one JSON object: correct, attempted,
failed, and the medians of the end-to-end metrics (--trace 0) or of the
per-layer metrics (--trace 1) over the rounds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
BUNDLES_KEPT = 3          # per workload, most recent first
DEADLINE_S = 165          # a run ends within 180 s: later processes are killed

END_TO_END = {"run_s": "s", "setup_s": "s", "solve_s": "s",
              "peak_rss_mb": "MB", "output_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("KRYMAT_DENSE_CAP", None)
    return env


def ensure_bundle(name, seed, env):
    """Path of the workload's bundle for this seed, generated if missing."""
    bundles = WORK / "bundles"
    bundle = bundles / f"{name}-{seed}"
    if not (bundle / "problem.cfg").exists():
        tmp = bundles / f".{name}-{seed}.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run([sys.executable, str(BENCH / "workloads.py"), name, str(seed), str(tmp)],
                       env=env, cwd=ROOT, check=True)
        shutil.rmtree(bundle, ignore_errors=True)
        os.replace(tmp, bundle)
    os.utime(bundle)
    old = sorted(bundles.glob(f"{name}-*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in old[BUNDLES_KEPT:]:
        shutil.rmtree(stale, ignore_errors=True)
    return bundle


class Runner:
    def __init__(self, workload, seed, env):
        self.workload = workload
        self.env = env
        self.dir = WORK / f"run-{workload.name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "run.cfg"
        self.config.write_text(workload.config_text(ensure_bundle(workload.name, seed, env)))
        self.attempted = 0
        self.failed = 0
        self.check_errors = []
        self.fingerprints = set()
        self.deadline = time.monotonic() + DEADLINE_S

    def launch(self, mode):
        """One fresh `krymat run` process; its result record, or None if it failed."""
        out = self.dir / "out"
        result = self.dir / "result.json"
        shutil.rmtree(out, ignore_errors=True)
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
               "--workload", self.workload.name, "--config", str(self.config),
               "--out", str(out), "--result", str(result)]
        if mode == "trace":
            cmd += ["--trace-file", str(WORK / f"trace-{self.workload.name}.json")]
        self.attempted += 1
        with open(self.dir / "child.log", "w") as log:
            t_launch = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=log, stderr=log)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        rec = json.loads(result.read_text()) if result.exists() else None
        if proc.returncode != 0 or rec is None or rec["exit_code"] != 0:
            self.failed += 1
            sys.stderr.write(f"bench: {mode} run failed (exit {proc.returncode}):\n"
                             + (self.dir / "child.log").read_text()[-2000:])
            return None
        if "fingerprint" in rec:
            self.fingerprints.add(rec["fingerprint"])
        if mode in ("run", "trace"):
            if rec.get("check_ok"):
                print(f"bench: {mode} check {json.dumps(rec['check'])}", file=sys.stderr)
            else:
                self.check_errors.append(rec.get("check_error", "no check was made"))
        rec["setup_s"] = rec["t_loaded"] - t_launch
        rec["import_s"] = rec["t_imported"] - t_launch
        if "t_end" in rec:
            rec["run_s"] = rec["t_end"] - t_launch
        return rec

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(runner, seconds):
    """Whole rounds until `seconds` have passed; the median of every sample."""
    w = runner.workload
    runner.launch("setup")            # discarded: compiles __pycache__, warms caches
    samples = {name: [] for name in END_TO_END}
    start = time.monotonic()
    rounds = 0
    while not rounds or time.monotonic() - start < seconds:
        for mode in ["setup"] * w.setup_reps + ["solve"] * w.solve_reps + ["run"]:
            rec = runner.launch(mode)
            for name in samples:
                if rec and name in rec:
                    samples[name].append(rec[name])
        rounds += 1
    for name, values in samples.items():
        print(f"bench: {name} samples " + " ".join(f"{x:.3f}" for x in values), file=sys.stderr)
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items() if samples[name]}


def measure_traced(runner, seconds):
    """Rounds of one traced full run each, until `seconds` have passed."""
    runner.launch("setup")            # discarded, as in measure()
    runs = []
    start = time.monotonic()
    rounds = 0
    while not rounds or time.monotonic() - start < seconds:
        rounds += 1
        rec = runner.launch("trace")
        if rec:
            rec["trace"]["cli.import_s"] = rec["import_s"]
            rec["trace"]["solver.m_final"] = rec.get("m_final", 0)
            rec["trace"]["solver.basis_cols"] = rec.get("basis_cols", 0)
            runs.append(rec)
            print(f"bench: traced run_s = {rec['run_s']:.3f}", file=sys.stderr)
    units = {name: unit for name, (_, _, unit) in spans.METRICS.items()}
    units.update(spans.OTHER_METRICS)
    if not runs:
        return {}
    return {name: {"value": statistics.median(r["trace"][name] for r in runs), "unit": unit}
            for name, unit in units.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "krymat" / "cli.py").is_file():
        print(f"bench: no krymat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    runner = Runner(WORKLOADS[args.workload], args.seed, env)
    try:
        if args.trace:
            metrics = measure_traced(runner, args.seconds)
        else:
            metrics = measure(runner, args.seconds)
    finally:
        runner.close()
    if len(runner.fingerprints) > 1:
        runner.check_errors.append("two runs of the same inputs gave different reports")
    for err in runner.check_errors:
        print(f"bench: check failed: {err}", file=sys.stderr)
    if runner.failed == runner.attempted:
        print("bench: every run failed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not runner.check_errors, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
