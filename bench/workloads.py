"""The benchmark's workloads: problem bundles made from a seed, and the
`krymat run` config that solves each one.

Every bundle is built with krymat's own generators and written with
`probio.save_problem`; `krymat run` reads it back through `bundle = <dir>`.
Only the random factors (B, or B2 and C) depend on the seed; the Laplacian
is fixed, so the solver's work hardly moves from one seed to the next.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    method: str           # krymat's [run] method
    solver: tuple         # (module, function) of the solver call inside krymat
    steps: int
    solver_cfg: str       # the [solver] lines
    factors: bool
    setup_reps: int       # processes per round that stop once the problem is loaded
    solve_reps: int       # processes per round that stop once the solver returns

    def config_text(self, bundle_dir):
        return (
            f"[run]\nmethod = {self.method}\n\n"
            f"[problem]\nbundle = {bundle_dir}\n\n"
            f"[grid]\nsteps = {self.steps}\n\n"
            f"[solver]\n{self.solver_cfg}\n\n"
            f"[output]\nfactors = {'true' if self.factors else 'false'}\n"
        )


WORKLOADS = {
    w.name: w for w in (
        Workload("egadl-lap90k", "egadl", ("dlebdf", "egadl_solve"), 200,
                 "m_max = 60\ntol = 1e-8\nl = 2", False, 2, 0),
        Workload("expo-lap10k-factors", "expo", ("dleexp", "expo_dle_solve"), 20,
                 "m_max = 60\ntol = 1e-8\nvariant = extended", True, 0, 4),
        Workload("galerkin-lapsylv10k", "galerkin", ("dsylv", "galerkin_solve"), 20,
                 "m_max = 200\ntol = 1e-8", False, 3, 0),
    )
}

# the seed of each random factor is derived from the benchmark seed
SEED_RANGE = 2 ** 32


def make_problem(name, seed):
    """The workload's problem for a benchmark seed (imports krymat lazily)."""
    import scipy.sparse as sp

    from krymat import probio

    seed = seed % SEED_RANGE
    if name == "egadl-lap90k":
        return probio.gen_dle_problem(n0=300, p=2, seed=seed, t0=0.0, tf=1.0)
    if name == "expo-lap10k-factors":
        return probio.gen_dle_problem(n0=100, p=2, seed=seed, t0=0.0, tf=1.0)
    if name == "galerkin-lapsylv10k":
        a = probio.gen_laplacian2d(100)
        b2 = probio.gen_random_stable(4, density=1.0, seed=seed)
        c = probio.random_full_rank(a.shape[0], 4, seed=(seed + 1) % SEED_RANGE)
        n, p = a.shape[0], b2.shape[0]
        return probio.GenSylvesterProblem(
            (a, sp.identity(n, format="csr")), (sp.identity(p, format="csr"), b2),
            c, t0=0.0, tf=0.01)
    raise KeyError(name)


def write_bundle(name, seed, out_dir):
    from krymat import probio

    probio.save_problem(make_problem(name, seed), out_dir)


if __name__ == "__main__":
    import sys

    # python3 bench/workloads.py NAME SEED OUT_DIR
    write_bundle(sys.argv[1], int(sys.argv[2]), sys.argv[3])
