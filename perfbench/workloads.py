"""Inputs and job mixes of the benchmark workloads.

A workload's set-up builds its models with ``filtermc gallery`` and writes
the generated inputs (Birkhoff matrices, start vectors, the job list) into a
work directory.  Everything random comes from the workload seed, so the same
seed gives byte-identical inputs.  A pass is the workload's fixed list of CLI
jobs; the benchmark repeats whole passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# gallery parameters of the random-walk and Birkhoff models
RANDOM_WALKS = {f"rw{n}": {"case": "a", "n": n} for n in (63, 64, 256, 1024, 4096)}
BIRKHOFF_SIZES = {"b5": 5, "b6": 6}


@dataclass
class Job:
    """One CLI invocation with its expected exit code and output check."""

    kind: str                 # groups jobs of similar cost in the report
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    verdict: str | None = None  # expected verdict kind of a check job
    code: int = 0


def sinkhorn(n: int, rng: np.random.Generator) -> np.ndarray:
    """A dense random doubly stochastic matrix (rows and columns sum to 1
    within 1e-14)."""
    a = rng.uniform(0.5, 1.5, size=(n, n))
    for _ in range(10_000):
        a /= a.sum(axis=1, keepdims=True)
        a /= a.sum(axis=0, keepdims=True)
        if np.abs(a.sum(axis=1) - 1.0).max() < 1e-14:
            return a
    raise RuntimeError("Sinkhorn scaling did not converge")


def start_vector(n: int, rng: np.random.Generator) -> str:
    """A random interior point of the simplex, as the CLI's --x0 string."""
    return ",".join(repr(float(v)) for v in rng.dirichlet(np.ones(n)))


class Inputs:
    """Builds models and start vectors for one workload in one directory."""

    def __init__(self, run_cli, workdir: Path, seed: int):
        self.run_cli = run_cli
        self.dir = workdir
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.built: dict[str, str] = {}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def model(self, name: str) -> str:
        """Path of the model file, built on first use."""
        if name in self.built:
            return self.built[name]
        out = self.built[name] = self.path(f"{name}.json")
        if name == "kesten":
            argv = ["gallery", "kesten", "--out", out]
        else:
            if name in RANDOM_WALKS:
                kind, params = "random-walk", RANDOM_WALKS[name]
            else:
                n = BIRKHOFF_SIZES[name]
                rng = np.random.default_rng([self.seed, n])
                kind, params = "birkhoff", {"matrix": sinkhorn(n, rng).tolist()}
            params_path = self.path(f"{name}.params.json")
            with open(params_path, "w") as fh:
                json.dump(params, fh)
            argv = ["gallery", kind, "--params", params_path, "--out", out]
        if self.run_cli(argv) != 0:
            raise RuntimeError(f"gallery failed: {argv}")
        return out

    def seeds(self, k: int) -> list[str]:
        return [str(int(s)) for s in self.rng.integers(0, 2**31, size=k)]


def _paths(inp: Inputs) -> list[Job]:
    jobs = []
    out = inp.path("trace.csv")
    for name, n, steps, count in [("kesten", 8, 1000, 4), ("rw63", 63, 500, 3),
                                  ("rw64", 64, 250, 3), ("rw256", 256, 100, 3)]:
        model = inp.model(name)
        for seed in inp.seeds(count):
            x0 = start_vector(n, inp.rng)
            jobs.append(Job(f"simulate {name}", ["simulate", "--model", model, "--steps", str(steps),
                                                 "--seed", seed, "--x0", x0, "--out", out], [out]))
    # no --x0: the path starts from the stationary vector, so each job also
    # loads and solves the 1024-state chain.  These four jobs cost about the
    # same and are the costliest of the pass, so its 90th percentile falls in
    # the middle of them
    model = inp.model("rw1024")
    for seed in inp.seeds(4):
        jobs.append(Job("simulate rw1024", ["simulate", "--model", model, "--steps", "130",
                                            "--seed", seed, "--out", out], [out]))
    model = inp.model("kesten")
    csv = inp.path("entropy.csv")
    for seed in inp.seeds(2):
        jobs.append(Job("entropy-mc kesten", ["entropy", "--model", model, "--horizon", "1", "--mc",
                                              "samples=1000", "burn=100", f"seed={seed}",
                                              "--out", csv], [csv]))
    return jobs


def _word_tree(inp: Inputs) -> list[Job]:
    jobs = []
    csv = inp.path("entropy.csv")
    # The cheap low horizons put the median of a pass on Kesten h8 and the 90th
    # percentile on rw64 h6; these run three and two times, so that each
    # percentile falls inside a block of one job's samples (README).
    for name, horizons, bracket in [("rw63", (2, 3, 4, 5, 6, 7, 8), True),
                                    ("rw64", (2, 4, 5, 6, 6, 7), True),
                                    ("kesten", (2, 3, 4, 5, 6, 7, 8, 8, 8, 10), True),
                                    ("b5", (1, 2), True),
                                    ("rw256", (6, 8, 10, 12), False)]:
        model = inp.model(name)
        for h in horizons:
            argv = ["entropy", "--model", model, "--horizon", str(h), "--out", csv]
            if bracket:
                argv.insert(5, "--bracket")
            jobs.append(Job(f"entropy{' --bracket' if bracket else ''} {name} h{h}", argv, [csv]))
    return jobs


def _measures(inp: Inputs) -> list[Job]:
    jobs = []
    measure = {}
    for name, n, runs in [("b5", 5, {"a": (2, 3), "b": (2, 3), "c": (2, 3)}),
                          ("b6", 6, {"d": (1, 2)})]:
        model = inp.model(name)
        for s, steps in runs.items():
            x0 = start_vector(n, inp.rng)
            for t in steps:
                out = measure[s, t] = inp.path(f"mu_{s}{t}.json")
                jobs.append(Job(f"evolve {name} t{t}", ["evolve", "--model", model, "--steps", str(t),
                                                       "--x0", x0, "--out", out], [out]))
    # the 2- and 3-step Birkhoff-5 measures have 105-120 atoms whatever the
    # seed (3 steps reach all 120 permutations of x0), so these LPs keep
    # their size from seed to seed and hold the median
    plan = inp.path("plan.json")
    b5 = [key for key in measure if key[0] in "abc"]
    pairs = [(a, b) for k, a in enumerate(b5) for b in b5[k + 1:]] + [(("a", 3), ("a", 3))]
    for a, b in pairs:
        jobs.append(Job(f"distance {a[0]}{a[1]}-{b[0]}{b[1]}",
                        ["distance", "--mu", measure[a], "--nu", measure[b], "--plan", plan],
                        [plan]))
    # the rw1024 jobs cost about the same whatever the step count (load and
    # stationary solve), and lie between the LPs below and rw4096 above, so
    # the 90th percentile of a pass falls among them
    for name, steps in (("rw1024", "2"), ("rw1024", "3"), ("rw1024", "4"), ("rw1024", "5"),
                        ("rw4096", "3")):
        model = inp.model(name)
        out = inp.path(f"mu_{name}_{steps}.json")
        jobs.append(Job(f"evolve {name}", ["evolve", "--model", model, "--steps", steps,
                                           "--out", out], [out]))
    return jobs


def _word_search(inp: Inputs) -> list[Job]:
    jobs = []
    out = inp.path("verdict.json")

    def check(name, condition, kind, code=0, extra=()):
        model = inp.model(name)
        jobs.append(Job(f"check {condition} {name}",
                        ["check", "--model", model, "--condition", condition, *extra, "--out", out],
                        [out], kind, code))

    for name, n in (("rw63", 63), ("rw64", 64)):
        bound = ["--col-bound", str(n // 2)]
        check(name, "b1", "b1_converged")
        check(name, "a", "undecided", 2)
        check(name, "localizing", "localizing", 0, bound)
        check(name, "thm93", "undecided", 2, bound)
    check("kesten", "b1", "undecided", 2)
    # the median of a pass falls among the 14 cheap Kesten checks, and the
    # 90th percentile among the 3 Birkhoff-5 checks, just below b1 on rw63/rw64
    for seed in inp.seeds(14):
        check("kesten", "thm11", "nonstable", 0, ["--subset", "0,1,2,3", "--seed", seed])
    for seed in inp.seeds(3):
        check("b5", "thm11", "nonstable", 0,
              ["--subset", "0,1,2,3,4", "--depth", "2", "--samples", "2", "--seed", seed])
    return jobs


MIXES = {"paths": _paths, "word_tree": _word_tree, "measures": _measures,
         "word_search": _word_search}


def setup(workload: str, run_cli, workdir: Path, seed: int) -> list[Job]:
    """Build the workload's models and inputs in ``workdir``; return its pass."""
    workdir.mkdir(parents=True)
    inputs = Inputs(run_cli, workdir, seed)
    jobs = MIXES[workload](inputs)
    with open(workdir / "jobs.json", "w") as fh:
        # paths relative to the work directory, so repeated set-ups match
        json.dump([{"kind": j.kind, "code": j.code,
                    "argv": [a.replace(f"{workdir}/", "") for a in j.argv]} for j in jobs],
                  fh, indent=1)
    return jobs
