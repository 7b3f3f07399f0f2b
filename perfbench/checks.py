"""Output checks for benchmark jobs, computed with numpy from the model and
measure files alone; nothing here imports filtermc.

``check(job, result)`` returns None when the job's exit code and outputs
are right, and otherwise a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

TOL = 1e-9


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


class Model:
    """A model file as triplet arrays: the chain ``P`` and one member per label
    (labels as the CLI prints them)."""

    def __init__(self, path: str):
        with open(path) as fh:
            doc = json.load(fh)
        self.n = n = int(doc["states"])
        trip = np.asarray(doc["P"], dtype=float).reshape(-1, 3)
        self.P = (trip[:, 0].astype(int), trip[:, 1].astype(int), trip[:, 2])
        spec = doc["partition"]
        self.members = {}
        if "lumping" in spec:
            g = [str(a) for a in spec["lumping"]]
            rows, cols, vals = self.P
            for a in sorted(set(g)):
                keep = np.array([g[j] == a for j in cols])
                self.members[a] = (rows[keep], cols[keep], vals[keep])
        else:
            for a, t in spec["explicit"].items():
                t = np.asarray(t, dtype=float).reshape(-1, 3)
                self.members[a] = (t[:, 0].astype(int), t[:, 1].astype(int), t[:, 2])
        self.default_start = doc["meta"].get("default_start")

    @staticmethod
    def apply(x: np.ndarray, mat) -> np.ndarray:
        """Row vector times a triplet matrix."""
        rows, cols, vals = mat
        y = np.zeros(x.shape[0])
        np.add.at(y, cols, x[rows] * vals)
        return y

    def dense(self, label: str) -> np.ndarray:
        rows, cols, vals = self.members[label]
        a = np.zeros((self.n, self.n))
        a[rows, cols] = vals
        return a

    def stationary_residual(self, x: np.ndarray) -> float:
        return float(np.abs(self.apply(x, self.P) - x).sum())


def _prob_vector(x: np.ndarray) -> bool:
    return bool((x >= 0).all() and abs(x.sum() - 1.0) <= TOL)


def _start(m: Model, argv: list[str]) -> np.ndarray | None:
    """The start vector the CLI used, or None when it is the stationary one."""
    x0 = _opt(argv, "--x0")
    if x0 is not None:
        x = np.array([float(t) for t in x0.split(",")])
        return x / x.sum()
    return None if m.default_start is None else np.asarray(m.default_start, dtype=float)


def _start_ok(m: Model, argv: list[str], x: np.ndarray) -> bool:
    """x is the given start vector, or a stationary vector of the chain."""
    want = _start(m, argv)
    if want is None:
        return _prob_vector(x) and m.stationary_residual(x) <= TOL
    return float(np.abs(x - want).sum()) <= TOL


def check_simulate(job, res) -> str | None:
    m = Model(_opt(job.argv, "--model"))
    rows = list(csv.reader(io.StringIO(res.files[job.outputs[0]].decode())))
    if rows[0] != ["step", "label"] + [f"x{i}" for i in range(m.n)]:
        return "bad CSV header"
    rows = rows[1:]
    steps = int(_opt(job.argv, "--steps"))
    if len(rows) != steps + 1 or [int(r[0]) for r in rows] != list(range(steps + 1)):
        return "wrong step count"
    xs = np.array([[float(v) for v in r[2:]] for r in rows])
    if not all(_prob_vector(x) for x in xs):
        return "a row is not a probability vector"
    if not _start_ok(m, job.argv, xs[0]):
        return "row 0 is not the start vector"
    for k in range(1, len(rows)):
        label = rows[k][1]
        if label not in m.members:
            return f"label {label!r} is not a partition label"
        y = m.apply(xs[k - 1], m.members[label])
        if y.sum() <= 0 or np.abs(y / y.sum() - xs[k]).sum() > TOL:
            return f"step {k} does not follow x M(w) / |x M(w)|"
    return None


def _read_measure(data: bytes):
    atoms = json.loads(data)["atoms"]
    return (np.array([a["w"] for a in atoms], dtype=float),
            np.array([a["x"] for a in atoms], dtype=float))


def check_evolve(job, res) -> str | None:
    m = Model(_opt(job.argv, "--model"))
    w, pts = _read_measure(res.files[job.outputs[0]])
    match = re.fullmatch(r"atoms=(\d+) pruned_mass=(\S+)\n", res.stdout)
    if match is None or int(match[1]) != w.size:
        return "stdout does not report the atom count"
    pruned = float(match[2])
    if (w <= 0).any() or abs(w.sum() + pruned - 1.0) > TOL:
        return "weights plus pruned mass do not sum to 1"
    if not all(_prob_vector(p) for p in pts):
        return "an atom is not a probability vector"
    bary = w @ pts
    x = _start(m, job.argv)
    if x is None:  # from the stationary vector, which every step keeps
        ok = _prob_vector(bary) and m.stationary_residual(bary) <= TOL
    else:
        for _ in range(int(_opt(job.argv, "--steps"))):
            x = m.apply(x, m.P)
        # pruning drops mass before renormalising, which moves the
        # barycenter by at most twice the pruned mass
        ok = float(np.abs(bary - x).sum()) <= TOL + 2 * pruned
    return None if ok else "barycenter is not x0 P^t"


def check_distance(job, res) -> str | None:
    mu_path, nu_path = _opt(job.argv, "--mu"), _opt(job.argv, "--nu")
    with open(mu_path, "rb") as fh:
        wa, xa = _read_measure(fh.read())
    with open(nu_path, "rb") as fh:
        wb, xb = _read_measure(fh.read())
    dist = float(res.stdout)
    plan = json.loads(res.files[job.outputs[0]])
    e = np.asarray(plan["entries"], dtype=float).reshape(-1, 3)
    i, j, mass = e[:, 0].astype(int), e[:, 1].astype(int), e[:, 2]
    if (mass < 0).any():
        return "negative plan mass"
    if (np.abs(np.bincount(i, mass, wa.size) - wa).max() > TOL
            or np.abs(np.bincount(j, mass, wb.size) - wb).max() > TOL):
        return "plan marginals differ from the measures"
    cost = float(mass @ np.abs(xa[i] - xb[j]).sum(axis=1))
    if abs(cost - dist) > TOL * max(1.0, dist) or abs(plan["cost"] - dist) > TOL * max(1.0, dist):
        return "plan cost differs from the reported distance"
    if dist < float(np.abs(wa @ xa - wb @ xb).sum()) - TOL:
        return "distance below the barycenter gap"
    if mu_path == nu_path and dist > TOL:
        return "d(mu, mu) is not 0"
    return None


def check_entropy(job, res) -> str | None:
    m = Model(_opt(job.argv, "--model"))
    rows = list(csv.DictReader(io.StringIO(res.files[job.outputs[0]].decode())))
    horizon = int(_opt(job.argv, "--horizon"))
    if [int(r["n"]) for r in rows] != list(range(1, horizon + 1)):
        return "wrong horizons"
    h = [float(r["H_n"]) for r in rows]
    cap = math.log2(len(m.members))
    if any(not 0.0 <= hn <= n * cap + TOL for n, hn in enumerate(h, start=1)):
        return "H_n outside [0, n log2 #labels]"
    if "--bracket" in job.argv:
        lo = [float(r["L_n"]) for r in rows]
        up = [float(r["U_n"]) for r in rows]
        if any(a > b + TOL for a, b in zip(lo, up)):
            return "L_n > U_n"
        if any(b < a - TOL for a, b in zip(lo, lo[1:])):
            return "L_n decreases"
        if any(b > a + TOL for a, b in zip(up, up[1:])):
            return "U_n increases"
    if "--mc" in job.argv:
        match = re.fullmatch(r"mc_estimate=(\S+) mc_stderr=(\S+)\n", res.stdout)
        if (match is None or not -TOL <= float(match[1]) <= cap + TOL
                or float(match[2]) < 0):
            return "bad Monte Carlo line"
    return None


def _normalised_power(m: Model, word: list, reps: int) -> np.ndarray:
    """(M(w1) ... M(wk))^reps, rescaled to max row sum 1 after each factor."""
    out = np.eye(m.n)
    for _ in range(reps):
        for w in word:
            out = out @ m.dense(str(w))
            out /= out.sum(axis=1).max()
    return out


def _rank_one(W: np.ndarray, tol: float) -> bool:
    sums = W.sum(axis=1)
    rows = W[sums > math.sqrt(tol)] / sums[sums > math.sqrt(tol), None]
    spread = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2).max()
    return abs(sums.max() - 1.0) <= TOL and spread <= tol


def check_verdict(job, res) -> str | None:
    m = Model(_opt(job.argv, "--model"))
    v = json.loads(res.files[job.outputs[0]])
    if v["kind"] != job.verdict:
        return f"verdict {v['kind']!r}, expected {job.verdict!r}"
    if v["kind"] == "b1_converged":
        W = np.zeros((v["W"]["rows"], v["W"]["cols"]))
        for i, j, x in v["W"]["entries"]:
            W[i, j] = x
        tol = float(_opt(job.argv, "--tol", "1e-8"))
        if not _rank_one(W, tol):
            return "W is not rank one within tol"
        diag = v.get("diagnostics", {})
        reps = diag.get("repetitions", 1) if diag.get("policy") == "repeat" else 1
        if np.abs(_normalised_power(m, v["word"], reps) - W).max() > TOL:
            return "W is not the normalised product of the word"
    elif v["kind"] == "condition_a":
        sup = _normalised_power(m, v["word"], 1) > 0
        if not sup.any() or (sup != np.outer(sup.any(axis=1), sup.any(axis=0))).any():
            return "word product is not subrectangular"
    elif v["kind"] == "localizing":
        prod = _normalised_power(m, v["word"], 1)
        if not prod.any() or (prod.sum(axis=0) > 0).sum() > v["col_bound"]:
            return "word product has too many columns"
    elif v["kind"] == "nonstable":
        if not (v["passed"] and v["isolated_pass"] and v["equal_words_pass"]
                and v["isometry_pass"] and v["max_isometry_deviation"] <= TOL):
            return "nonstable verdict without its three hypotheses"
    return None


CHECKS = {"simulate": check_simulate, "evolve": check_evolve, "distance": check_distance,
          "entropy": check_entropy, "check": check_verdict}


def check(job, res) -> str | None:
    """None if the job's exit code and outputs are right, else the reason."""
    if res.code != job.code:
        return f"exit code {res.code}, expected {job.code}"
    try:
        return CHECKS[job.argv[0]](job, res)
    except (KeyError, ValueError, IndexError, json.JSONDecodeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
