"""Exact Kantorovich (l1 optimal transport) distances between discrete
measures on the simplex, barycenter bounds, and a constructive algorithm
that moves a measure's barycenter to a prescribed target at optimal cost.

The primal transport problem on the bipartite support graph is solved
exactly by HiGHS's dual simplex (Huangfu & Hall 2018), on scipy's bundled
HiGHS core, posed as ``scipy.optimize.linprog`` poses it but with presolve
only where a doubleton rule can fire (two atoms on a side): elsewhere no
presolve rule reduces the LP, so the simplex starts from the same model and
ends at the same vertex.  The plans are bit-equal to ``linprog``'s, without
its presolve pass and its per-column Python loop over results nobody reads.
Supports here are small, which is what makes equality assertions in the
tests meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog  # noqa: F401  (perfbench/tracer.py's SPANS name it here)
from scipy.optimize._highspy import _core as _highs

from .core_model import PROB_ATOL, ModelError, ProbVector, _write_json, as_prob_vector
from .filter_dynamics import DiscreteMeasure, TestFunction, barycenter

__all__ = [
    "TransportPlan",
    "kantorovich_distance",
    "dual_lower_bound",
    "barycenter_gap",
    "retarget_barycenter",
    "distance_to_fiber",
    "fiber_mass_check",
    "FiberMassResult",
    "save_plan",
]


@dataclass(frozen=True)
class TransportPlan:
    """An optimal coupling: entries (source index, target index, mass)."""

    entries: tuple[tuple[int, int, float], ...]
    cost: float

    def check_marginals(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """Max deviation of the plan's marginals from the two weight vectors."""
        i, j, mass = np.array(self.entries, dtype=float).reshape(-1, 3).T
        row, col = np.zeros(mu.size), np.zeros(nu.size)
        np.add.at(row, i.astype(int), mass)  # entry by entry, as a loop adds them
        np.add.at(col, j.astype(int), mass)
        return float(max(np.abs(row - mu.weights).max(), np.abs(col - nu.weights).max()))


def _cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """l1 distances between the atoms, broadcast in blocks of about 2**16
    differences, each pair summed along its length-dim axis."""
    if mu.dim != nu.dim:
        raise ModelError("measures live on simplices of different dimension")
    C = np.empty((mu.size, nu.size))
    cols = 2**16 // mu.dim + 1
    rows = 2**16 // (min(cols, nu.size) * mu.dim) + 1
    for i in range(0, mu.size, rows):
        for j in range(0, nu.size, cols):
            d = np.subtract(mu.points[i:i + rows, None], nu.points[None, j:j + cols])
            C[i:i + rows, j:j + cols] = np.abs(d, out=d).sum(axis=2)
    return C


def _transport_columns(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column starts and row indices of the transportation LP's equality
    matrix, whose values are all 1: variable ``k = i * n + j`` appears in row
    ``i`` (mass out of source i) and row ``m + j`` (mass into target j), and
    the last, redundant row is dropped."""
    index = np.empty((m, 2 * n), dtype=int)
    index[:, 0::2] = np.arange(m)[:, None]
    index[:, 1::2] = np.arange(m, m + n)
    k = np.arange(m * n + 1)
    # two entries per column, less one for each of the k // n columns of
    # target n - 1 that come before column k
    return 2 * k - k // n, index[:, :-1].ravel()


def _solve_highs(c: np.ndarray, b_eq: np.ndarray, m: int, n: int) -> np.ndarray:
    """The transportation LP on scipy's HiGHS core, with the matrix, bounds
    and options that ``linprog(method="highs")`` passes, so HiGHS returns
    the same vertex; its result is checked as ``linprog`` checks it.

    Presolve runs only when ``min(m, n) == 2``.  With three or more atoms on
    each side every equality row has at least three unit entries and a
    positive right-hand side, and the row duals are free, so no singleton,
    doubleton, forcing-row or dominated-column reduction applies (Andersen &
    Andersen 1995): HiGHS would pass the unreduced LP to the same dual
    simplex, so skipping presolve gives the same vertex and saves about
    half the solve time of a 120-atom LP.
    With two atoms on a side, that side's rows are doubleton equations;
    presolve substitutes them out, which can move the vertex among tied
    optima, so it stays on to keep the plans bit-equal to ``linprog``'s."""
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = m * n
    lp.num_row_ = lp.a_matrix_.num_row_ = m + n - 1
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    # the bindings read a numpy array into these fields one numpy scalar at a
    # time, several times slower than a list (the cost reads its array whole)
    start, index = _transport_columns(m, n)
    lp.a_matrix_.start_, lp.a_matrix_.index_ = start.tolist(), index.tolist()
    lp.a_matrix_.value_ = [1.0] * index.size
    lp.col_cost_ = c
    lp.col_lower_ = [0.0] * (m * n)
    lp.col_upper_ = [_highs.kHighsInf] * (m * n)
    lp.row_lower_ = lp.row_upper_ = b_eq
    options = _highs.HighsOptions()
    options.presolve = "on" if min(m, n) == 2 else "off"
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = 1e-10
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    h = _highs._Highs()
    h.passOptions(options)
    h.passModel(lp)
    h.run()
    status = h.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise ModelError(f"transport solver failed: {h.modelStatusToString(status)}")
    solution = h.getSolution()
    x = np.array(solution.col_value)
    residual = b_eq - np.array(solution.row_value)
    tol = np.sqrt(1e-9) * 10  # linprog's: the square root of its tol, times 10
    # negated comparisons, so that NaN fails them too
    if not ((x >= -tol).all() and (np.abs(residual) <= tol).all()):
        raise ModelError(f"transport solver returned a plan off the constraints by over {tol:.2e}")
    return x


def kantorovich_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[float, TransportPlan]:
    """Exact Kantorovich distance with l1 ground metric, plus an optimal plan.

    The minimum-cost coupling of the two weight vectors is computed on the
    bipartite support graph; the returned plan attains the value and its
    marginals match the inputs within 1e-9.
    """
    if mu.size == 0 or nu.size == 0:
        raise ModelError("kantorovich_distance requires nonempty supports")
    C = _cost_matrix(mu, nu)
    weights = np.concatenate([mu.weights, nu.weights])
    if not (np.isfinite(C).all() and np.isfinite(weights).all()):
        raise ModelError("kantorovich_distance requires finite weights and points")
    m, n = C.shape
    if min(m, n) == 1:  # the one coupling; a lone atom's weight is exactly 1.0
        plan = np.outer(mu.weights, nu.weights)
        entries = tuple((i, j, float(plan[i, j])) for i in range(m) for j in range(n))
    else:
        plan = _solve_highs(C.ravel(), weights[:-1], m, n).reshape(m, n)
        plan[plan < 0] = 0.0
        entries = tuple((int(i), int(j), float(plan[i, j])) for i, j in zip(*np.nonzero(plan > 1e-15)))
    cost = float((plan * C).sum())
    return cost, TransportPlan(entries, cost)


def dual_lower_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, u: TestFunction) -> float:
    """The dual gap ``<u, mu> - <u, nu>`` for a test function certified
    1-Lipschitz by the caller; by weak duality it never exceeds the primal
    optimum."""
    if u.lipschitz is not None and u.lipschitz > 1.0 + 1e-12:
        raise ModelError("dual_lower_bound needs a 1-Lipschitz test function")
    return mu.integrate(u.evaluator) - nu.integrate(u.evaluator)


def barycenter_gap(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """l1 distance between barycenters; a lower bound for the transport
    distance (take the coordinate sign pattern as the dual function)."""
    return distance_to_fiber(mu, barycenter(nu))


# ---------------------------------------------------------------------------
# constructive retargeting
# ---------------------------------------------------------------------------

def retarget_barycenter(phi, b) -> tuple[list[ProbVector], DiscreteMeasure]:
    """Move the atoms of ``phi`` so the barycenter becomes ``b`` at optimal cost.

    ``phi`` is a DiscreteMeasure or a list of ``(weight, point)`` pairs with
    positive weights summing to 1; ``b`` is a nonnegative vector of the same
    total mass as ``a = sum(weight * point)``.  Returns the moved atoms
    ``zeta_k`` and the measure ``Psi = sum weight_k * delta(zeta_k)``, which
    satisfy

    * ``sum weight_k * zeta_k == b`` and
    * ``sum weight_k * |xi_k - zeta_k| == |a - b|``,

    so the transport distance from ``phi`` to ``Psi`` equals ``|a - b|``
    exactly — optimal, because the barycenter gap is a lower bound.

    Atoms are moved last to first by :func:`_retarget_step`, the first one
    to what is left of ``b``; the fill is deterministic, so is the result.
    """
    if isinstance(phi, DiscreteMeasure):
        betas, xis = phi.weights, phi.points
    else:
        betas = np.array([float(w) for w, _ in phi])
        xis = np.array([as_prob_vector(p).coords for _, p in phi])
    if (betas <= 0).any():
        raise ModelError("retarget_barycenter rejects zero-weight atoms")
    if abs(betas.sum() - 1.0) > PROB_ATOL:
        raise ModelError("retarget_barycenter expects a probability measure")
    b = np.asarray(b, dtype=float)
    if b.shape != xis.shape[1:]:
        raise ModelError(f"target vector has shape {b.shape}, but the atoms have dimension {xis.shape[1]}")
    if (b < 0).any():
        raise ModelError("target vector must be nonnegative")
    # summed atom by atom down the columns; ``betas @ xis`` rounds differently
    a = (betas[:, None] * xis).sum(axis=0)
    if abs(float(b.sum()) - float(a.sum())) > PROB_ATOL:
        raise ModelError("target vector mass must equal the barycenter mass")
    zetas = np.empty_like(xis)
    for k in range(betas.size - 1, 0, -1):
        zetas[k] = np.maximum(_retarget_step(a, b, betas[k], xis[k]), 0.0)
        a = np.maximum(a - betas[k] * xis[k], 0.0)
        b = np.maximum(b - betas[k] * zetas[k], 0.0)
    zetas[0] = np.maximum(b / betas[0], 0.0)
    moved = [ProbVector(z) for z in zetas]
    return moved, DiscreteMeasure(betas, [z.coords for z in moved])


def _north_west(own: np.ndarray, total: float) -> np.ndarray:
    """``own`` filled in index order up to ``total``: each entry takes the overlap
    of its stretch of the running sum with ``[0, total]``, capped at itself."""
    before = np.cumsum(own) - own
    return np.minimum(own, np.maximum(total - before, 0.0))


def _retarget_step(a: np.ndarray, b: np.ndarray, beta: float, xi: np.ndarray) -> np.ndarray:
    """One induction step: move as much as possible of the current atom's
    mass from coordinates where ``a`` exceeds ``b`` to those where it falls
    short, without overshooting either side.  The pairing is the north-west
    corner rule of the transportation problem (Dantzig 1963), surplus and
    room both in ascending coordinates: the smaller total moves, and each
    side fills its coordinates in order up to it."""
    surplus = np.maximum(np.minimum(beta * xi, a - b), 0.0)
    room = np.maximum(b - a, 0.0)
    moved = min(surplus.sum(), room.sum())
    return xi + (_north_west(room, moved) - _north_west(surplus, moved)) / beta


def distance_to_fiber(mu: DiscreteMeasure, q) -> float:
    """Distance from ``mu`` to the set of measures with barycenter ``q``:
    exactly the l1 gap between barycenters.  A witness measure attaining it
    comes from :func:`retarget_barycenter` with target ``q``."""
    qv = as_prob_vector(q)
    return float(np.abs(barycenter(mu).coords - qv.coords).sum())


@dataclass(frozen=True)
class FiberMassResult:
    mass: float
    passed: bool


def fiber_mass_check(mu: DiscreteMeasure, i: int, q=None) -> FiberMassResult:
    """For a measure with barycenter ``q``: mass of ``{x : x_i >= q_i / 2}``,
    which is always at least ``q_i / 2``."""
    qv = as_prob_vector(q) if q is not None else barycenter(mu)
    if distance_to_fiber(mu, qv) > 1e-9:
        raise ModelError("measure barycenter does not match q")
    qi = float(qv.coords[i])
    if qi <= 0:
        raise ModelError("fiber_mass_check requires q_i > 0")
    mass = float(mu.weights[mu.points[:, i] >= qi / 2.0].sum())
    return FiberMassResult(mass=mass, passed=bool(mass >= qi / 2.0 - 1e-12))


def save_plan(plan: TransportPlan, path) -> None:
    """Plan file: list of (source, target, mass) triplets plus the cost."""
    _write_json({"cost": plan.cost, "entries": plan.entries}, path)
