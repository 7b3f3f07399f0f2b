import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtermc as fm
from filtermc import ModelError
from filtermc import kantorovich
from filtermc.kantorovich import _cost_matrix, _solve_highs

from helpers import (
    random_measure,
    reference_retarget_barycenter,
    reference_solve_linprog,
    transport_by_tree_enumeration,
)


def test_distance_between_point_masses_is_l1():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.dirichlet(np.ones(4))
        y = rng.dirichlet(np.ones(4))
        d, plan = fm.kantorovich_distance(fm.dirac(x), fm.dirac(y))
        assert d == pytest.approx(np.abs(x - y).sum(), abs=1e-12)
        assert plan.cost == pytest.approx(d, abs=1e-15)


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(1)
    mu = random_measure(rng, 4, 5)
    d, _ = fm.kantorovich_distance(mu, mu)
    assert d <= 1e-12


def test_two_atom_split_versus_center():
    mu = fm.DiscreteMeasure([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    nu = fm.dirac([0.5, 0.5])
    d, plan = fm.kantorovich_distance(mu, nu)
    assert d == pytest.approx(1.0, abs=1e-12)
    assert plan.check_marginals(mu, nu) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), atoms=st.integers(1, 40), dim=st.integers(1, 6),
       lone_source=st.booleans())
def test_a_one_atom_side_gives_the_product_plan(seed, atoms, dim, lone_source):
    # the earlier branches, one per side: every entry listed, and the cost
    # summed over the other side's weights in atom order
    rng = np.random.default_rng(seed)
    lone, many = random_measure(rng, dim, 1), random_measure(rng, dim, atoms)
    mu, nu = (lone, many) if lone_source else (many, lone)
    C = _cost_matrix(mu, nu)
    if lone_source:
        entries = tuple((0, j, float(wj)) for j, wj in enumerate(nu.weights))
        cost = float((C[0] * nu.weights).sum())
    else:
        entries = tuple((i, 0, float(wi)) for i, wi in enumerate(mu.weights))
        cost = float((mu.weights * C[:, 0]).sum())
    assert lone.weights.tolist() == [1.0]
    assert fm.kantorovich_distance(mu, nu) == (cost, kantorovich.TransportPlan(entries, cost))


def test_solver_matches_tree_enumeration_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m_atoms = int(rng.integers(1, 4))
        n_atoms = int(rng.integers(1, 4))
        mu = random_measure(rng, 3, m_atoms)
        nu = random_measure(rng, 3, n_atoms)
        C = np.abs(mu.points[:, None, :] - nu.points[None, :, :]).sum(axis=2)
        d, plan = fm.kantorovich_distance(mu, nu)
        oracle = transport_by_tree_enumeration(mu.weights, nu.weights, C)
        assert d == pytest.approx(oracle, abs=1e-9)
        assert plan.check_marginals(mu, nu) <= 1e-9


def test_metric_axioms_sampled():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mu = random_measure(rng, 3, 3)
        nu = random_measure(rng, 3, 4)
        rho = random_measure(rng, 3, 2)
        d_mn, _ = fm.kantorovich_distance(mu, nu)
        d_nm, _ = fm.kantorovich_distance(nu, mu)
        assert d_mn == pytest.approx(d_nm, abs=1e-9)
        d_mr, _ = fm.kantorovich_distance(mu, rho)
        d_rn, _ = fm.kantorovich_distance(rho, nu)
        assert d_mn <= d_mr + d_rn + 1e-9
        assert d_mn >= -1e-12


def test_dual_lower_bound_cases():
    rng = np.random.default_rng(4)
    mu = random_measure(rng, 4, 3)
    nu = random_measure(rng, 4, 3)
    d, _ = fm.kantorovich_distance(mu, nu)
    zero = fm.TestFunction.constant(0.0)
    assert fm.dual_lower_bound(mu, nu, zero) == 0.0
    for i in range(4):
        u = fm.TestFunction.coordinate(i, 4)
        assert fm.dual_lower_bound(mu, nu, u) <= d + 1e-12


def test_dual_rejects_non_lipschitz_certificate():
    rng = np.random.default_rng(5)
    mu = random_measure(rng, 3, 2)
    nu = random_measure(rng, 3, 2)
    steep = fm.TestFunction.affine_max([(np.array([5.0, -5.0, 0.0]), 0.0)])
    with pytest.raises(ModelError):
        fm.dual_lower_bound(mu, nu, steep)


def test_sign_function_attains_barycenter_gap():
    rng = np.random.default_rng(6)
    for _ in range(10):
        mu = random_measure(rng, 5, 4)
        nu = random_measure(rng, 5, 3)
        a = fm.barycenter(mu).coords
        b = fm.barycenter(nu).coords
        sign = np.sign(a - b)
        u = fm.TestFunction(evaluator=lambda x, s=sign: float(s @ x), lipschitz=1.0)
        gap = fm.barycenter_gap(mu, nu)
        assert fm.dual_lower_bound(mu, nu, u) == pytest.approx(gap, abs=1e-12)
        d, _ = fm.kantorovich_distance(mu, nu)
        assert gap <= d + 1e-9


def test_barycenter_gap_is_the_l1_gap_of_the_barycenters_bit_for_bit():
    # the formula barycenter_gap computed before it read distance_to_fiber
    rng = np.random.default_rng(8)
    for _ in range(20):
        mu = random_measure(rng, 5, int(rng.integers(1, 6)))
        nu = random_measure(rng, 5, int(rng.integers(1, 6)))
        expected = float(np.abs(fm.barycenter(mu).coords - fm.barycenter(nu).coords).sum())
        assert fm.barycenter_gap(mu, nu) == expected


def test_barycenter_gap_edge_cases():
    rng = np.random.default_rng(7)
    mu = random_measure(rng, 3, 3)
    # same barycenter: gap 0 but distance may be positive
    _, psi = fm.retarget_barycenter(mu, fm.barycenter(mu).coords)
    assert fm.barycenter_gap(mu, psi) <= 1e-12
    x = rng.dirichlet(np.ones(3))
    y = rng.dirichlet(np.ones(3))
    gap = fm.barycenter_gap(fm.dirac(x), fm.dirac(y))
    d, _ = fm.kantorovich_distance(fm.dirac(x), fm.dirac(y))
    assert gap == pytest.approx(d, abs=1e-12)


def test_retarget_single_atom():
    b = np.array([0.2, 0.3, 0.5])
    zetas, psi = fm.retarget_barycenter([(1.0, [1.0, 0.0, 0.0])], b)
    assert np.allclose(zetas[0].coords, b)
    assert psi.size == 1


def test_retarget_identity_when_target_equals_barycenter():
    rng = np.random.default_rng(8)
    mu = random_measure(rng, 4, 5)
    zetas, _ = fm.retarget_barycenter(mu, fm.barycenter(mu).coords)
    for z, p in zip(zetas, mu.points):
        assert np.abs(z.coords - p).sum() <= 1e-12


def test_retarget_worked_example():
    # two vertex atoms moved to barycenter (1/4, 1/4, 1/2) at cost |a-b| = 1
    phi = [(0.5, [1.0, 0.0, 0.0]), (0.5, [0.0, 1.0, 0.0])]
    b = np.array([0.25, 0.25, 0.5])
    zetas, psi = fm.retarget_barycenter(phi, b)
    mix = 0.5 * zetas[0].coords + 0.5 * zetas[1].coords
    assert np.abs(mix - b).sum() <= 1e-12
    cost = 0.5 * np.abs(np.array([1.0, 0.0, 0.0]) - zetas[0].coords).sum() \
        + 0.5 * np.abs(np.array([0.0, 1.0, 0.0]) - zetas[1].coords).sum()
    assert cost == pytest.approx(1.0, abs=1e-12)
    d, _ = fm.kantorovich_distance(
        fm.DiscreteMeasure([0.5, 0.5], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), psi)
    assert d == pytest.approx(1.0, abs=1e-9)


def test_retarget_construction_is_optimal_randomized():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        atoms = int(rng.integers(1, 8))
        mu = random_measure(rng, n, atoms)
        b = rng.dirichlet(np.ones(n))
        zetas, psi = fm.retarget_barycenter(mu, b)
        a = fm.barycenter(mu).coords
        moved = sum(float(w) * np.abs(p - z.coords).sum()
                    for w, p, z in zip(mu.weights, mu.points, zetas))
        target_gap = np.abs(a - b).sum()
        # barycenter hits the target and the movement equals the gap
        assert np.abs(fm.barycenter(psi).coords - b).sum() <= 1e-9
        assert moved == pytest.approx(target_gap, abs=1e-9)
        # certified optimal against the exact solver
        d, _ = fm.kantorovich_distance(mu, psi)
        assert d == pytest.approx(target_gap, abs=1e-9)


def test_retarget_boundary_target_with_zeros():
    rng = np.random.default_rng(10)
    mu = random_measure(rng, 4, 3)
    b = np.array([0.0, 0.0, 0.4, 0.6])
    zetas, psi = fm.retarget_barycenter(mu, b)
    assert np.abs(fm.barycenter(psi).coords - b).sum() <= 1e-9


def test_retarget_matches_the_two_pointer_sweep():
    # the north-west corner fill moves what the pairwise sweep moved, up to
    # rounding: a fifth of the targets and a quarter of the atoms have zeros
    rng = np.random.default_rng(28)
    worst = 0.0
    for _ in range(1200):
        dim = int(rng.integers(2, 12))
        atoms = int(rng.integers(1, 12))
        points = rng.dirichlet(np.ones(dim), size=atoms)
        for k in np.flatnonzero(rng.random(atoms) < 0.25):
            points[k, rng.integers(dim)] = 0.0
            points[k] /= points[k].sum()
        mu = fm.DiscreteMeasure(rng.dirichlet(np.ones(atoms)), points, merge_eps=0.0)
        b = rng.dirichlet(np.ones(dim))
        if rng.random() < 0.2:
            b[rng.choice(dim, size=dim // 2, replace=False)] = 0.0
            b /= b.sum()
        got, _ = fm.retarget_barycenter(mu, b)
        want, _ = reference_retarget_barycenter(mu, b)
        worst = max(worst, max(np.abs(z.coords - r.coords).max() for z, r in zip(got, want)))
    assert worst <= 1e-10


def test_plan_marginals_add_each_entry_in_order():
    rng = np.random.default_rng(29)
    mu, nu = random_measure(rng, 3, 5), random_measure(rng, 3, 4)
    _, plan = fm.kantorovich_distance(mu, nu)
    row, col = np.zeros(mu.size), np.zeros(nu.size)
    for i, j, mass in plan.entries:
        row[i] += mass
        col[j] += mass
    want = float(max(np.abs(row - mu.weights).max(), np.abs(col - nu.weights).max()))
    assert plan.check_marginals(mu, nu) == want


def test_retarget_rejects_mass_mismatch():
    rng = np.random.default_rng(11)
    mu = random_measure(rng, 3, 2)
    with pytest.raises(ModelError):
        fm.retarget_barycenter(mu, np.array([0.5, 0.5, 0.5]))


def test_distance_to_fiber():
    rng = np.random.default_rng(12)
    mu = random_measure(rng, 4, 4)
    q = fm.ProbVector(rng.dirichlet(np.ones(4)))
    val = fm.distance_to_fiber(mu, q)
    assert val == pytest.approx(np.abs(fm.barycenter(mu).coords - q.coords).sum(), abs=1e-12)
    # measure already on the fiber
    _, psi = fm.retarget_barycenter(mu, q.coords)
    assert fm.distance_to_fiber(psi, q) <= 1e-9
    # point mass case
    x = rng.dirichlet(np.ones(4))
    assert fm.distance_to_fiber(fm.dirac(x), q) == pytest.approx(
        np.abs(x - q.coords).sum(), abs=1e-12)
    # the retargeted witness attains the distance
    d, _ = fm.kantorovich_distance(mu, psi)
    assert d == pytest.approx(val, abs=1e-9)


def test_fiber_mass_check_cases():
    q = fm.ProbVector([0.4, 0.6])
    res = fm.fiber_mass_check(fm.dirac(q), 0)
    assert res.mass == pytest.approx(1.0) and res.passed
    psi = fm.vertex_measure(q)
    res = fm.fiber_mass_check(psi, 0, q)
    assert res.mass == pytest.approx(0.4, abs=1e-12) and res.passed
    rng = np.random.default_rng(13)
    for _ in range(10):
        mu = random_measure(rng, 4, 5)
        target = rng.dirichlet(np.ones(4))
        _, fiber_mu = fm.retarget_barycenter(mu, target)
        qv = fm.barycenter(fiber_mu)
        for i in range(4):
            if qv.coords[i] > 0:
                assert fm.fiber_mass_check(fiber_mu, i).passed


def test_fiber_mass_check_rejects_zero_coordinate():
    mu = fm.dirac([1.0, 0.0])
    with pytest.raises(ModelError):
        fm.fiber_mass_check(mu, 1)


def test_contraction_type_bound_under_pushforward():
    rng = np.random.default_rng(14)
    from helpers import random_partition, random_transition
    for _ in range(8):
        P = random_transition(rng, 4)
        m = random_partition(rng, P, 2)
        mu = random_measure(rng, 4, 2)
        nu = random_measure(rng, 4, 3)
        d0, _ = fm.kantorovich_distance(mu, nu)
        pm, pn = mu, nu
        for n in range(1, 5):
            pm = fm.pushforward(pm, m, prune=0.0)
            pn = fm.pushforward(pn, m, prune=0.0)
            dn, _ = fm.kantorovich_distance(pm, pn)
            assert dn <= 3.0 * d0 + 1e-9


def test_plan_file(tmp_path):
    rng = np.random.default_rng(15)
    mu = random_measure(rng, 3, 3)
    nu = random_measure(rng, 3, 2)
    d, plan = fm.kantorovich_distance(mu, nu)
    path = tmp_path / "plan.json"
    fm.kantorovich.save_plan(plan, path)
    import json
    doc = json.loads(path.read_text())
    assert doc["cost"] == pytest.approx(d, abs=1e-15)
    assert all(len(e) == 3 for e in doc["entries"])


@pytest.mark.parametrize("m, n, dim", [(1, 1, 3), (7, 9, 5), (8, 3, 2), (9, 17, 64), (33, 20, 256),
                                      (9, 130, 1024), (2, 131, 1024)])  # nu in blocks of 65 atoms
def test_cost_matrix_is_bit_equal_to_the_broadcast_form(m, n, dim):
    rng = np.random.default_rng(m * n * dim)
    mu, nu = random_measure(rng, dim, m), random_measure(rng, dim, n)
    want = np.abs(mu.points[:, None, :] - nu.points[None, :, :]).sum(axis=2)
    assert np.array_equal(_cost_matrix(mu, nu), want)


# the broadcast form of 400 x 400 atoms at dim 256 peaks at about 330 MB;
# 8 atoms of mu against all 1,000 of nu at dim 1024 peaked at about 125 MB
# for a 61 KB matrix; blocks of about 2**16 differences need well under 16 MB
@pytest.mark.parametrize("m, n, dim", [(400, 400, 256), (8, 1000, 1024)])
def test_cost_matrix_memory_stays_within_blocks(m, n, dim):
    rng = np.random.default_rng(5)
    mu, nu = random_measure(rng, dim, m), random_measure(rng, dim, n)
    tracemalloc.start()
    try:
        _cost_matrix(mu, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _birkhoff5_measures(seed):
    """The 1-, 2- and 3-step measures of a random Birkhoff-5 model from a
    random start: up to 120 atoms, the size of the benchmark's LPs."""
    rng = np.random.default_rng(seed)
    D = np.zeros((5, 5))
    for w in rng.dirichlet(np.ones(8)):
        D[np.arange(5), rng.permutation(5)] += w
    m = fm.birkhoff_partition_model(D).partition
    x0 = rng.dirichlet(np.ones(5))
    return [fm.evolve(x0, m, t) for t in (1, 2, 3)]


def test_direct_highs_solve_is_bit_equal_to_linprog(monkeypatch):
    measures = _birkhoff5_measures(3) + _birkhoff5_measures(7)
    assert max(mu.size for mu in measures) == 120
    pairs = [(mu, nu) for k, mu in enumerate(measures) for nu in measures[k:]]
    direct = [fm.kantorovich_distance(mu, nu) for mu, nu in pairs]
    monkeypatch.setattr(kantorovich, "_solve_highs", reference_solve_linprog)
    reference = [fm.kantorovich_distance(mu, nu) for mu, nu in pairs]
    # repr round-trips every double, so equal reprs are equal bits
    for (d, plan), (d_ref, plan_ref) in zip(direct, reference):
        assert repr((d, plan.entries)) == repr((d_ref, plan_ref.entries))


@st.composite
def transport_lps(draw):
    """(costs, right-hand side, m, n) of a transportation LP between m and n
    atoms, 2 to 12 each and one side of two atoms in half the draws: the
    points are Dirichlet draws, points of the grid {0, 1/2, 1} (tied costs),
    or targets that reuse source points (zero-cost columns); the weights are
    uniform or random."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    if draw(st.booleans()):  # the sizes where presolve runs
        m, n = draw(st.sampled_from([(2, n), (m, 2)]))
    dim = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = draw(st.sampled_from(["dirichlet", "grid", "reused"]))
    if points == "grid":
        X, Y = (rng.choice([0.0, 0.5, 1.0], size=(k, dim)) for k in (m, n))
    else:
        X = rng.dirichlet(np.ones(dim), size=m)
        Y = X[rng.integers(0, m, size=n)] if points == "reused" else rng.dirichlet(np.ones(dim), size=n)
    C = np.abs(X[:, None, :] - Y[None, :, :]).sum(axis=2)
    w = [np.full(k, 1.0 / k) if draw(st.booleans()) else rng.dirichlet(np.ones(k)) for k in (m, n)]
    return C.ravel(), np.concatenate(w)[:-1], m, n


@settings(max_examples=300, deadline=None)
@given(lp=transport_lps())
def test_the_highs_solve_is_bit_equal_to_linprog_on_random_lps(lp):
    # presolve skipped where no rule applies leaves the vertex; skipped also
    # at two atoms, where the doubleton rule fires, it moves some of them
    assert _solve_highs(*lp).tobytes() == reference_solve_linprog(*lp).tobytes()


@pytest.mark.parametrize("path", ["highs", "linprog"])
def test_a_nan_weight_is_a_model_error(monkeypatch, path):
    if path == "linprog":
        monkeypatch.setattr(kantorovich, "_solve_highs", reference_solve_linprog)
    # the mass check was false for NaN, so this measure used to build
    with pytest.raises(ModelError, match="DiscreteMeasure mass nan deviates from 1"):
        fm.DiscreteMeasure([np.nan, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModelError, match="DiscreteMeasure points must be finite"):
        fm.DiscreteMeasure([0.5, 0.5], [[np.nan, 1.0], [0.0, 1.0]])
    # finite points whose distances overflow still reach the solver's check
    with np.errstate(over="ignore"):
        mu = fm.DiscreteMeasure([0.5, 0.5], [[1e308, -1e308], [0.0, 1.0]])
        nu = fm.DiscreteMeasure([0.5, 0.5], [[-1e308, 1e308], [0.25, 0.75]])
        with pytest.raises(ModelError, match="finite weights and points"):
            fm.kantorovich_distance(mu, nu)


@pytest.mark.parametrize("solve", [_solve_highs, reference_solve_linprog],
                         ids=["highs", "linprog"])
def test_an_infeasible_transport_lp_is_a_model_error(solve):
    # source masses 0.5 + 0.5, but target 0 alone asks for 2
    with pytest.raises(ModelError, match="transport solver failed"):
        solve(np.ones(4), np.array([0.5, 0.5, 2.0]), 2, 2)
