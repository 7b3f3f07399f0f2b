import tracemalloc

import numpy as np
import pytest

import filtermc as fm
from filtermc import ModelError
from filtermc import kantorovich
from filtermc.kantorovich import _cost_matrix, _solve_highs

from helpers import random_measure, reference_solve_linprog, transport_by_tree_enumeration


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


@pytest.mark.parametrize("m, n, dim", [(1, 1, 3), (7, 9, 5), (8, 3, 2), (9, 17, 64), (33, 20, 256)])
def test_cost_matrix_is_bit_equal_to_the_broadcast_form(m, n, dim):
    rng = np.random.default_rng(m * n * dim)
    mu, nu = random_measure(rng, dim, m), random_measure(rng, dim, n)
    want = np.abs(mu.points[:, None, :] - nu.points[None, :, :]).sum(axis=2)
    assert np.array_equal(_cost_matrix(mu, nu), want)


def test_cost_matrix_memory_stays_within_blocks():
    # the broadcast form of 400 x 400 atoms at dim 256 peaks at about 330 MB;
    # blocks of 8 atoms of mu need about 7 MB
    rng = np.random.default_rng(5)
    mu, nu = random_measure(rng, 256, 400), random_measure(rng, 256, 400)
    tracemalloc.start()
    try:
        _cost_matrix(mu, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


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
