import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtermc as fm
from filtermc import ModelError
from filtermc.gallery import KESTEN_DEFAULT_START

from helpers import reference_random_walk


def test_kesten_matrix_shape_and_rows():
    k = fm.kesten_model()
    P = k.partition.base.toarray()
    assert P.shape == (8, 8)
    assert np.allclose(P.sum(axis=1), 1.0)
    assert np.allclose(P.sum(axis=0), 1.0)  # doubly stochastic
    assert set(np.unique(P)) == {0.0, 0.5}
    v = fm.check_irreducible_aperiodic(k.partition.base)
    assert v["irreducible"] and v["aperiodic"]
    assert np.allclose(k.stationary.coords, 0.125)


def test_kesten_lumping_blocks():
    k = fm.kesten_model()
    Ma = k.partition.member("a").toarray()
    Mb = k.partition.member("b").toarray()
    assert (Ma[:, 4:] == 0).all()
    assert (Mb[:, :4] == 0).all()
    assert np.allclose(Ma + Mb, k.partition.base.toarray())


def test_kesten_default_start_is_admissible():
    x0 = np.asarray(KESTEN_DEFAULT_START)
    assert (x0[4:] == 0).all()
    assert x0[0] == x0[2] and x0[1] == x0[3]
    assert 0 < x0[0] < x0[1]
    assert x0.sum() == pytest.approx(1.0)


def test_kesten_orbit_is_eight_points():
    k = fm.kesten_model()
    mu = fm.dirac(KESTEN_DEFAULT_START)
    orbit = []
    for _ in range(50):
        mu = fm.pushforward(mu, k.partition, prune=0.0)
        for p in mu.points:
            if not any(np.abs(p - q).sum() <= 1e-9 for q in orbit):
                orbit.append(p.copy())
        assert mu.size <= 8
    assert len(orbit) == 8


def test_random_walk_params_validation():
    with pytest.raises(ModelError):
        fm.RandomWalkParams(a=(0.5,), b=(0.4, 0.3), c=(0.5, 0.3), n_trunc=2)
    ok = fm.RandomWalkParams(a=(0.5,), b=(0.25, 0.25), c=(0.75, 0.25), n_trunc=2)
    assert ok.ratio_partial_sums()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
       fault=st.sampled_from([None, None, "length", "zero", "negative", "sum", "nan"]))
def test_random_walk_arrays_match_the_tuple_loops(n, seed, fault):
    # coefficients whose rows sum to 1, or with one fault; the same error,
    # or the same triplets and partial sums bit for bit
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(3), size=max(n, 1))
    rows[0] = [0.0, *rng.dirichlet(np.ones(2))]
    a, b, c = (list(v) for v in (rows[1:, 0], rows[:, 1], rows[:, 2]))
    if fault is not None and n >= 2:
        where = [a, b, c][int(rng.integers(3))]
        k = int(rng.integers(len(where)))
        if fault == "length":
            where.pop()
        else:
            where[k] = {"zero": 0.0, "negative": -where[k], "sum": where[k] + 1e-6,
                        "nan": float("nan")}[fault]
    a, b, c = (tuple(map(float, v)) for v in (a, b, c))
    message, entries, sums = reference_random_walk(a, b, c, n)
    if message is not None:
        with pytest.raises(ModelError, match=re.escape(message)):
            fm.random_walk_model(fm.RandomWalkParams(a, b, c, n))
        return
    try:
        model = fm.random_walk_model(fm.RandomWalkParams(a, b, c, n))
    except ModelError as exc:  # NaN passes the tuple checks; the matrix rejects it
        assert fault == "nan" and "finite" in str(exc)
        return
    assert model.partition.base.triplets() == entries
    assert model.meta["ratio_partial_sums"] == sums
    assert model.meta["boundary"]["folded_up_rate"] == c[-1]


def test_an_upward_drift_builds_with_no_overflow_warning():
    # the ratios are 4, then 3 each: the partial sums pass the largest float
    # at k = 645 and are inf from there, as they were with numpy's warning
    n = 1024
    params = fm.RandomWalkParams(a=(1.0 / 6.0,) * (n - 1), b=(1.0 / 3.0,) * n,
                                 c=(2.0 / 3.0,) + (0.5,) * (n - 1), n_trunc=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fm.random_walk_model(params)
    _, _, sums = reference_random_walk(params.a, params.b, params.c, n)
    assert model.meta["ratio_partial_sums"] == sums
    assert sums[644] < float("inf") == sums[645] == sums[-1]


def test_random_walk_case_a_ratio_test_converges():
    model = fm.random_walk_case_a(64)
    sums = model.meta["ratio_partial_sums"]
    # first ratio 4/3, later ratios 1/3: geometric, so partial sums approach
    # (4/3) * (1 + 1/3 + 1/9 + ...) = 2
    assert sums[0] == pytest.approx(4.0 / 3.0)
    assert sums[-1] == pytest.approx(2.0, abs=1e-9)
    assert max(sums) <= 2.0 + 1e-12


def test_random_walk_rows_are_stochastic_and_reflected():
    model = fm.random_walk_case_a(16)
    P = model.partition.base.toarray()
    assert np.allclose(P.sum(axis=1), 1.0)
    # reflection folds the up-rate into the last holding entry
    assert P[15, 15] == pytest.approx(1.0 / 3.0 + 1.0 / 6.0)
    assert P[15, 14] == pytest.approx(0.5)


def test_random_walk_two_step_norm_identities():
    # |e_i M(1) M(2)| is (1-b0)^2 for even i and b0 (1-b0) for odd i,
    # away from the reflecting boundary
    n = 32
    model = fm.random_walk_case_a(n)
    m = model.partition
    M12 = m.member(1) @ m.member(2)
    b0 = 1.0 / 3.0
    for i in range(0, n - 2):
        e = np.zeros(n)
        e[i] = 1.0
        mass = float(M12.left_apply(e).sum())
        expected = (1 - b0) ** 2 if i % 2 == 0 else b0 * (1 - b0)
        assert mass == pytest.approx(expected, abs=1e-12), f"row {i}"


def test_random_walk_member_split_by_parity():
    model = fm.random_walk_case_a(10)
    m = model.partition
    M1 = m.member(1).toarray()
    M2 = m.member(2).toarray()
    assert (M1[:, 0::2] == 0).all()
    assert (M2[:, 1::2] == 0).all()
    assert np.allclose(M1 + M2, model.partition.base.toarray())


def test_perm_family_reproduces_kesten():
    spec = fm.kesten_perm_spec()
    model = fm.perm_family_model(spec)
    kp = fm.kesten_model().partition
    assert np.array_equal(model.partition.base.toarray(), kp.base.toarray())
    assert np.array_equal(model.partition.member("a").toarray(), kp.member("a").toarray())
    assert np.array_equal(model.partition.member("b").toarray(), kp.member("b").toarray())


def test_perm_family_filter_acts_by_block_permutation():
    spec = fm.kesten_perm_spec()
    model = fm.perm_family_model(spec)
    rng = np.random.default_rng(0)
    d = spec.d
    xblock = rng.dirichlet(np.ones(d))
    x = np.concatenate([xblock, np.zeros(d)])
    for w in ("a", "b"):
        M = model.partition.member(w)
        y = M.left_apply(x)
        y /= y.sum()
        k = 0 if w == "a" else 1
        zblock = y[k * d:(k + 1) * d]
        sigma = spec.perm(0, k, w)
        expected = np.zeros(d)
        for j in range(d):
            expected[int(sigma[j])] += xblock[j]
        assert np.abs(zblock - expected).sum() <= 1e-12
        assert np.abs(y[(1 - k) * d:(2 - k) * d]).sum() == 0.0


def test_perm_family_single_block_two_labels():
    base = fm.TransitionMatrix.from_dense([[1.0]])
    members = fm.Partition(
        {"u": fm.NonnegMatrix(1, 1, [(0, 0, 0.5)]),
         "v": fm.NonnegMatrix(1, 1, [(0, 0, 0.5)])},
        base,
    )
    spec = fm.PermFamilySpec(base=base, members=members, d=2,
                             Q={(0, 0, "u"): [0, 1], (0, 0, "v"): [1, 0]})
    model = fm.perm_family_model(spec)
    assert model.n == 2
    report = fm.check_isometry_obstruction(model.partition, [0, 1], n_max=4)
    assert report.passed


def test_perm_family_rejects_column_sharing():
    base = fm.TransitionMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
    members = fm.Partition.trivial(base, label="w")
    with pytest.raises(ModelError):
        fm.PermFamilySpec(base=base, members=members, d=2,
                          Q=lambda i, k, w: [0, 1])


def test_birkhoff_permutation_matrix_is_its_own_decomposition():
    perm = np.eye(3)[[2, 0, 1]]
    terms = fm.birkhoff_decompose(perm)
    assert len(terms) == 1
    w, sigma = terms[0]
    assert w == pytest.approx(1.0)
    assert list(sigma) == [2, 0, 1]


def test_birkhoff_two_by_two_unique():
    terms = fm.birkhoff_decompose([[0.7, 0.3], [0.3, 0.7]])
    by_sigma = {tuple(s): w for w, s in terms}
    assert by_sigma[(0, 1)] == pytest.approx(0.7)
    assert by_sigma[(1, 0)] == pytest.approx(0.3)


def test_birkhoff_reconstructs_random_mixes():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        D = np.zeros((n, n))
        for w in rng.dirichlet(np.ones(int(rng.integers(2, 12)))):
            sigma = rng.permutation(n)
            D[np.arange(n), sigma] += w
        terms = fm.birkhoff_decompose(D)
        assert len(terms) <= (n - 1) ** 2 + 1
        assert sum(w for w, _ in terms) == pytest.approx(1.0, abs=1e-12)
        rebuilt = np.zeros((n, n))
        for w, sigma in terms:
            rebuilt[np.arange(n), sigma] += w
        assert np.abs(rebuilt - D).max() <= 1e-9


def test_birkhoff_rejects_non_doubly_stochastic():
    with pytest.raises(ModelError):
        fm.birkhoff_decompose([[0.9, 0.1], [0.5, 0.5]])


def test_birkhoff_partition_model_members_are_weighted_permutations():
    model = fm.birkhoff_partition_model([[0.7, 0.3], [0.3, 0.7]])
    for _, M in model.partition:
        arr = M.toarray()
        assert (np.count_nonzero(arr, axis=1) == 1).all()
