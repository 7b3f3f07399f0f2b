"""Differential and oracle tests of the sparse support-graph check and the
direct stationary solve against the dense graph walk and the power
iteration they replaced (kept in ``helpers``), plus an exact
detailed-balance oracle and two memory bounds at n = 16384.
"""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import filtermc as fm
from filtermc import core_model

from helpers import (
    random_transition,
    reference_check_irreducible_aperiodic,
    reference_stationary_vector,
)


@st.composite
def support_graphs(draw):
    """Nonnegative matrices (n 1-9) with random supports: self-loops,
    reducible graphs, empty rows, and block-cyclic supports whose strongly
    connected components are periodic."""
    n = draw(st.integers(1, 9))
    edges = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                     dtype=bool).reshape(n, n)
    period = draw(st.integers(1, 4))
    if period > 1:  # keep only edges from one class to the next
        cls = np.array(draw(st.lists(st.integers(0, period - 1), min_size=n, max_size=n)))
        edges &= cls[None, :] == (cls[:, None] + 1) % period
    ii, jj = np.nonzero(edges)
    values = draw(st.lists(st.floats(0.01, 1.0), min_size=ii.size, max_size=ii.size))
    return fm.NonnegMatrix(n, n, zip(ii.tolist(), jj.tolist(), values))


def _edges(*edges):
    n = max(max(e) for e in edges) + 1
    return fm.NonnegMatrix(n, n, [(i, j, 1.0) for i, j in edges])


@settings(max_examples=300, deadline=None)
@given(M=support_graphs())
# a component with no internal edge; one with only a self-loop; a 3-cycle
# beside a 2-cycle (gcd(3, 2) = 1, but each component is periodic); cycles
# of lengths 2 and 3 through one state
@example(M=_edges((0, 1)))
@example(M=_edges((0, 1), (1, 1)))
@example(M=_edges((0, 1), (1, 2), (2, 0), (3, 4), (4, 3)))
@example(M=_edges((0, 1), (1, 0), (0, 2), (2, 3), (3, 0)))
def test_check_matches_reference_on_random_supports(M):
    assert fm.check_irreducible_aperiodic(M) == reference_check_irreducible_aperiodic(M)


def test_check_skips_stored_zeros():
    # scaling a path by 1e-200 underflows its 1e-200 closing edge, which
    # is then not stored; counted as an edge, it would close a cycle of period 64
    n = 64
    path = fm.NonnegMatrix(n, n, [(i, i + 1, 1.0) for i in range(n - 1)] + [(n - 1, 0, 1e-200)])
    M = path.scaled(1e-200)
    assert M.data.size == n - 1 and M.nnz == n - 1
    assert M.support().nnz == n - 1
    assert fm.check_irreducible_aperiodic(M) == {"irreducible": False, "aperiodic": True}
    assert fm.check_irreducible_aperiodic(path) == {"irreducible": True, "aperiodic": False}


def assert_stationary_matches_reference(P):
    pi = fm.stationary_vector(P).coords
    want = reference_stationary_vector(P).coords
    assert np.abs(pi - want).sum() <= 1e-10
    assert np.abs(P.left_apply(pi) - pi).sum() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 9), sparsity=st.sampled_from([0.0, 0.4, 0.7]),
       seed=st.integers(0, 2**32 - 1))
# lambda_2 = 0.991: the power iteration stopped on a 1e-12 step was off by 1.1e-10
@example(n=5, sparsity=0.7, seed=4873)
def test_stationary_matches_power_iteration(n, sparsity, seed):
    P = random_transition(np.random.default_rng(seed), n, sparsity=sparsity)
    verdict = reference_check_irreducible_aperiodic(P)
    assume(verdict["irreducible"] and verdict["aperiodic"])
    assert_stationary_matches_reference(P)


@pytest.mark.parametrize("n", [64, 70])
def test_stationary_matches_power_iteration_in_csr(n):
    P = fm.random_walk_case_a(n).partition.base
    assert_stationary_matches_reference(P)


def _birth_death(n, up_rate, down_rate, hold):
    """A birth-death chain and its exact stationary vector: birth-death
    chains are reversible, so pi_k is proportional to prod_{i <= k}
    c[i-1] / a[i-1], computed here in log space."""
    params = fm.RandomWalkParams(a=(down_rate,) * (n - 1), b=(hold,) * n,
                                 c=(1.0 - hold,) + (up_rate,) * (n - 1), n_trunc=n)
    P = fm.random_walk_model(params).partition.base
    log_w = np.concatenate([[0.0], np.cumsum(np.log(np.array(params.c[:-1]) / np.array(params.a)))])
    top = log_w.max()
    return P, np.exp(log_w - top - np.log(np.exp(log_w - top).sum()))


def assert_matches_detailed_balance(P, exact):
    pi = fm.stationary_vector(P).coords
    big = exact > 1e-200
    assert big.sum() >= 200
    assert np.abs(pi[big] / exact[big] - 1.0).max() <= 1e-9


# with upward drift the mass sits at the top and state 0 carries about
# 3**-n of it: pinned there, the other coordinates overflow from n = 647 on
@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("up", [True, False])
def test_stationary_matches_detailed_balance(n, up):
    up_rate, down_rate = (0.5, 1.0 / 6.0) if up else (1.0 / 6.0, 0.5)
    assert_matches_detailed_balance(*_birth_death(n, up_rate, down_rate, 1.0 / 3.0))


# the holding probability 1 - up - down rounds, so rows sum to 1 only within
# an ulp: pinned at a state of tiny mass, that rounding alone can make the
# system indefinite; the last chain is lazy (1 - P[i, i] is about 1e-4)
@pytest.mark.parametrize("up_rate, down_rate", [(0.5, 1.0 / 6.0), (0.45, 0.15), (1e-4, 1e-5)])
def test_stationary_matches_detailed_balance_with_rounded_rows(up_rate, down_rate):
    assert_matches_detailed_balance(*_birth_death(1024, up_rate, down_rate, 1.0 - up_rate - down_rate))


def test_stationary_accepts_rows_within_prob_atol():
    # rows that sum to 1 - 1e-10 pass TransitionMatrix; scaling every row
    # leaves the stationary vector as it is
    P = fm.random_walk_case_a(256).partition.base
    scaled = fm.TransitionMatrix(P.scaled(1.0 - 1e-10))
    pi = fm.stationary_vector(scaled).coords
    assert np.abs(pi - fm.stationary_vector(P).coords).sum() <= 1e-12


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_stationary_rejects_a_non_finite_solve(monkeypatch):
    P = fm.random_walk_case_a(64).partition.base
    monkeypatch.setattr(core_model, "_pinned_solution", lambda entries, k, leak=0.0: np.full(P.n, np.inf))
    with pytest.raises(fm.ModelError, match="residual"):
        fm.stationary_vector(P)


def test_stationary_tol_bounds_the_residual():
    P = fm.random_walk_case_a(256).partition.base
    pi = fm.stationary_vector(P, tol=1e-14).coords
    assert np.abs(P.left_apply(pi) - pi).sum() <= 1e-14
    with pytest.raises(fm.ModelError, match="residual"):
        fm.stationary_vector(P, tol=0.0)


def test_check_and_solve_memory_grows_with_nonzeros():
    # about 49k nonzeros; one dense float copy of P would take 2.1 GB
    P = fm.random_walk_case_a(16384).partition.base
    tracemalloc.start()
    try:
        verdict = fm.check_irreducible_aperiodic(P)
        pi = fm.stationary_vector(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == {"irreducible": True, "aperiodic": True}
    assert np.abs(P.left_apply(pi.coords) - pi.coords).sum() <= 1e-12
    assert peak < 16 * 2**20


# peak RSS of a child process counts what tracemalloc does not see:
# SuperLU's own allocations, among them the LU factors and their fill-in.
# The peak is the child's VmHWM; ru_maxrss would carry over the peak of the
# process that forked it, which is the test runner
_RSS_CHILD = """
import resource
import filtermc as fm
P = fm.random_walk_case_a(16384).partition.base
with open("/proc/self/statm") as fh:
    before = int(fh.read().split()[1]) * resource.getpagesize()
verdict = fm.check_irreducible_aperiodic(P)
fm.stationary_vector(P)
assert verdict == {"irreducible": True, "aperiodic": True}
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(peak * 1024 - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
def test_check_and_solve_peak_rss_grows_with_nonzeros():
    # the growth also holds what building P freed again, about 15 MB
    out = subprocess.run([sys.executable, "-c", _RSS_CHILD], capture_output=True, text=True,
                         check=True)
    assert int(out.stdout) < 64 * 2**20
