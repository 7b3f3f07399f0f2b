"""Each ModelError of the library that no other test raises, with its message."""

import dataclasses
import re

import numpy as np
import pytest

import filtermc as fm
from filtermc.stability import find_subrectangular_word

_P = fm.TransitionMatrix.from_dense([[0.6, 0.4], [0.3, 0.7]])
_M = fm.partition_from_lumping(_P, ["a", "b"])
_PI = fm.stationary_vector(_P)
_MU = fm.DiscreteMeasure([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
_MU3 = fm.DiscreteMeasure([1.0], [[1.0, 0.0, 0.0]])
_SPEC = fm.kesten_perm_spec()
# 1e-200 times 1e-200 underflows, so the observation partition has no entry for it
_P_TINY = fm.TransitionMatrix.from_dense([[1.0, 1e-200], [0.5, 0.5]])
_R_TINY = np.array([[1.0, 0.0], [1.0 - 1e-200, 1e-200]])

CASES = {
    # core_model
    "ProbVector of a 2-d array": (lambda: fm.ProbVector(np.full((2, 2), 0.25)),
                                  "ProbVector coords must be one-dimensional"),
    "from_dense of a 1-d array": (lambda: fm.NonnegMatrix.from_dense([0.5, 0.5]),
                                  "from_dense expects a 2-d array"),
    "from_dense of a negative array": (lambda: fm.NonnegMatrix.from_dense([[1.0, -0.5]]),
                                       "NonnegMatrix entries must be finite and nonnegative"),
    "@ with mismatched shapes": (lambda: _P @ fm.NonnegMatrix.identity(3),
                                 "matrix product dimension mismatch"),
    "add with mismatched shapes": (lambda: _P.add(fm.NonnegMatrix.identity(3)),
                                   "matrix sum dimension mismatch"),
    "scaled(0)": (lambda: _P.scaled(0), "scale factor must be positive"),
    "a partition member that is not a matrix": (
        lambda: fm.Partition({"a": _P.toarray()}, _P), "Partition members must be NonnegMatrix"),
    "a partition member of the wrong size": (
        lambda: fm.Partition({"a": fm.NonnegMatrix.identity(3)}, _P),
        "Partition member 'a' has wrong dimensions"),
    "a stationary vector whose residual is off": (
        lambda: fm.FilterModel(_M, stationary=fm.ProbVector([1.0, 0.0])),
        "stationary vector residual 0.8 exceeds 1e-08"),
    "a lumping mapping that misses a state": (
        lambda: fm.partition_from_lumping(_P, {0: "a"}), "lumping map not total: missing state 1"),
    "a lumping list of the wrong length": (
        lambda: fm.partition_from_lumping(_P, ["a"]), "lumping of length 1 for 2 states"),
    "an observation whose rows do not sum to 1": (
        lambda: fm.partition_from_observation(_P, np.array([[0.5, 0.4], [1.0, 0.0]])),
        "observation matrix rows must sum to 1"),
    "an observation with the wrong label count": (
        lambda: fm.partition_from_observation(_P, np.eye(2), labels=["a"]),
        "labels length must match observation matrix columns"),
    "an observation whose products underflow": (
        lambda: fm.partition_from_observation(_P_TINY, _R_TINY),
        "NonnegMatrix stored values must be strictly positive"),
    "partition_power(m, 0)": (lambda: fm.partition_power(_M, 0),
                              "partition power requires k >= 1"),
    # filter_dynamics
    "DiscreteMeasure with mismatched weights and points": (
        lambda: fm.DiscreteMeasure([0.5, 0.5], [[1.0, 0.0]]),
        "DiscreteMeasure weights/points mismatch"),
    "DiscreteMeasure with no atom": (lambda: fm.DiscreteMeasure([], np.zeros((0, 2))),
                                     "DiscreteMeasure must have at least one atom"),
    "DiscreteMeasure with a zero weight": (
        lambda: fm.DiscreteMeasure([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        "DiscreteMeasure weights must be strictly positive"),
    "TestFunction with neither an evaluator nor pieces": (
        lambda: fm.TestFunction(), "TestFunction needs an evaluator or a convex_rep"),
    # entropy
    "entropy_series with n_max=0": (lambda: fm.entropy_series(_PI, _M, 0),
                                    "entropy_series requires n_max >= 1"),
    "entropy_bracket with n_max=0": (lambda: fm.entropy_bracket(_M, 0),
                                     "entropy_bracket requires n_max >= 1"),
    "entropy_rate_increment with n=0": (lambda: fm.entropy_rate_increment(_PI, _M, 0),
                                        "entropy_rate_increment requires n >= 1"),
    "entropy_rate_increment with an unknown method": (
        lambda: fm.entropy_rate_increment(_PI, _M, 1, method="sum"),
        "method must be 'difference' or 'integral'"),
    # gallery
    "random_walk_case_b with peak_hold=0.8": (lambda: fm.random_walk_case_b(8, peak_hold=0.8),
                                              "peak_hold too large"),
    "PermFamilySpec with d=1": (lambda: dataclasses.replace(_SPEC, d=1),
                                "block size d must be at least 2"),
    "PermFamilySpec with members of another base": (
        lambda: dataclasses.replace(_SPEC, base=_P), "members must partition the base chain"),
    "PermFamilySpec with a missing permutation": (
        lambda: fm.perm_family_model(dataclasses.replace(_SPEC, Q={})),
        "no permutation supplied for transition (0, 0, 'a')"),
    # kantorovich
    "measures of different dimensions": (lambda: fm.kantorovich_distance(_MU, _MU3),
                                         "measures live on simplices of different dimension"),
    "retarget_barycenter with a zero weight": (
        lambda: fm.retarget_barycenter([(1.0, [1.0, 0.0]), (0.0, [0.0, 1.0])], [0.5, 0.5]),
        "retarget_barycenter rejects zero-weight atoms"),
    "retarget_barycenter with weights that are not a probability": (
        lambda: fm.retarget_barycenter([(0.5, [1.0, 0.0]), (0.3, [0.0, 1.0])], [0.5, 0.5]),
        "retarget_barycenter expects a probability measure"),
    "retarget_barycenter with a negative target": (
        lambda: fm.retarget_barycenter(_MU, [-0.5, 1.5]), "target vector must be nonnegative"),
    "fiber_mass_check with a q off the barycenter": (
        lambda: fm.fiber_mass_check(_MU, 0, q=[0.9, 0.1]), "measure barycenter does not match q"),
    # stability
    "find_subrectangular_word with max_len=0": (lambda: find_subrectangular_word(_M, max_len=0),
                                                "word search requires max_len >= 1"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_each_model_error_is_raised_with_its_message(call, message):
    with pytest.raises(fm.ModelError, match="^" + re.escape(message)):
        call()
