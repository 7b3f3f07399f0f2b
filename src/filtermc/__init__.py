"""Filtering processes of partially observed Markov chains, realised as
Markov chains on the probability simplex induced by partitioned transition
matrices.

The package provides the partition algebra and the induced kernel
(`core_model`, `filter_dynamics`), exact Kantorovich transport between
finitely supported measures (`kantorovich`), checkable stability and
non-stability diagnostics (`stability`), generators for the classical
example models (`gallery`), and entropy-rate machinery for the observation
process (`entropy`).
"""

from .core_model import (
    ModelError,
    ProbVector,
    NonnegMatrix,
    TransitionMatrix,
    Partition,
    FilterModel,
    partition_from_lumping,
    partition_from_observation,
    partition_product,
    partition_power,
    matrix_word_product,
    stationary_vector,
    operator_norm,
    check_irreducible_aperiodic,
    save_model,
    load_model,
)
from .filter_dynamics import (
    Outcome,
    DiscreteMeasure,
    TestFunction,
    FilterTrace,
    step_outcomes,
    pushforward,
    evolve,
    transition_operator,
    transition_operator_power,
    barycenter,
    vertex_measure,
    simulate_filter,
    dirac,
    save_measure,
    load_measure,
)
from .kantorovich import (
    TransportPlan,
    kantorovich_distance,
    dual_lower_bound,
    barycenter_gap,
    retarget_barycenter,
    distance_to_fiber,
    fiber_mass_check,
)
from .stability import (
    StabilityVerdict,
    NonstabilityReport,
    is_subrectangular,
    find_subrectangular_word,
    find_localizing_word,
    rank_one_proximity,
    detect_rank_one_limit,
    compose_rank_one_witness,
    check_isometry_obstruction,
)
from .gallery import (
    RandomWalkParams,
    PermFamilySpec,
    kesten_model,
    random_walk_model,
    random_walk_case_a,
    random_walk_case_b,
    perm_family_model,
    kesten_perm_spec,
    birkhoff_decompose,
    birkhoff_partition_model,
)
from .entropy import (
    h,
    EntropyReport,
    entropy_series,
    block_entropy,
    entropy_rate_increment,
    entropy_bracket,
    entropy_rate_mc,
    check_entropy_condition,
)

__version__ = "0.1.0"
