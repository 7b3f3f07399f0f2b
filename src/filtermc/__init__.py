"""Filtering processes of partially observed Markov chains, realised as
Markov chains on the probability simplex induced by partitioned transition
matrices.

The package provides the partition algebra and the induced kernel
(`core_model`, `filter_dynamics`), exact Kantorovich transport between
finitely supported measures (`kantorovich`), checkable stability and
non-stability diagnostics (`stability`), generators for the classical
example models (`gallery`), and entropy-rate machinery for the observation
process (`entropy`).  Each module's ``__all__`` is its public API; the
package re-exports exactly those names.
"""

from . import core_model, entropy, filter_dynamics, gallery, kantorovich, stability
from .core_model import *
from .filter_dynamics import *
from .kantorovich import *
from .stability import *
from .gallery import *
from .entropy import *

__all__ = (core_model.__all__ + filter_dynamics.__all__ + kantorovich.__all__
           + stability.__all__ + gallery.__all__ + entropy.__all__)

__version__ = "0.1.0"
