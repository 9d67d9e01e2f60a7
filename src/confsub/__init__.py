"""Numerical verification of conformal semi-invariant submersions on charted manifolds.

`SmoothMap.frame_pass(points)` runs the frame pass over a batch of points; a
point is addressed as `(group, k)`, its group of the pass and its position
there, and every table of a group carries the point axis first.
"""

__version__ = "0.1.0"

from .config import DEFAULT_TOLERANCES, Tolerances
from .expr import Jet2, eval_jet2, parse, to_string
from .geometry import ChartedManifold, euclidean
from .submersion import SmoothMap

__all__ = [
    "__version__",
    "DEFAULT_TOLERANCES",
    "Tolerances",
    "Jet2",
    "parse",
    "to_string",
    "eval_jet2",
    "ChartedManifold",
    "euclidean",
    "SmoothMap",
]
