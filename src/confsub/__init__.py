"""Numerical verification of conformal semi-invariant submersions on charted manifolds."""

__version__ = "0.1.0"

from .config import DEFAULT_TOLERANCES, Tolerances
from .expr import Jet2, eval_jet2, parse, to_string
from .geometry import (
    ChartedManifold,
    ConstantField,
    ExprField,
    covariant_derivative,
    euclidean,
    lie_bracket,
    nabla_j_residual,
)
from .submersion import (
    FundamentalTensorsAtPoint,
    PointContext,
    SmoothMap,
    SplitFrame,
    on_pairs,
)
from .theorems import sff_identity_residuals

__all__ = [
    "__version__",
    "DEFAULT_TOLERANCES",
    "Tolerances",
    "Jet2",
    "parse",
    "to_string",
    "eval_jet2",
    "ChartedManifold",
    "ExprField",
    "ConstantField",
    "euclidean",
    "covariant_derivative",
    "lie_bracket",
    "nabla_j_residual",
    "SmoothMap",
    "SplitFrame",
    "PointContext",
    "FundamentalTensorsAtPoint",
    "on_pairs",
    "sff_identity_residuals",
]
