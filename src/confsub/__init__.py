"""Numerical verification of conformal semi-invariant submersions on charted manifolds."""

__version__ = "0.1.0"

from .config import DEFAULT_TOLERANCES, Tolerances
from .expr import Jet2, eval_jet2, parse, to_string
from .geometry import (
    ChartedManifold,
    ConstantField,
    ExprField,
    christoffel,
    covariant_derivative,
    euclidean,
    lie_bracket,
    metric_at,
    nabla_j_residual,
)
from .submersion import (
    FundamentalTensorsAtPoint,
    SmoothMap,
    SplitFrame,
    bc_decompose,
    fiber_mean_curvature,
    fundamental_tensors,
    grad_ln_lambda,
    jacobian,
    oneill_a,
    oneill_t,
    phi_omega,
    second_fundamental_form,
    sff_identity_residuals,
    split_frame,
    tension,
)

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
    "metric_at",
    "christoffel",
    "covariant_derivative",
    "lie_bracket",
    "nabla_j_residual",
    "SmoothMap",
    "SplitFrame",
    "FundamentalTensorsAtPoint",
    "fundamental_tensors",
    "jacobian",
    "split_frame",
    "phi_omega",
    "bc_decompose",
    "oneill_t",
    "oneill_a",
    "second_fundamental_form",
    "tension",
    "fiber_mean_curvature",
    "grad_ln_lambda",
    "sff_identity_residuals",
]
