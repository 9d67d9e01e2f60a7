"""Tolerance settings shared across the engine.

The theorem tolerance drives checker verdicts (holds below tol, fails above
10*tol, inconclusive between); it is the only setting a scene's
`[tolerances]`, `--tol` or `Tolerances(theorem=...)` can change.  The
thresholds of the frame pass, the Kaehler test and the checkers are fixed
constants of the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

__all__ = ["Tolerances", "DEFAULT_TOLERANCES"]


@dataclass(frozen=True)
class Tolerances:
    theorem: float = 1e-6
    identity: ClassVar[float] = 1e-7  # second-fundamental-form identity residuals
    structural: ClassVar[float] = 1e-9  # frame orthonormality, kernel, J and J-invariance residuals
    conformality: ClassVar[float] = 1e-8  # relative to the square dilation
    kahler: ClassVar[float] = 1e-9
    drop: ClassVar[float] = 1e-10  # Gram-Schmidt drop threshold
    pushed_drop: ClassVar[float] = 1e-12  # Gram-Schmidt drop threshold of the frame dF(mu) in the target
    definiteness: ClassVar[float] = 1e-12  # a metric's smallest eigenvalue, relative to its largest
    split_threshold: ClassVar[float] = 1e-7  # invariant part: singular value > 1 - split_threshold
    split_margin: ClassVar[float] = 1e-3  # anything closer below the threshold is ambiguous
    exclusion_distance: ClassVar[float] = 1e-3

    def __post_init__(self):
        # nan or a non-positive tolerance would make every verdict inconclusive
        if not (math.isfinite(self.theorem) and self.theorem > 0.0):
            raise ValueError(f"theorem tolerance must be a finite number > 0, got {self.theorem!r}")

    def with_theorem(self, tol: float) -> "Tolerances":
        return replace(self, theorem=float(tol))


DEFAULT_TOLERANCES = Tolerances()
