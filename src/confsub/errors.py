"""Exception taxonomy shared across the engine."""


class EngineError(Exception):
    """Base class for all engine-level failures."""


class NonSPDMetricError(EngineError):
    """Metric matrix at a sampled point is not symmetric positive definite."""


class CriticalPointError(EngineError):
    """Map differential is rank deficient at the requested point."""


class NotConformalError(EngineError):
    """Horizontal inner products are not scaled by a single factor."""


class AmbiguousSplittingError(EngineError):
    """Invariant/anti-invariant splitting of the vertical space is numerically unstable."""


class StructureError(EngineError):
    """A frame or distribution invariant failed at a sampled point."""


class NumericalOverflowError(EngineError):
    """A value of the frame pass at a sampled point is not finite."""


class SceneError(EngineError):
    """Scene file could not be parsed or validated."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
