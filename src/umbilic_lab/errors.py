"""Exception hierarchy shared by all umbilic-lab modules.

Every error carries a short machine-readable ``code`` used by the CLI
diagnostics and a human-readable message.
"""

import numpy as np


class UmbilicLabError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class NonFiniteValue(UmbilicLabError):
    """A point, derivative or metric holds an inf or a NaN."""

    code = "non-finite-value"

    @classmethod
    def check(cls, value, what, u):
        """``value`` unchanged, or this error naming the parameter (a row of
        u, (m,) or (K, m)) of the first row of ``value`` with an inf or NaN."""
        if not np.isfinite(value).all():
            u = np.atleast_2d(u)
            rows = np.isfinite(value).reshape(len(u), -1).all(axis=1)
            raise cls(f"{what} is not finite", parameter=list(u[rows.argmin()]))
        return value


# --- metric / curvature ---

class SingularMetric(UmbilicLabError):
    code = "singular-metric"


class InvalidMetric(UmbilicLabError):
    """Metric evaluator violated symmetry or signature invariants."""

    code = "invalid-metric"


class DegeneratePlane(UmbilicLabError):
    """Light-like tangent plane: sectional curvature undefined."""

    code = "degenerate-plane"


class DegenerateSubspace(UmbilicLabError):
    code = "degenerate-subspace"


class LeftDomain(UmbilicLabError):
    """A path or sample escaped the coordinate box of its space."""

    code = "left-domain"


class SamplingExhausted(UmbilicLabError):
    code = "sampling-exhausted"


class CausalCharacterMismatch(UmbilicLabError):
    code = "causal-character-mismatch"


# --- immersions ---

class RankDeficient(UmbilicLabError):
    code = "rank-deficient"


class DegenerateInducedMetric(UmbilicLabError):
    code = "degenerate-induced-metric"


class NonUnitDirection(UmbilicLabError):
    code = "non-unit-direction"


# --- slicing / fitting ---

class UnsupportedAmbient(UmbilicLabError):
    code = "unsupported-ambient"


class NewtonDiverged(UmbilicLabError):
    code = "newton-diverged"


class IllConditionedFit(UmbilicLabError):
    code = "ill-conditioned-fit"


class DegenerateFit(UmbilicLabError):
    code = "degenerate-fit"


class FlatSlice(DegenerateFit):
    code = "flat-slice"           # straight slice samples: no sphere fits


class WrongCausalType(UmbilicLabError):
    code = "wrong-causal-type"


# --- catalog / input ---

class UnknownCatalogId(UmbilicLabError):
    code = "unknown-catalog-id"


class MalformedParameters(UmbilicLabError):
    code = "malformed-parameters"


class ExpressionError(MalformedParameters):
    code = "expression-error"
