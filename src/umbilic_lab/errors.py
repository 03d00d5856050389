"""Exception hierarchy shared by all umbilic-lab modules.

Every error carries a short machine-readable ``code`` used by the CLI
diagnostics and a human-readable message.
"""

import numpy as np


def hold(fn, *args):
    """``fn(*args)``, or the exception it raised, held for ``release``."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def hold_each(fn, *args):
    """The items of the iterable ``fn(*args)``; once the call or the
    iteration raises, that exception, held, in place of every further item
    (without end: take only as many items as were asked for)."""
    try:
        yield from fn(*args)
    except Exception as exc:
        while True:
            yield exc


def release(value):
    """``value``, or raise it when it is a held exception."""
    if isinstance(value, Exception):
        raise value
    return value


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
