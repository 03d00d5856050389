"""Pseudo-orthonormal frame machinery for definite and Lorentzian metrics.

Vectors are normalized by |g(v,v)|^(1/2) and tagged with the sign of
g(v,v); projections near the light cone (|g(v,v)| < tol) are rejected so
callers can resample instead of dividing by a vanishing norm.
"""

import numpy as np

from .errors import DegenerateSubspace, SamplingExhausted

LIGHTLIKE_TOL = 1e-10
DESIGN_SIZE = 32


def inner(g, u, v):
    return float(u @ g @ v)


def pseudo_gram_schmidt(vectors, g, tol=LIGHTLIKE_TOL):
    """g-orthonormalize ``vectors``; returns (basis, signs).

    Raises DegenerateSubspace when a projected vector is light-like within
    tol, i.e. the flag of spans is degenerate.
    """
    basis, signs = [], []
    for v in vectors:
        w = np.asarray(v, dtype=float).copy()
        for _ in range(2):  # second pass fixes classical-GS roundoff
            for e, eps in zip(basis, signs):
                w -= eps * inner(g, w, e) * e
        q = inner(g, w, w)
        if abs(q) < tol * max(1.0, float(w @ w)):
            raise DegenerateSubspace(
                "vector degenerate after projection", q=q)
        basis.append(w / np.sqrt(abs(q)))
        signs.append(1 if q > 0 else -1)
    return basis, signs


def complement_basis(span, g, dim=None, tol=1e-12):
    """g-orthonormal basis of the g-orthocomplement of span(rows).

    ``span`` is a (k, N) array of (not necessarily orthonormal) vectors.
    """
    span = np.atleast_2d(np.asarray(span, dtype=float))
    n = span.shape[1]
    # kernel of (span @ g): Euclidean-orthonormal seed for the complement
    a = span @ g
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    seed = vh[rank:]
    if dim is not None and seed.shape[0] != dim:
        raise DegenerateSubspace(
            "complement has unexpected dimension",
            expected=dim, got=int(seed.shape[0]))
    return pseudo_gram_schmidt(list(seed), g)


def draw_pseudo_orthonormal(rng, g, signs_wanted, max_tries=500):
    """Draw a g-orthonormal tuple with prescribed causal characters.

    ``signs_wanted`` is a sequence of +/-1.  Rejection sampling over
    standard-normal candidates, projecting against vectors already kept.
    """
    basis, signs = [], []
    n = g.shape[0]
    for want in signs_wanted:
        for attempt in range(max_tries):
            w = rng.standard_normal(n)
            for e, eps in zip(basis, signs):
                w -= eps * inner(g, w, e) * e
            q = inner(g, w, w)
            if abs(q) < LIGHTLIKE_TOL * max(1.0, float(w @ w)):
                continue
            sign = 1 if q > 0 else -1
            if sign != want:
                continue
            basis.append(w / np.sqrt(abs(q)))
            signs.append(sign)
            break
        else:
            raise SamplingExhausted(
                "could not draw vector of requested causal character",
                wanted=want, tries=max_tries)
    return basis


def unit_design(m):
    """DESIGN_SIZE deterministic unit directions in R^m (one when m = 1),
    over which the umbilicity defect is sampled in higher codimension."""
    if m == 1:
        return np.array([[1.0]])
    if m == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, DESIGN_SIZE, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(987654321)
    pts = rng.standard_normal((DESIGN_SIZE, m))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts
