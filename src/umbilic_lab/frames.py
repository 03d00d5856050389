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
    """g-orthonormalize the rows of ``vectors`` (..., k, N) against g
    (..., N, N), one set per leading index; returns (basis, signs) of
    shapes (..., k, N) and (..., k).

    Raises DegenerateSubspace when a projected vector of any set is
    light-like within tol, i.e. its flag of spans is degenerate.
    """
    basis = np.array(vectors, dtype=float)
    q = np.zeros(basis.shape[:-1])      # g(w, w) of each projected vector
    k = basis.shape[-2]
    for j in range(k):
        w, done = basis[..., j, :], basis[..., :j, :]
        for _ in range(2 if j else 0):  # second pass fixes classical-GS roundoff
            w -= np.vecmat(np.matvec(done, np.matvec(g, w)) / q[..., :j], done)
        q[..., j] = np.vecdot(w, np.matvec(g, w))
        if j + 1 < k and not q[..., j].all():   # null: none may project on it
            break
    size = np.abs(q)
    light = size < tol * np.maximum(1.0, np.vecdot(basis, basis))
    if light.any():
        raise DegenerateSubspace("vector degenerate after projection",
                                 q=float(np.extract(light, q)[0]))
    return basis / np.sqrt(size)[..., None], np.sign(q).astype(int)


def complement_basis(span, g, dim, tol=1e-12):
    """g-orthonormal basis (..., dim, N) of the g-orthocomplement of the
    rows of ``span`` (..., k, N), one per leading index; see
    pseudo_gram_schmidt for the signs."""
    span = np.asarray(span, dtype=float)
    n = span.shape[-1]
    # kernel of (span @ g): Euclidean-orthonormal seed for the complement
    _, s, vh = np.linalg.svd(span @ g)
    got = n - (s > tol * np.maximum(1.0, s[..., :1])).sum(axis=-1)
    if (got != dim).any():
        raise DegenerateSubspace("complement has unexpected dimension",
                                 expected=dim,
                                 got=int(np.extract(got != dim, got)[0]))
    return pseudo_gram_schmidt(vh[..., n - dim:, :], g)


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
