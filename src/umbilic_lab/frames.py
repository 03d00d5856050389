"""Pseudo-orthonormal frame machinery for definite and Lorentzian metrics.

Vectors are normalized by |g(v,v)|^(1/2) and tagged with the sign of
g(v,v); Gram-Schmidt rejects projections near the light cone
(|g(v,v)| < tol) instead of dividing by a vanishing norm.
"""

import numpy as np

from .errors import DegenerateSubspace, SamplingExhausted

LIGHTLIKE_TOL = 1e-10
DESIGN_SIZE = 32
MAX_RAPIDITY = 2.0      # boost bound of draw_pseudo_orthonormal


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


def draw_pseudo_orthonormal(rng, g, signs_wanted):
    """Draw g-orthonormal tuples with prescribed causal characters.

    ``signs_wanted`` is one pattern (k,) of +/-1 or a (T, k) batch; returns
    rows (k, N) or (T, k, N).  By construction: eigenvectors of g scaled to
    a g-orthonormal frame, a Haar rotation of its spacelike block (QR with
    sign fix), and on a Lorentzian g a boost of rapidity uniform in
    [-MAX_RAPIDITY, MAX_RAPIDITY] along the first rotated spacelike vector.
    A pattern's +1 entries take the spacelike vectors in order, a -1 the
    timelike one, so every vector has Euclidean norm at most
    exp(MAX_RAPIDITY) / sqrt(min |eigenvalue of g|).  Raises
    SamplingExhausted up front when g cannot hold a pattern.
    """
    pattern = np.asarray(signs_wanted)
    rows = pattern.reshape(-1, pattern.shape[-1])
    eig, vec = np.linalg.eigh(g)
    frame = (vec / np.sqrt(np.abs(eig))).T              # g-orthonormal rows
    spacelike, timelike = frame[eig > 0], frame[eig < 0]
    bad = (((rows > 0).sum(axis=1) > len(spacelike))
           | ((rows < 0).sum(axis=1) > len(timelike)))
    if bad.any():
        raise SamplingExhausted(
            "signature cannot hold the requested causal characters",
            pattern=rows[bad.argmax()].tolist())
    t, p = len(rows), len(spacelike)
    q, r = np.linalg.qr(rng.standard_normal((t, p, p)))
    haar = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    basis = np.concatenate([haar.mT @ spacelike,
                            np.broadcast_to(timelike, (t,) + timelike.shape)],
                           axis=1)                      # (T, N, N) rows
    if len(timelike):       # boost the plane of rows 0 and p
        phi = rng.uniform(-MAX_RAPIDITY, MAX_RAPIDITY, (t, 1))
        ch, sh, s0, e0 = np.cosh(phi), np.sinh(phi), basis[:, 0], basis[:, p]
        basis[:, 0], basis[:, p] = ch * s0 + sh * e0, sh * s0 + ch * e0
    # the j-th +1 of a pattern takes spacelike row j, a -1 the timelike row p
    pick = np.where(rows > 0, np.cumsum(rows > 0, axis=1) - 1, p)
    return basis[np.arange(t)[:, None], pick].reshape(pattern.shape + g.shape[:1])


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
