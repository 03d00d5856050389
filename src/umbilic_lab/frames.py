"""Pseudo-orthonormal frame machinery for definite and Lorentzian metrics.

Vectors are normalized by |g(v,v)|^(1/2) and tagged with the sign of
g(v,v); Gram-Schmidt rejects projections near the light cone
(|g(v,v)| < LIGHTLIKE_TOL) instead of dividing by a vanishing norm.
"""

import numpy as np

from .errors import DegenerateSubspace, SamplingExhausted

LIGHTLIKE_TOL = 1e-10
DESIGN_SIZE = 32
MAX_RAPIDITY = 2.0      # boost bound of draw_pseudo_orthonormal


def pseudo_gram_schmidt(vectors, g):
    """g-orthonormalize the rows of ``vectors`` (..., k, N) against g
    (..., N, N), one set per leading index; returns (basis, signs) of
    shapes (..., k, N) and (..., k).

    Raises DegenerateSubspace when a projected vector of any set is
    light-like within LIGHTLIKE_TOL, i.e. its flag of spans is degenerate.
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
    light = size < LIGHTLIKE_TOL * np.maximum(1.0, np.vecdot(basis, basis))
    if light.any():
        raise DegenerateSubspace("vector degenerate after projection",
                                 q=float(np.extract(light, q)[0]))
    return basis / np.sqrt(size)[..., None], np.sign(q).astype(int)


def complement_basis(span, g):
    """(basis, signs) of the g-orthocomplement of the g-orthonormal rows of
    ``span`` (..., k, N), one (..., N - k, N) basis per leading index, from the
    longest coordinate vectors less their g-projection on the span."""
    span = np.asarray(span, dtype=float)
    k = span.shape[-2]
    sg = span @ g           # the projection weighs row i by g(s_i, s_i) = 1 / eps_i
    rest = np.eye(span.shape[-1]) - sg.mT @ (np.vecdot(sg, span)[..., None] * span)
    picks = []
    for _ in range(span.shape[-1] - k):
        if picks:           # deflate the last pick out of the remainders
            rest = rest - (rest @ best.mT) / np.vecdot(best, best)[..., None] * best
        size = np.vecdot(rest, rest)
        best = np.take_along_axis(rest, size.argmax(axis=-1)[..., None, None], -2)
        picks.append(best)
    basis, signs = pseudo_gram_schmidt(np.concatenate([span, *picks], -2), g)
    return basis[..., k:, :], signs[..., k:]


def draw_pseudo_orthonormal(rng, g, signs_wanted, eigh=None):
    """Draw g-orthonormal tuples with prescribed causal characters.

    ``signs_wanted`` is one pattern (k,) of +/-1 or a (T, k) batch; returns
    rows (k, N) or (T, k, N); ``eigh`` is np.linalg.eigh(g), taken here
    unless passed.  By construction: eigenvectors of g scaled to a
    g-orthonormal frame, a Haar rotation of its spacelike block, and on a
    Lorentzian g a boost of rapidity uniform in [-MAX_RAPIDITY, MAX_RAPIDITY]
    along the first rotated spacelike vector.  Only the k rotated vectors
    used are made (k the most +1 entries of a pattern, at least 1 for the
    boost): two-pass Gram-Schmidt of the first k columns of a (p, p)
    Gaussian block, the same k columns as its QR with R's diagonal made
    positive.  A pattern's +1 entries take the spacelike vectors in order,
    a -1 the timelike one, so every vector has Euclidean norm at most
    exp(MAX_RAPIDITY) / sqrt(min |eigenvalue of g|).  Raises
    SamplingExhausted up front when g cannot hold a pattern.
    """
    pattern = np.asarray(signs_wanted)
    rows = pattern.reshape(-1, pattern.shape[-1])
    eig, vec = np.linalg.eigh(g) if eigh is None else eigh  # ascending
    n, m = len(eig), int(np.searchsorted(eig, 0.0))     # m eigenvalues < 0
    p = n - int(np.searchsorted(eig, 0.0, "right"))     # p eigenvalues > 0
    frame = (vec / np.sqrt(abs(eig))).T                 # g-orthonormal rows
    spacelike, timelike = frame[n - p:], frame[:m]
    plus = rows > 0
    rank = plus.cumsum(axis=1)              # the j-th +1 of a row has rank j
    bad = (rank[:, -1] > p) | (rows.shape[1] - rank[:, -1] > m)
    if bad.any():
        raise SamplingExhausted(
            "signature cannot hold the requested causal characters",
            pattern=rows[bad.argmax()].tolist())
    t, k = len(rows), int(max(rank[:, -1].max(), m > 0))
    haar = rng.standard_normal((t, p, p))[..., :k].mT   # (T, k, p) columns
    for j in range(k):      # the second pass keeps the rows orthonormal to roundoff
        w, done = haar[:, j], haar[:, :j]
        for _ in range(2 if j else 0):
            w -= np.vecmat(np.matvec(done, w), done)
        w /= np.sqrt(np.vecdot(w, w))[:, None]
    basis = np.empty((t, k + m, n))         # k spacelike rows, then timelike
    basis[:, :k], basis[:, k:] = haar @ spacelike, timelike
    if m:                   # boost the plane of rows 0 and k
        phi = rng.uniform(-MAX_RAPIDITY, MAX_RAPIDITY, (t, 1))
        ch, sh, s0, e0 = np.cosh(phi), np.sinh(phi), basis[:, 0], timelike[0]
        basis[:, 0], basis[:, k] = ch * s0 + sh * e0, sh * s0 + ch * e0
    # the j-th +1 of a pattern takes spacelike row j, a -1 the timelike row k
    pick = np.where(plus, rank - 1, k)
    return basis[np.arange(t)[:, None], pick].reshape(pattern.shape + (n,))


def unit_design(m):
    """DESIGN_SIZE deterministic unit directions in R^m, over which the
    umbilicity defect is sampled in higher codimension."""
    rng = np.random.default_rng(987654321)
    pts = rng.standard_normal((DESIGN_SIZE, m))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts
