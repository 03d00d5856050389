"""Reference implementations that only the tests read."""

import numpy as np

from umbilic_lab.errors import (DegenerateFit, DegenerateSubspace, FlatSlice,
                                SamplingExhausted, WrongCausalType)
from umbilic_lab.frames import MAX_RAPIDITY, pseudo_gram_schmidt


def inner(space, x, u, v):
    """g_x(u, v)."""
    return float(u @ space.metric_at(x) @ v)


def symmetry_violations(sample):
    """The largest breach of each symmetry of a CurvatureSample's lowered
    curvature tensor, and of the first Bianchi identity."""
    r = sample.riemann_lowered
    return {
        "antisym_first_pair": float(np.max(np.abs(r + r.transpose(1, 0, 2, 3)))),
        "antisym_second_pair": float(np.max(np.abs(r + r.transpose(0, 1, 3, 2)))),
        "pair_symmetry": float(np.max(np.abs(r - r.transpose(2, 3, 0, 1)))),
        "first_bianchi": float(np.max(np.abs(
            r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)))),
    }


def fit_quadric_one_cloud(points, lorentzian):
    """The quadric fit of slicer.fit_quadrics, one cloud at a time with
    np.linalg.lstsq: (center, radius, rms), or raises the cloud's error."""
    kind = "hyperbolic" if lorentzian else "sphere"
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 5:
        raise DegenerateFit(f"{kind} fit needs at least 5 points",
                            got=int(pts.shape[0]))
    mean = pts.mean(axis=0)
    x = pts - mean
    _, sv, vt = np.linalg.svd(x, full_matrices=False)
    k = int(np.sum(sv > 1e-8 * max(1.0, float(sv[0]))))
    basis = vt[:k]
    y, off = x @ basis.T, np.linalg.norm(x - (x @ basis.T) @ basis, axis=1)
    if k < 2:
        raise FlatSlice("points are affinely dependent", hull_dim=k)
    sig, eps = np.ones(k), 1.0
    if lorentzian:
        sig[-1] = eps = -1.0
        eta = np.ones(x.shape[1])
        eta[-1] = -1.0
        vals, vecs = np.linalg.eigh(basis @ np.diag(eta) @ basis.T)
        if np.min(np.abs(vals)) < 1e-10 * max(1.0, float(np.max(np.abs(vals)))):
            raise DegenerateSubspace("slice hull is a degenerate subspace")
        if int(np.sum(vals < 0)) != 1:
            raise WrongCausalType(
                "slice hull is not Lorentzian; no hyperbolic space fits it",
                negatives=int(np.sum(vals < 0)))
        order = np.argsort(-vals)
        basis = (vecs[:, order] / np.sqrt(np.abs(vals[order]))[None, :]).T @ basis
        y = (x * eta[None, :]) @ basis.T * sig[None, :]

    def form(a, b):
        return np.sum(a * sig * b, axis=-1)

    a_mat = np.concatenate([2.0 * y * sig, np.ones((y.shape[0], 1))], axis=1)
    sol, _res, rank, _sv = np.linalg.lstsq(a_mat, form(y, y), rcond=None)
    if rank < k + 1:
        raise DegenerateFit(f"{kind} design matrix is rank deficient")
    c = sol[:k]
    r2 = eps * (float(sol[k]) + float(c @ (sig * c)))
    if r2 <= 0:
        if lorentzian:
            raise WrongCausalType(
                "best-fit quadric is de Sitter-like, not hyperbolic", r2=r2)
        raise DegenerateFit("algebraic sphere fit has nonpositive radius")
    r = float(np.sqrt(r2))
    d = y - c
    sq = eps * form(d, d)
    if np.all(sq > 1e-14):
        dist = np.sqrt(sq)
        jac = np.concatenate([-eps * sig * d / dist[:, None],
                              -np.ones((y.shape[0], 1))], axis=1)
        upd, *_ = np.linalg.lstsq(jac, r - dist, rcond=None)
        c = c + upd[:k]
        r = r + float(upd[k])
        sq = eps * form(y - c, y - c)
    if not np.isfinite(r) or abs(r) > 1e6:
        raise FlatSlice(f"{kind} radius estimate diverged", radius=float(r))
    if lorentzian:
        time_side = y[:, -1] - c[-1]
        if not (np.all(time_side > 0) or np.all(time_side < 0)):
            raise WrongCausalType("samples straddle both sheets of the quadric")
    geo = np.where(sq > 1e-14, np.sqrt(np.maximum(sq, 0.0)) - r,
                   np.abs(sq - r * r) / (2.0 * max(r, 1e-14)))
    return mean + c @ basis, float(r), float(np.sqrt(np.mean(geo ** 2 + off ** 2)))


def svd_complement(span, g, dim, tol=1e-12):
    """The g-orthocomplement of frames.complement_basis read off the null
    space of span @ g by a full SVD, then g-orthonormalized: (rows, signs),
    or DegenerateSubspace when that null space is not ``dim``-dimensional."""
    span = np.asarray(span, dtype=float)
    n = span.shape[-1]
    _, s, vh = np.linalg.svd(span @ g)
    got = n - (s > tol * np.maximum(1.0, s[..., :1])).sum(axis=-1)
    if (got != dim).any():
        raise DegenerateSubspace("complement has unexpected dimension",
                                 expected=dim,
                                 got=int(np.extract(got != dim, got)[0]))
    return pseudo_gram_schmidt(vh[..., n - dim:, :], g)


def qr_pseudo_orthonormal(rng, g, signs_wanted):
    """frames.draw_pseudo_orthonormal with the whole (p, p) Haar rotation
    from np.linalg.qr with the sign fix (R's diagonal made positive), from
    the same generator draws."""
    pattern = np.asarray(signs_wanted)
    rows = pattern.reshape(-1, pattern.shape[-1])
    eig, vec = np.linalg.eigh(g)
    n, m = len(eig), int(np.searchsorted(eig, 0.0))
    p = n - int(np.searchsorted(eig, 0.0, "right"))
    frame = (vec / np.sqrt(abs(eig))).T
    spacelike, timelike = frame[n - p:], frame[:m]
    plus = rows > 0
    rank = plus.cumsum(axis=1)
    bad = (rank[:, -1] > p) | (rows.shape[1] - rank[:, -1] > m)
    if bad.any():
        raise SamplingExhausted("signature cannot hold the requested causal characters")
    t = len(rows)
    q, r = np.linalg.qr(rng.standard_normal((t, p, p)))
    haar = q * np.sign(r.diagonal(axis1=1, axis2=2))[:, None]
    basis = np.empty((t, p + m, n))
    basis[:, :p], basis[:, p:] = haar.mT @ spacelike, timelike
    if m:
        phi = rng.uniform(-MAX_RAPIDITY, MAX_RAPIDITY, (t, 1))
        ch, sh, s0, e0 = np.cosh(phi), np.sinh(phi), basis[:, 0], timelike[0]
        basis[:, 0], basis[:, p] = ch * s0 + sh * e0, sh * s0 + ch * e0
    pick = np.where(plus, rank - 1, p)
    return basis[np.arange(t)[:, None], pick].reshape(pattern.shape + (n,))
