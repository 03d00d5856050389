"""Central finite-difference derivatives of array-valued maps.

The derivative index is always appended last: for f with output shape S,
``central_diff`` returns shape S + (n,).
"""

import numpy as np


def central_diff(f, x, step, scale_steps=False):
    """First derivatives of f at x by symmetric differences.

    ``scale_steps`` multiplies the step for coordinate k by max(1, |x_k|),
    which keeps truncation error relative at large coordinates.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    cols = []
    for k in range(n):
        h = step * max(1.0, abs(x[k])) if scale_steps else step
        e = np.zeros(n)
        e[k] = h
        cols.append((np.asarray(f(x + e), dtype=float)
                     - np.asarray(f(x - e), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def central_diff4(f, x, step, scale_steps=False):
    """Fourth-order five-point first derivatives; same layout as central_diff.

    With exactly-evaluable f this reaches ~1e-11 absolute error at step
    1e-3, which plain second-order differences cannot, and downstream
    curvature contractions against weakly scaled metrics need that margin.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    cols = []
    for k in range(n):
        h = step * max(1.0, abs(x[k])) if scale_steps else step
        e = np.zeros(n)
        e[k] = h
        f1 = np.asarray(f(x + e), dtype=float)
        f2 = np.asarray(f(x + 2 * e), dtype=float)
        f3 = np.asarray(f(x - e), dtype=float)
        f4 = np.asarray(f(x - 2 * e), dtype=float)
        cols.append((-f2 + 8.0 * f1 - 8.0 * f3 + f4) / (12.0 * h))
    return np.stack(cols, axis=-1)


def jacobian_fd(f, u, step):
    """Jacobian of a batched map f: (..., m) -> (..., N), shape (..., N, m)."""
    u = np.asarray(u, dtype=float)
    m = u.shape[-1]
    cols = []
    for k in range(m):
        e = np.zeros(m)
        e[k] = step
        cols.append((np.asarray(f(u + e)) - np.asarray(f(u - e))) / (2.0 * step))
    return np.stack(cols, axis=-1)


def hessian_fd(f, u, step):
    """Second derivatives of a batched map, shape (..., N, m, m)."""
    u = np.asarray(u, dtype=float)
    m = u.shape[-1]
    f0 = np.asarray(f(u), dtype=float)
    out = np.empty(f0.shape + (m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = step
        out[..., i, i] = (np.asarray(f(u + ei)) - 2.0 * f0 + np.asarray(f(u - ei))) / step ** 2
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = step
            val = (np.asarray(f(u + ei + ej)) - np.asarray(f(u + ei - ej))
                   - np.asarray(f(u - ei + ej)) + np.asarray(f(u - ei - ej))) / (4.0 * step ** 2)
            out[..., i, j] = val
            out[..., j, i] = val
    return out
