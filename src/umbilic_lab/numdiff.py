"""Central finite-difference derivatives of array-valued maps, the
reference that tests check analytic derivatives against: no program path
calls them.  The derivative index is always appended last: for f with
output shape S, ``central_diff`` returns shape S + (n,).
"""

import numpy as np

# (offset, weight) terms and divisor d of a first-derivative stencil:
# f'(x) ~ sum(w * f(x + o h)) / (d h).
_SECOND_ORDER = (((1, 1.0), (-1, -1.0)), 2.0)
_FOURTH_ORDER = (((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0)), 12.0)


def _columns(f, x, steps, stencil):
    """One stencil column per coordinate of x (its last axis), stacked last."""
    terms, divisor = stencil
    cols = []
    for k, h in enumerate(steps):
        e = np.zeros(x.shape[-1])
        e[k] = h
        (o, w), *rest = terms
        acc = w * np.asarray(f(x + o * e), dtype=float)
        for o, w in rest:
            acc = acc + w * np.asarray(f(x + o * e), dtype=float)
        cols.append(acc / (divisor * h))
    return np.stack(cols, axis=-1)


def central_diff(f, x, step):
    """First derivatives of f at x by symmetric differences."""
    x = np.asarray(x, dtype=float)
    return _columns(f, x, [step] * x.shape[0], _SECOND_ORDER)


def central_diff4(f, x, step):
    """Fourth-order five-point first derivatives; same layout as central_diff.

    With exactly-evaluable f this reaches ~1e-11 absolute error at step
    1e-3, which plain second-order differences cannot.
    """
    x = np.asarray(x, dtype=float)
    return _columns(f, x, [step] * x.shape[0], _FOURTH_ORDER)


def jacobian_fd(f, u, step):
    """Jacobian of a batched map f: (..., m) -> (..., N), shape (..., N, m)."""
    u = np.asarray(u, dtype=float)
    return _columns(f, u, [step] * u.shape[-1], _SECOND_ORDER)


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
