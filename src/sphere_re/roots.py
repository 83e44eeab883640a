"""Small root-finding helpers used by the shape solvers."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

# gauss_newton: the relative step that ends a row, the step of the
# central-difference Jacobian (taken where the caller passes no Jacobian),
# the relative cut-off of its singular values in a gelsd step, and the least
# det(J J^T / trace) of a closed-form step; the last keeps cond(J) < 1e4, so
# that step never meets the cut-off
GN_TOL = 1e-14
GN_FD_STEP = 1e-7
GN_RCOND = 1e-8
GN_GRAM_DET = 1e-8
# the entries (i, j) of J J^T's upper triangle: 00, 01, 02, 11, 12, 22
_UPPER = np.triu_indices(3)


def bisect_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    lo_positive: Sequence[bool],
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Bisection on many brackets at once, from the proven sign lo_positive[k] = f(lo[k]) > 0 of each left end.

    f(x, idx) returns, for each k, the value at x[k] of the function of
    bracket idx[k].  The caller has proven f(lo[k]) and f(hi[k]) nonzero and
    of opposite signs, so no end is evaluated.  Each bracket halves until
    its midpoint is an exact zero or its width falls below `tol`, and
    returns that midpoint; after `max_iter` halvings, the last midpoint.
    """
    lo, hi, lo_positive = np.array(lo, dtype=float), np.array(hi, dtype=float), np.asarray(lo_positive, dtype=bool)
    root = np.empty_like(lo)
    idx = np.arange(lo.size)
    for _ in range(max_iter):
        if idx.size == 0:
            return root
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f(mid, idx), dtype=float)
        done = (fm == 0.0) | (hi - lo < tol)
        up = (fm > 0.0) == lo_positive
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        if done.any():  # brackets finish at exact zeros and at the width test, not on every step
            root[idx[done]] = mid[done]
            go = ~done
            idx, lo, hi, lo_positive = idx[go], lo[go], hi[go], lo_positive[go]
    root[idx] = 0.5 * (lo + hi)
    return root


def bisect(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Bisection on one interval of a float function: `bisect_many` on a batch of one, from the signs of its ends.

    A zero at an end returns that end (lo first); ends of one sign raise ValueError.
    """
    lo, hi = float(lo), float(hi)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    return float(bisect_many(lambda x, idx: [f(float(v)) for v in x], [lo], [hi], [flo > 0.0], tol, max_iter)[0])


def grid_roots(f: Callable, nodes: np.ndarray, sign: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """The row, left column and root of every sign change of a signed grid, then the row and column of every zero.

    `sign` (rows x columns, int8 or float) is the caller's proven sign of
    f at each node: -1, +1, or 0 for an exact zero (a NaN is neither).
    `nodes` holds the abscissae, one row for all or one per row.  A bracket
    is a strict sign change sign[r, c] * sign[r, c + 1] < 0, so no zero
    opens one: not at an end column, next to a zero or between equal signs.
    One `bisect_many` call bisects every bracket to `tol` from its left
    sign; f(x, rows) evaluates grid row rows[k] at x[k].  Row-major order.
    """
    nodes = np.broadcast_to(nodes, sign.shape)
    # flatnonzero and divmod: np.nonzero of a 2-D mask takes about 9 times as long
    row, col = np.divmod(np.flatnonzero(sign[:, :-1] * sign[:, 1:] < 0), sign.shape[1] - 1)
    root = bisect_many(lambda x, i: f(x, row[i]), nodes[row, col], nodes[row, col + 1], sign[row, col] > 0, tol)
    return (row, col, root, *np.divmod(np.flatnonzero(sign == 0), sign.shape[1]))


def poly_roots(coef: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row and value of every real root of each row coef[k] (t^0 first, t^n nonzero last) in (lo[k], hi[k]).

    Eigenvalues of the stacked companion matrices (Boyd, *Solving Transcendental
    Equations*, SIAM 2014), in row order; |Im| <= 1e-7 (1 + |Re|) counts as
    real, as rounding moves a double root about sqrt(eps) = 1.5e-8 off the axis.
    """
    companion = np.repeat(np.eye(coef.shape[1] - 1, k=-1)[None], len(coef), axis=0)
    companion[:, :, -1] = -coef[:, :-1] / coef[:, -1:]
    z = np.linalg.eigvals(companion)
    real = (np.abs(z.imag) <= 1e-7 * (1.0 + np.abs(z.real))) & (lo[:, None] < z.real) & (z.real < hi[:, None])
    return np.nonzero(real)[0], z.real[real]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, with its rounding (a BLAS dot per row)."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _svd_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_rows(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The `np.linalg.lstsq(J[k], b[k], rcond=GN_RCOND)` solution of each row k, in one gufunc call.

    This is the call that `np.linalg.lstsq` makes, under the same
    `errstate`, so a failed SVD still raises LinAlgError.
    """
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.lstsq(J, b[:, :, None], GN_RCOND, signature="ddd->ddid")[0][:, :, 0]


def _step_rows(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum-norm solution of each J[k] dx = b[k], as `_lstsq_rows` gives it, in closed form where that is safe.

    A row of a 3 x n stack, n > 3, takes dx = J^T G^-1 b with G = J J^T
    (Bjorck, *Numerical Methods for Least Squares Problems*, 1996) where
    g = G / trace(G) has det(g) > tau = `GN_GRAM_DET`; G^-1 is then
    adj(g) / (det(g) trace(G)).  With the eigenvalues l1 >= l2 >= l3 of G,
    det(g) > tau gives l3 > tau trace^3 / (l1 l2) >= tau trace >= tau l1, so
    cond(G) < 1/tau = 1e8 and cond(J) < 1e4, far inside 1/GN_RCOND = 1e8:
    gelsd would drop no singular value, and the two steps agree in exact
    arithmetic (in double, to about cond(G) eps relative).  A row whose
    det(g) trace(G) falls below the least normal double fails too, so every
    rounding stays relative.  Every other row takes `_lstsq_rows`' step bit
    for bit: a rank-deficient J, a G that overflows, and every row of a tall
    or square stack (the triangular-RE residuals are orthogonal to their
    eigenvector, so their square J has rank 2 on the solution manifold).
    """
    k, n = J.shape[1:]
    if k != 3 or n <= k:
        return _lstsq_rows(J, b)
    Jt = np.ascontiguousarray(J.transpose(1, 2, 0))  # Jt[i, c]: entry (i, c) of every row
    i, j = _UPPER
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        G = Jt[i, 0] * Jt[j, 0]
        for c in range(1, n):  # the products in column order, so a row rounds alike in any stack
            G += Jt[i, c] * Jt[j, c]
        tr = G[0] + G[3] + G[5]
        g00, g01, g02, g11, g12, g22 = G / tr
        # the adjugate of the symmetric g, and its determinant
        a00, a01, a02 = g11 * g22 - g12 * g12, g02 * g12 - g01 * g22, g01 * g12 - g02 * g11
        a11, a12, a22 = g00 * g22 - g02 * g02, g01 * g02 - g00 * g12, g00 * g11 - g01 * g01
        det = g00 * a00 + g01 * a01 + g02 * a02
        b0, b1, b2, s = b[:, 0], b[:, 1], b[:, 2], det * tr
        y0 = (a00 * b0 + a01 * b1 + a02 * b2) / s
        y1 = (a01 * b0 + a11 * b1 + a12 * b2) / s
        y2 = (a02 * b0 + a12 * b1 + a22 * b2) / s
        dx = np.ascontiguousarray((Jt[0] * y0 + Jt[1] * y1 + Jt[2] * y2).T)
    ill = ~((det > GN_GRAM_DET) & (s >= np.finfo(float).tiny))
    if ill.any():
        dx[ill] = _lstsq_rows(J[ill], b[ill])
    return dx


def gauss_newton(
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_iter: int = 40,
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    r0: np.ndarray | None = None,
) -> np.ndarray:
    """Minimum-norm Gauss-Newton for possibly underdetermined systems, batched on axis 0.

    x0 is (B, n) and residual(x, idx) maps the iterates x (b, n) of the rows
    idx to their (b, k) residuals, as `bisect_many`'s f does.  Steps are
    least-squares solutions of J dx = -r, so each iterate walks to the nearest
    point of its solution manifold.  The Jacobian (b, k, n) is
    jacobian(x, idx), called as the residual is, where the caller passes one
    (the meridian polish, in closed form).  Otherwise it comes from central
    differences, 2n residual calls per step, whose noise can turn an exact
    null direction of J into a tiny spurious singular value; `GN_RCOND` drops
    those so the step never wanders along the manifold.  Every row keeps its
    own stop rule, after which it leaves idx, and returns its own best
    iterate.  A row whose residual or Jacobian holds a NaN or an infinity
    cannot be evaluated: it drops out and comes back as NaN.  Each step solves
    every live row at once (`_step_rows`): a well-conditioned 3 x n system,
    n > 3, takes the closed-form J^T (J J^T)^-1 step, and every other row
    gelsd's, in one stacked call of the LAPACK routine that `np.linalg.lstsq`
    runs per matrix.  That arithmetic does not depend on the batch, so with a
    row-wise residual and Jacobian a row steps as it would alone.  A caller
    that holds the residuals (B, k) at x0 passes them as r0, and the first
    residual call is saved.
    """
    x = np.array(x0, dtype=float)
    r = np.array(residual(x, np.arange(len(x))) if r0 is None else r0, dtype=float)
    n = x.shape[1]
    best_x, best_n = x.copy(), _row_norms(r)
    dead = ~np.isfinite(r).all(axis=1)
    live = np.flatnonzero(~dead)
    for _ in range(max_iter):
        if live.size == 0:
            break
        if jacobian is not None:
            J = np.asarray(jacobian(x[live], live), dtype=float)
        else:
            J = np.empty((live.size, r.shape[1], n))
            for i in range(n):
                xp = x[live]
                xp[:, i] += GN_FD_STEP
                xm = x[live]
                xm[:, i] -= GN_FD_STEP
                J[:, :, i] = (residual(xp, live) - residual(xm, live)) / (2.0 * GN_FD_STEP)
        # gelsd never returns on an infinite entry and fails on a NaN
        ok = np.isfinite(J).all(axis=(1, 2))
        dead[live[~ok]] = True
        live, J = live[ok], J[ok]
        dx = _step_rows(J, -r[live])
        finite = np.isfinite(dx).all(axis=1)
        live, dx = live[finite], dx[finite]
        if live.size == 0:
            break
        x[live] = x[live] + dx
        r[live] = residual(x[live], live)
        ok = np.isfinite(r[live]).all(axis=1)
        dead[live[~ok]] = True
        live, dx = live[ok], dx[ok]
        nr = _row_norms(r[live])
        better = nr < best_n[live]
        best_x[live[better]] = x[live[better]]
        best_n[live[better]] = nr[better]
        live = live[_row_norms(dx) >= GN_TOL * (1.0 + _row_norms(x[live]))]
    best_x[dead] = np.nan
    return best_x
