"""Small root-finding helpers used by the shape solvers."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

# gauss_newton: the relative step that ends a row, the central-difference
# step of the Jacobian, and the relative cut-off of its singular values
GN_TOL = 1e-14
GN_FD_STEP = 1e-7
GN_RCOND = 1e-8


def bisect_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Bisection on many brackets at once; f(lo) and f(hi) must differ in sign.

    f(x, idx) returns, for each k, the value at x[k] of the function of
    bracket idx[k].  A bracket with a zero at an endpoint returns that
    endpoint (lo first).  Every other bracket halves until its midpoint
    is an exact zero or its width falls below `tol`, and returns that
    midpoint; after `max_iter` halvings it returns the last midpoint.
    A bracket without a sign change raises ValueError.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    root = np.empty_like(lo)
    idx = np.arange(lo.size)
    flo = np.asarray(f(lo, idx), dtype=float)
    fhi = np.asarray(f(hi, idx), dtype=float)
    at_lo = flo == 0.0
    at_hi = ~at_lo & (fhi == 0.0)
    root[at_lo] = lo[at_lo]
    root[at_hi] = hi[at_hi]
    live = ~(at_lo | at_hi)
    bad = np.flatnonzero(live & ((flo > 0.0) == (fhi > 0.0)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"no sign change on [{lo[k]}, {hi[k]}]")
    idx, lo, hi, flo = idx[live], lo[live], hi[live], flo[live]
    for _ in range(max_iter):
        if idx.size == 0:
            return root
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f(mid, idx), dtype=float)
        done = (fm == 0.0) | (hi - lo < tol)
        root[idx[done]] = mid[done]
        up = (fm > 0.0) == (flo > 0.0)
        lo = np.where(up, mid, lo)
        flo = np.where(up, fm, flo)
        hi = np.where(up, hi, mid)
        go = ~done
        idx, lo, hi, flo = idx[go], lo[go], hi[go], flo[go]
    root[idx] = 0.5 * (lo + hi)
    return root


def bisect(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Bisection on one bracketing interval: `bisect_many` on a batch of one.

    f maps one float to one float; f(lo) and f(hi) must differ in sign.
    """
    return float(bisect_many(lambda x, idx: [f(float(v)) for v in x], [lo], [hi], tol, max_iter)[0])


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


def gauss_newton(
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray], x0: np.ndarray, max_iter: int = 40
) -> np.ndarray:
    """Minimum-norm Gauss-Newton for possibly underdetermined systems, batched on axis 0.

    x0 is (B, n) and residual(x, idx) maps the iterates x (b, n) of the rows
    idx to their (b, k) residuals, as `bisect_many`'s f does.  Steps are
    least-squares solutions of J dx = -r, so each iterate walks to the nearest
    point of its solution manifold.  The Jacobian comes from central
    differences, whose noise can turn an exact null direction of J into a tiny
    spurious singular value; `GN_RCOND` drops those so the step never wanders
    along the manifold.  Every row keeps its own stop rule, after which it
    leaves idx, and returns its own best iterate.  A row whose residual or
    Jacobian holds a NaN or an infinity cannot be evaluated: it drops out and
    comes back as NaN.  Each step solves every live row in one stacked call of
    the LAPACK gelsd routine that `np.linalg.lstsq` runs per matrix, so the
    steps equal per-row `lstsq` steps bit for bit.
    """
    x = np.array(x0, dtype=float)
    r = np.asarray(residual(x, np.arange(len(x))), dtype=float)
    n = x.shape[1]
    best_x, best_n = x.copy(), _row_norms(r)
    dead = ~np.isfinite(r).all(axis=1)
    live = np.flatnonzero(~dead)
    for _ in range(max_iter):
        if live.size == 0:
            break
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
        dx = _lstsq_rows(J, -r[live])
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
