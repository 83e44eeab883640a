import numpy as np
import pytest

from oracles import bisect as oracle_bisect
from oracles import gauss_newton as oracle_gauss_newton
from sphere_re.roots import GN_FD_STEP, GN_RCOND, _lstsq_rows, bisect, bisect_many, gauss_newton


def cubic(x, r):
    # plain arithmetic: a scalar and a vector evaluation round alike
    return (x - r) * (1.0 + x * x)


def scalar_roots(r, lo, hi, **kw):
    return np.array([oracle_bisect(lambda x, k=k: cubic(x, r[k]), lo[k], hi[k], **kw) for k in range(len(r))])


def batched_roots(r, lo, hi, **kw):
    return bisect_many(lambda x, idx: cubic(x, r[idx]), lo, hi, **kw)


def test_bisect_many_matches_scalar_bit_for_bit(rng):
    n = 500
    r = rng.uniform(-3.0, 3.0, n)
    lo = r - rng.uniform(1e-6, 2.0, n)
    hi = r + rng.uniform(1e-6, 2.0, n)
    # a midpoint that is an exact root, and roots on either endpoint
    r[:3] = 1.0
    lo[:3] = (0.0, 1.0, -4.0)
    hi[:3] = (2.0, 3.0, 1.0)
    for kw in ({}, {"tol": 1e-6}, {"max_iter": 7}):
        want = scalar_roots(r, lo, hi, **kw)
        got = batched_roots(r, lo, hi, **kw)
        assert got.tobytes() == want.tobytes()
        one = [bisect(lambda x, k=k: cubic(x, r[k]), lo[k], hi[k], **kw) for k in range(50)]
        assert np.array(one).tobytes() == want[:50].tobytes()
    assert batched_roots(r, lo, hi)[:3].tolist() == [1.0, 1.0, 1.0]


def test_bisect_many_stops_each_bracket_like_bisect():
    # one bracket stops at an exact midpoint root on the first step while
    # the other runs until the width test; max_iter=0 returns midpoints
    r = np.array([1.0, 0.3])
    lo, hi = np.array([0.0, 0.0]), np.array([2.0, 1.0])
    assert batched_roots(r, lo, hi).tobytes() == scalar_roots(r, lo, hi).tobytes()
    assert batched_roots(r, lo, hi, max_iter=0).tolist() == [1.0, 0.5]


def test_bisect_many_no_sign_change_raises():
    r = np.array([0.5, 5.0])
    lo, hi = np.zeros(2), np.ones(2)
    with pytest.raises(ValueError, match=r"no sign change on \[0.0, 1.0\]"):
        batched_roots(r, lo, hi)
    for scalar in (bisect, oracle_bisect):
        with pytest.raises(ValueError, match=r"no sign change on \[0.0, 1.0\]"):
            scalar(lambda x: cubic(x, 5.0), 0.0, 1.0)


def test_bisect_many_empty():
    out = bisect_many(lambda x, idx: x, [], [])
    assert out.shape == (0,)


def bumpy(p):
    # three residuals in four unknowns, row by row; NaN where p[0] > 2
    # and +inf where p[1] > 3
    x0, x1, x2, x3 = np.moveaxis(p, -1, 0)
    r = np.stack([x0 * x0 + x1 * x1 - 2.0, np.sin(x0) - 0.3 * x1 + x3, x2 - x0 * x1 * x3], axis=-1)
    return np.where((x0 > 2.0)[..., None], np.nan, np.where((x1 > 3.0)[..., None], np.inf, r))


def scalar_bumpy(p):
    r = bumpy(p)
    if not np.isfinite(r).all():
        raise ValueError("cannot evaluate")
    return r


def test_gauss_newton_batch_matches_scalar_oracle_bit_for_bit(rng):
    x0 = rng.normal(scale=1.5, size=(80, 4))
    x0[:5, 0] = 2.5  # not evaluable at the start
    x0[5:7, 1] = 3.0 - 0.5 * GN_FD_STEP  # evaluable, but the +step probe of p[1] is infinite
    x0[7:10, 1] = 3.5  # infinite at the start, and so are both probes
    got = gauss_newton(bumpy, x0)
    dropped = 0
    for k in range(len(x0)):
        try:
            want = oracle_gauss_newton(scalar_bumpy, x0[k])
        except ValueError:
            assert np.isnan(got[k]).all()
            dropped += 1
            continue
        assert np.array_equal(got[k], want)
    assert np.isnan(got[:10]).all() and 10 < dropped < len(x0)


def test_stacked_lstsq_matches_per_row_lstsq_bit_for_bit(rng):
    J = rng.normal(size=(600, 3, 4))
    J[:200, 2] = J[:200, 0] + 1e-9 * rng.normal(size=(200, 4))  # close to rank 2
    J[200:300, :, 3] = 0.0  # rank-deficient in a column
    b = rng.normal(size=(600, 3))
    want = np.array([np.linalg.lstsq(Jk, bk, rcond=GN_RCOND)[0] for Jk, bk in zip(J, b)])
    assert _lstsq_rows(J, b).tobytes() == want.tobytes()
    J[7, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _lstsq_rows(J, b)
