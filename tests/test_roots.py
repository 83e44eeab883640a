import numpy as np
import pytest

from oracles import bisect as oracle_bisect
from oracles import bisect_many as oracle_bisect_many
from oracles import gauss_newton as oracle_gauss_newton
from sphere_re import roots
from sphere_re.roots import (
    GN_FD_STEP,
    GN_RCOND,
    _lstsq_rows,
    _step_rows,
    bisect,
    bisect_many,
    gauss_newton,
    grid_roots,
    poly_roots,
)


def cubic(x, r):
    # plain arithmetic: a scalar and a vector evaluation round alike
    return (x - r) * (1.0 + x * x)


def scalar_roots(r, lo, hi, **kw):
    return np.array([oracle_bisect(lambda x, k=k: cubic(x, r[k]), lo[k], hi[k], **kw) for k in range(len(r))])


def batched_roots(r, lo, hi, **kw):
    return bisect_many(lambda x, idx: cubic(x, r[idx]), lo, hi, cubic(lo, r) > 0.0, **kw)


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
        assert oracle_bisect_many(lambda x, idx: cubic(x, r[idx]), lo, hi, **kw).tobytes() == want.tobytes()
        # bisect_many takes no bracket with a zero at an end; roots.bisect returns that end
        assert batched_roots(r[1:], lo[1:], hi[1:], **kw)[2:].tobytes() == want[3:].tobytes()
        one = [bisect(lambda x, k=k: cubic(x, r[k]), lo[k], hi[k], **kw) for k in range(50)]
        assert np.array(one).tobytes() == want[:50].tobytes()
    assert [bisect(lambda x: cubic(x, 1.0), lo[k], hi[k]) for k in range(3)] == [1.0, 1.0, 1.0]


def test_bisect_many_stops_each_bracket_like_bisect():
    # one bracket stops at an exact midpoint root on the first step while
    # the other runs until the width test; max_iter=0 returns midpoints
    r = np.array([1.0, 0.3])
    lo, hi = np.array([0.0, 0.0]), np.array([2.0, 1.0])
    assert batched_roots(r, lo, hi).tobytes() == scalar_roots(r, lo, hi).tobytes()
    assert batched_roots(r, lo, hi, max_iter=0).tolist() == [1.0, 0.5]


def test_bisect_many_from_given_left_signs_matches_the_end_evaluating_oracle_bit_for_bit(rng):
    # brackets whose first or second midpoint is an exact zero, and functions of either sign
    n = 600
    r = rng.uniform(-3.0, 3.0, n)
    lo = r - rng.uniform(1e-6, 2.0, n)
    hi = r + rng.uniform(1e-6, 2.0, n)
    lo[:100], hi[:100] = r[:100] - 0.5, r[:100] + 0.5
    lo[100:200], hi[100:200] = r[100:200] - 0.25, r[100:200] + 0.75
    flip = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    calls = []

    def f(x, idx):
        calls.append(idx.size)
        return flip[idx] * cubic(x, r[idx])

    lo_positive = f(lo, np.arange(n)) > 0.0
    assert 0 < lo_positive.sum() < n
    for kw in ({}, {"tol": 1e-6}, {"max_iter": 7}, {"max_iter": 0}):
        calls.clear()
        want = oracle_bisect_many(f, lo, hi, **kw)
        evals = len(calls)
        calls.clear()
        got = bisect_many(f, lo, hi, lo_positive, **kw)
        assert got.tobytes() == want.tobytes()
        assert len(calls) == evals - 2  # the two end evaluations are saved
        if not kw:  # most of the exact-zero midpoints are exact in double too
            assert (got[:100] == r[:100]).sum() >= 90 and (got[100:200] == r[100:200]).sum() >= 90


def test_bisect_evaluates_its_ends_and_passes_the_sign_of_the_left_one(monkeypatch):
    calls, given = [], []

    def f(x):
        calls.append(x)
        return -cubic(x, 0.3)

    def recording(g, lo, hi, lo_positive, tol, max_iter):
        given.append(list(lo_positive))
        return bisect_many(g, lo, hi, lo_positive, tol, max_iter)

    monkeypatch.setattr(roots, "bisect_many", recording)
    assert bisect(f, 0.0, 1.0) == oracle_bisect(f, 0.0, 1.0)
    assert calls[:2] == [0.0, 1.0] and given == [[True]]
    # a zero at an end returns that end, lo first, and starts no bisection
    assert bisect(lambda x: x * (x - 1.0), 0.0, 1.0) == 0.0 and bisect(lambda x: cubic(x, 1.0), 0.0, 1.0) == 1.0
    assert given == [[True]]


def test_bisect_no_sign_change_raises():
    r = np.array([0.5, 5.0])
    lo, hi = np.zeros(2), np.ones(2)
    with pytest.raises(ValueError, match=r"no sign change on \[0.0, 1.0\]"):
        oracle_bisect_many(lambda x, idx: cubic(x, r[idx]), lo, hi)
    for scalar in (bisect, oracle_bisect):
        with pytest.raises(ValueError, match=r"no sign change on \[0.0, 1.0\]"):
            scalar(lambda x: cubic(x, 5.0), 0.0, 1.0)


def test_bisect_many_empty():
    out = bisect_many(lambda x, idx: x, [], [], [])
    assert out.shape == (0,)


SIGN_ROWS = [
    [0, 1, -1, 1],  # a zero at the first column
    [1, -1, 1, 0],  # a zero at the last column
    [-1, 0, 0, 1],  # two adjacent zeros
    [1, 0, 1, -1],  # a zero between equal signs
    [0, 0, 0, 0],  # an all-zero row
    [1, 1, 1, 1],  # a row with no change
]


@pytest.mark.parametrize("dtype", [np.int8, float])
def test_grid_roots_brackets_only_strict_sign_changes_and_lists_every_node_zero(dtype, monkeypatch):
    sign = np.array(SIGN_ROWS, dtype=dtype)
    nodes = np.array([0.0, 1.0, 2.0, 3.0])
    given = []

    def recording(f, lo, hi, lo_positive, tol):
        given.append((lo, hi, lo_positive))
        return bisect_many(f, lo, hi, lo_positive, tol)

    monkeypatch.setattr(roots, "bisect_many", recording)
    # row r's function is linear through the midpoint of each of its brackets, so each root is exact
    row, col, root, zrow, zcol = grid_roots(
        lambda x, rows: np.where(sign[rows, np.floor(x).astype(int)] > 0, 1.0, -1.0) * (np.floor(x) + 0.5 - x),
        nodes,
        sign,
        1e-12,
    )
    assert row.tolist() == [0, 0, 1, 1, 3] and col.tolist() == [1, 2, 0, 1, 2]
    assert root.tolist() == [1.5, 2.5, 0.5, 1.5, 2.5]
    (lo, hi, lo_positive), = given
    assert lo.tolist() == [1.0, 2.0, 0.0, 1.0, 2.0] and hi.tolist() == [2.0, 3.0, 1.0, 2.0, 3.0]
    assert lo_positive.tolist() == [True, False, True, False, True]
    assert zrow.tolist() == [0, 1, 2, 2, 3, 4, 4, 4, 4] and zcol.tolist() == [0, 3, 1, 2, 1, 0, 1, 2, 3]


def test_grid_roots_takes_a_grid_of_nodes_per_row_and_skips_nan_signs():
    # one row of nodes per grid row; a NaN sign is neither a zero nor a change
    nodes = np.array([[0.0, 1.0, 2.0], [10.0, 20.0, 30.0]])
    shift = np.array([0.25, 12.5])
    sign = np.sign(nodes - shift[:, None])
    sign[1, 2] = np.nan
    row, col, root, zrow, zcol = grid_roots(lambda x, rows: x - shift[rows], nodes, sign, 1e-14)
    assert row.tolist() == [0, 1] and col.tolist() == [0, 0] and root.tolist() == [0.25, 12.5]
    assert zrow.size == zcol.size == 0
    row, col, root, zrow, zcol = grid_roots(lambda x, rows: x, nodes[:, :1], np.zeros((2, 1)), 1e-14)
    assert row.size == col.size == root.size == 0 and zrow.tolist() == [0, 1] and zcol.tolist() == [0, 0]


def test_poly_roots_keeps_the_real_roots_inside_each_open_interval_in_row_order():
    # (t - 0.5)(t - 2)(t - 3)(t^2 + 1) on (0, 2.5); (t - 1)^2 (t + 1)(t^2 + 4) on (-2, 5), whose double
    # root rounds into a conjugate pair or two reals: both halves come back; a complex pair is no root
    p1 = np.polynomial.polynomial.polyfromroots([0.5, 2.0, 3.0, 1j, -1j]).real
    p2 = np.polynomial.polynomial.polyfromroots([1.0, 1.0, -1.0, 2j, -2j]).real
    row, root = poly_roots(np.array([p1, p2]), np.array([0.0, -2.0]), np.array([2.5, 5.0]))
    assert row.tolist() == [0, 0, 1, 1, 1]
    order = np.lexsort((root, row))
    assert np.allclose(root[order], [0.5, 2.0, -1.0, 1.0, 1.0], rtol=0.0, atol=1e-7)
    row, root = poly_roots(np.array([p1]), np.array([0.6]), np.array([2.9]))
    assert row.tolist() == [0] and abs(root[0] - 2.0) < 1e-12


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


# Where the batch lands on its solution curve (3 equations in 4 unknowns)
# depends on the steps' last bits: started one ulp away, the oracle itself
# lands up to 2.4e-6 away (800 rows of 10 seeds; median 4e-10).  Both land
# on the curve, to a residual of 1e-15.
ORACLE_LANDING = 1e-5


def assert_lands_like_the_oracle(got, want, residual):
    assert np.abs(residual(want)).max() <= 1e-15
    assert np.abs(residual(got)).max() <= 1e-15
    assert np.abs(got - want).max() <= ORACLE_LANDING


def test_gauss_newton_batch_matches_one_row_solves_bit_for_bit(rng):
    x0 = rng.normal(scale=1.5, size=(80, 4))
    x0[:5, 0] = 2.5  # not evaluable at the start
    x0[5:7, 1] = 3.0 - 0.5 * GN_FD_STEP  # evaluable, but the +step probe of p[1] is infinite
    x0[7:10, 1] = 3.5  # infinite at the start, and so are both probes
    got = gauss_newton(lambda p, idx: bumpy(p), x0)
    dropped = 0
    for k in range(len(x0)):
        assert got[k].tobytes() == gauss_newton(lambda p, idx: bumpy(p), x0[k : k + 1])[0].tobytes()
        try:
            want = oracle_gauss_newton(scalar_bumpy, x0[k])
        except ValueError:
            assert np.isnan(got[k]).all()
            dropped += 1
            continue
        assert_lands_like_the_oracle(got[k], want, bumpy)
    assert np.isnan(got[:10]).all() and 10 < dropped < len(x0)


def test_gauss_newton_residual_sees_exactly_its_live_rows(rng):
    # a target per row: a residual handed the wrong rows would solve the wrong system
    x0 = rng.normal(scale=1.5, size=(60, 4))
    x0[:4, 0] = 2.5  # not evaluable at the start
    x0[4:6, 1] = 3.0 - 0.5 * GN_FD_STEP  # the +step probe of p[1] is infinite
    target = rng.normal(scale=0.1, size=(60, 3))
    seen = []

    def recording(p, idx):
        assert len(p) == len(idx)
        seen.append(idx.copy())
        return bumpy(p) - target[idx]

    got = gauss_newton(recording, x0)
    assert seen[0].tolist() == list(range(60))
    for before, idx in zip(seen, seen[1:]):
        assert np.isin(idx, before).all()  # a row that stops never comes back
    appearances = np.zeros(60, dtype=int)
    for idx in seen:
        appearances[idx] += 1
    assert appearances[:4].tolist() == [1, 1, 1, 1]
    for k in range(60):
        calls = []

        def one_row(q, idx, k=k):
            calls.append(idx.tolist())
            return bumpy(q) - target[k]

        alone = gauss_newton(one_row, x0[k : k + 1])[0]
        assert got[k].tobytes() == alone.tobytes()
        # the row is in exactly the calls that the one-row solve makes
        assert appearances[k] == len(calls) and all(c == [0] for c in calls)
        try:
            want = oracle_gauss_newton(lambda q, k=k: scalar_bumpy(q) - target[k], x0[k])
        except ValueError:
            assert np.isnan(got[k]).all()
            continue
        assert_lands_like_the_oracle(got[k], want, lambda q, k=k: bumpy(q) - target[k])
    assert len(set(appearances[6:].tolist())) > 2  # rows stop at different steps


def bumpy_jacobian(p):
    # the Jacobian of bumpy, (rows, 3, 4), non-finite where bumpy is
    x0, x1, x2, x3 = np.moveaxis(p, -1, 0)
    zero, one = np.zeros_like(x0), np.ones_like(x0)
    jac = np.stack(
        [
            np.stack([2.0 * x0, 2.0 * x1, zero, zero], axis=-1),
            np.stack([np.cos(x0), -0.3 * one, zero, one], axis=-1),
            np.stack([-x1 * x3, -x0 * x3, one, -x0 * x1], axis=-1),
        ],
        axis=-2,
    )
    return np.where(np.isfinite(bumpy(p)).all(axis=-1)[..., None, None], jac, np.nan)


def test_gauss_newton_takes_the_given_jacobian_on_the_residuals_rows(rng):
    x0 = rng.normal(scale=1.5, size=(60, 4))
    x0[:4, 0] = 2.5  # not evaluable at the start
    target = rng.normal(scale=0.1, size=(60, 3))
    calls = []

    def residual(p, idx):
        calls.append(("r", idx.copy()))
        return bumpy(p) - target[idx]

    def jacobian(p, idx):
        calls.append(("J", idx.copy()))
        return bumpy_jacobian(p)

    got = gauss_newton(residual, x0, jacobian=jacobian)
    # no difference probes: each step takes one Jacobian, then one residual, on the same live rows
    kinds = [kind for kind, _ in calls]
    assert kinds[0] == "r" and kinds[1:] == ["J", "r"] * ((len(kinds) - 1) // 2)
    for (_, jac_idx), (_, res_idx) in zip(calls[1::2], calls[2::2]):
        assert np.isin(res_idx, jac_idx).all()
    assert calls[1][1].tolist() == np.flatnonzero(np.isfinite(bumpy(x0)).all(axis=1)).tolist()
    assert np.isnan(got[:4]).all()
    for k in range(4, 60):
        alone = gauss_newton(
            lambda q, idx, k=k: bumpy(q) - target[k], x0[k : k + 1], jacobian=lambda q, idx: bumpy_jacobian(q)
        )
        assert got[k].tobytes() == alone[0].tobytes()
        if np.isfinite(got[k]).all():
            assert np.abs(bumpy(got[k]) - target[k]).max() <= 1e-15
    # the exact Jacobian lands on the curve where central differences do
    fd = gauss_newton(lambda p, idx: bumpy(p) - target[idx], x0)
    assert np.array_equal(np.isnan(fd).any(axis=1), np.isnan(got).any(axis=1))
    ok = np.isfinite(got).all(axis=1)
    assert np.abs(got[ok] - fd[ok]).max() <= ORACLE_LANDING


def test_gauss_newton_from_a_given_starting_residual_matches_its_own_bit_for_bit(rng):
    x0 = rng.normal(scale=1.5, size=(60, 4))
    x0[:4, 0] = 2.5  # not evaluable at the start
    x0[4:6, 1] = 3.5  # infinite at the start
    target = rng.normal(scale=0.1, size=(60, 3))
    calls = []

    def residual(p, idx):
        calls.append(idx.size)
        return bumpy(p) - target[idx]

    r0 = residual(x0, np.arange(60))
    for jacobian in (None, lambda p, idx: bumpy_jacobian(p)):
        calls.clear()
        want = gauss_newton(residual, x0, jacobian=jacobian)
        evals = len(calls)
        calls.clear()
        given = r0.copy()
        got = gauss_newton(residual, x0, jacobian=jacobian, r0=given)
        assert got.tobytes() == want.tobytes() and given.tobytes() == r0.tobytes()
        assert len(calls) == evals - 1
        assert np.isnan(got[:6]).all() and np.isfinite(got[6:]).all(axis=1).sum() >= 30


def rank2(r):
    # the third residual a combination of the first two
    with np.errstate(invalid="ignore"):
        return np.concatenate([r[..., :2], r[..., :1] - 0.5 * r[..., 1:2]], axis=-1)


def test_gauss_newton_matches_scalar_oracle_bit_for_bit_where_every_step_is_lstsq(rng, monkeypatch):
    # a residual of rank 2: every J J^T is singular, so every step is gelsd's
    x0 = rng.normal(scale=1.5, size=(40, 4))
    x0[:3, 0] = 2.5  # not evaluable at the start
    rows = {"stepped": 0, "lstsq": 0}
    step_rows, lstsq_rows = roots._step_rows, roots._lstsq_rows

    def counting(name, f):
        def wrapped(J, b):
            rows[name] += len(J)
            return f(J, b)

        return wrapped

    monkeypatch.setattr(roots, "_step_rows", counting("stepped", step_rows))
    monkeypatch.setattr(roots, "_lstsq_rows", counting("lstsq", lstsq_rows))
    got = gauss_newton(lambda p, idx: rank2(bumpy(p)), x0)
    assert rows["stepped"] == rows["lstsq"] > len(x0)
    dropped = 0
    for k in range(len(x0)):
        try:
            want = oracle_gauss_newton(lambda q: rank2(scalar_bumpy(q)), x0[k])
        except ValueError:
            assert np.isnan(got[k]).all()
            dropped += 1
            continue
        assert got[k].tobytes() == want.tobytes()
    assert 3 <= dropped < len(x0)


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


def test_gram_step_agrees_with_lstsq_on_well_conditioned_rows(rng, monkeypatch):
    # J = U diag(s) V^T with s in [1, 50] times a scale: cond(J J^T) <= 2500,
    # so det(g) >= 2500 / 2502^3 > 1e2 GN_GRAM_DET and every row takes the
    # closed-form step, within 64 cond(J J^T) eps of gelsd's (at most 18
    # seen over 180,000 random rows)
    fallback = []
    monkeypatch.setattr(roots, "_lstsq_rows", lambda J, b: fallback.append(len(J)) or _lstsq_rows(J, b))
    for n in (4, 5, 6):
        U = np.linalg.qr(rng.normal(size=(2000, 3, 3)))[0]
        V = np.linalg.qr(rng.normal(size=(2000, n, 3)))[0]
        V[:100] = np.linalg.qr(rng.normal(size=(100, n, 3)) * (np.arange(n) < n - 1)[:, None])[0]  # a zero column of J
        s = rng.uniform(1.0, 50.0, size=(2000, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(2000, 1))
        J = (U * s[:, None, :]) @ V.transpose(0, 2, 1)
        b = rng.normal(size=(2000, 3))
        got, want = _step_rows(J, b), _lstsq_rows(J, b)
        cond = np.linalg.cond(J @ J.transpose(0, 2, 1))
        err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert (err <= 64.0 * cond * np.finfo(float).eps).all()
        assert not got[:100, n - 1].any() and not J[:100, :, n - 1].any()
        assert got.flags.c_contiguous
    assert fallback == []


def test_gram_step_leaves_every_other_row_to_lstsq_bit_for_bit(rng, monkeypatch):
    J = rng.normal(size=(700, 3, 4))
    J[:200, 2] = J[:200, 0] + 1e-9 * rng.normal(size=(200, 4))  # close to rank 2
    J[200:300, 1] = 0.0  # of rank 2
    J[300:350] *= 1e160  # J J^T overflows
    J[350:400] *= 1e-160  # J J^T underflows
    b = rng.normal(size=(700, 3))
    got = _step_rows(J, b)
    assert got[:400].tobytes() == _lstsq_rows(J[:400], b[:400]).tobytes()
    assert got[400:].tobytes() != _lstsq_rows(J[400:], b[400:]).tobytes()
    # a tall or square stack is gelsd's on every row, in one call
    for shape in ((50, 3, 2), (50, 3, 3), (50, 4, 5), (50, 2, 4)):
        J, b = rng.normal(size=shape), rng.normal(size=shape[:2])
        calls = []
        monkeypatch.setattr(roots, "_lstsq_rows", lambda J, b: calls.append(len(J)) or _lstsq_rows(J, b))
        assert _step_rows(J, b).tobytes() == _lstsq_rows(J, b).tobytes()
        assert calls == [50]
