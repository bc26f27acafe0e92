"""LP solver tests: pinned micro-cases, vertex-enumeration oracle comparisons,
finite-difference dual checks, warm starts, and KKT residual properties."""

import copy
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arotnep.errors import NumericalError, ValidationError
from arotnep.simplex import (
    _DENSE_MAX_ROWS,
    BasisState,
    LinearProgram,
    _finish,
    _Simplex,
    check_kkt,
    solve_lp,
    solve_lp_warm,
    solve_lp_with_state,
)
from oracles import lp_vertex_optimum, random_box_lp


def test_min_single_variable_at_lower_bound():
    lp = LinearProgram([1.0], lower=[1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_max_over_simplex_face():
    # max x + y subject to x + y <= 1 on the unit box, posed as the
    # minimization of -x - y; optimum value -1.
    lp = LinearProgram([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                       lower=[0.0, 0.0], upper=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    status, obj, _ = lp_vertex_optimum(lp)
    assert status == "optimal"
    assert sol.objective == pytest.approx(obj, abs=1e-9)
    # The row is binding: relaxing it lowers the objective at rate duals_ub.
    assert sol.duals_ub[0] == pytest.approx(1.0, abs=1e-7)


def test_infeasible_row_against_bounds():
    lp = LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0], lower=[2.0])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_below():
    lp = LinearProgram([-1.0], lower=[0.0])
    assert solve_lp(lp).status == "unbounded"


def test_bound_flip_reaches_upper():
    lp = LinearProgram([-1.0], lower=[0.0], upper=[3.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-12)
    assert sol.objective == pytest.approx(-3.0, abs=1e-12)


def test_negative_rhs_equality():
    # Forces the signed-artificial path in phase 1.
    lp = LinearProgram([1.0, 1.0], a_eq=[[1.0, -1.0]], b_eq=[-4.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(4.0, abs=1e-9)


def test_degenerate_vertex():
    # Three rows meet at (1, 0); multiple bases describe the same optimum.
    lp = LinearProgram([-1.0, -1.0],
                       a_ub=[[1.0, 1.0], [1.0, 2.0], [1.0, 0.0]],
                       b_ub=[1.0, 1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_matches_vertex_oracle_random(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 5))
    m_ub = int(rng.integers(1, 6))
    m_eq = int(rng.integers(0, min(2, n)))
    lp = random_box_lp(rng, n, m_ub, m_eq)
    if seed % 2:  # odd seeds minimize -c, the other objective orientation
        lp.objective = -lp.objective
    sol = solve_lp(lp)
    status, obj, _ = lp_vertex_optimum(lp)
    assert sol.status == status == "optimal"
    assert sol.objective == pytest.approx(obj, abs=1e-7)
    assert check_kkt(lp, sol) <= 1e-7 * (1.0 + abs(sol.objective))


@pytest.mark.parametrize("seed", range(6))
def test_equality_dual_is_rhs_gradient(seed):
    rng = np.random.default_rng(2000 + seed)
    lp = random_box_lp(rng, 4, 3, m_eq=1)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    delta = 1e-6
    grads = []
    for sign in (+1.0, -1.0):
        shifted = LinearProgram(lp.objective, a_eq=lp.a_eq,
                                b_eq=lp.b_eq + sign * delta,
                                a_ub=lp.a_ub, b_ub=lp.b_ub,
                                lower=lp.lower, upper=lp.upper)
        grads.append(solve_lp(shifted).objective)
    fd = (grads[0] - grads[1]) / (2.0 * delta)
    assert sol.duals_eq[0] == pytest.approx(fd, abs=1e-4, rel=1e-4)


def test_inequality_dual_gradient_sign():
    rng = np.random.default_rng(77)
    lp = random_box_lp(rng, 3, 4)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    binding = np.flatnonzero(np.abs(lp.a_ub @ sol.x - lp.b_ub) < 1e-7)
    assert np.all(sol.duals_ub >= -1e-12)
    delta = 1e-6
    for i in range(lp.b_ub.size):
        b2 = lp.b_ub.copy()
        b2[i] += delta
        shifted = LinearProgram(lp.objective, a_ub=lp.a_ub, b_ub=b2,
                                lower=lp.lower, upper=lp.upper)
        fd = (solve_lp(shifted).objective - sol.objective) / delta
        assert fd == pytest.approx(-sol.duals_ub[i], abs=1e-4)
        if i not in binding:
            assert sol.duals_ub[i] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_warm_start_matches_cold_after_bound_fix(seed):
    rng = np.random.default_rng(3000 + seed)
    n = 6
    lp = random_box_lp(rng, n, 5)
    base = solve_lp(lp)
    assert base.status == "optimal"
    # Re-solve through the module's warm path after pinning one to three
    # variables, mimicking a branch-and-bound bound change.
    sx = _Simplex(lp)
    assert sx.phase1()
    sx.optimize(sx.c)
    state = sx.basis_state()
    pinned = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    lower2 = lp.lower.copy()
    upper2 = lp.upper.copy()
    lower2[pinned] = upper2[pinned] = rng.uniform(lp.lower[pinned], lp.upper[pinned])
    lp2 = LinearProgram(lp.objective, a_ub=lp.a_ub, b_ub=lp.b_ub,
                        lower=lower2, upper=upper2)
    warm, new_state = solve_lp_warm(lp2, state)
    cold = solve_lp(lp2)
    # Pinning coordinates can make the instance infeasible; the warm path
    # must agree with the cold solve either way.
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        assert check_kkt(lp2, warm) <= 1e-7
        assert new_state.basis.size == state.basis.size


@pytest.mark.parametrize("seed", range(8))
def test_dual_pivots_keep_the_rows_satisfied(seed):
    # The dual simplex moves the basic values along each entering column
    # instead of recomputing them, so they must still solve A x = b.
    rng = np.random.default_rng(3000 + seed)
    lp = random_box_lp(rng, 6, 5)
    sx = _Simplex(lp)
    assert sx.phase1()
    sx.optimize(sx.c)
    pivots = sx.iterations
    pinned = rng.choice(6, size=3, replace=False)
    sx.lower[pinned] = sx.upper[pinned] = sx.x[pinned] = rng.uniform(
        lp.lower[pinned], lp.upper[pinned])
    sx._recompute_basic_values()
    status = sx.dual_optimize(sx.c)
    assert sx.iterations > pivots
    assert np.max(np.abs(sx.A @ sx.x - sx.b)) <= 1e-9
    if status == "optimal":
        assert np.all(sx.x >= sx.lower - sx.tol_p)
        assert np.all(sx.x <= sx.upper + sx.tol_p)


def test_warm_start_detects_infeasible_bound_fix():
    lp = LinearProgram([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                       lower=[0.0, 0.0], upper=[1.0, 1.0])
    sx = _Simplex(lp)
    assert sx.phase1()
    sx.optimize(sx.c)
    state = sx.basis_state()
    lp2 = LinearProgram(lp.objective, a_ub=lp.a_ub, b_ub=lp.b_ub,
                        lower=[1.0, 1.0], upper=[1.0, 1.0])
    warm, _ = solve_lp_warm(lp2, state)
    assert warm.status == "infeasible"


def test_kkt_checker_rejects_corrupted_duals():
    lp = LinearProgram([1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    clean = check_kkt(lp, sol)
    sol.duals_ub = sol.duals_ub + 0.5
    assert check_kkt(lp, sol) > clean + 0.1


def test_check_kkt_requires_optimal():
    lp = LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0], lower=[2.0])
    sol = solve_lp(lp)
    with pytest.raises(ValidationError):
        check_kkt(lp, sol)


@pytest.mark.parametrize("lower, upper", [
    ([0.0, 2.0], [1.0, 1.0]),
    ([np.inf, 0.0], [np.inf, 1.0]),
    ([0.0, 0.0], [1.0, -np.inf]),
    ([0.0, np.nan], [1.0, 1.0]),
    ([0.0, 0.0], [1.0, np.nan]),
    ([0.0, -np.inf], [1.0, 1.0]),
], ids=["crossed", "lower-plus-inf", "upper-minus-inf", "nan-lower", "nan-upper",
        "lower-minus-inf"])
def test_validate_rejects_crossed_bounds(lower, upper):
    lp = LinearProgram([1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                       lower=lower, upper=upper)
    bad = 0 if np.isinf(lower[0]) else 1
    with pytest.raises(ValidationError, match=f"variable {bad}"):
        solve_lp(lp)


def test_validate_rejects_shape_mismatch():
    lp = LinearProgram([1.0, 2.0], a_eq=[[1.0]], b_eq=[1.0])
    with pytest.raises(ValidationError, match="a_eq has 1 columns, expected 2"):
        solve_lp(lp)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 5))
def test_property_optimal_beats_interior_point(seed, n, m_ub):
    """Solver value never exceeds the objective at the known feasible point,
    and KKT residuals certify optimality."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 3.0, n)
    x0 = rng.uniform(lower, upper)
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.uniform(0.05, 1.0, m_ub)
    lp = LinearProgram(c, a_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective <= float(c @ x0) + 1e-9
    assert check_kkt(lp, sol) <= 1e-7 * (1.0 + abs(sol.objective))


def test_pivot_cap_raises():
    lp = random_box_lp(np.random.default_rng(6000), 6, 5, m_eq=2)
    assert solve_lp(lp).iterations > 1
    sx = _Simplex(lp)
    sx.max_iter = 1
    with pytest.raises(NumericalError, match="iteration cap"):
        sx.phase1()


def mixed_basis_simplex(rng, n, m_eq, m_ub, n_unit):
    """A random LP's working state with a basis of ``n_unit`` slacks and
    signed artificials on distinct rows, filled up with structural columns."""
    lp = LinearProgram(rng.normal(size=n), a_eq=rng.normal(size=(m_eq, n)),
                       b_eq=rng.normal(size=m_eq), a_ub=rng.normal(size=(m_ub, n)),
                       b_ub=rng.normal(size=m_ub))
    sx = _Simplex(lp)
    sx.A[np.arange(sx.m), sx.art] = rng.choice([-1.0, 1.0], size=sx.m)
    rows = rng.permutation(sx.m)[:n_unit]
    unit = [sx.n + r - m_eq if r >= m_eq and rng.random() < 0.5 else int(sx.art[r])
            for r in rows]
    structural = rng.permutation(n)[:sx.m - n_unit]
    sx.basis = rng.permutation(np.concatenate([unit, structural]).astype(np.int64))
    return sx


# (n, m_eq, m_ub, unit columns in the basis); the last shape has more rows
# than _DENSE_MAX_ROWS, so its basis keeps the kernel-form inverse.
BASIS_SHAPES = [(12, 4, 5, 4), (12, 0, 7, 3), (12, 6, 0, 2), (5, 0, 0, 0),
                (9, 3, 4, 7), (9, 3, 4, 0), (30, 10, 15, 20), (120, 60, 130, 100)]
# (n, m_eq, m_ub) on each side of the cutoff.
DENSE_ROWS, KERNEL_ROWS = (10, 3, 4), (200, 60, 120)
assert sum(DENSE_ROWS[1:]) <= _DENSE_MAX_ROWS < sum(KERNEL_ROWS[1:])


def inverse_residual(sx):
    """Worst entry of ``B^-1 B - I`` formed by FTRAN and by BTRAN."""
    eye = np.eye(sx.m)
    cols = sx.A[:, sx.basis]
    ftran = np.array([sx._ftran(col) for col in cols.T]).reshape(sx.m, sx.m).T
    btran = np.array([sx._btran(e) for e in eye]).reshape(sx.m, sx.m)
    return max(np.max(np.abs(ftran - eye), initial=0.0),
               np.max(np.abs(btran @ cols - eye), initial=0.0))


def sequential_etas(sx, a, transpose):
    """FTRAN or BTRAN through the eta file one eta at a time, the reference
    for the closed form that :meth:`_Simplex._add_eta` keeps."""
    kernel_only = copy.deepcopy(sx)
    kernel_only.n_etas = 0
    etas = list(zip(sx._eta_k[:sx.n_etas], sx._eta_w[:sx.n_etas]))
    if transpose:
        u = a.copy()
        for k, w in reversed(etas):
            u[k] -= (u @ w - u[k]) / w[k]
        return kernel_only._btran(u)
    v = kernel_only._ftran(a)
    for k, w in etas:
        t = v[k] / w[k]
        v -= w * t
        v[k] = t
    return v


@pytest.mark.parametrize("shape", BASIS_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_kernel_refactor_inverts_mixed_bases(shape, seed):
    rng = np.random.default_rng(5000 + seed)
    sx = mixed_basis_simplex(rng, *shape)
    assert sx.dense == (sx.m <= _DENSE_MAX_ROWS)
    sx._refactor()
    assert inverse_residual(sx) <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_in_place_update_matches_row_deleting_update(seed):
    rng = np.random.default_rng(5100 + seed)
    for shape in ((14, 4, 6, 5), (120, 60, 130, 100)):
        sx = mixed_basis_simplex(rng, *shape)
        sx._refactor()
        for q in rng.permutation(np.setdiff1d(np.arange(sx.n), sx.basis))[:4]:
            w = sx._ftran(sx.A[:, q])
            k = int(np.argmax(np.abs(w)))
            if sx.dense:
                old = sx.binv.copy()
                old[k, :] /= w[k]
                other = np.delete(np.arange(sx.m), k)
                old[other, :] -= np.outer(w[other], old[k, :])
            sx._update_inverse(w, k)
            sx.basis[k] = q
            if sx.dense:
                assert np.array_equal(sx.binv, old)
        if not sx.dense:
            # Four etas on the old factors act like factors of the new basis.
            fresh = copy.deepcopy(sx)
            fresh._refactor()
            assert sx.n_etas == 4 and fresh.n_etas == 0
            for a in rng.normal(size=(3, sx.m)):
                assert np.max(np.abs(sx._ftran(a) - fresh._ftran(a))) <= 1e-10
                assert np.max(np.abs(sx._btran(a) - fresh._btran(a))) <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_eta_file_matches_one_eta_at_a_time(seed):
    # 150 etas, more than the first allocation of the file holds.
    rng = np.random.default_rng(5150 + seed)
    sx = mixed_basis_simplex(rng, 320, 60, 130, 100)
    assert not sx.dense
    sx._refactor()
    for _ in range(150):
        q = rng.choice(np.setdiff1d(np.arange(sx.n), sx.basis))
        w = sx._ftran(sx.A[:, q])
        k = int(np.argmax(np.abs(w)))
        sx._update_inverse(w, k)
        sx.basis[k] = q
    assert sx.n_etas == 150
    for a in rng.normal(size=(3, sx.m)):
        for transpose, closed in ((False, sx._ftran(a)), (True, sx._btran(a))):
            ref = sequential_etas(sx, a, transpose)
            assert np.max(np.abs(closed - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))
    assert inverse_residual(sx) <= 1e-9


def test_kernel_form_pivot_rejects_non_finite_values():
    rng = np.random.default_rng(5160)
    sx = mixed_basis_simplex(rng, 120, 60, 130, 100)
    sx._refactor()
    q = int(np.setdiff1d(np.arange(sx.n), sx.basis)[0])
    w = sx._ftran(sx.A[:, q])
    w[1] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        sx._pivot(int(np.argmax(np.abs(w[2:]))) + 2, q, w, 1.0, False)


def test_dual_refactors_when_row_and_column_disagree():
    # Perturb every FTRAN made through a non-empty eta file, as rounding
    # drift would: the dual simplex must see the pivot element disagree with
    # its pivot row, refactor, and still reach the cold optimum.
    rng = np.random.default_rng(5170)
    lp = random_box_lp(rng, 40, 200, m_eq=5)
    sx = _Simplex(lp)
    assert not sx.dense and sx.phase1()
    sx.optimize(sx.c)
    sx._refactor()
    pinned = rng.choice(40, size=15, replace=False)
    sx.lower[pinned] = sx.upper[pinned] = sx.x[pinned] = rng.uniform(
        lp.lower[pinned], lp.upper[pinned])
    sx._recompute_basic_values()
    clean_ftran, clean_refactor, drifted = sx._ftran, sx._refactor, []
    sx._ftran = lambda a: clean_ftran(a) * (1.0 + 1e-6 * bool(sx.n_etas))
    sx._refactor = lambda: (drifted.append(sx.n_etas), clean_refactor())
    status = sx.dual_optimize(sx.c)
    assert drifted and min(drifted) >= 1
    sx._ftran, sx._refactor = clean_ftran, clean_refactor
    sol, _ = _finish(sx, status)
    lp2 = LinearProgram(lp.objective, a_eq=lp.a_eq, b_eq=lp.b_eq, a_ub=lp.a_ub,
                        b_ub=lp.b_ub, lower=sx.lower[:40], upper=sx.upper[:40])
    cold = solve_lp(lp2)
    assert sol.status == cold.status
    if cold.status == "optimal":
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9)


def test_primal_refactors_before_a_drifted_pivot():
    rng = np.random.default_rng(5180)
    lp = random_box_lp(rng, 40, 200, m_eq=5)
    sx = _Simplex(lp)
    assert sx.phase1()
    q = int(np.setdiff1d(np.arange(sx.n), sx.basis)[0])
    w = sx._ftran(sx.A[:, q])
    k = int(np.argmax(np.abs(w)))
    sx._update_inverse(w, k)
    sx.basis[k] = q
    tiny = np.full(sx.m, 1.0)
    tiny[0] = 1e-10
    assert sx._drifted(tiny, 0) and not sx._drifted(tiny, 1)
    assert sx._drifted(tiny, 1, 1.0 + 1e-6) and not sx._drifted(tiny, 1, 1.0)
    # Take every pivot read through a non-empty eta file as drift: the
    # primal simplex refactors before each pivot and still finds the optimum.
    sx = _Simplex(lp)
    clean_refactor, refactored_etas = sx._refactor, []
    sx._refactor = lambda: (refactored_etas.append(sx.n_etas), clean_refactor())
    sx._drifted = lambda w, k, alpha_k=None: sx.n_etas > 0
    sol, _ = _finish(sx, "optimal" if sx.phase1() else "infeasible")
    assert 1 in refactored_etas
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(solve_lp(lp).objective, rel=1e-9)


def highs_lp(lp):
    from scipy.optimize import linprog

    return linprog(lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub,
                   A_eq=lp.a_eq if lp.b_eq.size else None,
                   b_eq=lp.b_eq if lp.b_eq.size else None,
                   bounds=np.column_stack([lp.lower, lp.upper]), method="highs")


@pytest.mark.parametrize("seed", range(4))
def test_kernel_form_matches_highs_cold_and_warm(seed, caplog):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(5500 + seed)
    n = 60
    lp = random_box_lp(rng, n, 200, m_eq=10)
    sol, state = solve_lp_with_state(lp)
    assert not _Simplex(lp).dense
    pinned = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    lower2 = lp.lower.copy()
    upper2 = lp.upper.copy()
    lower2[pinned] = upper2[pinned] = rng.uniform(lp.lower[pinned], lp.upper[pinned])
    lp2 = LinearProgram(lp.objective, a_eq=lp.a_eq, b_eq=lp.b_eq, a_ub=lp.a_ub,
                        b_ub=lp.b_ub, lower=lower2, upper=upper2)
    with caplog.at_level(logging.DEBUG, logger="arotnep.simplex"):
        warm, _ = solve_lp_warm(lp2, state)
    assert not caplog.records  # the dual simplex, not a cold fallback
    for problem, got in ((lp, sol), (lp2, warm)):
        ref = highs_lp(problem)
        if ref.status == 2:
            assert got.status == "infeasible"
            continue
        assert ref.status == 0 and got.status == "optimal"
        assert got.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)
        assert check_kkt(problem, got) <= 1e-7


def test_kernel_refactor_rejects_singular_kernel():
    rng = np.random.default_rng(5200)
    for rows in (DENSE_ROWS, KERNEL_ROWS):
        sx = mixed_basis_simplex(rng, *rows, 3)
        # A structural column that vanishes off the unit columns' rows lies in
        # their span, so the basis is singular although the column is not zero.
        uncovered = np.ones(sx.m, dtype=bool)
        uncovered[sx._unit_row[sx.basis[sx.basis >= sx.n]]] = False
        sx.A[uncovered, sx.basis[np.argmax(sx.basis < sx.n)]] = 0.0
        with pytest.raises(NumericalError, match="singular"):
            sx._refactor()


def test_kernel_refactor_rejects_unit_columns_on_one_row():
    rng = np.random.default_rng(5300)
    for rows in (DENSE_ROWS, KERNEL_ROWS):
        sx = mixed_basis_simplex(rng, *rows, 0)
        row = sx.m_eq + 1
        sx.basis[:2] = [sx.n + 1, sx.art[row]]  # slack and artificial of one row
        with pytest.raises(NumericalError, match="singular"):
            sx._refactor()


def test_kernel_refactor_rejects_unsigned_artificial():
    rng = np.random.default_rng(5400)
    for rows in (DENSE_ROWS, KERNEL_ROWS):
        sx = mixed_basis_simplex(rng, *rows, 0)
        # Every artificial column starts as +e_i; the guard still catches a
        # unit column that has lost the entry on its own row.
        sx.A[0, sx.art[0]] = 0.0
        sx.basis[0] = sx.art[0]
        with pytest.raises(NumericalError, match="singular"):
            sx._refactor()


def test_warm_start_fallback_is_logged(caplog):
    lp = LinearProgram([1.0, 2.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    stale = BasisState(np.zeros(3, dtype=np.int64), np.zeros(7, dtype=np.int8))
    with caplog.at_level(logging.DEBUG, logger="arotnep.simplex"):
        warm, state = solve_lp_warm(lp, stale)
        fallbacks = [r for r in caplog.records if r.name == "arotnep.simplex"]
        assert len(fallbacks) == 1
        assert "mismatched dimensions" in fallbacks[0].getMessage()
        assert warm.status == "optimal"
        assert warm.objective == solve_lp(lp).objective == pytest.approx(1.0)
        # The cold fallback hands back its basis, which warm-starts the same
        # LP to the same optimum without falling back again.
        again, _ = solve_lp_warm(lp, state)
    assert len([r for r in caplog.records if r.name == "arotnep.simplex"]) == 1
    assert again.status == "optimal"
    assert again.objective == warm.objective
    assert np.array_equal(again.x, warm.x)
