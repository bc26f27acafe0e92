"""LP solver tests: pinned micro-cases, vertex-enumeration oracle comparisons,
finite-difference dual checks, warm starts, and KKT residual properties."""

import copy
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arotnep.errors import NumericalError, ValidationError
from arotnep.simplex import (
    _AT_LOWER,
    _AT_UPPER,
    _DENSE_MAX_ROWS,
    _REFACTOR_PERIOD,
    BasisState,
    Layout,
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
    assert np.max(np.abs(sx._a_times(sx.x) - sx.b)) <= 1e-9
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
    sx.unit_sign[sx.art - sx.n] = rng.choice([-1.0, 1.0], size=sx.m)
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
    cols = np.array([sx._column(j) for j in sx.basis]).reshape(sx.m, sx.m).T
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
            w = sx._ftran(sx._column(q))
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
    # A full eta file: one refactor period of etas.
    rng = np.random.default_rng(5150 + seed)
    sx = mixed_basis_simplex(rng, 320, 60, 130, 100)
    assert not sx.dense
    sx._refactor()
    for _ in range(_REFACTOR_PERIOD):
        q = rng.choice(np.setdiff1d(np.arange(sx.n), sx.basis))
        w = sx._ftran(sx._column(q))
        k = int(np.argmax(np.abs(w)))
        sx._update_inverse(w, k)
        sx.basis[k] = q
    assert sx.n_etas == _REFACTOR_PERIOD
    for a in rng.normal(size=(3, sx.m)):
        for transpose, closed in ((False, sx._ftran(a)), (True, sx._btran(a))):
            ref = sequential_etas(sx, a, transpose)
            assert np.max(np.abs(closed - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))
    assert inverse_residual(sx) <= 1e-9


def test_kernel_form_pivot_rejects_non_finite_values():
    rng = np.random.default_rng(5160)
    sx = mixed_basis_simplex(rng, 120, 60, 130, 100)
    sx._refactor()
    sx._derive_masks()
    q = int(np.setdiff1d(np.arange(sx.n), sx.basis)[0])
    w = sx._ftran(sx._column(q))
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


def pinned_kernel_simplex(seed, n_pinned=15):
    """A kernel-form LP optimized cold, refactored, then given pinned bounds
    on ``n_pinned`` columns: the start of a warm dual solve.  The pins take
    the midpoint of the optimum and the optimum of ``-c``, so the pinned LP
    stays feasible."""
    rng = np.random.default_rng(seed)
    lp = random_box_lp(rng, 40, 200, m_eq=5)
    sx = _Simplex(lp)
    assert not sx.dense and sx.m > _DENSE_MAX_ROWS and sx.phase1()
    sx.optimize(sx.c)
    sx._refactor()
    far = solve_lp(LinearProgram(-lp.objective, a_eq=lp.a_eq, b_eq=lp.b_eq, a_ub=lp.a_ub,
                                 b_ub=lp.b_ub, lower=lp.lower, upper=lp.upper))
    pinned = rng.choice(40, size=n_pinned, replace=False)
    sx.lower[pinned] = sx.upper[pinned] = sx.x[pinned] = 0.5 * (sx.x[pinned] + far.x[pinned])
    sx._recompute_basic_values()
    lp2 = LinearProgram(lp.objective, a_eq=lp.a_eq, b_eq=lp.b_eq, a_ub=lp.a_ub,
                        b_ub=lp.b_ub, lower=sx.lower[:40], upper=sx.upper[:40])
    return sx, lp2


@pytest.mark.parametrize("seed", range(4))
def test_dual_updates_reduced_costs_from_the_pivot_row(seed):
    # Every iteration of the dual simplex reads the pivot row, so checking
    # self.r there sees it after each pivot's update or each refactor.
    # Every third eta forces a drift refactor.
    sx, lp2 = pinned_kernel_simplex(5700 + seed)
    assert not np.array_equal(sx.x[sx.basis], np.clip(sx.x[sx.basis], sx.lower[sx.basis],
                                                       sx.upper[sx.basis]))
    tol = 1e-9 * (1.0 + np.max(np.abs(sx.c)))
    clean_row, clean_refactor, clean_drifted = sx._row, sx._refactor, sx._drifted
    # The dual prices once at its start, as after a refactorization.
    seen = {"updated": 0, "reset": 0, "refactored": True}

    def check():
        fresh = sx._reduced_costs(sx.c)
        if seen["refactored"]:
            # Priced afresh, not carried over.
            assert np.array_equal(sx.r, fresh)
            seen["reset"] += 1
        else:
            assert np.max(np.abs(sx.r - fresh)) <= tol
            assert np.all(sx.r[sx.basis] == 0.0)
            seen["updated"] += 1
        seen["refactored"] = False

    def row(k):
        check()
        return clean_row(k)

    def refactor():
        clean_refactor()
        seen["refactored"] = True

    sx._row, sx._refactor = row, refactor
    sx._drifted = lambda w, k, alpha_k=None: sx.n_etas >= 3 or clean_drifted(w, k, alpha_k)
    assert sx.dual_optimize(sx.c) == "optimal"
    check()
    assert seen["updated"] >= 5 and seen["reset"] >= 2
    sx._row, sx._refactor, sx._drifted = clean_row, clean_refactor, clean_drifted
    sol, _ = _finish(sx, "optimal")
    assert sol.objective == pytest.approx(solve_lp(lp2).objective, rel=1e-9)


def kept_masks_match(sx):
    """Whether the entering masks the simplex keeps equal masks derived
    afresh from its statuses and bounds."""
    movable = sx.upper - sx.lower > 0.0
    return (np.array_equal(sx.movable, movable)
            and np.array_equal(sx.from_low, (sx.stat == _AT_LOWER) & movable)
            and np.array_equal(sx.from_up, (sx.stat == _AT_UPPER) & movable))


@pytest.mark.parametrize("seed", range(4))
def test_dual_keeps_its_entering_masks_across_pivots(seed):
    # The masks of columns that may enter from a bound are built once and
    # updated at each pivot; at every iteration (read at the pivot row) they
    # must equal masks built afresh from the statuses and bounds.  Every
    # third eta forces a drift refactor, which must leave them as they are.
    sx, lp2 = pinned_kernel_simplex(5700 + seed)
    clean_row, clean_refactor, clean_drifted = sx._row, sx._refactor, sx._drifted
    seen = {"checks": 0, "refactors": 0}

    def check():
        assert kept_masks_match(sx)
        seen["checks"] += 1

    def row(k):
        check()
        return clean_row(k)

    def refactor():
        clean_refactor()
        seen["refactors"] += 1

    sx._row, sx._refactor = row, refactor
    sx._drifted = lambda w, k, alpha_k=None: sx.n_etas >= 3 or clean_drifted(w, k, alpha_k)
    assert sx.dual_optimize(sx.c) == "optimal"
    check()
    assert seen["checks"] >= 5 and seen["refactors"] >= 2
    sx._row, sx._refactor, sx._drifted = clean_row, clean_refactor, clean_drifted
    sol, _ = _finish(sx, "optimal")
    assert sol.objective == pytest.approx(solve_lp(lp2).objective, rel=1e-9)


def test_clean_warm_solve_prices_its_final_basis_once(monkeypatch, caplog):
    # The dual ends optimal and the polish's primal pass finds no entering
    # column.  Without a refactor, the polish keeps the basis and eta file
    # that pass priced, so the solve prices twice: at the dual's start and
    # in that pass.
    rng = np.random.default_rng(6002)
    n = 60
    lp = random_box_lp(rng, n, 200, m_eq=10)
    _, state = solve_lp_with_state(lp)
    pinned = rng.choice(n, size=2, replace=False)
    lower2, upper2 = lp.lower.copy(), lp.upper.copy()
    lower2[pinned] = upper2[pinned] = rng.uniform(lp.lower[pinned], lp.upper[pinned])
    lp2 = LinearProgram(lp.objective, a_eq=lp.a_eq, b_eq=lp.b_eq, a_ub=lp.a_ub,
                        b_ub=lp.b_ub, lower=lower2, upper=upper2)
    assert not _Simplex(lp2).dense
    cold = solve_lp(lp2)
    calls = {"_reduced_costs": 0, "_primal_step": 0, "_refactor": 0}
    for name in calls:
        def counted(self, *args, _name=name, _clean=getattr(_Simplex, name)):
            calls[_name] += 1
            return _clean(self, *args)
        monkeypatch.setattr(_Simplex, name, counted)
    with caplog.at_level(logging.DEBUG, logger="arotnep.simplex"):
        warm, _ = solve_lp_warm(lp2, state)
    assert not caplog.records
    assert warm.status == "optimal" and warm.iterations > 0
    assert calls == {"_reduced_costs": 2, "_primal_step": 0, "_refactor": 0}
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def grown_pair():
    """An LP of 2 columns, 1 equality and 2 <= rows, and the LP grown by a
    block of 1 column, 1 equality row and 1 <= row between the old ones."""
    rng = np.random.default_rng(12)
    old = LinearProgram(np.ones(2), a_eq=rng.normal(size=(1, 2)), b_eq=[1.0],
                        a_ub=rng.normal(size=(2, 2)), b_ub=[1.0, 1.0])
    a_eq = np.zeros((2, 3))
    a_eq[0, :2] = old.a_eq[0]
    a_eq[1] = rng.normal(size=3)
    a_ub = np.zeros((3, 3))
    a_ub[[0, 2], :2] = old.a_ub
    a_ub[1] = rng.normal(size=3)
    grown = LinearProgram(np.ones(3), a_eq=a_eq, b_eq=[1.0, 1.0], a_ub=a_ub,
                          b_ub=np.ones(3))
    return Layout(old), Layout(grown)


def layout_matrix(layout):
    """The constraint matrix over all of ``layout``'s columns, as a cold
    solve's working state reads it before phase 1."""
    sx = _Simplex(layout.program(layout.source.lower, layout.source.upper))
    return np.column_stack([sx._column(j) for j in range(sx.n_total)])


def test_basis_state_extends_to_added_rows_and_columns():
    old, grown = grown_pair()
    # Tag each old column through its status to find where it lands.
    state = BasisState(np.array([4, 0, 2]), np.arange(old.n_total, dtype=np.int8) + 10)
    ext = state.extended((3, 2, 3), (1, 1, 1), ub_at=1)
    assert ext.status.size == grown.n_total
    col_map = np.array([np.flatnonzero(ext.status == 10 + j)[0]
                        for j in range(old.n_total)])
    row_map = [0, 2, 4]  # [eq0 | ub0, ub1] among [eq0, eq1 | ub0, new, ub1]
    old_a, grown_a = (layout_matrix(lay) for lay in (old, grown))
    assert np.array_equal(grown_a[np.ix_(row_map, col_map)], old_a)
    assert ext.basis[:3].tolist() == col_map[[4, 0, 2]].tolist()
    # The new equality row's artificial and the new <= row's slack are basic;
    # the new column and the other new artificial sit at their lower bounds.
    assert ext.basis[3:].tolist() == [grown.art[1], grown.n + 1]
    assert grown.unit_row[ext.basis[3:]].tolist() == [1, 3]
    assert ext.status[ext.basis[3:]].tolist() == [0, 0]
    assert ext.status[[2, grown.art[3]]].tolist() == [_AT_LOWER, _AT_LOWER]


@pytest.mark.parametrize("added", [(1, 1, 2), (0, 1, 1), (1, 0, 1)])
def test_basis_state_of_another_shape_is_not_extended(added):
    # The state of grown_pair's old LP: 2 + 2 + 3 columns, 3 rows.
    state = BasisState(np.array([4, 0, 2]), np.full(7, _AT_LOWER, dtype=np.int8))
    with pytest.raises(ValidationError, match="does not fit"):
        state.extended((3, 2, 3), added, ub_at=1)


@pytest.mark.parametrize("drift", [0.0, 1e-6], ids=["clean", "drifted"])
def test_polish_refactors_only_on_a_row_residual(drift):
    # After a dual solve the eta file is not empty.  Clean, the polish must
    # keep it; with every FTRAN through it off by (1 + drift), the basic
    # values miss the rows and the polish must refactor.
    pytest.importorskip("scipy")
    sx, lp2 = pinned_kernel_simplex(5710)
    status = sx.dual_optimize(sx.c)
    assert status == "optimal" and sx.n_etas > 0
    clean_ftran, clean_refactor, refactors = sx._ftran, sx._refactor, []
    sx._ftran = lambda a: clean_ftran(a) * (1.0 + drift * bool(sx.n_etas))
    sx._refactor = lambda: (refactors.append(sx.n_etas), clean_refactor())
    sol, _ = _finish(sx, status)
    assert (len(refactors) > 0) == (drift > 0.0)
    ref = highs_lp(lp2)
    assert ref.status == 0 and sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun, rel=1e-7)
    assert check_kkt(lp2, sol) <= 1e-7


def test_primal_refactors_before_a_drifted_pivot():
    rng = np.random.default_rng(5180)
    lp = random_box_lp(rng, 40, 200, m_eq=5)
    sx = _Simplex(lp)
    assert sx.phase1()
    q = int(np.setdiff1d(np.arange(sx.n), sx.basis)[0])
    w = sx._ftran(sx._column(q))
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


def test_unit_columns_read_the_current_signs():
    rng = np.random.default_rng(5600)
    for rows in (DENSE_ROWS, KERNEL_ROWS):
        sx = mixed_basis_simplex(rng, *rows, 3)
        # mixed_basis_simplex flips artificial signs after construction, as
        # phase 1 does; columns and products must read them.
        signs = sx.unit_sign
        assert np.any(signs[sx.art - sx.n] < 0.0)
        units = np.column_stack([sx._column(j) for j in range(sx.n, sx.n_total)])
        np.testing.assert_array_equal(units, np.eye(sx.m)[sx._unit_row[sx.n:]].T * signs)
        a = np.column_stack([sx._column(j) for j in range(sx.n_total)])
        v, x = rng.normal(size=sx.m), rng.normal(size=sx.n_total)
        np.testing.assert_allclose(sx._times_a(v), v @ a, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sx._a_times(x), a @ x, rtol=1e-12, atol=1e-12)
        # Another solve on the same layout starts from +1 signs.
        fresh = _Simplex(sx.layout.program(sx.lower[:sx.n], sx.upper[:sx.n]))
        assert np.all(fresh.unit_sign == 1.0)


def test_kernel_refactor_rejects_singular_kernel():
    rng = np.random.default_rng(5200)
    for rows in (DENSE_ROWS, KERNEL_ROWS):
        sx = mixed_basis_simplex(rng, *rows, 3)
        # A structural column that vanishes off the unit columns' rows lies in
        # their span, so the basis is singular although the column is not zero.
        uncovered = np.ones(sx.m, dtype=bool)
        uncovered[sx._unit_row[sx.basis[sx.basis >= sx.n]]] = False
        j = sx.basis[np.argmax(sx.basis < sx.n)]
        if sx.dense:
            sx.A[uncovered, j] = 0.0
        else:
            nz_rows, nz_cols, nz_vals = sx.layout.nz
            nz_vals[(nz_cols == j) & uncovered[nz_rows]] = 0.0
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
        sx.unit_sign[sx.art[0] - sx.n] = 0.0
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


def sparse_box_lp(rng, n, m_eq, m_ub, density):
    """Feasible, bounded LP whose rows keep about a share ``density`` of
    their entries: the middle of the box satisfies every row.  Sparse rows
    leave the ratio test room, so the primal flips bounds."""
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 3.0, n)
    a = rng.normal(size=(m_eq + m_ub, n)) * (rng.random((m_eq + m_ub, n)) < density)
    b = a @ (0.5 * (lower + upper))
    return LinearProgram(rng.normal(size=n), a_eq=a[:m_eq], b_eq=b[:m_eq], a_ub=a[m_eq:],
                         b_ub=b[m_eq:] + 0.5, lower=lower, upper=upper)


@pytest.mark.parametrize("shape, density", [(DENSE_ROWS, 0.5), (KERNEL_ROWS, 0.02)],
                         ids=["dense", "kernel"])
@pytest.mark.parametrize("seed", range(2))
def test_pivots_and_flips_keep_the_entering_masks(shape, density, seed, monkeypatch, caplog):
    # Phase 1, phase 2, a warm dual and its polish all read the masks that
    # each pivot and each primal bound flip update; after every one of them
    # the masks must equal a fresh derivation.
    rng = np.random.default_rng(5800 + seed)
    n = shape[0]
    lp = sparse_box_lp(rng, *shape, density)
    seen = {"pivot": 0, "flip": 0}
    clean_pivot, clean_step = _Simplex._pivot, _Simplex._primal_step

    def pivot(self, *args):
        clean_pivot(self, *args)
        assert kept_masks_match(self)
        seen["pivot"] += 1

    def step(self, *args):
        outcome, size = clean_step(self, *args)
        assert kept_masks_match(self)
        seen["flip"] += outcome == "flip"
        return outcome, size

    monkeypatch.setattr(_Simplex, "_pivot", pivot)
    monkeypatch.setattr(_Simplex, "_primal_step", step)
    sol, state = solve_lp_with_state(lp)
    assert sol.status == "optimal" and seen["pivot"] > 0 and seen["flip"] > 0
    # Pin columns halfway to the optimum of -c, which keeps the LP feasible
    # and moves the warm start off its optimal basis.
    far = solve_lp(LinearProgram(-lp.objective, a_eq=lp.a_eq, b_eq=lp.b_eq, a_ub=lp.a_ub,
                                 b_ub=lp.b_ub, lower=lp.lower, upper=lp.upper))
    pinned = rng.choice(n, size=max(2, n // 10), replace=False)
    lower2, upper2 = lp.lower.copy(), lp.upper.copy()
    lower2[pinned] = upper2[pinned] = 0.5 * (sol.x[pinned] + far.x[pinned])
    lp2 = LinearProgram(lp.objective, a_eq=lp.a_eq, b_eq=lp.b_eq, a_ub=lp.a_ub,
                        b_ub=lp.b_ub, lower=lower2, upper=upper2)
    seen["pivot"] = 0
    with caplog.at_level(logging.DEBUG, logger="arotnep.simplex"):
        warm, _ = solve_lp_warm(lp2, state)
    assert not caplog.records  # the dual simplex, not a cold fallback
    assert warm.status == "optimal" and seen["pivot"] > 0
    assert warm.objective == pytest.approx(solve_lp(lp2).objective, rel=1e-9)


def test_kernel_form_keeps_no_dense_matrix():
    # The constraint matrix over [structural | slacks | artificials] of this
    # kernel-form LP would take 11.2 MB; its layout and a cold solve must
    # stay far below that.
    lp = sparse_box_lp(np.random.default_rng(6100), 150, 0, 800, 0.02)
    dense_bytes = lp.b_ub.size * (lp.n_vars + 2 * lp.b_ub.size) * 8
    assert dense_bytes >= 8 * 2**20
    tracemalloc.start()
    try:
        layout = Layout(lp)
        sol = solve_lp(layout.program(lp.lower, lp.upper))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not layout.dense and sol.status == "optimal"
    assert peak < dense_bytes / 4
    assert check_kkt(lp, sol) <= 1e-7


def redundant_pair_lp(rng):
    # Equality rows [R; -R] with b = 0: phase 1 starts optimal with every
    # artificial basic at zero, and the pivot-out swaps one in for each row
    # of R, more pivots than one refactor period of etas.
    n, half = 150, 120
    block = rng.normal(size=(half, n))
    return LinearProgram(rng.normal(size=n), a_eq=np.vstack([block, -block]),
                         b_eq=np.zeros(2 * half), upper=np.ones(n)), half


def negative_rows_lp(rng):
    # All-negative equality rows with b = 0: every structural's phase-1
    # reduced cost is positive, so phase 1 starts optimal and the pivot-out
    # swaps one in for every row, exactly two periods of etas; its last
    # pivot fills the file, and phase 2 pivots after it.
    m, n = 200, 250
    return LinearProgram(rng.normal(size=n), a_eq=-rng.uniform(0.1, 1.0, size=(m, n)),
                         b_eq=np.zeros(m)), m


@pytest.mark.parametrize("build", [redundant_pair_lp, negative_rows_lp])
def test_pivot_out_keeps_the_eta_file_within_one_period(build, monkeypatch):
    pytest.importorskip("scipy")
    lp, n_out = build(np.random.default_rng(5900))
    assert not _Simplex(lp).dense and n_out > _REFACTOR_PERIOD
    clean_add, clean_out = _Simplex._add_eta, _Simplex._pivot_out_artificials
    pivoting_out, etas = [False], []

    def add_eta(self, k, w):
        clean_add(self, k, w)
        etas.append((pivoting_out[0], self.n_etas))

    def pivot_out(self):
        pivoting_out[0] = True
        clean_out(self)
        pivoting_out[0] = False

    monkeypatch.setattr(_Simplex, "_add_eta", add_eta)
    monkeypatch.setattr(_Simplex, "_pivot_out_artificials", pivot_out)
    sol = solve_lp(lp)
    assert sum(out for out, _ in etas) == n_out and not etas[-1][0]  # phase 2 pivots
    assert max(size for _, size in etas) == _REFACTOR_PERIOD
    ref = highs_lp(lp)
    assert ref.status == 0 and sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)
    assert check_kkt(lp, sol) <= 1e-7
