"""Branch-and-bound tests against exhaustive binary enumeration."""

import logging
import weakref

import numpy as np
import pytest

from arotnep import milp
from arotnep.errors import IterationLimit, NumericalError, ValidationError
from arotnep.milp import solve_milp
from arotnep.simplex import (Layout, LinearProgram, solve_lp, solve_lp_warm,
                             solve_lp_with_state)
from oracles import layout_bytes, milp_enumerate_optimum, random_box_lp


def test_small_knapsack_by_hand():
    # max 3a + 4b + 5c with 2a + 3b + 4c <= 6, posed as the minimization
    # of the negated values: best picks a and c for -8.
    lp = LinearProgram([-3.0, -4.0, -5.0], a_ub=[[2.0, 3.0, 4.0]], b_ub=[6.0],
                       lower=[0.0] * 3, upper=[1.0] * 3)
    sol = solve_milp(lp, [0, 1, 2])
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-8.0, abs=1e-9)
    assert np.allclose(sol.x, [1.0, 0.0, 1.0], atol=1e-9)


def test_infeasible_binary_system():
    # x0 + x1 >= 3 can never hold for two binaries.
    lp = LinearProgram([1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-3.0],
                       lower=[0.0, 0.0], upper=[1.0, 1.0])
    sol = solve_milp(lp, [0, 1])
    assert sol.status == "infeasible"



def test_redundant_row_warm_starts_without_fallback(caplog):
    # The second equality row is twice the first, so an artificial stays
    # basic in every node's basis; warm starts must still reuse it.
    lp = LinearProgram([-5.0, -4.0, -3.0, 0.0],
                       a_eq=[[2.0, 3.0, 1.0, 1.0], [4.0, 6.0, 2.0, 2.0]],
                       b_eq=[4.0, 8.0], lower=np.zeros(4), upper=[1.0, 1.0, 1.0, 0.5])
    with caplog.at_level(logging.DEBUG, logger="arotnep.simplex"):
        sol = solve_milp(lp, [0, 1, 2])
    assert not [r for r in caplog.records if "fell back" in r.getMessage()]
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-7.0, abs=1e-9)
    assert np.allclose(sol.x, [0.0, 1.0, 1.0, 0.0], atol=1e-9)

def test_node_limit_raises():
    rng = np.random.default_rng(5)
    n = 8
    c = -rng.uniform(1.0, 2.0, n)
    a = rng.uniform(0.5, 1.5, (1, n))
    lp = LinearProgram(c, a_ub=a, b_ub=[float(a.sum()) / 2.0],
                       lower=np.zeros(n), upper=np.ones(n))
    with pytest.raises(IterationLimit, match="branch and bound stopped after 2 LP nodes"):
        solve_milp(lp, np.arange(n), node_limit=2)


def test_no_binaries_reduces_to_lp():
    lp = LinearProgram([1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[1.5],
                       lower=[0.0, 0.0], upper=[1.0, 1.0])
    sol = solve_milp(lp, np.zeros(0, dtype=int))
    ref = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.objective, abs=1e-9)


def test_loose_binary_bounds_are_clamped():
    lp = LinearProgram([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.2],
                       lower=[-5.0, -5.0], upper=[5.0, 5.0])
    sol = solve_milp(lp, [0, 1])
    assert sol.status == "optimal"
    assert set(np.round(sol.x).tolist()) <= {0.0, 1.0}
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_validate_rejects_bad_binary_indices():
    lp = LinearProgram([1.0, 1.0])
    with pytest.raises(ValidationError):
        solve_milp(lp, [0, 0])
    with pytest.raises(ValidationError):
        solve_milp(lp, [5])


@pytest.mark.parametrize("seed", range(14))
def test_matches_enumeration_on_random_mixed_instances(seed):
    rng = np.random.default_rng(4000 + seed)
    k = int(rng.integers(2, 7))       # binaries
    nc = int(rng.integers(0, 4))      # continuous
    n = k + nc
    m_ub = int(rng.integers(1, 5))
    c = rng.normal(size=n) * 3.0
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = rng.normal(size=m_ub) * 2.0
    lower = np.concatenate([np.zeros(k), rng.uniform(-2.0, 0.0, nc)])
    upper = np.concatenate([np.ones(k), rng.uniform(0.5, 2.5, nc)])
    if seed % 2:  # odd seeds minimize -c, the other objective orientation
        c = -c
    lp = LinearProgram(c, a_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper)
    ref_status, ref_obj, _ = milp_enumerate_optimum(lp, np.arange(k))
    try:
        sol = solve_milp(lp, np.arange(k))
    except IterationLimit:  # pragma: no cover - instances are tiny
        pytest.fail("node limit on a tiny instance")
    assert sol.status == ref_status
    if ref_status == "optimal":
        assert sol.objective == pytest.approx(ref_obj, abs=1e-6)
        assert sol.gap <= 1e-6 + 1e-12
        binaries = sol.x[:k]
        assert np.max(np.abs(binaries - np.round(binaries))) <= 1e-9
        assert sol.best_bound <= sol.objective + 1e-6
        # The incumbent is reported as found: re-solving with its binaries
        # pinned to their rounded values gives the same objective.
        lo, up = lower.copy(), upper.copy()
        lo[:k] = up[:k] = np.round(binaries)
        pinned = solve_lp(LinearProgram(c, a_ub=a_ub, b_ub=b_ub, lower=lo, upper=up))
        assert pinned.status == "optimal"
        assert sol.objective == pytest.approx(pinned.objective, rel=1e-9)


def test_bound_and_gap_reporting():
    lp = LinearProgram([-5.0, -4.0, -3.0],
                       a_ub=[[2.0, 3.0, 1.0], [4.0, 1.0, 2.0]],
                       b_ub=[5.0, 11.0], lower=np.zeros(3), upper=np.ones(3))
    sol = solve_milp(lp, [0, 1, 2])
    ref_status, ref_obj, _ = milp_enumerate_optimum(lp, [0, 1, 2])
    assert sol.status == ref_status == "optimal"
    assert sol.objective == pytest.approx(ref_obj, abs=1e-9)
    assert sol.best_bound <= sol.objective + 1e-9
    assert sol.nodes >= 1


def assert_same_solve(got, want):
    """Two ``(LPSolution, BasisState)`` results agree bit for bit."""
    (sol, state), (ref, ref_state) = got, want
    assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
    if ref.status == "optimal":
        assert sol.objective == ref.objective
        for name in ("x", "duals_eq", "duals_ub", "reduced_costs"):
            assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
        assert np.array_equal(state.basis, ref_state.basis)
        assert np.array_equal(state.status, ref_state.status)


def pinned_children(lp, x):
    """Bounds of two children of ``lp``, whose optimum is ``x``: they pin the
    column that the optimum of ``-c`` moves most to two values between the
    two optima, so both stay feasible."""
    far = solve_lp(LinearProgram(-lp.objective, a_eq=lp.a_eq, b_eq=lp.b_eq,
                                 a_ub=lp.a_ub, b_ub=lp.b_ub, lower=lp.lower,
                                 upper=lp.upper)).x
    j = int(np.argmax(np.abs(far - x)))
    children = []
    for t in (0.25, 0.75):
        lo, up = lp.lower.copy(), lp.upper.copy()
        lo[j] = up[j] = (1.0 - t) * x[j] + t * far[j]
        children.append((lo, up))
    return children


SHARED_SHAPES = pytest.mark.parametrize("shape", [(8, 6, 1), (40, 200, 5)],
                                        ids=["dense", "kernel"])


@SHARED_SHAPES
def test_children_on_a_shared_layout_match_independent_warm_starts(shape):
    # Fork both children of one parent on a shared layout, in either order:
    # the second reuses the parent's factorization from the first, and
    # neither may see what the root's phase 1 or its sibling left behind.
    lp = random_box_lp(np.random.default_rng(4100), *shape)
    ref_root = solve_lp_with_state(lp)
    state = ref_root[1]
    children = pinned_children(lp, ref_root[0].x)
    refs = [solve_lp_warm(Layout(lp).program(lo, up), state) for lo, up in children]
    assert all(sol.status == "optimal" and sol.iterations > 0 for sol, _ in refs)
    for order in ((0, 1), (1, 0)):
        layout = Layout(lp)
        before = layout_bytes(layout)
        assert_same_solve(solve_lp_with_state(layout.program(lp.lower, lp.upper)), ref_root)
        for i in order:
            assert_same_solve(solve_lp_warm(layout.program(*children[i]), state), refs[i])
        assert layout_bytes(layout) == before


@SHARED_SHAPES
def test_cold_solve_raising_in_phase_1_leaves_the_layout_unchanged(shape):
    # Phase 1 flips the signs of the artificials of its own solve only: one
    # stopped by the pivot cap leaves the shared layout as it found it.
    lp = random_box_lp(np.random.default_rng(4100), *shape)
    # Some row starts below its right-hand side at the lower bounds, so
    # phase 1 flips its artificial.
    assert np.any(np.concatenate([lp.b_eq - lp.a_eq @ lp.lower,
                                  lp.b_ub - lp.a_ub @ lp.lower]) < 0.0)
    root, state = solve_lp_with_state(lp)
    lo, up = pinned_children(lp, root.x)[0]
    ref = solve_lp_warm(Layout(lp).program(lo, up), state)
    layout = Layout(lp)
    before = layout_bytes(layout)
    max_iter, layout.max_iter = layout.max_iter, 1
    with pytest.raises(NumericalError, match="iteration cap"):
        solve_lp_with_state(layout.program(lp.lower, lp.upper))
    assert layout_bytes(layout) == before
    layout.max_iter = max_iter
    assert_same_solve(solve_lp_warm(layout.program(lo, up), state), ref)


def test_layout_dies_with_its_milp(monkeypatch):
    layouts = []

    class Recorded(Layout):
        def __init__(self, lp):
            super().__init__(lp)
            layouts.append(weakref.ref(self))

    monkeypatch.setattr(milp, "Layout", Recorded)
    rng = np.random.default_rng(5)
    n = 8
    a = rng.uniform(0.5, 1.5, (1, n))
    lp = LinearProgram(-rng.uniform(1.0, 2.0, n), a_ub=a, b_ub=[float(a.sum()) / 2.0],
                       lower=np.zeros(n), upper=np.ones(n))
    sol = solve_milp(lp, np.arange(n))
    assert sol.status == "optimal" and sol.nodes > 3
    assert len(layouts) == 1 and layouts[0]() is None
