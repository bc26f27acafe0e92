"""Dispatch tests: hand-computed micro-networks, physics invariants on the
six-bus system, and finite-difference checks of the cost gradient."""

import numpy as np
import pytest

from arotnep import simplex
from arotnep.datasets import load_dataset
from arotnep.errors import ValidationError
from arotnep.opf import clip_uncertain, dispatch_piece, solve_opf, switching_rows
from arotnep.simplex import check_kkt, solve_lp_with_state


@pytest.fixture(scope="module")
def onebus():
    return load_dataset("onebus")


@pytest.fixture(scope="module")
def twobus():
    return load_dataset("twobus")


@pytest.fixture(scope="module")
def garver():
    return load_dataset("garver6")


@pytest.fixture
def dispatch_lps(monkeypatch):
    """Every (LP, solution) pair that solve_opf hands to the simplex, in
    call order."""
    seen = []

    def recording(lp):
        sol, state = solve_lp_with_state(lp)
        seen.append((lp, sol))
        return sol, state

    monkeypatch.setattr(simplex, "solve_lp_with_state", recording)
    return seen


def kkt_ok(lp, sol):
    return check_kkt(lp, sol) <= 1e-7 * (1.0 + abs(sol.objective))


def recompute_balance(net, sol, d):
    """Independent nodal balance: generation minus delivered load plus net
    inflow must vanish at every bus."""
    n_gen = len(net.generators)
    resid = np.zeros(len(net.buses))
    for i, g in enumerate(net.generators):
        resid[net.bus_index[g.bus]] += sol.generation[i]
    for j, dm in enumerate(net.demands):
        resid[net.bus_index[dm.bus]] -= sol.served[j]
    lines = {ln.id: ln for ln in net.lines}
    for lid, f in zip(sol.flow_line_ids, sol.flow):
        ln = lines[lid]
        resid[net.bus_index[ln.to_bus]] += f
        resid[net.bus_index[ln.from_bus]] -= f
    return resid


def test_onebus_nominal(onebus, dispatch_lps):
    sol = solve_opf(onebus)
    # 8760 h of 50 MW at the generator price.
    assert sol.objective == pytest.approx(8760.0 * 2.0e-5 * 50.0, rel=1e-9)
    np.testing.assert_allclose(sol.generation, [50.0], atol=1e-7)
    np.testing.assert_allclose(sol.shed, [0.0], atol=1e-9)
    np.testing.assert_allclose(sol.served, [50.0], atol=1e-7)
    assert kkt_ok(*dispatch_lps[0])


def test_onebus_capacity_shortfall_forces_shedding(onebus):
    sol = solve_opf(onebus, d=np.array([30.0, 50.0]))
    want = 8760.0 * (2.0e-5 * 30.0 + 5.0e-4 * 20.0)
    assert sol.objective == pytest.approx(want, rel=1e-9)
    np.testing.assert_allclose(sol.generation, [30.0], atol=1e-7)
    np.testing.assert_allclose(sol.shed, [20.0], atol=1e-7)


def test_onebus_gradient_closed_form(onebus):
    # Slack capacity: one more MW of load costs one hour-weighted price,
    # one more MW of capacity saves nothing.
    sol = solve_opf(onebus)
    np.testing.assert_allclose(sol.eta, [0.0, 8760.0 * 2.0e-5], atol=1e-9)
    # Binding capacity: load increments are shed, capacity increments swap
    # shed energy for cheaper generation.
    tight = solve_opf(onebus, d=np.array([30.0, 50.0]))
    np.testing.assert_allclose(
        tight.eta,
        [-8760.0 * (5.0e-4 - 2.0e-5), 8760.0 * 5.0e-4],
        atol=1e-9)


def test_clip_uncertain_counts(onebus):
    d, n = clip_uncertain(np.array([-5.0, 20.0]))
    assert n == 1
    np.testing.assert_allclose(d, [0.0, 20.0])
    sol = solve_opf(onebus, d=np.array([-5.0, 20.0]))
    assert sol.clipped == 1
    assert sol.objective == pytest.approx(8760.0 * 5.0e-4 * 20.0, rel=1e-9)
    np.testing.assert_allclose(sol.served, [0.0], atol=1e-9)


def test_twobus_congested_without_build(twobus, dispatch_lps):
    sol = solve_opf(twobus)
    want = 8760.0 * (1.0e-5 * 40.0 + 2.0e-4 * 20.0)
    assert sol.objective == pytest.approx(want, rel=1e-9)
    np.testing.assert_allclose(sol.flow, [40.0], atol=1e-7)
    np.testing.assert_allclose(sol.shed, [20.0], atol=1e-7)
    assert kkt_ok(*dispatch_lps[0])


def test_twobus_candidate_relieves_congestion(twobus):
    sol = solve_opf(twobus, built={"C1-2a"})
    assert sol.objective == pytest.approx(8760.0 * 1.0e-5 * 60.0, rel=1e-9)
    np.testing.assert_allclose(sol.shed, [0.0], atol=1e-7)
    # Equal susceptances split the 60 MW evenly; angles follow the coupling.
    np.testing.assert_allclose(sol.flow, [30.0, 30.0], atol=1e-7)
    i2 = twobus.bus_index["2"]
    assert sol.angle[i2] == pytest.approx(-30.0 / (100.0 * 5.0), abs=1e-9)


def test_unknown_built_id_rejected(twobus):
    with pytest.raises(ValidationError, match="unknown candidate"):
        solve_opf(twobus, built={"nope"})


def test_wrong_uncertain_size_rejected(twobus):
    with pytest.raises(ValidationError, match="uncertain vector"):
        solve_opf(twobus, d=np.ones(5))


def test_garver_nominal_isolated_bus(garver, dispatch_lps):
    sol = solve_opf(garver)
    # Bus 6 has no lines yet, so its 600 MW can't serve anything and at
    # least the 250 MW system shortfall must be shed.
    assert sol.generation[2] == pytest.approx(0.0, abs=1e-7)
    assert float(sol.shed.sum()) >= 250.0 - 1e-6
    np.testing.assert_allclose(recompute_balance(garver, sol, None),
                               np.zeros(6), atol=1e-6)
    assert kkt_ok(*dispatch_lps[0])


def test_garver_build_reduces_cost(garver):
    base = solve_opf(garver)
    built = {"C2-6a", "C2-6b", "C4-6a", "C4-6b"}
    sol = solve_opf(garver, built=built)
    assert sol.objective < base.objective - 1.0
    assert float(sol.generation[2]) > 100.0  # the cheap unit finally runs
    np.testing.assert_allclose(recompute_balance(garver, sol, None),
                               np.zeros(6), atol=1e-6)


def test_flow_angle_coupling(garver):
    built = {"C2-6a", "C4-6a", "C3-5a"}
    sol = solve_opf(garver, built=built)
    lines = {ln.id: ln for ln in garver.lines}
    for lid, f in zip(sol.flow_line_ids, sol.flow):
        ln = lines[lid]
        gamma = garver.base_mva * ln.susceptance
        dtheta = (sol.angle[garver.bus_index[ln.from_bus]]
                  - sol.angle[garver.bus_index[ln.to_bus]])
        assert f == pytest.approx(gamma * dtheta, abs=1e-6)
        assert abs(f) <= ln.capacity_mw + 1e-6


PAPER_PLAN = {"C2-6a", "C2-6b", "C2-6c", "C3-5a", "C3-5b", "C4-6a", "C4-6b"}


def test_switching_rows_couple_built_lines_and_empty_unbuilt_ones(garver):
    lines = list(garver.lines)
    coupled = [ln.status == "existing" for ln in lines]
    a, a_x, b = switching_rows(garver, lines, coupled)
    switched = [k for k, flag in enumerate(coupled) if not flag]
    assert [lines[k].id for k in switched] == [ln.id for ln in garver.candidate_lines]
    assert a_x.shape == (4 * len(switched), len(switched)) and b.shape == (a_x.shape[0],)
    off_f = len(garver.generators) + len(garver.demands)
    off_t = off_f + len(lines)
    assert a.shape[1] == off_t + len(garver.buses)
    assert not a[:, [off_f + k for k, flag in enumerate(coupled) if flag]].any()
    tol = 1e-9 * float(b.max())

    # x = 1 for the paper's plan: its dispatch satisfies every row, an
    # unbuilt candidate (x = 0) carrying no flow.
    sol = solve_opf(garver, built=PAPER_PLAN)
    flows = dict(zip(sol.flow_line_ids, sol.flow))
    y = np.concatenate([sol.generation, sol.shed,
                        [flows.get(ln.id, 0.0) for ln in lines], sol.angle])
    x = np.array([float(lines[k].id in PAPER_PLAN) for k in switched])
    assert np.all(a @ y + a_x @ x <= b + tol)

    # x = 0: the rows hold at every corner of a line's two angles in
    # [-pi, pi], so for every pair, and only while the line carries no flow.
    rng = np.random.default_rng(3)
    zero = np.zeros(len(switched))
    for k in switched:
        ln = lines[k]
        ends = [off_t + garver.bus_index[ln.from_bus], off_t + garver.bus_index[ln.to_bus]]
        for corner in ([-np.pi, -np.pi], [-np.pi, np.pi], [np.pi, -np.pi], [np.pi, np.pi]):
            y = np.zeros(a.shape[1])
            y[off_t:] = rng.uniform(-np.pi, np.pi, len(garver.buses))
            y[ends] = corner
            assert np.all(a @ y + a_x @ zero <= b + tol)
            for f in (1e-3, -1e-3):
                y[off_f + k] = f
                assert np.any(a @ y + a_x @ zero > b + tol)
            y[off_f + k] = 0.0


def gradient_point(garver, case):
    """Realization and plan of one gradient check: a seeded interior point,
    or a bound-fixed or degenerate point under the paper's plan."""
    nominal = garver.nominal_uncertain()
    if isinstance(case, int):
        rng = np.random.default_rng(7000 + case)
        # Generic interior point: capacities a bit below nominal, loads a bit up.
        d = nominal * np.concatenate([rng.uniform(0.85, 0.97, 3),
                                      rng.uniform(1.02, 1.12, 5)])
        return d, ({"C2-6a", "C4-6a"} if case % 2 else frozenset())
    d = nominal.copy()
    if case == "zero_capacity":
        d[1] = 0.0
    elif case == "zero_load":
        d[4] = 0.0
    else:  # capacity_equals_demand: 760 MW of each, nothing shed
        d[:3] = [150.0, 310.0, 300.0]
    return d, PAPER_PLAN


@pytest.mark.parametrize("case", [0, 1, 2, 3, "zero_capacity", "zero_load",
                                  "capacity_equals_demand"])
def test_gradient_matches_finite_differences(garver, case, dispatch_lps):
    d, built = gradient_point(garver, case)
    sol = solve_opf(garver, d=d, built=built)
    h = 1e-3

    def cost(i, step):
        moved = d.copy()
        moved[i] += step
        return solve_opf(garver, d=moved, built=built).objective

    for i in range(d.size):
        right = (cost(i, h) - sol.objective) / h
        left = (sol.objective - cost(i, -h)) / h
        if case == "capacity_equals_demand":
            # Every coordinate sits on a corner of the convex cost, where
            # the gradient must be a subgradient.
            tol = 5e-5 * (1.0 + abs(left) + abs(right))
            assert left + tol < right
            assert left - tol <= sol.eta[i] <= right + tol
        elif d[i] == 0.0:
            # Clipping flattens the cost below zero: only the right side counts.
            assert sol.eta[i] == pytest.approx(right, abs=5e-5 * (1.0 + abs(right)))
        else:
            fd = 0.5 * (left + right)
            assert sol.eta[i] == pytest.approx(fd, abs=5e-5 * (1.0 + abs(fd)))
    assert kkt_ok(*dispatch_lps[0])


@pytest.mark.parametrize("name, built", [("onebus", frozenset()),
                                         ("twobus", frozenset()),
                                         ("garver6", PAPER_PLAN)])
def test_piece_from_a_clipped_capacity_prices_like_solve_opf(name, built):
    # Clipped to zero, the first generator's bounds coincide and the solver
    # may leave it at either one; the piece must move it to the bound its
    # reduced cost picks, or it prices every draw as if that unit were off.
    net = load_dataset(name)
    nominal = net.nominal_uncertain()
    d = nominal.copy()
    d[0] = -1.0
    piece = dispatch_piece(net, built, solve_opf(net, d=d, built=built).basis)
    draws = nominal * np.random.default_rng(31).uniform(0.0, 1.5, (50, nominal.size))
    costs, certified = piece.price(draws)
    assert certified.any()
    want = np.array([solve_opf(net, d=x, built=built).objective
                     for x in draws[certified]])
    np.testing.assert_allclose(costs[certified], want, rtol=1e-9, atol=0.0)


@pytest.fixture
def cold_fallbacks(monkeypatch):
    """Cold solves started inside ``simplex.solve_lp_warm``, which falls
    back to one on any numerical trouble."""
    inside_warm, fallbacks = [False], []
    warm_solve = simplex.solve_lp_warm

    def warm(lp, state):
        inside_warm[0] = True
        try:
            return warm_solve(lp, state)
        finally:
            inside_warm[0] = False

    def cold(lp):
        fallbacks.append(inside_warm[0])
        return solve_lp_with_state(lp)

    monkeypatch.setattr(simplex, "solve_lp_warm", warm)
    monkeypatch.setattr(simplex, "solve_lp_with_state", cold)
    return fallbacks


@pytest.mark.parametrize("name, built", [("onebus", frozenset()),
                                         ("twobus", frozenset({"C1-2a"})),
                                         ("garver6", PAPER_PLAN)])
def test_warm_dispatch_matches_cold(name, built, cold_fallbacks):
    # A point moves only bounds and the balance right-hand side, so the
    # optimal basis at the nominal point starts every other point's solve.
    net = load_dataset(name)
    nominal = net.nominal_uncertain()
    basis = solve_opf(net, d=nominal, built=built).basis
    points = nominal * np.random.default_rng(13).uniform(0.0, 1.5, (12, nominal.size))
    points[0, 0] = -1.0  # clipped to zero: the generator's bounds coincide
    for d in points:
        cold = solve_opf(net, d=d, built=built)
        cold_fallbacks.clear()
        warm = solve_opf(net, d=d, built=built, warm=basis)
        assert cold_fallbacks == []
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=0.0)
        scale = 1.0 + float(np.max(np.abs(cold.eta)))
        np.testing.assert_allclose(warm.eta, cold.eta, rtol=1e-12, atol=1e-12 * scale)


def test_warm_dispatch_from_another_plan_solves_cold(garver, cold_fallbacks):
    # The no-build plan's dispatch LP has fewer columns; its basis does not
    # fit, and the solve is the cold one.
    d = garver.nominal_uncertain()
    basis = solve_opf(garver, d=d).basis
    cold = solve_opf(garver, d=d, built=PAPER_PLAN)
    cold_fallbacks.clear()
    warm = solve_opf(garver, d=d, built=PAPER_PLAN, warm=basis)
    assert cold_fallbacks == [True]
    assert warm.objective == cold.objective
    np.testing.assert_array_equal(warm.eta, cold.eta)
    np.testing.assert_array_equal(warm.basis.basis, cold.basis.basis)
