"""Tests for the master/worst-case decomposition.

Oracles: a closed-form dispatch formula for the single-bus network (worst
case checked against a dense boundary-arc grid), exhaustive enumeration of
budget-feasible candidate subsets for the master, and hand-derived
convergence points for the two-bus network.
"""

import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from arotnep import decomp as dc
from arotnep import milp as milp_module
from arotnep import simplex as simplex_module
from arotnep.config import build_uncertainty, load_configured_network, load_study_config
from arotnep.datasets import study_path
from arotnep.decomp import (
    InnerResult,
    MasterResult,
    inner_solve,
    investment_cost,
    outer_solve,
    solve_master,
    worst_case_cost,
)
from arotnep.ellipsoid import EllipsoidalSet
from arotnep.errors import IterationLimit, NumericalError, ValidationError
from arotnep.milp import solve_milp
from arotnep.network import (
    LINE_CANDIDATE,
    LINE_EXISTING,
    Bus,
    Demand,
    Generator,
    Line,
    Network,
    validate_network,
)
from arotnep.opf import solve_opf
from conftest import interval_uncertainty

# ---------------------------------------------------------------------------
# helpers


def onebus_dispatch_cost(net, cap, load):
    """Closed-form operating cost of the single-bus network: serve what the
    generator can, shed the rest."""
    gen = net.generators[0]
    dem = net.demands[0]
    served = np.minimum(np.maximum(cap, 0.0), np.maximum(load, 0.0))
    return net.weighting_factor_hours * (
        gen.marginal_cost * served + dem.shed_cost * (np.maximum(load, 0.0) - served))


def assert_bounds_sound(plan, master_gap=1e-6):
    """Lower bounds never fall, and none lies above its upper bound by more
    than the master's gap."""
    lows = [it.z_lo for it in plan.iterations if np.isfinite(it.z_lo)]
    lows.append(plan.z_lo)
    for a, b in zip(lows, lows[1:]):
        assert b >= a - 1e-9 * (1.0 + abs(a))
    for it in plan.iterations:
        assert it.z_lo <= it.z_up + master_gap
    assert plan.z_lo <= plan.z_up + master_gap


def triangle_network():
    """Three buses, one existing line, three distinct candidates whose full
    set exceeds the budget; used against subset enumeration."""
    net = Network(
        name="triangle", currency="MEUR", base_mva=100.0, budget=20.0,
        weighting_factor_hours=8760.0, max_parallel_lines=2,
        buses=(Bus("1", reference=True), Bus("2"), Bus("3")),
        lines=(
            Line("E1-2", "1", "2", 2.5, 50.0, LINE_EXISTING),
            Line("C1-3a", "1", "3", 2.0, 60.0, LINE_CANDIDATE, build_cost=12.0),
            Line("C2-3a", "2", "3", 4.0, 40.0, LINE_CANDIDATE, build_cost=8.0),
            Line("C1-2b", "1", "2", 2.5, 50.0, LINE_CANDIDATE, build_cost=6.0),
        ),
        generators=(Generator("G1", "1", 150.0, 1.2e-5),),
        demands=(Demand("D2", "2", 40.0, 3.0e-4, 3.0e-4),
                 Demand("D3", "3", 50.0, 4.0e-4, 4.0e-4)),
    )
    validate_network(net)
    return net


def parallel_pair_network():
    """Two interchangeable candidates on the same corridor; exactly one is
    worth building."""
    net = Network(
        name="pair", currency="MEUR", base_mva=100.0, budget=30.0,
        weighting_factor_hours=8760.0, max_parallel_lines=2,
        buses=(Bus("1", reference=True), Bus("2")),
        lines=(
            Line("C1-2a", "1", "2", 5.0, 40.0, LINE_CANDIDATE, build_cost=10.0),
            Line("C1-2b", "1", "2", 5.0, 40.0, LINE_CANDIDATE, build_cost=10.0),
        ),
        generators=(Generator("G1", "1", 100.0, 1.0e-5),),
        demands=(Demand("D2", "2", 30.0, 5.0e-4, 5.0e-4),),
    )
    validate_network(net)
    return net


def twobus_set(beta):
    # Generator capacity 200 may fall, demand 60 may rise.
    return EllipsoidalSet.from_std_and_correlation(
        np.array([200.0, 60.0]), np.array([20.0, 5.0]), np.eye(2), beta,
        half_width=np.array([40.0, 10.0]), signs=np.array([-1.0, 1.0]))


# ---------------------------------------------------------------------------
# inner worst-case search


def test_inner_zero_radius_stops_at_mean(onebus):
    es = EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array([10.0, 5.0]), np.eye(2), 0.0,
        signs=onebus.uncertain_signs())
    res = inner_solve(onebus, es)
    assert res.converged
    assert res.iterations <= 2
    np.testing.assert_allclose(res.worst_point, onebus.nominal_uncertain())
    nominal = solve_opf(onebus).objective
    assert res.worst_cost == pytest.approx(nominal, rel=1e-9)


def test_inner_matches_boundary_arc_oracle(onebus):
    # Capacity may fall far enough to force shedding; the cost is piecewise
    # linear over the set, so the search must escape the no-shedding piece.
    mean = onebus.nominal_uncertain()
    std = np.array([80.0, 6.0])
    es = EllipsoidalSet.from_std_and_correlation(
        mean, std, np.eye(2), 1.0, signs=onebus.uncertain_signs())
    res = worst_case_cost(onebus, es, frozenset(), starts=3, seed=0)
    assert res.converged
    assert es.contains(res.worst_point, tol=1e-8)
    assert res.worst_cost == pytest.approx(
        solve_opf(onebus, d=res.worst_point).objective, rel=1e-6)

    # Every extreme point of the set lies on the adverse quarter arc.
    phi_grid = np.linspace(0.0, np.pi / 2.0, 400_001)
    cap = mean[0] - std[0] * np.cos(phi_grid)
    load = mean[1] + std[1] * np.sin(phi_grid)
    oracle = float(np.max(onebus_dispatch_cost(onebus, cap, load)))
    assert res.worst_cost == pytest.approx(oracle, rel=1e-6)


def test_inner_multistart_beats_single_poor_start(onebus):
    # Starting from the mean the search stays on the no-shedding piece; the
    # adverse start finds the shedding piece, which costs far more.
    mean = onebus.nominal_uncertain()
    es = EllipsoidalSet.from_std_and_correlation(
        mean, np.array([80.0, 6.0]), np.eye(2), 1.0,
        signs=onebus.uncertain_signs())
    from_mean = inner_solve(onebus, es, start=es.mean.copy())
    best = worst_case_cost(onebus, es, starts=3, seed=0)
    assert best.worst_cost > from_mean.worst_cost * 2.0


def recorded_solves(monkeypatch):
    """Every ``decomp.solve_opf`` call from here on, as ``(built, d, sol,
    warm)``, ``warm`` the starting basis it was passed (``None`` for a cold
    solve)."""
    calls = []

    def recording(net, d=None, built=frozenset(), *, warm=None):
        sol = solve_opf(net, d=d, built=built, warm=warm)
        calls.append((frozenset(built), np.array(d, dtype=float), sol, warm))
        return sol

    monkeypatch.setattr(dc, "solve_opf", recording)
    return calls


def test_inner_cost_history_nondecreasing(onebus, garver_annual, monkeypatch):
    es1 = EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array([80.0, 6.0]), np.eye(2), 1.0,
        signs=onebus.uncertain_signs())
    es2 = interval_uncertainty(garver_annual, 2.3263)
    runs = [(onebus, es1, frozenset()), (garver_annual, es2, frozenset()),
            (garver_annual, es2, frozenset({"C2-6a", "C4-6a"}))]
    for net, es, built in runs:
        calls = recorded_solves(monkeypatch)
        res = inner_solve(net, es, built)
        # One dispatch per sweep, in sweep order.
        hist = np.array([sol.objective for _, _, sol, _ in calls])
        assert hist.size == res.iterations >= 1
        assert np.all(np.diff(hist) >= -1e-9 * (1.0 + np.abs(hist[:-1])))


SEARCH_PLANS = [frozenset(), frozenset({"C2-6a"}), frozenset({"C3-5a", "C4-6a"}),
                frozenset({"C2-6a", "C2-6b", "C4-6a"})]


@pytest.mark.parametrize("built", SEARCH_PLANS)
def test_inner_prices_each_point_once(built, monkeypatch):
    # A step back to the point just priced ends the ascent; it is not
    # dispatched again.
    cfg = load_study_config(study_path("garver6_study"))
    net = load_configured_network(cfg)
    es = build_uncertainty(cfg, net)
    rng = np.random.default_rng(7)
    starts = [None, es.mean.copy()]
    for _ in range(4):
        z = rng.standard_normal(es.dim)
        starts.append(es.pull_inside(es.map_z(z / np.linalg.norm(z) * es.radius)))
    for start in starts:
        calls = recorded_solves(monkeypatch)
        res = inner_solve(net, es, built, tol=cfg.tolerance,
                          max_iter=cfg.max_inner, start=start)
        points = [d.tobytes() for _, d, _, _ in calls]
        assert len(points) == len(set(points)) == res.iterations
        assert res.dispatch is calls[-1][2]


@pytest.mark.parametrize("built", SEARCH_PLANS)
def test_search_starts_share_their_priced_points(built, monkeypatch):
    # One search dispatches no point twice. Only the first start's first
    # dispatch is cold; each later start's first one is warm from the basis
    # solved just before, and the ascent steps are cold. The result is the
    # best of independent ascents from the same starts.
    cfg = load_study_config(study_path("garver6_study"))
    net = load_configured_network(cfg)
    es = build_uncertainty(cfg, net)
    starts, begins = [], []
    ascend_alone = dc.inner_solve

    def recording(*args, start=None, **kwargs):
        starts.append(start)
        begins.append(len(calls))
        return ascend_alone(*args, start=start, **kwargs)

    monkeypatch.setattr(dc, "inner_solve", recording)
    calls = recorded_solves(monkeypatch)
    res = worst_case_cost(net, es, built, tol=cfg.tolerance, max_iter=cfg.max_inner,
                          starts=cfg.inner_starts, seed=cfg.seed)
    assert len(starts) == cfg.inner_starts
    points = [d.tobytes() for _, d, _, _ in calls]
    assert len(points) == len(set(points))
    assert [i for i, (*_, warm) in enumerate(calls) if warm is not None] == begins[1:]
    assert all(calls[i][3] is calls[i - 1][2].basis for i in begins[1:])

    monkeypatch.undo()
    alone = [ascend_alone(net, es, built, tol=cfg.tolerance, max_iter=cfg.max_inner,
                          start=start) for start in starts]
    best = max(r.worst_cost for r in alone if r.converged)
    assert res.worst_cost == pytest.approx(best, rel=1e-12, abs=0.0)


def test_inner_restart_from_own_output_is_fixed_point(twobus_annual):
    es = twobus_set(1.28155)
    built = frozenset({"C1-2a"})
    first = worst_case_cost(twobus_annual, es, built, seed=0)
    again = inner_solve(twobus_annual, es, built, start=first.worst_point)
    assert again.converged
    assert again.iterations <= 2
    assert again.worst_cost == pytest.approx(first.worst_cost, rel=1e-6)


def test_inner_iteration_limit_raises(onebus):
    es = EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array([80.0, 6.0]), np.eye(2), 1.0,
        signs=onebus.uncertain_signs())
    with pytest.raises(IterationLimit):
        worst_case_cost(onebus, es, max_iter=1, starts=2, seed=0)


def test_bad_search_arguments_are_validation_errors(onebus):
    es = EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array([10.0, 5.0]), np.eye(2), 1.0,
        signs=onebus.uncertain_signs())
    with pytest.raises(ValidationError, match="seed"):
        worst_case_cost(onebus, es, seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        outer_solve(onebus, es, seed=-1)
    for cap in (0, -1):
        with pytest.raises(ValidationError, match="max_outer must be at least 1"):
            outer_solve(onebus, es, max_outer=cap)
    for name in ("tol", "inner_tol", "master_gap"):
        for bad in (-1.0, np.nan):
            with pytest.raises(ValidationError, match=f"^{name} must be nonnegative"):
                outer_solve(onebus, es, **{name: bad})


def test_inner_rejects_sweep_cap_below_one(onebus, monkeypatch):
    es = EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array([80.0, 6.0]), np.eye(2), 1.0,
        signs=onebus.uncertain_signs())
    for cap in (0, -1):
        with pytest.raises(ValidationError, match="max_iter must be at least 1"):
            inner_solve(onebus, es, max_iter=cap)
    # One sweep is too few here, but the result still prices its point.
    calls = recorded_solves(monkeypatch)
    res = inner_solve(onebus, es, max_iter=1)
    assert not res.converged and res.iterations == 1
    assert [sol.objective for _, _, sol, _ in calls] == [res.worst_cost]
    assert res.worst_cost == pytest.approx(
        solve_opf(onebus, d=res.worst_point).objective, rel=1e-12)


def test_inner_dimension_mismatch_rejected(onebus):
    es = EllipsoidalSet(np.array([50.0]), np.array([[4.0]]), 1.0)
    with pytest.raises(ValidationError):
        inner_solve(onebus, es)
    # A set of the right size, and a start or point of the wrong one.
    es = EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array([10.0, 5.0]), np.eye(2), 1.0,
        signs=onebus.uncertain_signs())
    wrong = np.zeros(3)
    with pytest.raises(ValidationError, match="does not match the set"):
        inner_solve(onebus, es, start=wrong)
    for method in (es.contains, es.pull_inside, es.mahalanobis_sq, es.bounded_step):
        with pytest.raises(ValidationError, match="does not match the set"):
            method(wrong)
    # A gradient of the right size with nonfinite entries.
    for bad in ([np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(ValidationError, match="gradient has nonfinite entries"):
            es.bounded_step(np.array(bad))
    line = EllipsoidalSet([50.0], [[4.0]], 1.0, half_width=[np.inf])
    with pytest.raises(ValidationError, match="gradient has nonfinite entries"):
        line.bounded_step(np.array([np.nan]))


def test_inner_flat_cost_reports_zero_gradient(onebus):
    # Free generation with slack capacity: the operating cost is identically
    # zero over the whole set, so the gradient vanishes immediately.
    free = Network(
        name="free", currency=onebus.currency, base_mva=onebus.base_mva,
        budget=onebus.budget,
        weighting_factor_hours=onebus.weighting_factor_hours,
        max_parallel_lines=onebus.max_parallel_lines, buses=onebus.buses,
        lines=onebus.lines,
        generators=(Generator("G1", "1", 100.0, 0.0),),
        demands=(Demand("D1", "1", 50.0, 1.0e-4, 1.0e-4),),
    )
    validate_network(free)
    es = EllipsoidalSet.from_std_and_correlation(
        free.nominal_uncertain(), np.array([10.0, 5.0]), np.eye(2), 1.0,
        signs=free.uncertain_signs())
    res = inner_solve(free, es)
    assert res.converged
    assert res.iterations == 1  # stopped on the zero gradient, not a repeat sweep
    assert res.worst_cost == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# master investment problem


def test_master_empty_scenarios_is_no_build(twobus):
    res = solve_master(twobus, [])
    assert res.built == frozenset()
    assert res.gamma == 0.0
    assert res.objective == 0.0


def test_master_matches_subset_enumeration():
    net = triangle_network()
    scenarios = [np.array([150.0, 40.0, 50.0]), np.array([120.0, 48.0, 60.0])]
    res = solve_master(net, scenarios)

    candidates = [ln.id for ln in net.candidate_lines]
    best_val = np.inf
    for mask in range(2 ** len(candidates)):
        subset = frozenset(c for i, c in enumerate(candidates) if mask >> i & 1)
        invest = investment_cost(net, subset)
        if invest > net.budget + 1e-9:
            continue
        operating = max(solve_opf(net, d=s, built=subset).objective
                        for s in scenarios)
        best_val = min(best_val, invest + operating)
    assert res.objective == pytest.approx(best_val, rel=1e-6)

    # The returned plan must itself achieve the reported objective, and its
    # ceiling must cover every stored scenario.
    replay = [solve_opf(net, d=s, built=res.built).objective for s in scenarios]
    assert res.objective == pytest.approx(res.investment + res.gamma, rel=1e-9)
    assert res.gamma == pytest.approx(max(replay), rel=1e-6)
    for cost in replay:
        assert cost <= res.gamma + 1e-6 * (1.0 + abs(res.gamma))


def test_master_budget_excludes_unaffordable_line(twobus):
    # The only candidate costs 10 against a budget of 5.
    stressed = np.array([200.0, 66.0])
    res = solve_master(twobus, [stressed])
    assert res.built == frozenset()
    assert res.gamma == pytest.approx(
        solve_opf(twobus, d=stressed).objective, rel=1e-9)


def test_master_builds_first_of_identical_candidates():
    net = parallel_pair_network()
    res = solve_master(net, [net.nominal_uncertain()])
    assert res.built == frozenset({"C1-2a"})
    assert res.investment == pytest.approx(10.0)


def highs_master(lp, binary, exclude=None):
    """HiGHS optimum of a recorded master MILP, ``lp`` with the variables
    ``binary`` restricted to {0, 1}, optionally with a no-good cut that
    forbids the binary assignment ``exclude``."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows = [LinearConstraint(lp.a_eq, lp.b_eq, lp.b_eq),
            LinearConstraint(lp.a_ub, -np.inf, lp.b_ub)]
    if exclude is not None:
        cut = np.zeros(lp.n_vars)
        cut[binary] = np.where(exclude == 1, -1.0, 1.0)
        rows.append(LinearConstraint(cut, 1.0 - float(np.sum(exclude)), np.inf))
    integrality = np.zeros(lp.n_vars)
    integrality[binary] = 1
    return milp(lp.objective, constraints=rows, integrality=integrality,
                bounds=Bounds(lp.lower, lp.upper), options={"mip_rel_gap": 1e-10})


@pytest.mark.parametrize("n_scen", [1, 2, 3, 4])
def test_master_matches_highs_on_garver_study(n_scen, monkeypatch, caplog):
    # From two scenarios on, the master is solved again with its root
    # started from the optimal root basis of the master over all scenarios
    # but the last, which the dual simplex must take without a cold fallback.
    pytest.importorskip("scipy")
    cfg = load_study_config(study_path("garver6_study"))
    net = load_configured_network(cfg)
    es = build_uncertainty(cfg, net)
    # Scenarios from a short ascent of the no-build plan from seeded starts.
    rng = np.random.default_rng(cfg.seed)
    scenarios = []
    for _ in range(n_scen):
        z = rng.standard_normal(es.dim)
        start = es.pull_inside(es.map_z(z / np.linalg.norm(z) * es.radius))
        scenarios.append(inner_solve(net, es, start=start, max_iter=4).worst_point)

    seen = []

    def recording(lp, binary, **kwargs):
        seen.append((lp, binary))
        return solve_milp(lp, binary, **kwargs)

    monkeypatch.setattr(dc, "solve_milp", recording)
    res = solve_master(net, scenarios)
    ((lp, binary),) = seen

    ref = highs_master(lp, binary)
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, rel=1e-6)
    if n_scen > 1:
        previous = solve_master(net, scenarios[:-1])
        with caplog.at_level(logging.DEBUG, logger="arotnep.simplex"):
            warm = solve_master(net, scenarios, root_state=previous.root_state)
        assert not [r for r in caplog.records if "fell back" in r.getMessage()]
        assert warm.objective == pytest.approx(res.objective, rel=1e-9)
        assert warm.objective == pytest.approx(ref.fun, rel=1e-6)
    xbin = np.round(ref.x[binary]).astype(int)
    runner_up = highs_master(lp, binary, exclude=xbin)
    if runner_up.status == 0 and runner_up.fun <= ref.fun * (1.0 + 1e-6):
        return  # another plan ties; the built set is not determined
    built = frozenset(ln.id for ln, x in zip(net.candidate_lines, xbin) if x == 1)
    assert res.built == built


def test_master_root_state_must_come_from_one_scenario_fewer(twobus):
    point = np.array([200.0, 66.0])
    state = solve_master(twobus, [point]).root_state
    for count in (1, 3):
        with pytest.raises(ValidationError, match="does not fit"):
            solve_master(twobus, [point] * count, root_state=state)
    warm = solve_master(twobus, [point, point], root_state=state)
    assert warm.objective == pytest.approx(
        solve_master(twobus, [point, point]).objective, rel=1e-9)


def test_master_scenario_size_mismatch_rejected(twobus):
    with pytest.raises(ValidationError):
        solve_master(twobus, [np.array([1.0, 2.0, 3.0])])


# ---------------------------------------------------------------------------
# outer loop


def test_outer_builds_line_when_worth_it(twobus_annual):
    beta = 1.28155
    plan = outer_solve(twobus_annual, twobus_set(beta), seed=0)
    assert plan.status == "converged"
    assert plan.built == frozenset({"C1-2a"})
    assert len(plan.iterations) == 2
    assert plan.gap <= 1e-6

    # With the line built nothing is shed; the worst case simply raises the
    # demand by beta standard deviations, all inside the interval limits.
    gen = twobus_annual.generators[0]
    worst_load = 60.0 + beta * 5.0
    expected = 1.0 + twobus_annual.weighting_factor_hours * gen.marginal_cost * worst_load
    assert plan.objective == pytest.approx(expected, rel=1e-6)
    np.testing.assert_allclose(plan.inner.worst_point,
                               [200.0, worst_load], rtol=1e-6)


def test_outer_bounds_and_scenario_replay(twobus_annual):
    plan = outer_solve(twobus_annual, twobus_set(1.28155), seed=0)
    assert_bounds_sound(plan)
    assert plan.z_lo <= plan.z_up + 1e-9 * (1.0 + abs(plan.z_up))
    ceiling = plan.z_lo - plan.investment
    for scen in plan.scenarios:
        cost = solve_opf(twobus_annual, d=scen, built=plan.built).objective
        assert cost <= ceiling + 1e-6 * (1.0 + abs(ceiling))


def test_outer_without_candidates_prices_worst_case(onebus):
    es = EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array([10.0, 5.0]), np.eye(2), 1.0,
        signs=onebus.uncertain_signs())
    plan = outer_solve(onebus, es, seed=0)
    assert plan.status == "converged"
    assert plan.built == frozenset()
    assert plan.investment == 0.0
    # Capacity stays slack, so the worst case is one sigma more demand.
    expected = onebus_dispatch_cost(onebus, 100.0, 55.0)
    assert plan.objective == pytest.approx(float(expected), rel=1e-6)


def test_outer_budget_blocked_plan_stays_no_build(twobus):
    plan = outer_solve(twobus, twobus_set(1.28155), seed=0)
    assert plan.status == "converged"
    assert plan.built == frozenset()
    assert plan.z_lo == pytest.approx(plan.z_up, rel=1e-6)


def test_outer_zero_radius_matches_nominal_master(garver_annual):
    plan = outer_solve(garver_annual, interval_uncertainty(garver_annual, 0.0),
                       seed=0)
    assert plan.status == "converged"
    assert len(plan.iterations) <= 2
    oracle = solve_master(garver_annual, [garver_annual.nominal_uncertain()])
    assert plan.built == oracle.built
    assert plan.objective == pytest.approx(oracle.objective, rel=1e-6)
    assert_bounds_sound(plan)


def plan_garver6_study(edit=None):
    """``outer_solve`` on the bundled garver6 study, with its settings, on
    its network or on ``edit`` of it.  Returns the plan and the network."""
    cfg = load_study_config(study_path("garver6_study"))
    net = load_configured_network(cfg)
    if edit is not None:
        net = edit(net)
    plan = outer_solve(net, build_uncertainty(cfg, net), tol=cfg.tolerance,
                       max_outer=cfg.max_outer, inner_tol=cfg.tolerance,
                       max_inner=cfg.max_inner, inner_starts=cfg.inner_starts,
                       seed=cfg.seed, master_gap=cfg.tolerance)
    return plan, net


@pytest.fixture(scope="module")
def garver6_plan():
    return plan_garver6_study()[0]


def reverse_lines(net):
    return replace(net, lines=net.lines[::-1])


def reverse_candidates(net):
    backwards = iter(net.candidate_lines[::-1])
    return replace(net, lines=tuple(next(backwards) if ln.status == LINE_CANDIDATE else ln
                                    for ln in net.lines))


def line_kinds(net, built):
    """``built`` with interchangeable candidates (one corridor, equal data)
    counted as one kind."""
    kind = {ln.id: (tuple(sorted((ln.from_bus, ln.to_bus))), ln.susceptance,
                    ln.capacity_mw, ln.build_cost) for ln in net.candidate_lines}
    return Counter(kind[b] for b in built)


@pytest.mark.parametrize("edit", [reverse_lines, reverse_candidates])
def test_line_order_changes_the_plan_only_among_copies(edit, garver6_plan):
    # Reversed candidates reverse the symmetry-breaking order of identical
    # copies, so on garver6 the master picks other letters of the same
    # corridors (C3-5b/c for C3-5a/b, C4-6b/c for C4-6a/b).
    plan, net = plan_garver6_study(edit)
    ref = garver6_plan
    assert line_kinds(net, plan.built) == line_kinds(net, ref.built)
    for name in ("objective", "worst_cost", "investment"):
        assert getattr(plan, name) == pytest.approx(getattr(ref, name), rel=3e-16), name


def double_prices(net):
    """Every marginal cost, bid, shed cost, build cost and the budget doubled."""
    return replace(
        net, budget=2.0 * net.budget,
        generators=tuple(replace(g, marginal_cost=2.0 * g.marginal_cost)
                         for g in net.generators),
        demands=tuple(replace(d, bid_price=2.0 * d.bid_price, shed_cost=2.0 * d.shed_cost)
                      for d in net.demands),
        lines=tuple(replace(ln, build_cost=2.0 * ln.build_cost) for ln in net.lines))


def test_doubled_prices_double_every_cost(garver6_plan):
    plan, _ = plan_garver6_study(double_prices)
    ref = garver6_plan
    assert plan.built == ref.built
    assert plan.objective == 2.0 * ref.objective
    assert plan.worst_cost == 2.0 * ref.worst_cost
    assert plan.investment == 2.0 * ref.investment


def test_outer_solves_one_master_root_cold(monkeypatch):
    # Cold solves of branch-and-bound LPs are root solves or fallbacks of
    # warm starts; after the first master every root starts warm.
    cold_rows = []
    for module in (milp_module, simplex_module):
        def counted(lp, _clean=module.solve_lp_with_state):
            if lp._layout is not None:
                cold_rows.append(lp.b_eq.size + lp.b_ub.size)
            return _clean(lp)
        monkeypatch.setattr(module, "solve_lp_with_state", counted)
    plan, _ = plan_garver6_study()
    masters = [it for it in plan.iterations if it.master_nodes]
    assert len(masters) >= 2
    assert len(cold_rows) == 1
    assert all(it.master_root_pivots > 0 for it in masters)


def test_outer_searches_each_plan_once(monkeypatch):
    # Two garver6 masters return the same plan; the search is deterministic,
    # so the loop keeps that plan's first search instead of running it again.
    searched, clean = [], dc.worst_case_cost

    def recording(net, es, built=frozenset(), **kwargs):
        searched.append(built)
        return clean(net, es, built, **kwargs)

    monkeypatch.setattr(dc, "worst_case_cost", recording)
    visited = [it.built for it in plan_garver6_study()[0].iterations]
    assert len(set(visited)) < len(visited)
    assert searched == list(dict.fromkeys(visited))


def test_outer_iteration_cap_reports_limit(twobus_annual):
    plan = outer_solve(twobus_annual, twobus_set(1.28155), max_outer=1, seed=0)
    assert plan.status == "iteration_limit"
    assert plan.built == frozenset()
    assert len(plan.iterations) == 1
    assert plan.gap > 1e-6
    assert np.isfinite(plan.z_lo)
    assert plan.z_lo < plan.z_up


def fake_search(point):
    """A worst-case search that always returns ``point``, priced exactly."""
    def search(net, es, built=frozenset(), **kwargs):
        sol = dc.solve_opf(net, d=point, built=built)
        return InnerResult(worst_cost=sol.objective, worst_point=point,
                           dispatch=sol, iterations=1, converged=True)
    return search


def test_outer_repeated_worst_point_stalls(monkeypatch, twobus):
    # The search overstates the no-build plan's cost at its point, so the
    # bounds stay apart until the point comes back.
    point = np.array([150.0, 70.0])
    cost = solve_opf(twobus, d=point).objective
    fake_inner = InnerResult(worst_cost=100.0, worst_point=point,
                             dispatch=solve_opf(twobus, d=point), iterations=1,
                             converged=True)
    fake_master = MasterResult(built=frozenset(), gamma=cost,
                               investment=0.0, objective=cost, nodes=0)
    monkeypatch.setattr(dc, "worst_case_cost", lambda *a, **k: fake_inner)
    monkeypatch.setattr(dc, "solve_master", lambda *a, **k: fake_master)
    plan = dc.outer_solve(twobus, twobus_set(1.0))
    assert plan.status == "stalled"
    assert plan.objective == pytest.approx(100.0)
    assert plan.z_lo == cost
    assert plan.gap == pytest.approx((100.0 - cost) / 100.0)
    assert len(plan.scenarios) == 1


def test_outer_master_objective_off_its_priced_plan_raises(monkeypatch, twobus):
    # The master claims 90 for a plan that prices at 56.064 at its scenario.
    point = np.array([150.0, 70.0])
    fake_master = MasterResult(built=frozenset(), gamma=90.0,
                               investment=0.0, objective=90.0, nodes=0)
    monkeypatch.setattr(dc, "worst_case_cost", fake_search(point))
    monkeypatch.setattr(dc, "solve_master", lambda *a, **k: fake_master)
    with pytest.raises(NumericalError, match="master objective 90.0"):
        dc.outer_solve(twobus, twobus_set(1.0))


def test_outer_lower_bound_above_upper_bound_raises(monkeypatch, twobus):
    # At light load nothing is shed, so building the line only adds its
    # cost: a master that builds it is priced consistently but lies above
    # the no-build plan's price.
    net = replace(twobus, budget=20.0)
    point = np.array([200.0, 30.0])
    built = frozenset({"C1-2a"})
    invest = investment_cost(net, built)
    objective = invest + solve_opf(net, d=point, built=built).objective
    fake_master = MasterResult(built=built, gamma=objective - invest,
                               investment=invest, objective=objective, nodes=0)
    monkeypatch.setattr(dc, "worst_case_cost", fake_search(point))
    monkeypatch.setattr(dc, "solve_master", lambda *a, **k: fake_master)
    with pytest.raises(NumericalError, match="exceeds upper bound"):
        dc.outer_solve(net, twobus_set(1.0))


def test_outer_reports_the_stored_dispatch_that_sets_the_price(monkeypatch, twobus):
    # The no-build plan's search finds a heavy load, which building the line
    # serves; the built plan's search finds a low capacity, which no line
    # helps.  That second point then prices the no-build plan above its own
    # search, and the no-build plan is the final one.
    heavy, short = np.array([200.0, 60.0]), np.array([20.0, 60.0])
    line = frozenset({"C1-2a"})
    invest = investment_cost(twobus, line)
    cost = {(p, k): solve_opf(twobus, d=d, built=p).objective
            for p in (frozenset(), line) for k, d in (("heavy", heavy), ("short", short))}
    assert invest + cost[line, "heavy"] < cost[frozenset(), "heavy"]
    assert cost[frozenset(), "heavy"] < cost[frozenset(), "short"]
    assert cost[frozenset(), "short"] < invest + cost[line, "short"]
    searches = {frozenset(): fake_search(heavy), line: fake_search(short)}
    masters = iter([
        MasterResult(built=line, gamma=cost[line, "heavy"], investment=invest,
                     objective=invest + cost[line, "heavy"], nodes=0),
        MasterResult(built=frozenset(), gamma=cost[frozenset(), "short"],
                     investment=0.0, objective=cost[frozenset(), "short"], nodes=0)])
    monkeypatch.setattr(dc, "worst_case_cost",
                        lambda net, es, built, **kw: searches[built](net, es, built))
    monkeypatch.setattr(dc, "solve_master", lambda *a, **k: next(masters))
    calls = recorded_solves(monkeypatch)
    plan = dc.outer_solve(twobus, twobus_set(1.0), max_outer=2)

    assert plan.status == "iteration_limit"
    assert plan.built == frozenset()
    assert plan.worst_cost == cost[frozenset(), "short"] == plan.z_lo == plan.z_up
    np.testing.assert_array_equal(plan.inner.worst_point, short)
    (stored,) = [sol for built, d, sol, _ in calls
                 if built == frozenset() and np.array_equal(d, short)]
    assert plan.inner.dispatch is stored
    pairs = [(built, d.tobytes()) for built, d, _, _ in calls]
    assert len(pairs) == len(set(pairs)) == 4
