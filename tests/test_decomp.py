"""Tests for the master/worst-case decomposition.

Oracles: a closed-form dispatch formula for the single-bus network (worst
case checked against a dense boundary-arc grid), exhaustive enumeration of
budget-feasible candidate subsets for the master, and hand-derived
convergence points for the two-bus network.
"""

import numpy as np
import pytest

from arotnep import decomp as dc
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
from arotnep.errors import IterationLimit, ValidationError
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


def assert_lower_bounds_monotone(plan):
    lows = [it.z_lo for it in plan.iterations if np.isfinite(it.z_lo)]
    lows.append(plan.z_lo)
    for a, b in zip(lows, lows[1:]):
        assert b >= a - 1e-9 * (1.0 + abs(a))


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


def test_inner_cost_history_nondecreasing(onebus, garver_annual):
    runs = []
    es1 = EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array([80.0, 6.0]), np.eye(2), 1.0,
        signs=onebus.uncertain_signs())
    runs.append(inner_solve(onebus, es1))
    es2 = interval_uncertainty(garver_annual, 2.3263)
    runs.append(inner_solve(garver_annual, es2))
    runs.append(inner_solve(garver_annual, es2,
                            built=frozenset({"C2-6a", "C4-6a"})))
    for res in runs:
        hist = np.asarray(res.history)
        assert hist.size >= 1
        assert np.all(np.diff(hist) >= -1e-9 * (1.0 + np.abs(hist[:-1])))


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


def test_negative_seed_is_a_validation_error(onebus):
    es = EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array([10.0, 5.0]), np.eye(2), 1.0,
        signs=onebus.uncertain_signs())
    with pytest.raises(ValidationError, match="seed"):
        worst_case_cost(onebus, es, seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        outer_solve(onebus, es, seed=-1)


def test_inner_rejects_sweep_cap_below_one(onebus):
    es = EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array([80.0, 6.0]), np.eye(2), 1.0,
        signs=onebus.uncertain_signs())
    for cap in (0, -1):
        with pytest.raises(ValidationError, match="max_iter must be at least 1"):
            inner_solve(onebus, es, max_iter=cap)
    # One sweep is too few here, but the result still prices its point.
    res = inner_solve(onebus, es, max_iter=1)
    assert not res.converged and res.iterations == 1
    assert res.history == [res.worst_cost]
    assert res.worst_cost == pytest.approx(
        solve_opf(onebus, d=res.worst_point).objective, rel=1e-12)


def test_inner_dimension_mismatch_rejected(onebus):
    es = EllipsoidalSet(np.array([50.0]), np.array([[4.0]]), 1.0)
    with pytest.raises(ValidationError):
        inner_solve(onebus, es)


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


def highs_master(problem, exclude=None):
    """HiGHS optimum of a recorded master MILP, optionally with a no-good
    cut that forbids the binary assignment ``exclude``."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp = problem.lp
    rows = [LinearConstraint(lp.a_eq, lp.b_eq, lp.b_eq),
            LinearConstraint(lp.a_ub, -np.inf, lp.b_ub)]
    if exclude is not None:
        cut = np.zeros(lp.n_vars)
        cut[problem.binary] = np.where(exclude == 1, -1.0, 1.0)
        rows.append(LinearConstraint(cut, 1.0 - float(np.sum(exclude)), np.inf))
    integrality = np.zeros(lp.n_vars)
    integrality[problem.binary] = 1
    return milp(lp.objective, constraints=rows, integrality=integrality,
                bounds=Bounds(lp.lower, lp.upper), options={"mip_rel_gap": 1e-10})


@pytest.mark.parametrize("n_scen", [1, 2, 3, 4])
def test_master_matches_highs_on_garver_study(n_scen, monkeypatch):
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

    def recording(problem, **kwargs):
        seen.append(problem)
        return solve_milp(problem, **kwargs)

    monkeypatch.setattr(dc, "solve_milp", recording)
    res = solve_master(net, scenarios)
    (problem,) = seen

    ref = highs_master(problem)
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, rel=1e-6)
    xbin = np.round(ref.x[problem.binary]).astype(int)
    runner_up = highs_master(problem, exclude=xbin)
    if runner_up.status == 0 and runner_up.fun <= ref.fun * (1.0 + 1e-6):
        return  # another plan ties; the built set is not determined
    built = frozenset(ln.id for ln, x in zip(net.candidate_lines, xbin) if x == 1)
    assert res.built == built


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
    expected = 1.0 + gen.marginal_cost * worst_load
    assert plan.objective == pytest.approx(expected, rel=1e-6)
    np.testing.assert_allclose(plan.inner.worst_point,
                               [200.0, worst_load], rtol=1e-6)


def test_outer_bounds_and_scenario_replay(twobus_annual):
    plan = outer_solve(twobus_annual, twobus_set(1.28155), seed=0)
    assert_lower_bounds_monotone(plan)
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
    assert_lower_bounds_monotone(plan)


def test_outer_iteration_cap_reports_limit(twobus_annual):
    plan = outer_solve(twobus_annual, twobus_set(1.28155), max_outer=1, seed=0)
    assert plan.status == "iteration_limit"
    assert plan.built == frozenset()
    assert len(plan.iterations) == 1
    assert plan.gap > 1e-6
    assert np.isfinite(plan.z_lo)
    assert plan.z_lo < plan.z_up


def test_outer_repeated_worst_point_stalls(monkeypatch, twobus):
    point = np.array([150.0, 70.0])
    fake_inner = InnerResult(worst_cost=100.0, worst_point=point,
                             dispatch=None, iterations=1, converged=True,
                             history=[100.0])
    fake_master = MasterResult(built=frozenset(), gamma=90.0,
                               investment=0.0, objective=90.0, nodes=0)
    monkeypatch.setattr(dc, "worst_case_cost", lambda *a, **k: fake_inner)
    monkeypatch.setattr(dc, "solve_master", lambda *a, **k: fake_master)
    plan = dc.outer_solve(twobus, twobus_set(1.0))
    assert plan.status == "stalled"
    assert plan.objective == pytest.approx(100.0)
    assert plan.z_lo == pytest.approx(90.0)
    assert plan.gap == pytest.approx(0.1)
    assert len(plan.scenarios) == 1
