"""End-to-end acceptance checks for the planning toolchain.

Each test pins one numbered criterion against an independent oracle:
exhaustive enumeration for discrete choices, closed-form or brute-force
maximizers for the uncertainty steps, finite differences for gradients,
and seeded simulation for the probabilistic calibration. A summary with
one PASS/FAIL line per criterion is printed at the end of the pytest run
(see ``conftest.pytest_terminal_summary``).
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from arotnep.config import (
    build_uncertainty,
    load_configured_network,
    load_study_config,
    study_config_from_dict,
)
from arotnep.datasets import study_path
from arotnep.decomp import (
    investment_cost,
    outer_solve,
    solve_master,
    worst_case_cost,
)
from arotnep.ellipsoid import EllipsoidalSet, soyster_beta
from arotnep.milp import solve_milp
from arotnep.montecarlo import SimulationStudy, run_simulation
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
from arotnep.simplex import LinearProgram, check_kkt, solve_lp
from conftest import interval_uncertainty, record_acceptance_detail
from oracles import (
    ellipsoid_box_argmax,
    ellipsoid_box_linear_max,
    lp_vertex_optimum,
    milp_enumerate_optimum,
    random_box_lp,
    unit_sphere_linear_max,
)
from test_decomp import parallel_pair_network, triangle_network

# ---------------------------------------------------------------------------
# shared generators


def random_spd(rng, n, jitter=0.3):
    m = rng.normal(size=(n, n))
    return m @ m.T + jitter * np.eye(n)


def random_small_network(rng, max_candidates=3):
    """Connected random network, 2-4 buses, whose budget sometimes excludes
    the full candidate set. Shedding keeps every realization feasible."""
    n_bus = int(rng.integers(2, 5))
    buses = tuple(Bus(str(i + 1), reference=(i == 0)) for i in range(n_bus))
    lines = []
    for i in range(1, n_bus):
        j = int(rng.integers(0, i))
        lines.append(Line(f"E{i}", str(j + 1), str(i + 1),
                          float(rng.uniform(1.0, 5.0)),
                          float(rng.uniform(25.0, 80.0)), LINE_EXISTING))
    n_cand = int(rng.integers(1, max_candidates + 1))
    for k in range(n_cand):
        a = int(rng.integers(0, n_bus))
        b = int(rng.integers(0, n_bus))
        while b == a:
            b = int(rng.integers(0, n_bus))
        lines.append(Line(f"C{k}", str(a + 1), str(b + 1),
                          float(rng.uniform(1.0, 5.0)),
                          float(rng.uniform(20.0, 70.0)), LINE_CANDIDATE,
                          build_cost=float(rng.uniform(0.5, 4.0))))
    gens = tuple(Generator(f"G{g}", str(int(rng.integers(0, n_bus)) + 1),
                           float(rng.uniform(60.0, 160.0)),
                           float(rng.uniform(0.5e-5, 3e-5)))
                 for g in range(int(rng.integers(1, 3))))
    dems = []
    for m in range(int(rng.integers(1, 3))):
        bid = float(rng.uniform(1e-4, 3e-4))
        dems.append(Demand(f"D{m}", str(int(rng.integers(0, n_bus)) + 1),
                           float(rng.uniform(20.0, 70.0)), bid,
                           bid * float(rng.uniform(1.0, 2.5))))
    total_cost = sum(ln.build_cost for ln in lines
                     if ln.status == LINE_CANDIDATE)
    net = Network(name="random", currency="MEUR", base_mva=100.0,
                  budget=float(total_cost * rng.uniform(0.5, 1.2)),
                  weighting_factor_hours=8760.0, max_parallel_lines=6,
                  buses=buses, lines=tuple(lines), generators=gens,
                  demands=tuple(dems))
    validate_network(net)
    return net


def random_uncertainty(rng, net):
    mean = net.nominal_uncertain()
    n = mean.size
    std = mean * rng.uniform(0.08, 0.3, size=n)
    corr = np.eye(n)
    if n >= 2 and rng.uniform() < 0.5:
        i, j = rng.choice(n, size=2, replace=False)
        corr[i, j] = corr[j, i] = float(rng.uniform(-0.6, 0.6))
    return EllipsoidalSet.from_std_and_correlation(
        mean, std, corr, float(rng.uniform(0.5, 2.0)),
        half_width=mean * rng.uniform(0.2, 0.6, size=n),
        signs=net.uncertain_signs())


def enumerate_plans(net, es, *, tol=1e-6, starts=3, seed=0):
    """Best total cost over every budget-feasible candidate subset, pricing
    each subset with the multi-start worst-case search."""
    best_built, best_total = None, np.inf
    cands = net.candidate_lines
    for mask in itertools.product((0, 1), repeat=len(cands)):
        built = frozenset(ln.id for ln, bit in zip(cands, mask) if bit)
        invest = investment_cost(net, built)
        if invest > net.budget + 1e-9:
            continue
        inner = worst_case_cost(net, es, built, tol=tol, starts=starts,
                                seed=seed)
        total = invest + inner.worst_cost
        if total < best_total:
            best_built, best_total = built, total
    return best_built, best_total


def lower_bounds_monotone(plan):
    lows = [it.z_lo for it in plan.iterations if np.isfinite(it.z_lo)]
    lows.append(plan.z_lo)
    return all(b >= a - 1e-9 * (1.0 + abs(a)) for a, b in zip(lows, lows[1:]))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_zero_radius_is_deterministic(garver_annual):
    es = interval_uncertainty(garver_annual, 0.0)
    plan = outer_solve(garver_annual, es, tol=1e-6)
    nominal = solve_master(garver_annual, [garver_annual.nominal_uncertain()])

    record_acceptance_detail(1, f"objective {plan.objective:.6f} in "
                                f"{len(plan.iterations)} iterations")
    assert plan.status == "converged"
    assert len(plan.iterations) <= 2
    assert plan.built == nominal.built
    assert plan.objective == pytest.approx(nominal.objective, rel=1e-6)


def test_criterion_02_radius_identities():
    cases = {8: 6.58, 27: 12.09, 145: 28.02}
    got = {n: soyster_beta(n, 2.3263) for n in cases}
    record_acceptance_detail(
        2, ", ".join(f"n={n}: {got[n]:.4f}" for n in cases))
    for n, want in cases.items():
        assert abs(got[n] - want) <= 0.01, (n, got[n], want)


def test_criterion_03_simulation_calibrates_to_quantile():
    cfg = load_study_config(study_path("onebus_calibration_study"))
    net = load_configured_network(cfg)
    es = build_uncertainty(cfg, net)
    plan = outer_solve(net, es, tol=cfg.tolerance, seed=cfg.seed)
    assert plan.status == "converged"

    study = SimulationStudy(n_samples=cfg.simulation.samples,
                            seed=cfg.simulation.seed,
                            q_star=plan.worst_cost, radius=cfg.radius())
    report = run_simulation(net, plan.built, es, study)
    record_acceptance_detail(
        3, f"empirical {report.non_exceedance:.3f} for target 0.9 "
           f"({report.n_samples} samples)")
    assert report.failed_samples == 0
    assert 0.87 <= report.non_exceedance <= 0.93


def test_criterion_04_boundary_step_matches_brute_force():
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(40_000 + k)
        n = 2 + k % 4
        cov = random_spd(rng, n)
        mean = rng.normal(scale=10.0, size=n)
        beta = float(rng.uniform(0.1, 3.0))
        eta = rng.normal(size=n)
        while np.linalg.norm(eta) < 1e-3:
            eta = rng.normal(size=n)
        es = EllipsoidalSet(mean, cov, beta)

        step = es.bounded_step(eta)
        assert not step.zero_gradient
        assert es.mahalanobis_sq(step.point) == pytest.approx(beta**2,
                                                              rel=1e-9)
        value = float(eta @ step.point)
        chol = np.linalg.cholesky(cov)
        direction = unit_sphere_linear_max(chol.T @ eta, rng=rng)
        reference = float(eta @ mean + beta * (chol.T @ eta) @ direction)
        rel = abs(value - reference) / max(1.0, abs(reference))
        worst = max(worst, rel)
        assert rel <= 1e-5, (k, value, reference)
    record_acceptance_detail(4, f"worst relative gap {worst:.1e} over 100")


def test_criterion_05_bounded_step_feasible_and_optimal():
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng(50_000 + k)
        n = 2 + k % 4
        cov = random_spd(rng, n)
        mean = rng.normal(scale=3.0, size=n)
        radius = float(rng.uniform(0.5, 3.0))
        es = EllipsoidalSet(mean, cov, radius,
                            half_width=rng.uniform(0.3, 3.0, size=n),
                            signs=rng.choice([-1.0, 0.0, 1.0], size=n))
        eta = rng.normal(size=n)

        step = es.bounded_step(eta)
        scale = 1.0 + float(np.max(np.abs(mean)))
        assert np.all(step.point >= es.lower - 1e-8 * scale)
        assert np.all(step.point <= es.upper + 1e-8 * scale)
        assert (es.mahalanobis_sq(step.point)
                <= radius**2 * (1.0 + 1e-8) + 1e-8)

        value = float(eta @ step.point)
        _, exact = ellipsoid_box_linear_max(eta, mean, cov, radius,
                                            es.lower, es.upper)
        _, sampled = ellipsoid_box_argmax(rng, eta, mean, cov, radius,
                                          es.lower, es.upper, iters=4000)
        assert sampled <= exact + 1e-6 * (1.0 + abs(exact))
        rel = abs(value - exact) / max(1.0, abs(exact))
        worst = max(worst, rel)
        assert rel <= 1e-4, (k, value, exact)
    record_acceptance_detail(5, f"worst relative gap {worst:.1e} over 50")


def test_criterion_06_decomposition_matches_enumeration(
        onebus, twobus_annual, garver_annual):
    fixtures = [(onebus, 1.5), (twobus_annual, 1.28155),
                (triangle_network(), 1.5), (parallel_pair_network(), 1.5),
                (garver_annual, 2.3263)]
    enumerable = 0
    for net, beta in fixtures:
        es = interval_uncertainty(net, beta)
        plan = outer_solve(net, es, tol=1e-6, seed=0)
        assert plan.status == "converged", net.name
        assert plan.gap <= 1e-6
        assert lower_bounds_monotone(plan)
        if len(net.candidate_lines) <= 8:
            enumerable += 1
            _, enum_total = enumerate_plans(net, es)
            assert plan.objective == pytest.approx(enum_total, rel=1e-5), \
                net.name

    for seed in range(20):
        rng = np.random.default_rng(61_000 + seed)
        net = random_small_network(rng)
        es = random_uncertainty(rng, net)
        plan = outer_solve(net, es, tol=1e-6, seed=0)
        assert plan.status == "converged", seed
        assert plan.gap <= 1e-6
        assert lower_bounds_monotone(plan)
        _, enum_total = enumerate_plans(net, es)
        assert plan.objective == pytest.approx(enum_total, rel=1e-5), seed
    record_acceptance_detail(
        6, f"20 random networks + {len(fixtures)} fixtures "
           f"({enumerable} enumerated)")


def test_criterion_07_solvers_match_enumeration_oracles():
    worst_lp = worst_kkt = 0.0
    for k in range(200):
        rng = np.random.default_rng(70_000 + k)
        n = int(rng.integers(2, 6))
        lp = random_box_lp(rng, n, m_ub=int(rng.integers(1, 5)),
                           m_eq=int(rng.integers(0, min(2, n - 1) + 1)))
        if k % 2:  # odd draws minimize -c, the other objective orientation
            lp.objective = -lp.objective
        sol = solve_lp(lp)
        assert sol.status == "optimal", k
        _, reference, _ = lp_vertex_optimum(lp)
        gap = abs(sol.objective - reference) / (1.0 + abs(reference))
        worst_lp = max(worst_lp, gap)
        assert gap <= 1e-8, k
        residual = check_kkt(lp, sol)
        worst_kkt = max(worst_kkt, residual)
        assert residual <= 1e-7, k

    worst_milp = 0.0
    for k in range(100):
        rng = np.random.default_rng(71_000 + k)
        n_bin = 3 + k % 10
        n_cont = 0 if n_bin >= 8 else int(rng.integers(1, 4))
        n = n_bin + n_cont
        lower = np.zeros(n)
        upper = np.ones(n)
        if n_cont:
            lower[n_bin:] = rng.uniform(-2.0, 0.0, n_cont)
            upper[n_bin:] = lower[n_bin:] + rng.uniform(0.5, 3.0, n_cont)
        x0 = np.concatenate([rng.integers(0, 2, n_bin).astype(float),
                             rng.uniform(lower[n_bin:], upper[n_bin:])])
        m_ub = int(rng.integers(1, 4))
        a_ub = rng.normal(size=(m_ub, n))
        c = rng.normal(size=n)
        lp = LinearProgram(c if k % 2 == 0 else -c, a_ub=a_ub,
                           b_ub=a_ub @ x0 + rng.uniform(0.05, 1.0, m_ub),
                           lower=lower, upper=upper)
        sol = solve_milp(lp, np.arange(n_bin))
        assert sol.status == "optimal", k
        _, reference, _ = milp_enumerate_optimum(lp, np.arange(n_bin))
        gap = abs(sol.objective - reference) / (1.0 + abs(reference))
        worst_milp = max(worst_milp, gap)
        assert gap <= 1e-8, k
    record_acceptance_detail(
        7, f"LP {worst_lp:.1e}, KKT {worst_kkt:.1e}, MILP {worst_milp:.1e}")


def test_criterion_08_gradients_match_central_differences():
    accepted = 0
    attempts = 0
    worst = 0.0
    rng = np.random.default_rng(88_000)
    while accepted < 20 and attempts < 200:
        attempts += 1
        net = random_small_network(rng, max_candidates=1)
        mean = net.nominal_uncertain()
        d0 = mean * rng.uniform(0.75, 1.25, size=mean.size)
        base = solve_opf(net, d0)
        degenerate = False
        checks = []
        for i in range(d0.size):
            h = 1e-4 * (1.0 + abs(d0[i]))
            bump = np.zeros_like(d0)
            bump[i] = h
            plus = solve_opf(net, d0 + bump).objective
            minus = solve_opf(net, d0 - bump).objective
            forward = (plus - base.objective) / h
            backward = (base.objective - minus) / h
            if abs(forward - backward) > 1e-6 * (1.0 + abs(forward)
                                                 + abs(backward)):
                degenerate = True  # kink inside the stencil; draw again
                break
            checks.append((base.eta[i], (plus - minus) / (2.0 * h)))
        if degenerate:
            continue
        accepted += 1
        for eta_i, central in checks:
            rel = abs(eta_i - central) / (1.0 + abs(central))
            worst = max(worst, rel)
            assert rel <= 1e-4, (attempts, eta_i, central)
    assert accepted == 20, f"only {accepted} non-degenerate draws in {attempts}"
    record_acceptance_detail(
        8, f"worst relative gap {worst:.1e} over {accepted} instances")


def test_criterion_09_objective_monotone_in_radius(
        onebus, twobus_annual, garver_annual):
    betas = (0.0, 0.5, 1.28155, 2.3263)
    fixtures = [onebus, twobus_annual, triangle_network(),
                parallel_pair_network(), garver_annual]
    spans = []
    for net in fixtures:
        objectives = []
        for beta in betas:
            plan = outer_solve(net, interval_uncertainty(net, beta),
                               tol=1e-6, seed=0)
            assert plan.status == "converged", (net.name, beta)
            objectives.append(plan.objective)
        for lo, hi in zip(objectives, objectives[1:]):
            assert hi >= lo - 1e-6 * (1.0 + abs(lo)), (net.name, objectives)
        spans.append(objectives[-1] - objectives[0])
    record_acceptance_detail(
        9, f"{len(fixtures)} fixtures x {len(betas)} radii, "
           f"largest rise {max(spans):.3f}")


def test_criterion_10_correlation_changes_plan_and_lowers_cost():
    study_file = Path(study_path("garver6_study"))
    doc = json.loads(study_file.read_text())
    base_cfg = study_config_from_dict(doc, study_file.parent)
    net = load_configured_network(base_cfg)
    radius = base_cfg.radius()

    # The two largest generators become strongly anti-correlated: a shortfall
    # in one is likely offset by the other, so the worst joint outage softens.
    caps = sorted(net.generators, key=lambda g: g.capacity_mw, reverse=True)
    doc["uncertainty"]["correlations"] = [
        {"a": caps[0].id, "b": caps[1].id, "rho": -0.8}]
    corr_cfg = study_config_from_dict(doc, study_file.parent)

    independent = outer_solve(net, build_uncertainty(base_cfg, net),
                              tol=base_cfg.tolerance, seed=base_cfg.seed)
    correlated = outer_solve(net, build_uncertainty(corr_cfg, net),
                             tol=corr_cfg.tolerance, seed=corr_cfg.seed)

    record_acceptance_detail(
        10, f"radius {radius:.4f}: objective {independent.objective:.3f} -> "
            f"{correlated.objective:.3f}, investment "
            f"{independent.investment:.0f} -> {correlated.investment:.0f}")
    assert independent.status == "converged"
    assert correlated.status == "converged"
    assert correlated.built != independent.built
    assert (correlated.objective
            < independent.objective - 1e-6 * abs(independent.objective))
