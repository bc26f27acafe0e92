"""Tests for Monte Carlo plan pricing.

Oracles: sample moments against the requested covariance, closed-form
dispatch costs on the single-bus network, the Gaussian band around the
planned quantile's non-exceedance probability, and the Wilson score
interval at fixed counts.
"""

import csv

import numpy as np
import pytest

from arotnep import montecarlo
from arotnep.config import build_uncertainty, load_configured_network, load_study_config
from arotnep.datasets import study_path
from arotnep.decomp import worst_case_cost
from arotnep.ellipsoid import EllipsoidalSet
from arotnep.errors import NumericalError, ValidationError
from arotnep.montecarlo import (
    SimulationReport,
    SimulationStudy,
    _histogram,
    emit_report,
    run_simulation,
    sample_scenarios,
    wilson_interval,
)
from arotnep.opf import solve_opf


def unbounded_onebus_set(onebus, radius, std=(5.0, 3.0)):
    return EllipsoidalSet.from_std_and_correlation(
        onebus.nominal_uncertain(), np.array(std), np.eye(2), radius)


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_seed_deterministic(onebus):
    es = unbounded_onebus_set(onebus, 1.0)
    a = sample_scenarios(es, 64, seed=7)
    b = sample_scenarios(es, 64, seed=7)
    c = sample_scenarios(es, 64, seed=8)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 0.0


def test_sample_moments_match_requested_covariance():
    mean = np.array([10.0, -4.0])
    std = np.array([2.0, 0.5])
    es = EllipsoidalSet.from_std_and_correlation(mean, std, np.eye(2), 1.0)
    draws = sample_scenarios(es, 100_000, seed=3)
    cov = np.cov(draws.T)
    np.testing.assert_allclose(np.diag(cov), std**2, rtol=0.03)
    np.testing.assert_allclose(np.mean(draws, axis=0), mean, atol=0.03)


def test_sample_correlation_negative_pair():
    corr = np.array([[1.0, -0.8], [-0.8, 1.0]])
    es = EllipsoidalSet.from_std_and_correlation(
        np.array([5.0, 6.0]), np.array([1.0, 2.0]), corr, 1.0)
    draws = sample_scenarios(es, 100_000, seed=11)
    r = np.corrcoef(draws.T)[0, 1]
    assert -0.85 <= r <= -0.75


def test_vanishing_spread_collapses_to_mean(onebus):
    es = unbounded_onebus_set(onebus, 1.0, std=(1e-12, 1e-12))
    draws = sample_scenarios(es, 256, seed=0)
    assert np.max(np.abs(draws - es.mean)) <= 1e-9


def test_sample_count_must_be_positive(onebus):
    with pytest.raises(ValidationError):
        sample_scenarios(unbounded_onebus_set(onebus, 1.0), 0, seed=0)
    with pytest.raises(ValidationError):
        SimulationStudy(n_samples=0, seed=0, q_star=1.0, radius=1.0)


@pytest.mark.parametrize("n_samples, seed", [
    (10, -1), (10, 1.5), (10, True), (10, "3"), (10.5, 0), (True, 0)])
def test_study_rejects_non_integer_or_negative_seed_and_count(n_samples, seed):
    with pytest.raises(ValidationError):
        SimulationStudy(n_samples=n_samples, seed=seed, q_star=1.0, radius=1.0)


def test_study_accepts_numpy_integers():
    study = SimulationStudy(n_samples=np.int64(10), seed=np.int32(3),
                            q_star=1.0, radius=1.0)
    assert study.seed == 3


# ---------------------------------------------------------------------------
# simulation


def test_empirical_band_around_planned_quantile(onebus):
    # Slack capacity keeps the cost linear in the sampled load, so the
    # planned radius-beta quantile should be hit with probability phi(beta).
    beta = 1.28155
    es = unbounded_onebus_set(onebus, beta)
    q_star = worst_case_cost(onebus, es, seed=0).worst_cost
    study = SimulationStudy(n_samples=1000, seed=42, q_star=q_star,
                            radius=beta)
    report = run_simulation(onebus, frozenset(), es, study)
    assert 0.87 <= report.non_exceedance <= 0.93
    assert report.clipped_samples == 0
    assert report.failed_samples == 0
    assert int(np.sum(report.bin_counts)) == study.n_samples
    assert report.bin_counts.size >= 10


def test_infinite_quantile_never_exceeded(onebus):
    es = unbounded_onebus_set(onebus, 1.0)
    study = SimulationStudy(n_samples=50, seed=1, q_star=np.inf, radius=1.0)
    report = run_simulation(onebus, frozenset(), es, study)
    assert report.non_exceedance == 1.0


def test_vanishing_spread_prices_at_nominal(onebus):
    nominal = solve_opf(onebus).objective
    es = unbounded_onebus_set(onebus, 1.0, std=(1e-12, 1e-12))
    above = SimulationStudy(n_samples=40, seed=2,
                            q_star=nominal * (1.0 + 1e-6), radius=1.0)
    below = SimulationStudy(n_samples=40, seed=2,
                            q_star=nominal * (1.0 - 1e-6), radius=1.0)
    hi = run_simulation(onebus, frozenset(), es, above)
    lo = run_simulation(onebus, frozenset(), es, below)
    assert hi.non_exceedance == 1.0
    assert lo.non_exceedance == 0.0
    assert np.max(np.abs(hi.costs - nominal)) <= 1e-6 * nominal


def test_run_is_seed_deterministic(onebus):
    es = unbounded_onebus_set(onebus, 1.0)
    study = SimulationStudy(n_samples=100, seed=9, q_star=10.0, radius=1.0)
    a = run_simulation(onebus, frozenset(), es, study)
    b = run_simulation(onebus, frozenset(), es, study)
    np.testing.assert_array_equal(a.costs, b.costs)
    assert a.non_exceedance == b.non_exceedance
    np.testing.assert_array_equal(a.bin_counts, b.bin_counts)
    np.testing.assert_array_equal(a.bin_edges, b.bin_edges)


def test_fitted_mean_equals_sample_mean(onebus):
    es = unbounded_onebus_set(onebus, 1.0)
    study = SimulationStudy(n_samples=200, seed=5, q_star=10.0, radius=1.0)
    report = run_simulation(onebus, frozenset(), es, study)
    assert report.mean == pytest.approx(float(np.mean(report.costs)),
                                        abs=1e-12)
    assert report.std == pytest.approx(float(np.std(report.costs)), abs=1e-12)
    assert report.quantiles[0.5] == pytest.approx(
        float(np.quantile(report.costs, 0.5)))


def test_clipping_counted_when_spread_crosses_zero(onebus):
    wide = unbounded_onebus_set(onebus, 1.0, std=(60.0, 30.0))
    study = SimulationStudy(n_samples=400, seed=4, q_star=1.0, radius=1.0)
    report = run_simulation(onebus, frozenset(), wide, study)
    assert report.clipped_samples > 0
    assert report.failed_samples == 0
    assert int(np.sum(report.bin_counts)) == study.n_samples

    narrow = unbounded_onebus_set(onebus, 1.0, std=(5.0, 3.0))
    report2 = run_simulation(onebus, frozenset(), narrow, study)
    assert report2.clipped_samples == 0


def test_dimension_mismatch_rejected(onebus):
    es = EllipsoidalSet(np.array([50.0]), np.array([[4.0]]), 1.0)
    study = SimulationStudy(n_samples=10, seed=0, q_star=1.0, radius=1.0)
    with pytest.raises(ValidationError):
        run_simulation(onebus, frozenset(), es, study)


@pytest.fixture(scope="module")
def garver_study():
    cfg = load_study_config(study_path("garver6_study"))
    net = load_configured_network(cfg)
    return net, build_uncertainty(cfg, net)


def garver_plans(net):
    """The bundled plan and two seeded random selections of candidates."""
    ids = [ln.id for ln in net.candidate_lines]
    rng = np.random.default_rng(12)
    return [frozenset({"C2-6a", "C2-6b", "C2-6c", "C3-5a", "C3-5b",
                       "C4-6a", "C4-6b"})] + [
        frozenset(rng.choice(ids, size=size, replace=False).tolist())
        for size in (3, 6)]


@pytest.mark.parametrize("plan", range(3))
@pytest.mark.parametrize("spread", [1.0, 3.0])
def test_batch_pricing_matches_one_dispatch_lp_per_draw(garver_study, plan, spread):
    net, es = garver_study
    built = garver_plans(net)[plan]
    es = EllipsoidalSet(es.mean, spread**2 * es.covariance, es.radius)
    draws = sample_scenarios(es, 300, seed=plan)
    sols = [solve_opf(net, d=d, built=built) for d in draws]
    want = np.array([sol.objective for sol in sols])
    # A threshold between two sampled costs, so one-ulp differences in a
    # cost cannot move the non-exceedance.
    ordered = np.sort(want)
    q_star = 0.5 * (ordered[240] + ordered[241])
    study = SimulationStudy(n_samples=300, seed=plan, q_star=q_star, radius=1.0)
    report = run_simulation(net, built, es, study)
    np.testing.assert_allclose(report.costs, want, rtol=1e-9, atol=0.0)
    assert report.non_exceedance == float(np.sum(want <= q_star)) / 300
    assert report.clipped_samples == sum(sol.clipped > 0 for sol in sols)
    assert report.failed_samples == 0
    if spread > 1.0:
        assert report.clipped_samples > 0


def record_solves(monkeypatch, fail_at=None):
    """Wrap ``montecarlo.solve_opf``, recording each call's ``warm`` and
    result (``None`` when it raised); call ``fail_at`` (1-based) raises."""
    real = montecarlo.solve_opf
    calls = []

    def recording(*args, warm=None, **kwargs):
        calls.append([warm, None])
        if len(calls) == fail_at:
            raise NumericalError("injected")
        sol = real(*args, warm=warm, **kwargs)
        calls[-1][1] = sol
        return sol

    monkeypatch.setattr(montecarlo, "solve_opf", recording)
    return calls


def test_failed_cold_solve_counts_once(garver_study, monkeypatch):
    net, es = garver_study
    built = garver_plans(net)[0]
    calls = record_solves(monkeypatch, fail_at=1)
    study = SimulationStudy(n_samples=100, seed=3, q_star=1e9, radius=1.0)
    report = run_simulation(net, built, es, study)
    # No solve has succeeded yet, so the next one is cold too.
    assert calls[1][0] is None
    assert report.failed_samples == 1
    assert np.isnan(report.costs[0])
    assert np.all(np.isfinite(report.costs[1:]))
    assert int(np.sum(report.bin_counts)) == 99
    assert report.non_exceedance == 0.99


def test_only_the_first_dispatch_solve_is_cold(garver_study, monkeypatch):
    net, es = garver_study
    calls = record_solves(monkeypatch)
    study = SimulationStudy(n_samples=1000, seed=3, q_star=1e9, radius=1.0)
    report = run_simulation(net, garver_plans(net)[0], es, study)
    assert len(calls) >= 3
    assert [warm is None for warm, _ in calls] == [True] + [False] * (len(calls) - 1)
    # Each solve starts from the basis of the one before it.
    for (_, before), (warm, _) in zip(calls, calls[1:]):
        assert warm is before.basis
    assert report.dispatch_solves == len(calls)
    assert report.failed_samples == 0


def test_failed_warm_solve_keeps_the_last_basis(garver_study, monkeypatch):
    net, es = garver_study
    calls = record_solves(monkeypatch, fail_at=2)
    study = SimulationStudy(n_samples=1000, seed=3, q_star=1e9, radius=1.0)
    report = run_simulation(net, garver_plans(net)[0], es, study)
    assert len(calls) >= 3
    assert report.failed_samples == 1
    assert calls[1][1] is None
    assert calls[2][0] is calls[0][1].basis
    assert int(np.sum(np.isnan(report.costs))) == 1
    assert report.dispatch_solves == len(calls)
    assert int(np.sum(report.bin_counts)) == 999


# ---------------------------------------------------------------------------
# Wilson interval


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(975, 1000)
    assert lo == pytest.approx(0.9633547107321566, abs=1e-12)
    assert hi == pytest.approx(0.9830098687065659, abs=1e-12)


def test_wilson_interval_exact_at_the_ends():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0
    assert 0.0 < hi < 1.0
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0
    assert 0.0 < lo < 1.0
    # k and n - k successes give mirrored intervals.
    for k in range(11):
        lo, hi = wilson_interval(k, 10)
        mirror_lo, mirror_hi = wilson_interval(10 - k, 10)
        assert lo == pytest.approx(1.0 - mirror_hi, abs=1e-15)
        assert hi == pytest.approx(1.0 - mirror_lo, abs=1e-15)


def test_report_interval_brackets_non_exceedance(onebus):
    report = sample_report(onebus)
    assert report.non_exceedance_lo < report.non_exceedance < report.non_exceedance_hi
    below = round(report.non_exceedance * report.n_samples)
    assert (report.non_exceedance_lo, report.non_exceedance_hi) == wilson_interval(
        below, report.n_samples)


# ---------------------------------------------------------------------------
# histogram shape


def test_histogram_rule_known_data():
    # 1000 evenly spread points: bin width 2*IQR/cbrt(1000) ~ span/10.
    costs = np.linspace(0.0, 999.0, 1000)
    edges, counts = _histogram(costs)
    assert counts.size == 10
    assert int(np.sum(counts)) == 1000


def test_histogram_single_sample_single_bin():
    edges, counts = _histogram(np.array([42.0]))
    assert counts.size == 1
    assert counts[0] == 1
    assert edges[0] < 42.0 < edges[1]


def test_histogram_minimum_bin_count():
    rng = np.random.default_rng(0)
    edges, counts = _histogram(rng.normal(size=30))
    assert counts.size >= 10
    assert int(np.sum(counts)) == 30


# ---------------------------------------------------------------------------
# report files


def sample_report(onebus, n=150, seed=6):
    es = unbounded_onebus_set(onebus, 1.0)
    study = SimulationStudy(n_samples=n, seed=seed, q_star=9.5, radius=1.0)
    return run_simulation(onebus, frozenset({}), es, study)


def test_csv_round_trip(onebus, tmp_path):
    report = sample_report(onebus)
    path = tmp_path / "report.csv"
    emit_report(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    summary = {r[1]: r[2] for r in rows if r[0] == "summary"}
    bins = [r[1:] for r in rows if r[0] == "bin"]
    assert len(summary) + len(bins) == len(rows)
    edges = [float(b[0]) for b in bins] + [float(bins[-1][1])]
    np.testing.assert_array_equal([int(b[2]) for b in bins], report.bin_counts)
    np.testing.assert_array_equal(edges, report.bin_edges)
    assert [float(b[1]) for b in bins[:-1]] == edges[1:-1]
    assert int(summary["n_samples"]) == report.n_samples
    assert float(summary["non_exceedance"]) == report.non_exceedance
    assert float(summary["q_star"]) == report.q_star
    assert float(summary["mean"]) == report.mean
    assert int(summary["clipped_samples"]) == report.clipped_samples
    assert int(summary["dispatch_solves"]) == report.dispatch_solves
    assert float(summary["non_exceedance_lo"]) == report.non_exceedance_lo
    assert float(summary["non_exceedance_hi"]) == report.non_exceedance_hi
