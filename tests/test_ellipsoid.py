"""Uncertainty-set tests: probability helpers against tabulated normal
values, hand-rolled Cholesky against numpy, worst-case steps against a
sampling oracle, exhaustive active-bound enumeration, a Lagrangian-dual
reference and direct optimality conditions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arotnep.ellipsoid import (
    EllipsoidalSet,
    cholesky_lower,
    phi,
    phi_inv,
    prob_exceedance,
    soyster_beta,
    std_from_interval,
)
from arotnep.errors import NumericalError, ValidationError
from oracles import (
    ellipsoid_box_argmax,
    ellipsoid_box_dual_max,
    ellipsoid_box_kkt_residual,
    ellipsoid_box_linear_max,
)


def random_spd(rng, n, jitter=0.3):
    m = rng.normal(size=(n, n))
    return m @ m.T + jitter * np.eye(n)


# ---------------------------------------------------------------------------
# probability helpers


@pytest.mark.parametrize("x,p,tol", [
    (1.28155, 0.9, 1e-5),
    (2.3263, 0.99, 1e-5),
    (4.3, 0.99999146, 1e-8),
    (0.0, 0.5, 1e-15),
])
def test_normal_cdf_table_values(x, p, tol):
    assert phi(x) == pytest.approx(p, abs=tol)


def test_quantile_matches_table():
    assert phi_inv(0.9) == pytest.approx(1.28155, abs=1e-5)
    assert phi_inv(0.99) == pytest.approx(2.3263, abs=1e-4)
    assert phi_inv(0.99999146) == pytest.approx(4.3, abs=1e-3)


@pytest.mark.parametrize("p, bits", [
    (0.5, "-0x1.40d931ff62706p-54"),
    (0.9, "0x1.4813c36e26d32p+0"),
    (0.99, "0x1.29c5c4630ff0ap+1"),
    (1e-7, "-0x1.4cc1f26b18707p+2"),
    (1.0 - 1e-6, "0x1.30381a979549ap+2"),
])
def test_quantile_bits_are_pinned(p, bits):
    # Radii come from phi_inv, so its bisection may stop early only where
    # the bracket can shrink no further; every bit of the quantile stays.
    assert phi_inv(p) == float.fromhex(bits)


@given(st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_quantile_round_trip(p):
    assert phi(phi_inv(p)) == pytest.approx(p, abs=1e-12)


def test_exceedance_is_upper_tail():
    for beta in (0.0, 1.28155, 2.3263, 4.3):
        assert prob_exceedance(beta) == pytest.approx(1.0 - phi(beta), abs=1e-15)


def test_interval_radius_corner_rule():
    # With every parameter limited to z-sigma intervals, the corner of the
    # box sits at Euclidean z-distance z * sqrt(n).
    assert soyster_beta(8, 2.3263) == pytest.approx(2.3263 * math.sqrt(8.0), abs=1e-12)
    assert soyster_beta(8, 2.3263) == pytest.approx(6.58, abs=5e-3)
    assert soyster_beta(27, 2.3263) == pytest.approx(12.09, abs=5e-3)
    assert soyster_beta(145, 2.3263) == pytest.approx(28.0124, abs=5e-3)


def test_std_from_interval():
    hw = np.array([75.0, 180.0, 300.0])
    np.testing.assert_allclose(std_from_interval(hw, 2.3263), hw / 2.3263)
    with pytest.raises(ValidationError, match="z must be positive"):
        std_from_interval(hw, 0.0)
    with pytest.raises(ValidationError, match="half-widths must be nonnegative"):
        std_from_interval([-1.0], 2.0)


def test_probability_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValidationError, match="quantile level"):
            phi_inv(bad)
    with pytest.raises(ValidationError, match="dimension must be at least 1"):
        soyster_beta(0, 2.0)
    with pytest.raises(ValidationError, match="z must be positive"):
        soyster_beta(8, -1.0)


# ---------------------------------------------------------------------------
# Cholesky


@pytest.mark.parametrize("seed", range(8))
def test_cholesky_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    a = random_spd(rng, n)
    L = cholesky_lower(a)
    np.testing.assert_allclose(L, np.linalg.cholesky(a), atol=1e-10)
    np.testing.assert_allclose(L @ L.T, a, atol=1e-10)


def test_cholesky_failure_reports_minor_index():
    with pytest.raises(ValidationError, match=r"not positive definite \(leading minor 1\)"):
        cholesky_lower([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValidationError, match=r"not positive definite \(leading minor 0\)"):
        cholesky_lower([[0.0]])


def test_cholesky_rejects_nonsquare():
    with pytest.raises(ValidationError, match="expected a square matrix"):
        cholesky_lower(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# set construction and geometry


def test_constructor_validation():
    with pytest.raises(ValidationError, match="must be symmetric"):
        EllipsoidalSet([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]], 1.0)
    with pytest.raises(ValidationError, match="radius must be finite and nonnegative"):
        EllipsoidalSet([0.0], [[1.0]], -1.0)
    with pytest.raises(ValidationError, match="does not match mean size"):
        EllipsoidalSet([0.0, 0.0], [[1.0]], 1.0)
    with pytest.raises(ValidationError, match="signs must be"):
        EllipsoidalSet([0.0], [[1.0]], 1.0, signs=[2.0])
    with pytest.raises(ValidationError, match=r"not positive definite \(leading minor 1\)"):
        EllipsoidalSet([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], 1.0)
    with pytest.raises(ValidationError, match="mean has nonfinite entries"):
        EllipsoidalSet([np.nan, 1.0], np.eye(2), 1.0)
    with pytest.raises(ValidationError, match=r"correlation shape \(3, 3\) does not match 2"):
        EllipsoidalSet.from_std_and_correlation([0.0, 0.0], [1.0, 2.0], np.eye(3), 1.0)
    for diag in (2.0, 1.0 + 1e-8, np.nan):
        with pytest.raises(ValidationError, match="correlation diagonal must be 1"):
            EllipsoidalSet.from_std_and_correlation([0.0, 0.0], [1.0, 2.0],
                                                    [[diag, 0.5], [0.5, 1.0]], 1.0)


def test_contains_and_signs():
    es = EllipsoidalSet([10.0, 5.0], np.eye(2), 2.0,
                        half_width=[3.0, 3.0], signs=[-1.0, 1.0])
    assert es.contains([10.0, 5.0])
    assert es.contains([9.0, 6.0])
    assert not es.contains([10.5, 5.0])   # capacity above its mean
    assert not es.contains([10.0, 4.5])   # load below its mean
    assert not es.contains([10.0, 5.0 + 2.5])  # outside radius
    np.testing.assert_allclose(es.lower, [7.0, 5.0])
    np.testing.assert_allclose(es.upper, [10.0, 8.0])


def test_mahalanobis_equals_z_norm():
    rng = np.random.default_rng(3)
    cov = random_spd(rng, 4)
    es = EllipsoidalSet(rng.normal(size=4), cov, 1.5)
    for _ in range(20):
        z = rng.normal(size=4)
        d = es.map_z(z)
        assert es.mahalanobis_sq(d) == pytest.approx(float(z @ z), rel=1e-9, abs=1e-9)


def test_sample_moments():
    rng = np.random.default_rng(11)
    mean = np.array([4.0, -2.0, 7.0])
    cov = random_spd(rng, 3, jitter=0.5)
    es = EllipsoidalSet(mean, cov, 1.0)
    draws = es.sample(rng, 40_000)
    np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.05)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.12)


def test_pull_inside():
    rng = np.random.default_rng(9)
    cov = random_spd(rng, 3)
    es = EllipsoidalSet([5.0, 5.0, 5.0], cov, 1.0,
                        half_width=[1.0, 1.0, 1.0], signs=[-1.0, 1.0, 0.0])
    for _ in range(50):
        wild = rng.normal(scale=10.0, size=3)
        assert es.contains(es.pull_inside(wild), tol=1e-9)


# ---------------------------------------------------------------------------
# worst-case steps


# Without interval limits, bounded_step returns its closed-form stage.
def test_analytical_step_identity_covariance():
    es = EllipsoidalSet(np.zeros(3), np.eye(3), 2.0)
    eta = np.array([3.0, 0.0, 4.0])
    step = es.bounded_step(eta)
    assert not step.zero_gradient
    np.testing.assert_allclose(step.point, 2.0 * eta / 5.0, atol=1e-12)


def test_analytical_step_objective_value():
    rng = np.random.default_rng(21)
    cov = random_spd(rng, 5)
    mean = rng.normal(size=5)
    es = EllipsoidalSet(mean, cov, 1.7)
    eta = rng.normal(size=5)
    step = es.bounded_step(eta)
    want = float(eta @ mean) + 1.7 * math.sqrt(float(eta @ cov @ eta))
    assert float(eta @ step.point) == pytest.approx(want, rel=1e-12)
    assert es.mahalanobis_sq(step.point) == pytest.approx(1.7**2, rel=1e-9)


def test_analytical_step_zero_gradient_flag():
    es = EllipsoidalSet([1.0, 2.0], np.eye(2), 1.0)
    step = es.bounded_step([0.0, 0.0])
    assert step.zero_gradient
    np.testing.assert_allclose(step.point, [1.0, 2.0])


def test_bounded_step_equals_analytical_when_box_loose():
    rng = np.random.default_rng(31)
    cov = random_spd(rng, 4)
    es_free = EllipsoidalSet(np.zeros(4), cov, 1.2)
    es_box = EllipsoidalSet(np.zeros(4), cov, 1.2, half_width=np.full(4, 1e6))
    eta = rng.normal(size=4)
    np.testing.assert_allclose(es_box.bounded_step(eta).point,
                               es_free.bounded_step(eta).point, atol=1e-9)


def test_bounded_step_box_corner():
    # Huge radius: the intervals bind and the corner wins.
    es = EllipsoidalSet([0.0, 0.0], np.eye(2), 50.0, half_width=[1.0, 2.0])
    step = es.bounded_step(np.array([1.0, -1.0]))
    assert step.stage == "box"
    np.testing.assert_allclose(step.point, [1.0, -2.0], atol=1e-12)


def test_bounded_step_respects_signs():
    # The gradient rewards raising the first coordinate, but it is a
    # capacity-like parameter that may only fall.
    es = EllipsoidalSet([10.0, 10.0], np.eye(2), 1.0,
                        half_width=[5.0, 5.0], signs=[-1.0, 1.0])
    step = es.bounded_step(np.array([1.0, 1.0]))
    assert step.point[0] <= 10.0 + 1e-9
    assert step.point[1] >= 10.0 - 1e-9
    assert es.contains(step.point, tol=1e-7)


def test_bounded_step_boundary_case_2d():
    # Tight interval on one coordinate forces the curved-boundary solve.
    es = EllipsoidalSet([0.0, 0.0], np.eye(2), 2.0, half_width=[0.5, 10.0])
    eta = np.array([1.0, 1.0])
    step = es.bounded_step(eta)
    assert step.stage == "boundary"
    # Clamp the first coordinate, spend the rest of the radius on the second.
    want = np.array([0.5, math.sqrt(4.0 - 0.25)])
    np.testing.assert_allclose(step.point, want, atol=1e-7)


def test_bounded_step_zero_radius():
    es = EllipsoidalSet([3.0, 4.0], np.eye(2), 0.0, half_width=[1.0, 1.0])
    step = es.bounded_step(np.array([5.0, -2.0]))
    np.testing.assert_allclose(step.point, [3.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_bounded_step_beats_sampling_oracle(seed):
    rng = np.random.default_rng(6000 + seed)
    n = int(rng.integers(2, 7))
    cov = random_spd(rng, n)
    mean = rng.normal(scale=3.0, size=n)
    radius = float(rng.uniform(0.5, 3.0))
    half = rng.uniform(0.3, 3.0, size=n)
    signs = rng.choice([-1.0, 0.0, 1.0], size=n)
    es = EllipsoidalSet(mean, cov, radius, half_width=half, signs=signs)
    eta = rng.normal(size=n)
    step = es.bounded_step(eta)
    assert es.contains(step.point, tol=1e-7)
    _, oracle_val = ellipsoid_box_argmax(rng, eta, mean, cov, radius,
                                         es.lower, es.upper)
    ours = float(eta @ step.point)
    slack = 1e-6 * (1.0 + abs(oracle_val))
    assert ours >= oracle_val - slack


# ---------------------------------------------------------------------------
# the boundary solve (ellipsoid and intervals both bind)


def random_step_instance(seed):
    """Ellipsoid-and-interval step with 2 to 24 coordinates, a dense
    covariance whose smallest eigenvalue goes down to 1e-3, mixed deviation
    signs and half-widths."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    a = rng.normal(size=(n, n))
    cov = a @ a.T + 10.0 ** rng.uniform(-3.0, 0.0) * np.eye(n)
    mean = rng.normal(scale=3.0, size=n)
    radius = float(rng.uniform(0.3, 4.0))
    half = rng.uniform(0.05, 3.0, size=n)
    signs = rng.choice([-1.0, 0.0, 1.0], size=n)
    eta = rng.normal(size=n)
    return EllipsoidalSet(mean, cov, radius, half_width=half, signs=signs), eta


def assert_boundary_step_is_exact(es, eta):
    """The step takes the boundary solve and matches the 3^n enumeration."""
    step = es.bounded_step(eta)
    assert step.stage == "boundary"
    assert es.contains(step.point, tol=1e-9)
    want_point, want = ellipsoid_box_linear_max(eta, es.mean, es.covariance, es.radius,
                                                es.lower, es.upper)
    assert float(eta @ step.point) == pytest.approx(want, rel=1e-10, abs=1e-10)
    scale = 1.0 + float(np.max(np.abs(es.mean)))
    np.testing.assert_allclose(step.point, want_point, rtol=0.0, atol=1e-7 * scale)


def garver_sized_set(radius):
    """Three capacities that may only fall and five loads that may only
    rise, with the six-bus study's spreads and dense correlations."""
    mean = np.array([150.0, 360.0, 600.0, 80.0, 240.0, 40.0, 160.0, 240.0])
    frac = np.array([0.5] * 3 + [0.2] * 5)
    corr = np.full((8, 8), 0.1)
    corr[:3, :3] = -0.3
    corr[3:, 3:] = 0.6
    np.fill_diagonal(corr, 1.0)
    return EllipsoidalSet.from_std_and_correlation(
        mean, frac * mean / 2.3263, corr, radius,
        half_width=frac * mean, signs=[-1.0] * 3 + [1.0] * 5)


@pytest.mark.parametrize("seed", range(3))
def test_boundary_solve_garver_sized_correlations(seed):
    rng = np.random.default_rng(8100 + seed)
    # Dispatch-like gradients: spare capacity saves cost, extra load adds it.
    eta = np.concatenate([-rng.uniform(0.0, 80.0, 3), rng.uniform(10.0, 200.0, 5)])
    assert_boundary_step_is_exact(garver_sized_set(2.3263), eta)


@pytest.mark.parametrize("seed,n", [(196, 7), (201, 8), (259, 6)])
def test_boundary_solve_degenerate_active_sets(seed, n):
    # Instances on which releasing and fixing bounds by multiplier sign
    # alone (primal-dual active sets) cycles.
    es, eta = random_step_instance(seed)
    assert es.dim == n
    assert_boundary_step_is_exact(es, eta)


def test_boundary_solve_kkt_up_to_24_dimensions():
    boundary = 0
    for seed in range(40):
        es, eta = random_step_instance(seed)
        step = es.bounded_step(eta)
        assert es.contains(step.point, tol=1e-9)
        if step.stage == "boundary":
            boundary += 1
            resid = ellipsoid_box_kkt_residual(eta, step.point, es.mean, es.covariance,
                                               es.radius, es.lower, es.upper)
            assert resid <= 1e-8
    assert boundary >= 25


def test_boundary_solve_matches_lagrangian_dual():
    pytest.importorskip("scipy")
    checked = 0
    for seed in range(40):
        es, eta = random_step_instance(seed)
        step = es.bounded_step(eta)
        if step.stage != "boundary":
            continue
        want = ellipsoid_box_dual_max(eta, es.mean, es.covariance, es.radius,
                                      es.lower, es.upper)
        assert float(eta @ step.point) == pytest.approx(want, rel=1e-10, abs=1e-10)
        checked += 1
    assert checked >= 25


def near_singular_instance(seed):
    """Four coordinates with a rank-2 covariance plus 1e-9 times the
    identity, mixed deviation signs and half-widths."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 2))
    es = EllipsoidalSet(rng.normal(scale=3.0, size=4), a @ a.T + 1e-9 * np.eye(4),
                        rng.uniform(0.3, 4.0), half_width=rng.uniform(0.05, 3.0, size=4),
                        signs=rng.choice([-1.0, 0.0, 1.0], size=4))
    return es, rng.normal(size=4)


def test_boundary_solve_near_singular_covariance():
    # Rank-2 spread plus a 1e-9 floor: a precision matrix inverted from the
    # covariance itself lost enough digits here to fail the KKT check (seed
    # 7); one built from the Cholesky factor passes it. Oracles that inverted
    # the covariance raised or fell short of the step on seeds 1, 3 and 11.
    pytest.importorskip("scipy")
    for seed in (7, 1, 3, 11):
        es, eta = near_singular_instance(seed)
        assert_boundary_step_is_exact(es, eta)
        want = ellipsoid_box_dual_max(eta, es.mean, es.covariance, es.radius,
                                      es.lower, es.upper)
        assert float(eta @ es.bounded_step(eta).point) == pytest.approx(want, rel=1e-10,
                                                                         abs=1e-10)


def test_boundary_solve_stays_in_near_singular_sets():
    # The same rank-2 family over 400 seeds: a step may fail its KKT check,
    # but every point it returns lies in the set as mahalanobis_sq measures.
    returned = 0
    for seed in range(400):
        es, eta = near_singular_instance(seed)
        try:
            step = es.bounded_step(eta)
        except NumericalError:
            continue
        assert es.contains(step.point, tol=1e-9), seed
        returned += 1
    assert returned >= 300


def test_boundary_solve_zero_half_widths():
    rng = np.random.default_rng(8200)
    cov = random_spd(rng, 5)
    es = EllipsoidalSet(rng.normal(size=5), cov, 1.5,
                        half_width=[0.0, 0.4, 0.0, 0.3, 2.0],
                        signs=[0.0, 0.0, 1.0, 0.0, 0.0])
    eta = np.array([1.0, 2.0, -1.0, -1.5, 0.7])
    assert_boundary_step_is_exact(es, eta)
    step = es.bounded_step(eta)
    assert step.point[0] == es.mean[0] and step.point[2] == es.mean[2]


def test_boundary_solve_mixed_infinite_half_widths():
    rng = np.random.default_rng(8300)
    cov = random_spd(rng, 5)
    es = EllipsoidalSet(rng.normal(size=5), cov, 2.0,
                        half_width=[np.inf, 0.3, np.inf, 0.5, 0.2],
                        signs=[0.0, 0.0, 1.0, -1.0, 0.0])
    for eta in ([1.0, 1.0, 1.0, 1.0, 1.0], [-2.0, 0.5, 1.5, -1.0, 0.3]):
        assert_boundary_step_is_exact(es, np.array(eta))


def test_boundary_solve_gradient_with_exact_zeros():
    rng = np.random.default_rng(8400)
    cov = random_spd(rng, 6)
    es = EllipsoidalSet(rng.normal(size=6), cov, 1.0, half_width=np.full(6, 1.0),
                        signs=[1.0, -1.0, 0.0, 0.0, 1.0, 0.0])
    assert_boundary_step_is_exact(es, np.array([2.0, 0.0, -1.0, 0.0, 0.0, 3.0]))


def test_boundary_solve_slack_ellipsoid_on_flat_face():
    # The gradient ignores the second coordinate, so every point of the
    # face d0 = 1 maximizes over the box; the corner (1, 0) lies outside
    # the ellipsoid but (1, 0.9) lies inside it, so the ellipsoid does not
    # bind at the optimum.
    es = EllipsoidalSet([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]], 1.5, half_width=[1.0, 5.0])
    step = es.bounded_step(np.array([1.0, 0.0]))
    assert step.stage == "boundary"
    assert step.point[0] == pytest.approx(1.0, abs=1e-12)
    assert es.contains(step.point, tol=1e-12)


def test_boundary_solve_zero_radius_with_binding_limits():
    rng = np.random.default_rng(8500)
    es = EllipsoidalSet(rng.normal(size=4), random_spd(rng, 4), 0.0,
                        half_width=[0.0, 0.5, 1.0, 0.2], signs=[0.0, 1.0, -1.0, 0.0])
    for eta in ([1.0, 2.0, -3.0, 0.5], [0.0, -1.0, 1.0, 0.0]):
        step = es.bounded_step(np.array(eta))
        np.testing.assert_array_equal(step.point, es.mean)
