"""Ellipsoidal uncertainty sets with optional box and direction limits.

The uncertain vector lives in
``{d : (d - mean)' inv(Sigma) (d - mean) <= radius**2}`` intersected with a
per-coordinate interval derived from half-widths and deviation signs:
coordinates marked ``-1`` may only fall below their mean (generator
capacities), ``+1`` only rise above it (demand loads), ``0`` move both ways.
The maximization helpers answer the question the worst-case subproblem asks
each sweep: given a cost gradient, which point of the set maximizes the
linearized cost? When neither the bare-ellipsoid maximizer nor the interval
corner is feasible, both limits bind and the step is exact: the Lagrangian
maximizer over the box is affine in the inverse ``t`` of the ellipsoid
multiplier between events where a coordinate reaches or leaves a bound, so
the step follows it from the mean, event by event, to the ellipsoid.

The probability helpers convert between the set radius and Gaussian
quantiles: a radius ``beta`` covers the cost distribution to level
``phi(beta)`` under the first-order approximation, so
``prob_exceedance(beta)`` is the tail mass above the planned quantile and
``soyster_beta(n, z)`` is the radius at which the ellipsoid reaches the
corner of the ``z``-sigma box in ``n`` dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# KKT residual to which a boundary solve is verified.
_KKT_TOL = 1e-8

# ---------------------------------------------------------------------------
# scalar probability helpers


def phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


def phi_inv(p: float) -> float:
    """Standard normal quantile; requires ``0 < p < 1``."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile level must lie strictly in (0, 1), got {p}")
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: the bracket can shrink no further
        if phi(mid) < p:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(4):  # Newton polish
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        if pdf <= 0.0:
            break
        x -= (phi(x) - p) / pdf
    return x


def prob_exceedance(beta: float) -> float:
    """First-order probability that the realized cost exceeds the radius-beta
    worst case: the upper Gaussian tail beyond ``beta``."""
    return phi(-float(beta))


def soyster_beta(n: int, z: float) -> float:
    """Radius at which the ellipsoid contains the full ``z``-sigma box corner
    in ``n`` dimensions; beyond it the set degenerates to interval robustness."""
    if n < 1:
        raise ValidationError(f"dimension must be at least 1, got {n}")
    if z <= 0.0:
        raise ValidationError(f"z must be positive, got {z}")
    return float(z) * math.sqrt(float(n))


def std_from_interval(half_width: np.ndarray, z: float) -> np.ndarray:
    """Standard deviations implied by symmetric ``z``-sigma intervals."""
    half_width = np.asarray(half_width, dtype=float)
    if z <= 0.0:
        raise ValidationError(f"z must be positive, got {z}")
    if np.any(half_width < 0.0):
        raise ValidationError("interval half-widths must be nonnegative")
    return half_width / float(z)


# ---------------------------------------------------------------------------
# linear algebra


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite
    matrix; any other raises :class:`ValidationError` naming the first
    failing leading minor (0-based)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        s = a[j, j] - np.dot(L[j, :j], L[j, :j])
        if s <= 0.0 or not np.isfinite(s):
            raise ValidationError(f"matrix is not positive definite (leading minor {j})")
        L[j, j] = math.sqrt(s)
        if j + 1 < n:
            L[j + 1:, j] = (a[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


# ---------------------------------------------------------------------------
# the set


@dataclass
class MaxLikelihoodPoint:
    """Result of a worst-case linearized step over the set."""

    point: np.ndarray
    zero_gradient: bool = False
    stage: str = "ellipsoid"


class EllipsoidalSet:
    """Frozen description of the uncertainty region; all operations are
    side-effect free."""

    def __init__(self, mean, covariance, radius, half_width=None, signs=None):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float)).copy()
        n = self.mean.size
        if not np.all(np.isfinite(self.mean)):
            raise ValidationError("mean has nonfinite entries")
        cov = np.asarray(covariance, dtype=float)
        if cov.shape != (n, n):
            raise ValidationError(
                f"covariance shape {cov.shape} does not match mean size {n}")
        if not np.all(np.isfinite(cov)):
            raise ValidationError("covariance has nonfinite entries")
        if np.max(np.abs(cov - cov.T)) > 1e-8 * (1.0 + np.max(np.abs(cov))):
            raise ValidationError("covariance must be symmetric")
        self.covariance = 0.5 * (cov + cov.T)
        self.chol = cholesky_lower(self.covariance)
        # From the factor: inverting a near-singular covariance directly
        # loses the digits the boundary solve's KKT check needs.
        chol_inv = np.linalg.inv(self.chol)
        self._precision = chol_inv.T @ chol_inv

        radius = float(radius)
        if radius < 0.0 or not np.isfinite(radius):
            raise ValidationError(f"radius must be finite and nonnegative, got {radius}")
        self.radius = radius

        if half_width is None:
            hw = np.full(n, np.inf)
        else:
            hw = np.atleast_1d(np.asarray(half_width, dtype=float)).copy()
            if hw.size != n:
                raise ValidationError("half_width size does not match mean")
            if np.any(hw < 0.0) or np.any(np.isnan(hw)):
                raise ValidationError("half-widths must be nonnegative")
        self.half_width = hw

        if signs is None:
            sg = np.zeros(n)
        else:
            sg = np.atleast_1d(np.asarray(signs, dtype=float)).copy()
            if sg.size != n:
                raise ValidationError("signs size does not match mean")
            if not set(np.unique(sg)).issubset({-1.0, 0.0, 1.0}):
                raise ValidationError("signs must be -1, 0 or +1")
        self.signs = sg

        self.lower = np.where(sg > 0, self.mean, self.mean - hw)
        self.upper = np.where(sg < 0, self.mean, self.mean + hw)

    @classmethod
    def from_std_and_correlation(cls, mean, std, correlation, radius,
                                 half_width=None, signs=None) -> "EllipsoidalSet":
        std = np.atleast_1d(np.asarray(std, dtype=float))
        if np.any(std <= 0.0):
            raise ValidationError("standard deviations must be positive")
        corr = np.asarray(correlation, dtype=float)
        if corr.shape != (std.size, std.size):
            raise ValidationError(f"correlation shape {corr.shape} does not match "
                                  f"{std.size} standard deviations")
        if not np.all(np.abs(np.diag(corr) - 1.0) <= 1e-9):
            raise ValidationError("correlation diagonal must be 1")
        cov = corr * np.outer(std, std)
        return cls(mean, cov, radius, half_width=half_width, signs=signs)

    @property
    def dim(self) -> int:
        return self.mean.size

    # -- geometry ---------------------------------------------------------------

    def _point(self, d) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        if d.shape != self.mean.shape:
            raise ValidationError(f"shape {d.shape} does not match the set's {self.mean.shape}")
        return d

    def mahalanobis_sq(self, d: np.ndarray) -> float:
        delta = self._point(d) - self.mean
        w = np.linalg.solve(self.chol, delta)
        return float(w @ w)

    def contains(self, d: np.ndarray, tol: float = 1e-9) -> bool:
        d = self._point(d)
        scale = 1.0 + float(np.max(np.abs(self.mean)))
        if np.any(d < self.lower - tol * scale) or np.any(d > self.upper + tol * scale):
            return False
        return self.mahalanobis_sq(d) <= self.radius**2 + tol * (1.0 + self.radius**2)

    def map_z(self, z: np.ndarray) -> np.ndarray:
        """Affine image ``mean + L z`` of unit-sphere coordinates."""
        z = np.asarray(z, dtype=float)
        return self.mean + z @ self.chol.T if z.ndim == 2 else self.mean + self.chol @ z

    def sample(self, rng: np.random.Generator, n_samples: int) -> np.ndarray:
        """Gaussian draws with the set's mean and covariance, one per row."""
        if n_samples < 1:
            raise ValidationError("n_samples must be at least 1")
        z = rng.standard_normal((n_samples, self.dim))
        return self.map_z(z)

    def pull_inside(self, d: np.ndarray) -> np.ndarray:
        """Clip to the interval limits, then shrink toward the mean until the
        ellipsoid holds; intervals contain the mean so shrinking never breaks
        them. Used to build feasible initial points."""
        clipped = np.clip(self._point(d), self.lower, self.upper)
        m2 = self.mahalanobis_sq(clipped)
        if m2 <= self.radius**2 or m2 <= 0.0:
            return clipped
        scale = self.radius / math.sqrt(m2)
        return self.mean + (clipped - self.mean) * scale

    # -- worst-case steps -------------------------------------------------------

    def bounded_step(self, eta: np.ndarray) -> MaxLikelihoodPoint:
        """Maximizer of ``eta @ d`` over the ellipsoid intersected with the
        interval limits.

        Tries, in order: the closed-form bare-ellipsoid maximizer (kept when
        it respects the intervals), the interval maximizer (kept when it
        respects the ellipsoid), and otherwise an exact boundary solve that
        follows the box-constrained Lagrangian maximizer from the mean to the
        ellipsoid, verified to a KKT residual of ``_KKT_TOL``. A vanishing
        gradient flags ``zero_gradient``; a nonfinite one raises
        :class:`ValidationError`.
        """
        eta = self._point(eta)
        if not np.all(np.isfinite(eta)):
            raise ValidationError("gradient has nonfinite entries")
        sig_eta = self.covariance @ eta
        denom_sq = float(eta @ sig_eta)
        if denom_sq <= 0.0 or float(np.max(np.abs(eta))) <= 1e-12:
            return MaxLikelihoodPoint(self.mean.copy(), zero_gradient=True)
        d = self.mean + self.radius * sig_eta / math.sqrt(denom_sq)
        scale = 1.0 + float(np.max(np.abs(self.mean)))
        if np.all(d >= self.lower - 1e-9 * scale) and np.all(d <= self.upper + 1e-9 * scale):
            return MaxLikelihoodPoint(np.clip(d, self.lower, self.upper))

        box_pt = np.where(eta > 0, self.upper, np.where(eta < 0, self.lower, self.mean))
        # The interval maximizer only exists when every active coordinate has
        # a finite limit in its improving direction.
        if np.all(np.isfinite(box_pt)) and \
                self.mahalanobis_sq(box_pt) <= self.radius**2 * (1.0 + 1e-12) + 1e-12:
            return MaxLikelihoodPoint(box_pt, stage="box")

        d = self._boundary_solve(eta)
        return MaxLikelihoodPoint(d, stage="boundary")

    def _boundary_solve(self, eta: np.ndarray) -> np.ndarray:
        """Maximizer of ``eta @ d`` when the ellipsoid and the box both bind.

        With ``t = 1/omega`` for the ellipsoid multiplier ``omega``, the
        Lagrangian maximizer over the box is ``mean + delta(t)``, where
        ``delta(t)`` minimizes ``delta' Q delta / 2 - t eta' delta`` over the
        box (``Q`` the precision matrix). ``delta(t)`` is continuous and
        piecewise affine, starts at ``delta(0) = 0`` because the box holds
        the mean, and ``delta(t)' Q delta(t)`` is nondecreasing. The solve
        follows the path from ``t = 0`` one event at a time: on each piece a
        coordinate is free or held at a bound and ``delta = t a + b``; the
        piece ends where a free coordinate reaches a bound or a held one's
        multiplier ``g = Q delta - t eta`` changes sign. On the piece where
        ``delta' Q delta`` reaches ``radius**2`` the crossing is a root of a
        quadratic; a path that never reaches it ends at the box maximizer,
        which lies inside the ellipsoid and is returned as is.
        """
        if self.radius <= 0.0:
            return self.mean.copy()
        Q = self._precision
        r2 = self.radius**2
        lo = self.lower - self.mean
        hi = self.upper - self.mean
        fixed = lo == hi
        # -1 held at the lower bound, +1 at the upper, 0 free. Every
        # coordinate starts free but a fixed one; one that leaves the box at
        # once reaches its bound at t = 0.
        side = fixed.astype(np.int8)
        t = 0.0
        for _ in range(100 * (self.dim + 1)):
            free = side == 0
            F = np.flatnonzero(free)
            a = np.zeros(self.dim)
            b = np.where(side > 0, hi, np.where(side < 0, lo, 0.0))
            if F.size:
                rhs = np.column_stack((eta[F], -(Q[np.ix_(F, ~free)] @ b[~free])))
                ab = np.linalg.solve(Q[np.ix_(F, F)], rhs)
                a[F] = ab[:, 0]
                b[F] = ab[:, 1]
            qa = Q @ a
            qb = Q @ b
            ga = qa - eta  # g = t ga + qb
            with np.errstate(divide="ignore", invalid="ignore"):
                event = np.where(a > 0.0, (hi - b) / a, np.where(a < 0.0, (lo - b) / a, np.inf))
                event = np.where(free, event,
                                 np.where((side * ga > 0.0) & ~fixed, -qb / ga, np.inf))
            j = int(np.argmin(event))
            t_next = max(float(event[j]), t)
            if t_next == math.inf:
                if not np.any(a):
                    # delta stays at b for every larger t, inside the
                    # ellipsoid: b is the box maximizer.
                    return self.mean + b
                break
            if t_next * (t_next * float(a @ qa) + 2.0 * float(a @ qb)) + float(b @ qb) >= r2:
                break
            t = t_next
            side[j] = 0 if side[j] else (1 if a[j] > 0.0 else -1)
        else:
            raise NumericalError("worst-case boundary solve did not reach the ellipsoid")

        # The crossing on the final piece, measured as mahalanobis_sq does.
        w = np.linalg.solve(self.chol, np.column_stack((a, b)))
        root = _upper_root(float(w[:, 0] @ w[:, 0]), float(w[:, 0] @ w[:, 1]),
                           float(w[:, 1] @ w[:, 1]) - r2)
        d = self.mean + (root * a + b)
        resid = self._kkt_residual(eta, d, 1.0 / root) if root > 0.0 else math.nan
        if not resid <= _KKT_TOL:
            raise NumericalError(
                f"worst-case boundary solve left a KKT residual of {resid:.2e}")
        return d

    def _kkt_residual(self, eta: np.ndarray, d: np.ndarray, omega: float) -> float:
        """Stationarity and feasibility residual of the boundary solve,
        normalized by the gradient magnitude."""
        gnorm = float(np.max(np.abs(eta))) + 1e-30
        delta = d - self.mean
        grad = eta - omega * (self._precision @ delta)
        scale = 1.0 + float(np.max(np.abs(self.mean)))
        res = 0.0
        for i in range(self.dim):
            at_hi = d[i] >= self.upper[i] - 1e-9 * scale
            at_lo = d[i] <= self.lower[i] + 1e-9 * scale
            g = grad[i]
            if at_hi and not at_lo:
                res = max(res, -g / gnorm if -g > 0 else 0.0)
            elif at_lo and not at_hi:
                res = max(res, g / gnorm if g > 0 else 0.0)
            elif not at_lo and not at_hi:
                res = max(res, abs(g) / gnorm)
        m2 = self.mahalanobis_sq(d)
        res = max(res, abs(m2 - self.radius**2) / (1.0 + self.radius**2))
        box_viol = max(float(np.max(d - self.upper, initial=0.0)),
                       float(np.max(self.lower - d, initial=0.0)))
        res = max(res, box_viol / scale)
        return res


def _upper_root(qa: float, qb: float, qc: float) -> float:
    """Larger root of ``qa t**2 + 2 qb t + qc`` (``nan`` if there is none)."""
    disc = qb * qb - qa * qc
    if qa <= 0.0 or disc < 0.0:
        return math.nan
    s = math.sqrt(disc)
    return (s - qb) / qa if qb <= 0.0 else -qc / (qb + s)

