"""Ellipsoidal uncertainty sets with optional box and direction limits.

The uncertain vector lives in
``{d : (d - mean)' inv(Sigma) (d - mean) <= radius**2}`` intersected with a
per-coordinate interval derived from half-widths and deviation signs:
coordinates marked ``-1`` may only fall below their mean (generator
capacities), ``+1`` only rise above it (demand loads), ``0`` move both ways.
The maximization helpers answer the question the worst-case subproblem asks
each sweep: given a cost gradient, which point of the set maximizes the
linearized cost? When neither the bare-ellipsoid maximizer nor the interval
corner is feasible, both limits bind and the step is exact: for the inverse
``t`` of the ellipsoid multiplier, a primal active-set method solves the
box-constrained quadratic program of the Lagrangian, and because its
solution is affine in ``t`` while the active set holds, the ``t`` that puts
it on the ellipsoid follows from a quadratic equation, safeguarded by a
bisection bracket. A few such steps suffice.

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
        respects the ellipsoid), and otherwise an exact boundary solve — an
        active-set box QP for each trial value of the inverse ellipsoid
        multiplier, with the multiplier found in closed form per active set
        inside a bisection bracket — verified to a KKT residual of
        ``_KKT_TOL``. A vanishing gradient flags ``zero_gradient``.
        """
        eta = self._point(eta)
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
        box (``Q`` the precision matrix). ``delta(t)' Q delta(t)`` is
        nondecreasing and piecewise quadratic in ``t``: while the active set
        holds, ``delta(t) = t a + b``. Each iteration solves the box QP at
        ``t``, narrows a bracket on the sign of the excess over
        ``radius**2``, and moves to the closed-form root of the current
        piece when it lies inside the bracket; otherwise it bisects, or
        doubles ``t`` while the bracket is still open above.
        """
        if self.radius <= 0.0:
            return self.mean.copy()
        Q = self._precision
        r2 = self.radius**2
        lo = self.lower - self.mean
        hi = self.upper - self.mean
        fixed = lo == hi
        # Start from the clipped bare-ellipsoid maximizer and its multiplier.
        t = self.radius / math.sqrt(float(eta @ self.covariance @ eta))
        delta = np.clip(t * (self.covariance @ eta), lo, hi)
        side = np.where(delta <= lo, -1, np.where(delta >= hi, 1, 0)).astype(np.int8)
        t_lo, t_hi = 0.0, math.inf
        for _ in range(200):
            delta, side, a, b = _box_qp(Q, eta, t, lo, hi, delta, side)
            omega = 1.0 / t
            excess = float(delta @ Q @ delta) - r2
            if abs(excess) <= 1e-12 * (1.0 + r2):
                break
            if excess < 0.0:
                t_lo = t
            else:
                t_hi = t
            qa = Q @ a
            root = _upper_root(float(a @ qa), float(b @ qa), float(b @ Q @ b) - r2)
            if t_lo < root < t_hi:
                t = root
            elif math.isfinite(t_hi):
                mid = 0.5 * (t_lo + t_hi)
                if not t_lo < mid < t_hi:
                    break
                t = mid
            elif np.any(a) or np.any((side * eta < 0.0) & ~fixed):
                t *= 2.0  # delta still grows, or a bound releases further out
            else:
                # This active set holds for every larger t with delta fixed
                # inside the ellipsoid: the ellipsoid does not bind, and the
                # point maximizes eta @ d over the box.
                return self.mean + delta

        d = self.mean + delta
        resid = self._kkt_residual(eta, d, omega)
        if resid > _KKT_TOL:
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


def _box_qp(Q: np.ndarray, eta: np.ndarray, t: float, lo: np.ndarray, hi: np.ndarray,
            x: np.ndarray, side: np.ndarray):
    """Minimizer of ``x' Q x / 2 - t eta' x`` over ``lo <= x <= hi`` for
    symmetric positive definite ``Q``, by the primal active-set method with
    step lengths (Nocedal & Wright, *Numerical Optimization*, Alg. 16.3).

    Starts from the feasible ``x`` with working set ``side`` (``-1`` held at
    the lower bound, ``+1`` at the upper, ``0`` free), which must hold every
    coordinate that sits at a bound. Returns the minimizer, its working set
    and ``a``, ``b`` such that the minimizer is ``t a + b`` for as long as
    the working set stays optimal.

    Each pass either reaches the minimizer on the working set's face or
    stops at the first bound in the way and holds it. A bound is released
    only at a face minimizer whose multiplier is negative beyond rounding,
    so the objective falls strictly between face minimizers and no working
    set recurs: the method cannot cycle. The pass cap guards against
    rounding alone.
    """
    n = x.size
    x = x.copy()
    side = side.copy()
    fixed = lo == hi
    for _ in range(100 * (n + 1)):
        free = side == 0
        F = np.flatnonzero(free)
        a = np.zeros(n)
        b = np.where(free, 0.0, x)
        if F.size:
            held = ~free
            rhs = np.column_stack((eta[F], -(Q[np.ix_(F, held)] @ x[held])))
            ab = np.linalg.solve(Q[np.ix_(F, F)], rhs)
            a[F] = ab[:, 0]
            b[F] = ab[:, 1]
        step = t * a + b - x
        down = step < 0.0
        up = step > 0.0
        ratio = np.full(n, np.inf)
        ratio[down] = (lo[down] - x[down]) / step[down]
        ratio[up] = (hi[up] - x[up]) / step[up]
        alpha = max(float(np.min(ratio)), 0.0)
        if alpha < 1.0:
            hit = ratio <= alpha
            x += alpha * step
            x[hit & down] = lo[hit & down]
            x[hit & up] = hi[hit & up]
            side[hit & down] = -1
            side[hit & up] = 1
            continue
        x = np.clip(t * a + b, lo, hi)
        qx = Q @ x
        g = qx - t * eta
        mult = np.where(side < 0, g, -g)
        mult[free | fixed] = np.inf
        j = int(np.argmin(mult))
        tol = 1e-12 * (t * float(np.max(np.abs(eta))) + float(np.max(np.abs(qx))))
        if not mult[j] < -tol:
            return x, side, a, b
        side[j] = 0
    raise NumericalError("box-constrained QP of the boundary solve did not settle")
