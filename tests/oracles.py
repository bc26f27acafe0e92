"""Independent brute-force oracles used to pin expected values in tests.

Nothing here shares code with the solvers under test: LP optima come from
exhaustive vertex enumeration, mixed-binary optima from enumerating every
binary assignment, and constrained-maximization references from dense random
sampling with local refinement, exhaustive enumeration of active bounds, or
(with SciPy) the Lagrangian dual.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from arotnep.simplex import LinearProgram


def lp_vertex_optimum(lp: LinearProgram, tol: float = 1e-8):
    """Optimum of a small LP by enumerating candidate vertices.

    Valid for bounded feasible regions that have vertices (always true for
    the box-constrained instances used in the tests). Returns
    ``(status, objective, x)`` with status ``"optimal"`` or ``"infeasible"``.
    """
    n = lp.n_vars
    rows = []  # (coef, rhs) of candidate active constraints
    for i in range(lp.b_ub.size):
        rows.append((lp.a_ub[i], lp.b_ub[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lower[j]):
            rows.append((e, lp.lower[j]))
        if np.isfinite(lp.upper[j]):
            rows.append((e.copy(), lp.upper[j]))

    m_eq = lp.b_eq.size
    need = n - m_eq
    if need < 0:
        raise ValueError("more equality rows than variables")

    scale = 1.0 + max(
        float(np.max(np.abs(lp.b_ub))) if lp.b_ub.size else 0.0,
        float(np.max(np.abs(lp.b_eq))) if lp.b_eq.size else 0.0,
        float(np.max(np.abs(lp.upper[np.isfinite(lp.upper)]), initial=0.0)),
        float(np.max(np.abs(lp.lower[np.isfinite(lp.lower)]), initial=0.0)),
    )
    feas_tol = tol * scale

    best_obj = None
    best_x = None
    for combo in itertools.combinations(range(len(rows)), need):
        A = np.vstack([lp.a_eq] + [rows[i][0] for i in combo]) if m_eq else (
            np.vstack([rows[i][0] for i in combo]) if combo else np.zeros((0, n)))
        b = np.concatenate([lp.b_eq, [rows[i][1] for i in combo]]) if m_eq else (
            np.array([rows[i][1] for i in combo]))
        if A.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if lp.b_ub.size and np.any(lp.a_ub @ x - lp.b_ub > feas_tol):
            continue
        if np.any(x - lp.upper > feas_tol) or np.any(lp.lower - x > feas_tol):
            continue
        if lp.b_eq.size and np.max(np.abs(lp.a_eq @ x - lp.b_eq)) > feas_tol:
            continue
        obj = float(lp.objective @ x)
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best_x = x
    if best_obj is None:
        return "infeasible", np.nan, None
    return "optimal", best_obj, best_x


def milp_enumerate_optimum(lp: LinearProgram, binary, tol: float = 1e-8):
    """Optimum of a small mixed-binary program, ``lp`` with the variables
    ``binary`` restricted to {0, 1}, by trying every assignment.

    Binaries are substituted out and each continuous remainder is solved by
    :func:`lp_vertex_optimum`, so the reference shares nothing with the
    branch-and-bound code under test. Returns ``(status, objective, x)``.
    """
    bin_idx = np.asarray(binary, dtype=np.int64)
    cont_idx = np.setdiff1d(np.arange(lp.n_vars), bin_idx)
    best_obj = None
    best_x = None
    for bits in itertools.product((0.0, 1.0), repeat=bin_idx.size):
        xb = np.array(bits)
        if np.any(xb < lp.lower[bin_idx] - tol) or np.any(xb > lp.upper[bin_idx] + tol):
            continue
        const = float(lp.objective[bin_idx] @ xb)
        b_ub = lp.b_ub - lp.a_ub[:, bin_idx] @ xb if lp.b_ub.size else lp.b_ub
        b_eq = lp.b_eq - lp.a_eq[:, bin_idx] @ xb if lp.b_eq.size else lp.b_eq
        if cont_idx.size == 0:
            ok = True
            if b_ub.size and np.any(b_ub < -tol):
                ok = False
            if b_eq.size and np.any(np.abs(b_eq) > tol):
                ok = False
            if not ok:
                continue
            obj, x = const, np.zeros(0)
        else:
            sub = LinearProgram(lp.objective[cont_idx],
                                a_eq=lp.a_eq[:, cont_idx] if lp.b_eq.size else None,
                                b_eq=b_eq if lp.b_eq.size else None,
                                a_ub=lp.a_ub[:, cont_idx] if lp.b_ub.size else None,
                                b_ub=b_ub if lp.b_ub.size else None,
                                lower=lp.lower[cont_idx], upper=lp.upper[cont_idx])
            status, sub_obj, x = lp_vertex_optimum(sub, tol)
            if status != "optimal":
                continue
            obj = sub_obj + const
        if best_obj is None or obj < best_obj:
            best_obj = obj
            full = np.empty(lp.n_vars)
            full[bin_idx] = xb
            if cont_idx.size:
                full[cont_idx] = x
            best_x = full
    if best_obj is None:
        return "infeasible", np.nan, None
    return "optimal", best_obj, best_x


def ellipsoid_box_argmax(rng: np.random.Generator, eta, mean, cov, radius,
                         lower, upper, iters: int = 4000):
    """Near-optimal maximizer of ``eta @ d`` over an ellipsoid intersected
    with an interval box, by random search plus shrinking local refinement.

    Uses numpy's own Cholesky and solve, sharing nothing with the package's
    implementation. Returns ``(best_point, best_value)``; the value is a
    certified lower bound on the true maximum.
    """
    eta = np.asarray(eta, dtype=float)
    mean = np.asarray(mean, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = mean.size
    cov = np.asarray(cov, dtype=float)
    L = np.linalg.cholesky(cov)
    precision = np.linalg.inv(cov)
    scale = 1.0 + float(np.max(np.abs(mean)))
    limit = radius**2 * (1.0 + 1e-10) + 1e-12

    def feasible(points):
        delta = points - mean
        m2 = np.einsum("ij,jk,ik->i", delta, precision, delta)
        in_box = (np.all(points >= lower - 1e-12 * scale, axis=1)
                  & np.all(points <= upper + 1e-12 * scale, axis=1))
        return in_box & (m2 <= limit)

    best = np.clip(mean, lower, upper)
    best_val = float(eta @ best)

    def consider(points):
        nonlocal best, best_val
        ok = feasible(points)
        if ok.any():
            values = points[ok] @ eta
            top = int(np.argmax(values))
            if values[top] > best_val:
                best_val = float(values[top])
                best = points[ok][top]

    # Global phase: uniform draws over the whole ellipsoid, clipped to the box.
    z = rng.standard_normal((iters, n))
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
    r = radius * rng.uniform(size=(iters, 1)) ** (1.0 / n)
    consider(np.clip(mean + (z * r) @ L.T, lower, upper))

    # Local phase: proposals around the incumbent with a shrinking step.
    step = max(radius, 1e-6)
    per_round = max(iters // 80, 50)
    for _ in range(80):
        moves = 0.3 * step * rng.standard_normal((per_round, n)) @ L.T
        consider(np.clip(best + moves, lower, upper))
        step *= 0.82
    return best, best_val


def ellipsoid_box_linear_max(eta, mean, cov, radius, lower, upper,
                             tol: float = 1e-9):
    """Exact maximum of ``eta @ d`` over an ellipsoid intersected with a box,
    by brute-force enumeration of which coordinates sit at their bounds.

    Each of the 3^n free/at-lower/at-upper patterns leaves a lower-dimensional
    ellipsoid slice whose linear maximum follows from completing the square in
    the precision matrix; every candidate is feasibility-checked and the best
    feasible one wins. Exponential in the dimension — for n <= 6 or so.
    Returns ``(best_point, best_value)``.
    """
    eta = np.asarray(eta, dtype=float)
    mean = np.asarray(mean, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = mean.size
    # From the inverse Cholesky factor: inverting a near-singular covariance
    # directly loses the digits these checks need.
    linv = np.linalg.inv(np.linalg.cholesky(np.asarray(cov, dtype=float)))
    precision = linv.T @ linv
    r2 = radius**2
    box_tol = tol * (1.0 + float(np.max(np.abs(mean))))

    best_val = -np.inf
    best = None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        d = np.empty(n)
        free, fixed = [], []
        feasible = True
        for i, p in enumerate(pattern):
            if p == 0:
                free.append(i)
                continue
            bound = lower[i] if p == 1 else upper[i]
            if not np.isfinite(bound):
                feasible = False
                break
            d[i] = bound
            fixed.append(i)
        if not feasible:
            continue
        f_idx = np.array(free, dtype=int)
        a_idx = np.array(fixed, dtype=int)
        shift = d[a_idx] - mean[a_idx] if a_idx.size else np.zeros(0)
        if f_idx.size:
            p_ff = precision[np.ix_(f_idx, f_idx)]
            s_ff = np.linalg.inv(p_ff)
            if a_idx.size:
                p_fa = precision[np.ix_(f_idx, a_idx)]
                center = mean[f_idx] - s_ff @ (p_fa @ shift)
                schur = precision[np.ix_(a_idx, a_idx)] - p_fa.T @ s_ff @ p_fa
                rho2 = r2 - float(shift @ schur @ shift)
            else:
                center = mean[f_idx].copy()
                rho2 = r2
            if rho2 < -1e-12:
                continue
            rho2 = max(rho2, 0.0)
            e_f = eta[f_idx]
            quad = float(e_f @ s_ff @ e_f)
            if quad > 0.0:
                d[f_idx] = center + np.sqrt(rho2 / quad) * (s_ff @ e_f)
            else:
                d[f_idx] = center
            if (np.any(d[f_idx] < lower[f_idx] - box_tol)
                    or np.any(d[f_idx] > upper[f_idx] + box_tol)):
                continue
        delta = d - mean
        if float(delta @ precision @ delta) > r2 * (1.0 + 1e-8) + 1e-10:
            continue
        value = float(eta @ d)
        if value > best_val:
            best_val = value
            best = d.copy()
    return best, best_val


def ellipsoid_box_dual_max(eta, mean, cov, radius, lower, upper) -> float:
    """Maximum of ``eta @ d`` over an ellipsoid intersected with a box, as the
    minimum of its Lagrangian dual over the ellipsoid multiplier.

    For a multiplier ``w > 0`` the dual function is a box-constrained
    least-squares problem, solved by SciPy's BVLS; every value of it bounds
    the maximum from above, and strong duality holds because the mean lies
    inside the box and strictly inside the ellipsoid. Needs SciPy, and
    ``lower < upper`` in every coordinate (a BVLS requirement).
    """
    from scipy.optimize import lsq_linear, minimize_scalar

    eta = np.asarray(eta, dtype=float)
    mean = np.asarray(mean, dtype=float)
    L = np.linalg.cholesky(np.asarray(cov, dtype=float))
    R = np.linalg.inv(L)  # precision = R' R
    precision = R.T @ R
    target = L.T @ eta
    bounds = (np.asarray(lower, dtype=float) - mean, np.asarray(upper, dtype=float) - mean)
    r2 = float(radius) ** 2

    def dual(log_w: float) -> float:
        w = math.exp(log_w)
        delta = lsq_linear(R, target / w, bounds=bounds, method="bvls", tol=1e-14).x
        return float(eta @ delta - 0.5 * w * (delta @ precision @ delta - r2))

    w0 = math.sqrt(float(eta @ cov @ eta)) / max(float(radius), 1e-12)
    res = minimize_scalar(dual, bounds=(math.log(w0) - 30.0, math.log(w0) + 30.0),
                          method="bounded", options={"xatol": 1e-10})
    return float(eta @ mean) + float(res.fun)


def ellipsoid_box_kkt_residual(eta, d, mean, cov, radius, lower, upper) -> float:
    """How far ``d`` is from satisfying the optimality conditions of
    maximizing ``eta @ d`` on the boundary of the ellipsoid inside the box.

    ``eta - w inv(cov) (d - mean)`` must vanish on free coordinates and point
    outward at active bounds for some multiplier ``w >= 0``. Each candidate
    ``w`` that zeroes one coordinate is tried, and the smallest residual
    (normalized by the gradient magnitude) is combined with the ellipsoid
    and box violations. Exact optima score at rounding level.
    """
    eta = np.asarray(eta, dtype=float)
    d = np.asarray(d, dtype=float)
    mean = np.asarray(mean, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    delta = d - mean
    pull = np.linalg.solve(np.asarray(cov, dtype=float), delta)
    scale = 1.0 + float(np.max(np.abs(mean)))
    at_hi = d >= upper - 1e-9 * scale
    at_lo = d <= lower + 1e-9 * scale
    gnorm = float(np.max(np.abs(eta))) + 1e-30
    candidates = [eta[i] / pull[i] for i in range(d.size) if pull[i] != 0.0]
    stationarity = np.inf
    for w in [c for c in candidates if c >= 0.0] or [0.0]:
        g = eta - w * pull
        g = np.where(at_hi & ~at_lo, np.minimum(g, 0.0), g)
        g = np.where(at_lo & ~at_hi, np.maximum(g, 0.0), g)
        g = np.where(at_lo & at_hi, 0.0, g)
        stationarity = min(stationarity, float(np.max(np.abs(g))) / gnorm)
    on_boundary = abs(float(delta @ pull) - radius**2) / (1.0 + radius**2)
    box = max(float(np.max(d - upper, initial=0.0)), float(np.max(lower - d, initial=0.0)))
    return max(stationarity, on_boundary, box / scale)


def unit_sphere_linear_max(a: np.ndarray, rng: np.random.Generator | None = None,
                           grid: int = 4096, sweeps: int = 80) -> np.ndarray:
    """Maximizer of ``a @ u`` over the unit sphere, found numerically.

    A coarse grid of random directions seeds the search; pairwise plane
    rotations then ascend, each one placing the optimal angle for its
    coordinate pair. No normalization formula from the package is used, so
    this is an independent reference for linear maximization on a sphere
    (and, mapped through a Cholesky factor, on an ellipsoid boundary).
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    u = np.zeros(n)
    u[0] = 1.0
    if rng is not None and grid:
        z = rng.standard_normal((grid, n))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        u = z[int(np.argmax(z @ a))].copy()
    for _ in range(sweeps):
        moved = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                b = a[i] * u[i] + a[j] * u[j]
                c = a[j] * u[i] - a[i] * u[j]
                r = float(np.hypot(b, c))
                if r <= 0.0:
                    continue
                ct, st = b / r, c / r
                ui = ct * u[i] - st * u[j]
                uj = st * u[i] + ct * u[j]
                moved = max(moved, abs(ui - u[i]), abs(uj - u[j]))
                u[i], u[j] = ui, uj
        if moved <= 1e-15:
            break
    return u


def random_box_lp(rng: np.random.Generator, n: int, m_ub: int,
                  m_eq: int = 0) -> LinearProgram:
    """Feasible, bounded LP: a point inside the box satisfies every row."""
    c = rng.normal(size=n)
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 3.0, n)
    x0 = rng.uniform(lower, upper)
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = a_ub @ x0 + rng.uniform(0.05, 1.0, m_ub)
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = a_eq @ x0 if m_eq else None
    return LinearProgram(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                         lower=lower, upper=upper)


def layout_bytes(layout) -> dict[str, bytes]:
    """Bytes of every array a simplex layout keeps, by attribute, except its
    warm-start factorization ``last_factor``, which warm solves replace."""
    kept = {}
    for name, value in vars(layout).items():
        if name == "last_factor":
            continue
        for i, a in enumerate(value if isinstance(value, tuple) else (value,)):
            if isinstance(a, np.ndarray):
                kept[f"{name}[{i}]"] = a.tobytes()
    return kept
