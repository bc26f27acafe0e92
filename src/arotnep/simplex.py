"""Dense linear programming with a bounded-variable revised simplex method.

The LP layer solves the one problem class the planner poses: minimize
``c @ x`` over equality rows, ``<=`` rows and bounds ``lower <= x <= upper``
with every lower bound finite (upper bounds may be ``+inf``). Any other
input, a non-finite lower bound included, raises :class:`ValidationError`.

The solver is deliberately self-contained: two-phase primal simplex over
bounded variables, a basis inverse with periodic refactorization, Dantzig
pricing with a switch to Bland's rule once a degeneracy counter trips, and
a bounded dual simplex used to warm-start from a dual-feasible basis after
bound changes (the branch-and-bound layer relies on this). Cold and warm
solves end alike: a primal polish that refactors and re-prices until the
optimum is clean, then extraction.

Basic slacks and artificials are signed unit columns, so a refactorization
inverts only the structural kernel of the basis (its structural columns on
the rows no unit column covers). Primal, dual and phase-1 pivots all go
through one basis change, :meth:`_Simplex._pivot`: it moves the basic
values along the entering column, puts the leaving variable on its bound
and updates the inverse. Only a refactorization recomputes the basic values
from scratch. The inverse takes one of two forms, chosen once per LP from
its row count:

* up to ``_DENSE_MAX_ROWS`` rows (a dispatch LP has 13) a dense ``B^-1``,
  filled in block form from the kernel inverse and updated in place by a
  rank-one product-form step;
* above it (a garver6 master has 225 to 807 rows, its kernel a median of
  273) the kernel pieces themselves plus an eta file, the product form of
  the inverse (Dantzig & Orchard-Hays, 1954): a pivot appends one eta
  column instead of an O(m^2) update, FTRAN (``B^-1 a``) and BTRAN
  (``u B^-1``) go through the kernel and then the etas, and products with
  the constraint matrix use its structural nonzeros and take the slack and
  artificial columns as the unit columns they are.

On master MILPs the kernel form costs more below about 145 rows and less
above about 180, which places the cutoff. An eta file drifts between
refactorizations. So before a pivot through a non-empty eta file the
solver refactors and redoes the iteration when the pivot element is tiny
next to its column or, in the dual simplex, disagrees with the same
element of the pivot row (BTRAN against FTRAN); and a non-finite basic
value after a kernel-form pivot raises :class:`NumericalError` (a warm
start then falls back to a cold solve).

Dual sign convention
--------------------
* ``duals_eq[i]``  is the gradient of the optimal objective with respect to
  ``b_eq[i]``.
* ``duals_ub[i]`` is nonnegative and the gradient with respect to
  ``b_ub[i]`` equals ``-duals_ub[i]``.
* ``reduced_costs[j]`` is the rate of change of the objective when variable
  ``j`` moves off its bound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"

# Nonbasic/basic markers.
_BASIC = 0
_AT_LOWER = 1
_AT_UPPER = 2

_REFACTOR_PERIOD = 100
_BLAND_TRIP = 40
# Bases with more rows keep the kernel-form inverse, smaller ones a dense
# one (see the module docstring for the measured crossover).
_DENSE_MAX_ROWS = 170

_log = logging.getLogger(__name__)


def _as_matrix(a, n_cols: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, n_cols))
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def _as_vector(v, length: int | None = None) -> np.ndarray:
    if v is None:
        return np.zeros(0 if length is None else length)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return v


@dataclass
class LinearProgram:
    """Standard-form LP: minimize ``c @ x`` over equality rows, ``<=`` rows
    and variable bounds (finite lower bounds, ``+inf`` upper bounds allowed)."""

    objective: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        self.objective = _as_vector(self.objective)
        n = self.objective.size
        self.a_eq = _as_matrix(self.a_eq, n)
        self.b_eq = _as_vector(self.b_eq, 0)
        self.a_ub = _as_matrix(self.a_ub, n)
        self.b_ub = _as_vector(self.b_ub, 0)
        self.lower = np.full(n, 0.0) if self.lower is None else _as_vector(self.lower)
        self.upper = np.full(n, np.inf) if self.upper is None else _as_vector(self.upper)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    def validate(self) -> None:
        n = self.n_vars
        for name, mat, rhs in (("a_eq", self.a_eq, self.b_eq), ("a_ub", self.a_ub, self.b_ub)):
            if mat.shape[1] != n:
                raise ValidationError(f"{name} has {mat.shape[1]} columns, expected {n}")
            if mat.shape[0] != rhs.size:
                raise ValidationError(f"{name} has {mat.shape[0]} rows but rhs has {rhs.size}")
            if not np.all(np.isfinite(mat)) or not np.all(np.isfinite(rhs)):
                raise ValidationError(f"nonfinite coefficient in {name} block")
        if self.lower.size != n or self.upper.size != n:
            raise ValidationError("bound vectors must match the variable count")
        if not np.all(np.isfinite(self.objective)):
            raise ValidationError("nonfinite objective coefficient")
        for what, bad in (("NaN bound", np.isnan(self.lower) | np.isnan(self.upper)),
                          ("non-finite lower bound", ~np.isfinite(self.lower)),
                          ("lower bound exceeds upper bound", self.lower > self.upper)):
            if np.any(bad):
                raise ValidationError(f"{what} for variable {int(np.argmax(bad))}")


@dataclass
class LPSolution:
    status: str
    x: np.ndarray | None = None
    objective: float = np.nan
    duals_eq: np.ndarray | None = None
    duals_ub: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0


@dataclass
class BasisState:
    """Snapshot of a simplex basis, reusable to warm-start a related LP."""

    basis: np.ndarray
    status: np.ndarray


class _Simplex:
    """Working state for one LP: columns are [structural | slacks | artificials]."""

    def __init__(self, lp: LinearProgram):
        lp.validate()
        self.lp = lp
        self.n = lp.n_vars
        self.m_eq = lp.b_eq.size
        self.m_ub = lp.b_ub.size
        self.m = self.m_eq + self.m_ub
        m, n = self.m, self.n
        self.n_slack = self.m_ub
        self.n_total = n + self.n_slack + m  # artificials: one per row

        A = np.zeros((m, self.n_total))
        A[: self.m_eq, :n] = lp.a_eq
        A[self.m_eq:, :n] = lp.a_ub
        slack_rows = np.arange(self.m_eq, m)
        A[slack_rows, n + slack_rows - self.m_eq] = 1.0
        # Artificials start as +e_i, so a warm basis that keeps one basic
        # (a redundant row) stays invertible; phase 1 flips the rows it
        # starts below their right-hand side.
        self.art = np.arange(n + self.n_slack, self.n_total)
        A[np.arange(m), self.art] = 1.0
        self.A = A
        self.b = np.concatenate([lp.b_eq, lp.b_ub])

        self.c = np.zeros(self.n_total)
        self.c[:n] = lp.objective

        self.lower = np.concatenate([lp.lower, np.zeros(self.n_slack + m)])
        self.upper = np.concatenate([lp.upper, np.full(self.n_slack, np.inf), np.full(m, np.inf)])

        # Row of each slack and artificial column; -1 marks structural ones.
        self._unit_row = np.concatenate([np.full(n, -1), slack_rows, np.arange(m)])
        self.basis = np.zeros(m, dtype=np.int64)
        self.stat = np.full(self.n_total, _AT_LOWER, dtype=np.int8)
        self.x = np.zeros(self.n_total)
        self.dense = m <= _DENSE_MAX_ROWS
        self.n_etas = 0
        if not self.dense:
            # Structural nonzeros: the kernel form multiplies by A through them.
            rows, cols = A[:, :n].nonzero()
            self._nz = (rows, cols, A[rows, cols])
            # Eta file (see _add_eta); a refactorization empties it.
            self._eta_k = np.zeros(0, dtype=np.int64)
            self._eta_w = np.zeros((0, m))
            self._eta_tri = self._eta_tri_inv = np.zeros((0, 0))
        self.iterations = 0
        self.max_iter = 200 * (m + n) + 2000
        bscale = float(np.max(np.abs(self.b))) if m else 0.0
        self.tol_p = 1e-9 * (1.0 + bscale)

    # -- linear algebra helpers -------------------------------------------------

    def _refactor(self) -> None:
        """Invert the basis through its structural kernel.

        With ``S`` the basis positions of unit columns, ``rows_s`` their
        rows, ``K`` the structural positions and ``R`` the rows no unit
        column covers, the basis is block triangular and only the kernel
        ``A[R, basis[K]]`` needs a dense inverse.  A dense-form basis
        assembles the full inverse from it; a kernel-form one keeps the
        pieces and starts an empty eta file."""
        basis = self.basis
        rows = self._unit_row[basis]
        unit = rows >= 0
        S = unit.nonzero()[0]
        K = (~unit).nonzero()[0]
        rows_s = rows[S]
        covered = np.zeros(self.m, dtype=bool)
        covered[rows_s] = True
        R = (~covered).nonzero()[0]
        sign = self.A[rows_s, basis[S]]
        # |R| > |K| exactly when two unit columns share a row.
        if R.size != K.size or not sign.all():
            raise NumericalError("singular basis during refactorization")
        cols_k = basis[K]
        try:
            minv = np.linalg.inv(self.A[R[:, None], cols_k])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular basis during refactorization") from exc
        if self.dense:
            binv = np.zeros((self.m, self.m))
            binv[K[:, None], R] = minv
            binv[S[:, None], R] = (self.A[rows_s[:, None], cols_k] @ minv) / -sign[:, None]
            binv[S, rows_s] = 1.0 / sign
            self.binv = binv
        else:
            # Nonzeros of the basic structural columns, by basis position.
            rows, cols, vals = self._nz
            pos = np.full(self.n, -1)
            pos[cols_k] = np.arange(K.size)
            sel = pos[cols] >= 0
            self._kernel = (K, R, S, rows_s, sign, minv, (rows[sel], pos[cols[sel]], vals[sel]))
            self.n_etas = 0
        self._recompute_basic_values()

    def _ftran(self, a: np.ndarray) -> np.ndarray:
        """``B^-1 a``: the kernel, then the unit rows, then the etas in order."""
        if self.dense:
            return self.binv @ a
        K, R, S, rows_s, sign, minv, (rows, pos, vals) = self._kernel
        v = np.empty(self.m)
        v[K] = x_k = minv @ a[R]
        a_k_x = np.bincount(rows, weights=vals * x_k[pos], minlength=self.m)
        v[S] = (a[rows_s] - a_k_x[rows_s]) / sign
        if self.n_etas:
            ks, w, tri, tri_inv = self._eta_file()
            b = v[ks]
            t = tri_inv @ b
            t += tri_inv @ (b - tri @ t)
            v -= t @ w
            v += np.bincount(ks, weights=t, minlength=self.m)
        return v

    def _btran(self, u: np.ndarray) -> np.ndarray:
        """``u @ B^-1``: the etas in reverse, then the unit rows, then the kernel."""
        if self.dense:
            return self.binv.T @ u
        K, R, S, rows_s, sign, minv, (rows, pos, vals) = self._kernel
        if self.n_etas:
            ks, w, tri, tri_inv = self._eta_file()
            g = w @ u - u[ks]
            s = g @ tri_inv
            s += (g - s @ tri) @ tri_inv
            u = u - np.bincount(ks, weights=s, minlength=self.m)
        y = np.zeros(self.m)
        y[rows_s] = u[S] / sign
        y[R] = (u[K] - np.bincount(pos, weights=vals * y[rows], minlength=K.size)) @ minv
        return y

    def _row(self, k: int) -> np.ndarray:
        """Row ``k`` of ``B^-1``."""
        if self.dense:
            return self.binv[k]
        e = np.zeros(self.m)
        e[k] = 1.0
        return self._btran(e)

    def _unit_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and sign of each slack and artificial column."""
        rows = self._unit_row[self.n:]
        return rows, self.A[rows, np.arange(self.n, self.n_total)]

    def _times_a(self, v: np.ndarray) -> np.ndarray:
        """``v @ A``; the kernel form goes through the structural nonzeros
        and takes the slack and artificial columns as signed unit columns."""
        if self.dense:
            return v @ self.A
        rows, cols, vals = self._nz
        unit_rows, signs = self._unit_columns()
        return np.concatenate([np.bincount(cols, weights=v[rows] * vals, minlength=self.n),
                               v[unit_rows] * signs])

    def _a_times(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``, formed like :meth:`_times_a`."""
        if self.dense:
            return self.A @ x
        rows, cols, vals = self._nz
        unit_rows, signs = self._unit_columns()
        return (np.bincount(rows, weights=vals * x[cols], minlength=self.m)
                + np.bincount(unit_rows, weights=signs * x[self.n:], minlength=self.m))

    def _recompute_basic_values(self) -> None:
        xfull = self.x.copy()
        xfull[self.basis] = 0.0
        resid = self.b - self._a_times(xfull)
        self.x[self.basis] = self._ftran(resid)

    def _update_inverse(self, w: np.ndarray, k: int) -> None:
        """Column ``k`` of the basis becomes the column whose ``B^-1`` image
        is ``w``: a rank-one update of a dense inverse, one more eta for a
        kernel-form one."""
        if self.dense:
            row = self.binv[k] / w[k]
            self.binv -= np.outer(w, row)
            self.binv[k] = row
        else:
            self._add_eta(k, w)

    def _add_eta(self, k: int, w: np.ndarray) -> None:
        """Append ``E_p``, the identity with column ``k`` replaced by ``w``.

        Applying ``E_1^-1 .. E_p^-1`` one by one (``t = v_k / w_k``,
        ``v -= w t``, ``v_k = t``) is a triangular recurrence in the ``t``:
        with ``d_i = w_i - e_{k_i}``, ``L[i, j] = d_j[k_i]`` below the
        diagonal and ``L[i, i] = w_i[k_i]``, FTRAN is ``t = L^-1 v[ks]``,
        ``v -= D' t`` and BTRAN is ``s = L^-T D u``, ``u -= P' s``.  The
        file keeps ``L`` and ``L^-1``, each growing by one row per eta;
        one refinement step against ``L`` keeps both transforms as accurate
        as applying the etas one at a time."""
        p = self.n_etas
        if p == self._eta_k.size:
            grow = max(p, _REFACTOR_PERIOD)
            ks, ws, tri, tri_inv = self._eta_file()
            self._eta_k = np.pad(ks, (0, grow))
            self._eta_w = np.pad(ws, ((0, grow), (0, 0)))
            self._eta_tri = np.pad(tri, (0, grow))
            self._eta_tri_inv = np.pad(tri_inv, (0, grow))
        ks, ws, tri, tri_inv = self._eta_k, self._eta_w, self._eta_tri, self._eta_tri_inv
        tri[p, :p] = ws[:p, k] - (ks[:p] == k)
        tri[p, p] = w[k]
        tri_inv[p, :p] = (tri[p, :p] @ tri_inv[:p, :p]) / -w[k]
        tri_inv[p, p] = 1.0 / w[k]
        tri[:p, p] = tri_inv[:p, p] = 0.0
        ks[p], ws[p] = k, w
        self.n_etas = p + 1

    def _eta_file(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pivot positions, eta columns, ``L`` and ``L^-1`` of the live etas."""
        p = self.n_etas
        return (self._eta_k[:p], self._eta_w[:p], self._eta_tri[:p, :p],
                self._eta_tri_inv[:p, :p])

    def _drifted(self, w: np.ndarray, k: int, alpha_k: float | None = None) -> bool:
        """Whether a non-empty eta file has drifted too far to pivot on
        ``w[k]``: the element disagrees with ``alpha_k``, the same element
        taken from the pivot row, or is tiny next to its column.  The caller
        then refactors and redoes the iteration; a dense inverse or a fresh
        refactorization is taken as it is."""
        if alpha_k is not None and abs(w[k] - alpha_k) > 1e-9 * (1.0 + abs(alpha_k)):
            return True
        return abs(w[k]) <= 1e-9 * float(np.max(np.abs(w)))

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        # Dense-form products stay inline here and in _primal_step: dispatch
        # LPs are solved thousands of times, so they skip the helper calls.
        if self.dense:
            return c - self.A.T @ (self.binv.T @ c[self.basis])
        return c - self._times_a(self._btran(c[self.basis]))

    def _pivot(self, k: int, q: int, w: np.ndarray, delta: float, at_upper: bool) -> None:
        """Basis change: ``x_q`` enters at position ``k`` after moving by
        ``delta`` (the basic values move by ``-w * delta``, ``w`` being the
        entering column in the current basis) and ``basis[k]`` leaves at its
        upper or lower bound."""
        self.x[self.basis] -= w * delta
        self.x[q] += delta
        p = int(self.basis[k])
        self.x[p] = self.upper[p] if at_upper else self.lower[p]
        self.stat[p] = _AT_UPPER if at_upper else _AT_LOWER
        self.stat[q] = _BASIC
        self.basis[k] = q
        self._update_inverse(w, k)
        if not self.dense and not np.all(np.isfinite(self.x[self.basis])):
            raise NumericalError("non-finite basic values after a pivot")

    # -- primal simplex ---------------------------------------------------------

    def _choose_entering(self, r: np.ndarray, tol_d: float, bland: bool):
        span_ok = self.upper - self.lower > 0.0
        cand_low = (self.stat == _AT_LOWER) & span_ok & (r < -tol_d)
        cand_up = (self.stat == _AT_UPPER) & span_ok & (r > tol_d)
        eligible = cand_low | cand_up
        if not np.any(eligible):
            return None, 0
        idx = np.flatnonzero(eligible)
        if bland:
            q = int(idx[0])
        else:
            q = int(idx[np.argmax(np.abs(r[idx]))])
        return q, (1 if self.stat[q] == _AT_LOWER else -1)

    def _primal_step(self, q: int, direction: int):
        w = self.binv @ self.A[:, q] if self.dense else self._ftran(self.A[:, q])
        weff = direction * w
        xb = self.x[self.basis]
        lb = self.lower[self.basis]
        ub = self.upper[self.basis]

        t_best = np.inf
        k_best = -1
        hit_upper = False
        pos = weff > 1e-9
        neg = weff < -1e-9
        with np.errstate(invalid="ignore"):
            t_pos = np.where(pos, (xb - lb) / np.where(pos, weff, 1.0), np.inf)
            t_neg = np.where(neg, (ub - xb) / np.where(neg, -weff, 1.0), np.inf)
        t_rows = np.minimum(t_pos, t_neg)
        t_rows = np.maximum(t_rows, 0.0)  # drift guard
        if t_rows.size:
            t_min = float(np.min(t_rows))
            if np.isfinite(t_min):
                ties = np.flatnonzero(t_rows <= t_min + 1e-12)
                k_best = int(ties[np.argmax(np.abs(weff[ties]))])
                t_best = t_min
                hit_upper = bool(t_neg[k_best] <= t_pos[k_best])

        if self.n_etas and k_best >= 0 and self._drifted(w, k_best):
            self._refactor()
            return "refactored", 0.0

        span = self.upper[q] - self.lower[q]
        if span < t_best:
            # Bound flip: the entering variable crosses to its opposite bound.
            self.x[self.basis] = xb - weff * span
            self.stat[q] = _AT_UPPER if direction == 1 else _AT_LOWER
            self.x[q] = self.upper[q] if direction == 1 else self.lower[q]
            return "flip", span

        if not np.isfinite(t_best):
            return "unbounded", np.inf

        self._pivot(k_best, q, w, direction * t_best, hit_upper)
        return "pivot", t_best

    def optimize(self, c: np.ndarray) -> str:
        tol_d = 1e-9 * (1.0 + float(np.max(np.abs(c))))
        bland = False
        degenerate = 0
        since_refactor = 0
        while True:
            if self.iterations >= self.max_iter:
                raise NumericalError(f"simplex iteration cap ({self.max_iter}) exceeded")
            q, direction = self._choose_entering(self._reduced_costs(c), tol_d, bland)
            if q is None:
                return STATUS_OPTIMAL
            outcome, step = self._primal_step(q, direction)
            if outcome == "unbounded":
                return STATUS_UNBOUNDED
            if outcome == "refactored":
                since_refactor = 0
                continue
            self.iterations += 1
            since_refactor += 1
            if step <= 1e-11:
                degenerate += 1
                if degenerate > _BLAND_TRIP:
                    bland = True
            else:
                degenerate = 0
                bland = False
            if outcome == "pivot" and since_refactor >= _REFACTOR_PERIOD:
                self._refactor()
                since_refactor = 0

    # -- phase 1 ----------------------------------------------------------------

    def phase1(self) -> bool:
        """Install a primal-feasible basis; returns False when infeasible."""
        n, m = self.n, self.m
        self.x[:n] = self.lower[:n]
        self.x[n:] = 0.0
        self.stat[:] = _AT_LOWER

        resid = self.b - self.A[:, :n] @ self.x[:n]
        basis = np.empty(m, dtype=np.int64)
        c1 = np.zeros(self.n_total)
        for i in range(m):
            is_ub_row = i >= self.m_eq
            if is_ub_row and resid[i] >= 0.0:
                j = n + (i - self.m_eq)  # slack carries the surplus
            else:
                j = int(self.art[i])
                self.A[i, j] = 1.0 if resid[i] >= 0.0 else -1.0
                c1[j] = 1.0
            basis[i] = j
        self.basis = basis
        self.stat[basis] = _BASIC
        self._refactor()

        status = self.optimize(c1)
        if status != STATUS_OPTIMAL:  # pragma: no cover - phase 1 is bounded below
            raise NumericalError("phase 1 terminated abnormally")
        self._refactor()
        infeas = float(np.sum(self.x[self.art]))
        if infeas > 100.0 * self.tol_p:
            return False
        self._pivot_out_artificials()
        self.upper[self.art] = 0.0
        self.x[self.art] = 0.0
        self._recompute_basic_values()
        return True

    def _pivot_out_artificials(self) -> None:
        art_set = set(int(a) for a in self.art)
        for k in range(self.m):
            p = int(self.basis[k])
            if p not in art_set:
                continue
            row = self._times_a(self._row(k))[: self.n + self.n_slack]
            row[self.stat[: self.n + self.n_slack] == _BASIC] = 0.0
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) <= 1e-7:
                continue  # redundant row; artificial stays basic at zero
            self._pivot(k, j, self._ftran(self.A[:, j]), 0.0, False)

    # -- dual simplex (warm starts) --------------------------------------------

    def dual_optimize(self, c: np.ndarray) -> str:
        """Reoptimize from a dual-feasible basis after bound changes."""
        tol_d = 1e-9 * (1.0 + float(np.max(np.abs(c))))
        since_refactor = 0
        bland = False
        stalls = 0
        while True:
            if self.iterations >= self.max_iter:
                raise NumericalError(f"dual simplex iteration cap ({self.max_iter}) exceeded")
            xb = self.x[self.basis]
            lb = self.lower[self.basis]
            ub = self.upper[self.basis]
            low_viol = lb - xb
            up_viol = xb - ub
            viol = np.maximum(low_viol, up_viol)
            k = int(np.argmax(viol))
            if viol[k] <= self.tol_p:
                return STATUS_OPTIMAL
            below = low_viol[k] >= up_viol[k]

            r = self._reduced_costs(c)
            alpha = self._times_a(self._row(k))
            span_ok = self.upper - self.lower > 0.0
            if below:
                ok_low = (self.stat == _AT_LOWER) & span_ok & (alpha < -1e-9)
                ok_up = (self.stat == _AT_UPPER) & span_ok & (alpha > 1e-9)
            else:
                ok_low = (self.stat == _AT_LOWER) & span_ok & (alpha > 1e-9)
                ok_up = (self.stat == _AT_UPPER) & span_ok & (alpha < -1e-9)
            eligible = np.flatnonzero(ok_low | ok_up)
            if eligible.size == 0:
                return STATUS_INFEASIBLE
            ratios = np.abs(r[eligible]) / np.abs(alpha[eligible])
            if bland:
                q = int(eligible[0])
            else:
                best = np.flatnonzero(ratios <= ratios.min() + tol_d)
                sub = eligible[best]
                q = int(sub[np.argmax(np.abs(alpha[sub]))])

            w = self._ftran(self.A[:, q])
            if self.n_etas and self._drifted(w, k, alpha[q]):
                self._refactor()
                since_refactor = 0
                continue
            bound = lb[k] if below else ub[k]
            self._pivot(k, q, w, (xb[k] - bound) / w[k], not below)
            self.iterations += 1
            since_refactor += 1
            if abs(r[q]) <= tol_d:
                stalls += 1
                if stalls > _BLAND_TRIP:
                    bland = True
            else:
                stalls = 0
                bland = False
            if since_refactor >= _REFACTOR_PERIOD:
                self._refactor()
                since_refactor = 0

    # -- extraction -------------------------------------------------------------

    def extract(self, status: str) -> LPSolution:
        """Solution at the current basis; an optimal one must be freshly
        refactorized."""
        if status != STATUS_OPTIMAL:
            return LPSolution(status=status, iterations=self.iterations)
        y = self._btran(self.c[self.basis])
        r_all = self.c - self._times_a(y)
        n = self.n
        x = self.x[:n].copy()
        return LPSolution(status=STATUS_OPTIMAL, x=x, objective=float(self.c[:n] @ x),
                          duals_eq=y[: self.m_eq], duals_ub=np.maximum(-y[self.m_eq:], 0.0),
                          reduced_costs=r_all[:n], iterations=self.iterations)

    def basis_state(self) -> BasisState:
        return BasisState(self.basis.copy(), self.stat.copy())


def _polish(sx: _Simplex) -> str:
    """Optimize primally from a primal-feasible basis, then refactor and
    re-price until the optimum is clean."""
    for _ in range(3):
        status = sx.optimize(sx.c)
        if status != STATUS_OPTIMAL:
            return status
        sx._refactor()
        tol_d = 1e-9 * (1.0 + float(np.max(np.abs(sx.c))))
        q, _ = sx._choose_entering(sx._reduced_costs(sx.c), tol_d, False)
        if q is None:
            break
    return STATUS_OPTIMAL


def _finish(sx: _Simplex, status: str) -> tuple[LPSolution, BasisState | None]:
    """The one ending of cold and warm solves: polish a primal-feasible
    basis, then report it, with its state when it is optimal."""
    if status == STATUS_OPTIMAL:
        status = _polish(sx)
    return sx.extract(status), (sx.basis_state() if status == STATUS_OPTIMAL else None)


def solve_lp_with_state(lp: LinearProgram) -> tuple[LPSolution, BasisState | None]:
    """Like :func:`solve_lp` but also returns the optimal basis for warm starts."""
    sx = _Simplex(lp)
    return _finish(sx, STATUS_OPTIMAL if sx.phase1() else STATUS_INFEASIBLE)


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Minimize ``lp`` to optimality, infeasibility or unboundedness.

    Raises :class:`ValidationError` for malformed input, a non-finite lower
    bound included, and :class:`NumericalError` once the pivot cap of
    ``200 * (rows + variables) + 2000`` is exhausted.
    """
    return solve_lp_with_state(lp)[0]


def solve_lp_warm(lp: LinearProgram,
                  state: BasisState) -> tuple[LPSolution, BasisState | None]:
    """Resolve ``lp`` starting from a basis of a bound-modified relative.

    The basis must come from an LP with identical rows and objective; only
    variable bounds may differ. Falls back to a cold solve, basis state
    included, on any numerical trouble.
    """
    sx = _Simplex(lp)
    try:
        if state.basis.size != sx.m or state.status.size != sx.n_total:
            raise NumericalError("basis state has mismatched dimensions")
        sx.basis = state.basis.copy()
        sx.stat = state.status.copy()
        sx.upper[sx.art] = 0.0
        nonbasic = sx.stat != _BASIC
        vals = np.where(sx.stat == _AT_UPPER, sx.upper, sx.lower)
        bad = nonbasic & ~np.isfinite(vals)
        if np.any(bad):
            raise NumericalError("nonbasic variable lost its finite bound")
        sx.x[nonbasic] = vals[nonbasic]
        sx._refactor()
        # The dual method restores primal feasibility; the polish then
        # repairs reduced-cost signs that the bound changes disturbed.
        return _finish(sx, sx.dual_optimize(sx.c))
    except NumericalError as exc:
        _log.debug("warm start fell back to a cold solve: %s", exc)
        return solve_lp_with_state(lp)


def check_kkt(lp: LinearProgram, sol: LPSolution) -> float:
    """Worst KKT residual of an optimal solution (no judgement, no raise):
    primal equality, inequality and bound violation, dual sign violation,
    complementarity and duality gap."""
    if sol.status != STATUS_OPTIMAL:
        raise ValidationError("check_kkt expects an optimal solution")
    x = np.asarray(sol.x, dtype=float)
    c = lp.objective
    g_eq = sol.duals_eq if sol.duals_eq is not None else np.zeros(0)
    mu = sol.duals_ub if sol.duals_ub is not None else np.zeros(0)

    pe = float(np.max(np.abs(lp.a_eq @ x - lp.b_eq))) if lp.b_eq.size else 0.0
    slack = lp.b_ub - lp.a_ub @ x if lp.b_ub.size else np.zeros(0)
    pu = float(max(0.0, np.max(-slack))) if slack.size else 0.0
    pb = 0.0
    low_gap = x - lp.lower
    up_gap = lp.upper - x
    pb = max(pb, float(max(0.0, np.max(-low_gap[np.isfinite(lp.lower)], initial=0.0))))
    pb = max(pb, float(max(0.0, np.max(-up_gap[np.isfinite(lp.upper)], initial=0.0))))

    r = c - lp.a_eq.T @ g_eq + lp.a_ub.T @ mu if lp.b_ub.size else c - lp.a_eq.T @ g_eq
    ds = float(max(0.0, np.max(-mu, initial=0.0)))
    # A positive reduced cost needs a finite lower bound to lean on (and
    # symmetrically for negative ones); otherwise it is a dual violation.
    ds = max(ds, float(np.max(np.where(np.isfinite(lp.lower), 0.0, np.maximum(r, 0.0)), initial=0.0)))
    ds = max(ds, float(np.max(np.where(np.isfinite(lp.upper), 0.0, np.maximum(-r, 0.0)), initial=0.0)))

    comp = 0.0
    if slack.size:
        comp = float(np.max(np.abs(mu * slack), initial=0.0))
    r_pos = np.maximum(r, 0.0)
    r_neg = np.maximum(-r, 0.0)
    finite_low = np.isfinite(lp.lower)
    finite_up = np.isfinite(lp.upper)
    comp = max(comp, float(np.max(r_pos[finite_low] * low_gap[finite_low], initial=0.0)))
    comp = max(comp, float(np.max(r_neg[finite_up] * up_gap[finite_up], initial=0.0)))

    dual_obj = float(lp.b_eq @ g_eq) if lp.b_eq.size else 0.0
    if lp.b_ub.size:
        dual_obj -= float(lp.b_ub @ mu)
    bound_term = np.zeros_like(r)
    bound_term[finite_low] += lp.lower[finite_low] * r_pos[finite_low]
    bound_term[finite_up] -= lp.upper[finite_up] * r_neg[finite_up]
    dual_obj += float(np.sum(bound_term))
    gap = abs(float(c @ x) - dual_obj)

    return max(pe, pu, pb, ds, comp, gap)
