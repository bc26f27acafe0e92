"""Linear programming with a bounded-variable revised simplex method.

The LP layer solves the one problem class the planner poses: minimize
``c @ x`` over equality rows, ``<=`` rows and bounds ``lower <= x <= upper``
with every lower bound finite (upper bounds may be ``+inf``). Any other
input, a non-finite lower bound included, raises :class:`ValidationError`.

The solver is deliberately self-contained: two-phase primal simplex over
bounded variables, a basis inverse with periodic refactorization, Dantzig
pricing with a switch to Bland's rule once a degeneracy counter trips, and
a bounded dual simplex used to warm-start from a dual-feasible basis after
bound changes (the branch-and-bound layer relies on this). Primal and dual
share one degeneracy count and one set of masks of the columns that may
enter from a bound, which each pivot and bound flip update. The dual prices
its reduced costs once and then updates them from each pivot row, pricing
afresh only after a refactorization. Cold and warm solves end alike: a
primal polish that re-prices until the optimum is clean, then extraction.

What does not depend on the bounds (the structural columns, ``b``, the
costs, the row of each unit column, validation) lives in a :class:`Layout`.
A plain LP gets one per solve; branch and bound builds one per call and
hands every node an LP that shares it, so a node keeps only its bounds,
values, statuses, basis and unit-column signs. A warm start that begins
from the same basis state as the previous warm start on its layout (the
second child of a branch) reuses that factorization instead of inverting
again.

Basic slacks and artificials are signed unit columns, so a refactorization
inverts only the structural kernel of the basis (its structural columns on
the rows no unit column covers). Primal, dual and phase-1 pivots all go
through one basis change, :meth:`_Simplex._pivot`: it moves the basic
values along the entering column, puts the leaving variable on its bound
and updates the entering masks and the inverse. Only a refactorization
recomputes the basic values from scratch. The inverse takes one of two
forms, chosen once per LP from its row count:

* up to ``_DENSE_MAX_ROWS`` rows (a dispatch LP has 13) a dense ``B^-1``,
  filled in block form from the kernel inverse and updated in place by a
  rank-one product-form step;
* above it (a garver6 master has 225 to 807 rows, its kernel a median of
  273) the kernel pieces themselves plus an eta file, the product form of
  the inverse (Dantzig & Orchard-Hays, 1954): a pivot appends one eta
  column instead of an O(m^2) update, FTRAN (``B^-1 a``) and BTRAN
  (``u B^-1``) go through the kernel and then the etas.

Neither form stores a slack or artificial column: each is its row
(``unit_row``) and a sign that the solve owns, +1 until phase 1 flips the
artificials of the rows it starts below their right-hand side. The form
fixes how the layout stores the structural columns. The dense form keeps
them as one matrix, padded with zero columns to a width that is a multiple
of four (see :class:`Layout`). The kernel form never builds it (on a master its size
grows with the square of the scenario count): it keeps the structural
nonzeros, in row order and by column. Products with the matrix, entering
columns, the kernel and phase 1's residual read the structural store and
the unit columns' rows and signs.

On master MILPs the kernel form costs more below about 145 rows and less
above about 180, which places the cutoff. An eta file drifts between
refactorizations. So before a pivot through a non-empty eta file the
solver refactors and redoes the iteration when the pivot element is tiny
next to its column or, in the dual simplex, disagrees with the same
element of the pivot row (BTRAN against FTRAN); and a non-finite basic
value after a kernel-form pivot raises :class:`NumericalError` (a warm
start then falls back to a cold solve). The primal ratio test takes no
row whose entry in the entering column is smaller than
``_PRIMAL_PIVOT_TOL``, so the rounding residue of an exact zero never
becomes a pivot, which no refactorization could undo. The eta file holds
one refactor period and never grows: the primal counts the etas a warm
start's dual left toward its period, and the pivot-out of phase 1's
artificials refactors after each pivot that fills it. The polish refactors a
dense inverse before it re-prices; a kernel-form one recomputes the basic
values through its eta file and refactors only when they miss the rows by
more than the primal tolerance, and otherwise keeps the last pricing of
its primal pass.

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
from typing import ClassVar

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
# The primal ratio test skips rows whose entering-column entry is smaller:
# on a master MILP such an entry can be the rounding residue of an exact
# zero, and pivoting on it makes the basis singular.
_PRIMAL_PIVOT_TOL = 1e-7
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


def _as_vector(v) -> np.ndarray:
    if v is None:
        return np.zeros(0)
    return np.atleast_1d(np.asarray(v, dtype=float))


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
    # Set on the LPs that Layout.program hands out.
    _layout: ClassVar[Layout | None] = None

    def __post_init__(self):
        self.objective = _as_vector(self.objective)
        n = self.objective.size
        self.a_eq = _as_matrix(self.a_eq, n)
        self.b_eq = _as_vector(self.b_eq)
        self.a_ub = _as_matrix(self.a_ub, n)
        self.b_ub = _as_vector(self.b_ub)
        self.lower = np.full(n, 0.0) if self.lower is None else _as_vector(self.lower)
        self.upper = np.full(n, np.inf) if self.upper is None else _as_vector(self.upper)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    def _validate_rows(self) -> None:
        n = self.n_vars
        for name, mat, rhs in (("a_eq", self.a_eq, self.b_eq), ("a_ub", self.a_ub, self.b_ub)):
            if mat.shape[1] != n:
                raise ValidationError(f"{name} has {mat.shape[1]} columns, expected {n}")
            if mat.shape[0] != rhs.size:
                raise ValidationError(f"{name} has {mat.shape[0]} rows but rhs has {rhs.size}")
            if not np.all(np.isfinite(mat)) or not np.all(np.isfinite(rhs)):
                raise ValidationError(f"nonfinite coefficient in {name} block")
        if not np.all(np.isfinite(self.objective)):
            raise ValidationError("nonfinite objective coefficient")

    def _validate_bounds(self) -> None:
        n = self.n_vars
        if self.lower.size != n or self.upper.size != n:
            raise ValidationError("bound vectors must match the variable count")
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

    def extended(self, shape: tuple[int, int, int], added: tuple[int, int, int],
                 ub_at: int) -> BasisState:
        """This state on an LP grown by one block.  ``shape`` is the grown
        LP's (structural columns, equality rows, ``<=`` rows) and ``added``
        the block's share: its columns and equality rows come last, its
        ``<=`` rows at ``ub_at``.  The block's artificials and slacks become
        basic, its columns nonbasic at their lower bounds.  A state of any
        other shape raises :class:`ValidationError`."""
        n, m_eq, m_ub = shape
        n_add, m_eq_add, m_ub_add = added
        # New index of each old <= row, and of each old row in [eq | ub].
        ub_map = np.concatenate([np.arange(ub_at), np.arange(ub_at + m_ub_add, m_ub)])
        row_map = np.concatenate([np.arange(m_eq - m_eq_add), m_eq + ub_map])
        # Columns are ordered [structural | slacks | artificials].
        col_map = np.concatenate([np.arange(n - n_add), n + ub_map, n + m_ub + row_map])
        if self.status.size != col_map.size or self.basis.size != row_map.size:
            raise ValidationError("basis state does not fit the LP less the added block")
        new_basic = np.concatenate([n + m_ub + np.arange(m_eq - m_eq_add, m_eq),
                                    n + np.arange(ub_at, ub_at + m_ub_add)])
        status = np.full(n + 2 * m_ub + m_eq, _AT_LOWER, dtype=np.int8)
        status[col_map] = self.status
        status[new_basic] = _BASIC
        return BasisState(np.concatenate([col_map[self.basis], new_basic]), status)


class Layout:
    """The bound-independent part of an LP's working state, built and
    validated once: ``b``, the cost vector, the row of each slack and
    artificial column, the tolerances and the structural columns of the
    constraint matrix.  Columns are ordered [structural | slacks |
    artificials]; a slack or artificial column is its row in ``unit_row``
    and a sign that each solve keeps for itself.

    The structural columns take one of two forms.  A dense-form layout (up
    to ``_DENSE_MAX_ROWS`` rows) keeps them whole as ``A``.  A kernel-form
    one never builds it: it keeps the structural nonzeros as triplets
    ``nz`` in row order and again by column (``col_ptr``, ``col_rows``,
    ``col_vals``).

    :meth:`program` hands out LPs that differ from the source only in their
    bounds and share this layout, as the nodes of a branch and bound do; a
    solve keeps its bounds, values, statuses, basis and unit-column signs,
    and leaves on the layout only its warm-start factorization
    (``last_factor``)."""

    def __init__(self, lp: LinearProgram):
        lp._validate_rows()
        self.source = lp
        self.n = n = lp.n_vars
        self.m_eq = m_eq = lp.b_eq.size
        self.m = m = m_eq + lp.b_ub.size
        self.n_slack = lp.b_ub.size
        self.n_total = n + self.n_slack + m  # artificials: one per row
        slack_rows = np.arange(m_eq, m)
        self.art = np.arange(n + self.n_slack, self.n_total)
        # Row of each slack and artificial column; -1 marks structural ones.
        self.unit_row = np.concatenate([np.full(n, -1), slack_rows, np.arange(m)])
        self.b = np.concatenate([lp.b_eq, lp.b_ub])
        self.c = np.zeros(self.n_total)
        self.c[:n] = lp.objective
        self.dense = m <= _DENSE_MAX_ROWS
        if self.dense:
            # Zero columns pad the width to a multiple of four.  OpenBLAS
            # forms ``v @ A`` four columns at a time and the last ``n % 4``
            # in a scalar loop that rounds otherwise; padded, every
            # structural reduced cost is rounded alike, so columns with
            # equal data price equal and tie-break by index.
            self.A = np.zeros((m, -(-n // 4) * 4))
            self.A[:, :n] = np.vstack([lp.a_eq, lp.a_ub])
        else:
            # Structural nonzeros in row order, as nonzero() lists them; the
            # kernel form multiplies by A through them.
            r_eq, c_eq = lp.a_eq.nonzero()
            r_ub, c_ub = lp.a_ub.nonzero()
            rows = np.concatenate([r_eq, m_eq + r_ub])
            cols = np.concatenate([c_eq, c_ub])
            vals = np.concatenate([lp.a_eq[r_eq, c_eq], lp.a_ub[r_ub, c_ub]])
            self.nz = (rows, cols, vals)
            # The same nonzeros by column, for entering columns.
            order = np.argsort(cols, kind="stable")
            self.col_ptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
            self.col_rows, self.col_vals = rows[order], vals[order]
        self.max_iter = 200 * (m + n) + 2000
        bscale = float(np.max(np.abs(self.b))) if m else 0.0
        self.tol_p = 1e-9 * (1.0 + bscale)
        # The last warm-start basis state and its factorization: both
        # children of a branch start from their parent's state.
        self.last_factor: tuple[BasisState, object] | None = None

    def program(self, lower: np.ndarray, upper: np.ndarray) -> LinearProgram:
        """The source LP with bounds ``lower`` and ``upper``, solved on this
        layout."""
        src = self.source
        lp = LinearProgram(src.objective, a_eq=src.a_eq, b_eq=src.b_eq,
                           a_ub=src.a_ub, b_ub=src.b_ub, lower=lower, upper=upper)
        lp._layout = self
        return lp


class _Simplex:
    """Working state for one LP on its :class:`Layout`."""

    def __init__(self, lp: LinearProgram):
        lay = lp._layout if lp._layout is not None else Layout(lp)
        lp._validate_bounds()
        self.layout = lay
        m = lay.m
        self.n, self.m_eq, self.m = lay.n, lay.m_eq, m
        self.n_slack, self.n_total = lay.n_slack, lay.n_total
        self.b, self.c, self.art = lay.b, lay.c, lay.art
        self._unit_row = lay.unit_row
        self.max_iter, self.tol_p = lay.max_iter, lay.tol_p

        self.lower = np.concatenate([lp.lower, np.zeros(self.n_slack + m)])
        self.upper = np.concatenate([lp.upper, np.full(self.n_slack + m, np.inf)])
        self.basis = np.zeros(m, dtype=np.int64)
        self.stat = np.full(self.n_total, _AT_LOWER, dtype=np.int8)
        self.x = np.zeros(self.n_total)
        # The only entry of each slack and artificial column.  Artificials
        # start as +e_i, so a warm basis that keeps one basic (a redundant
        # row) stays invertible; phase 1 flips the rows it starts below
        # their right-hand side.
        self.unit_sign = np.ones(self.n_slack + m)
        self.dense = lay.dense
        self.n_etas = 0
        if self.dense:
            self.A = lay.A
        else:
            self._nz = lay.nz
            # Eta file (see _add_eta); a refactorization empties it.
            self._eta_k = np.zeros(_REFACTOR_PERIOD, dtype=np.int64)
            self._eta_w = np.zeros((_REFACTOR_PERIOD, m))
            self._eta_tri = np.zeros((_REFACTOR_PERIOD, _REFACTOR_PERIOD))
            self._eta_tri_inv = np.zeros((_REFACTOR_PERIOD, _REFACTOR_PERIOD))
        self.iterations = 0

    # -- linear algebra helpers -------------------------------------------------

    def _refactor(self) -> None:
        """Invert the basis afresh and recompute the basic values."""
        self._install(self._factorize())
        self._recompute_basic_values()

    def _warm_refactor(self, state: BasisState) -> None:
        """:meth:`_refactor` at the basis of ``state``, a warm start.  Both
        children of a branch start from their parent's state, so the second
        reuses the factorization the layout kept from the first."""
        lay = self.layout
        if lay.last_factor is None or lay.last_factor[0] is not state:
            lay.last_factor = (state, self._factorize())
        factor = lay.last_factor[1]
        # Rank-one steps update a dense inverse in place.
        self._install(factor.copy() if self.dense else factor)
        self._recompute_basic_values()

    def _factorize(self):
        """Invert the basis through its structural kernel.

        With ``S`` the basis positions of unit columns, ``rows_s`` their
        rows, ``K`` the structural positions and ``R`` the rows no unit
        column covers, the basis is block triangular and only the kernel
        ``A[R, basis[K]]`` needs a dense inverse.  A dense-form basis
        assembles the full inverse from it; a kernel-form one keeps the
        pieces (see :meth:`_install`)."""
        basis = self.basis
        rows = self._unit_row[basis]
        unit = rows >= 0
        S = unit.nonzero()[0]
        K = (~unit).nonzero()[0]
        rows_s = rows[S]
        covered = np.zeros(self.m, dtype=bool)
        covered[rows_s] = True
        R = (~covered).nonzero()[0]
        cols_k = basis[K]
        sign = self.unit_sign[basis[S] - self.n]
        if self.dense:
            kernel = self.A[R[:, None], cols_k]
        else:
            kernel, basic_nz = self._kernel_nonzeros(R, cols_k)
        # |R| > |K| exactly when two unit columns share a row.
        if R.size != K.size or not sign.all():
            raise NumericalError("singular basis during refactorization")
        try:
            minv = np.linalg.inv(kernel)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular basis during refactorization") from exc
        if self.dense:
            binv = np.zeros((self.m, self.m))
            binv[K[:, None], R] = minv
            binv[S[:, None], R] = (self.A[rows_s[:, None], cols_k] @ minv) / -sign[:, None]
            binv[S, rows_s] = 1.0 / sign
            return binv
        return (K, R, S, rows_s, sign, minv, basic_nz)

    def _kernel_nonzeros(self, R: np.ndarray, cols_k: np.ndarray):
        """The kernel ``A[R, cols_k]`` and the nonzeros of the columns
        ``cols_k`` by basis position, both gathered from the structural
        nonzeros."""
        rows, cols, vals = self._nz
        pos = np.full(self.n, -1)
        pos[cols_k] = np.arange(cols_k.size)
        sel = pos[cols] >= 0
        rows, pos, vals = rows[sel], pos[cols[sel]], vals[sel]
        at_r = np.full(self.m, -1)
        at_r[R] = np.arange(R.size)
        in_r = at_r[rows] >= 0
        kernel = np.zeros((R.size, cols_k.size))
        kernel[at_r[rows[in_r]], pos[in_r]] = vals[in_r]
        return kernel, (rows, pos, vals)

    def _install(self, factor) -> None:
        """Take ``factor`` from :meth:`_factorize` as the inverse; a
        kernel-form one starts an empty eta file."""
        if self.dense:
            self.binv = factor
        else:
            self._kernel = factor
            self.n_etas = 0

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

    def _column(self, q: int) -> np.ndarray:
        """Column ``q`` of the constraint matrix: a structural one from the
        layout, a slack or artificial one from its row and sign."""
        if q < self.n and self.dense:
            return self.A[:, q]
        a = np.zeros(self.m)
        if q < self.n:
            lay = self.layout
            at = slice(lay.col_ptr[q], lay.col_ptr[q + 1])
            a[lay.col_rows[at]] = lay.col_vals[at]
        else:
            a[self._unit_row[q]] = self.unit_sign[q - self.n]
        return a

    def _times_a(self, v: np.ndarray) -> np.ndarray:
        """``v @ A``: the structural columns through the layout's store,
        the slack and artificial columns as signed unit columns."""
        if self.dense:
            structural = (v @ self.A)[:self.n]
        else:
            rows, cols, vals = self._nz
            structural = np.bincount(cols, weights=v[rows] * vals, minlength=self.n)
        return np.concatenate([structural, v[self._unit_row[self.n:]] * self.unit_sign])

    def _a_times(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``, formed like :meth:`_times_a`."""
        if self.dense:
            structural = self.A[:, :self.n] @ x[:self.n]
        else:
            rows, cols, vals = self._nz
            structural = np.bincount(rows, weights=vals * x[cols], minlength=self.m)
        return structural + np.bincount(self._unit_row[self.n:],
                                        weights=self.unit_sign * x[self.n:], minlength=self.m)

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
        file keeps ``L`` and ``L^-1``, one row per eta, for one refactor
        period; one refinement step against ``L`` keeps both transforms as
        accurate as applying the etas one at a time."""
        p = self.n_etas
        ks, ws, tri, tri_inv = self._eta_k, self._eta_w, self._eta_tri, self._eta_tri_inv
        tri[p, :p] = ws[:p, k] - (ks[:p] == k)
        tri[p, p] = w[k]
        tri_inv[p, :p] = (tri[p, :p] @ tri_inv[:p, :p]) / -w[k]
        tri_inv[p, p] = 1.0 / w[k]
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
        return c - self._times_a(self._btran(c[self.basis]))

    def _derive_masks(self) -> None:
        """The columns that may enter: ``movable`` ones at their lower bound
        (``from_low``) or upper bound (``from_up``).  Derived wherever the
        statuses or bounds are set; each pivot and bound flip updates them."""
        self.movable = self.upper - self.lower > 0.0
        self.from_low = (self.stat == _AT_LOWER) & self.movable
        self.from_up = (self.stat == _AT_UPPER) & self.movable

    def _bland(self, degenerate: bool) -> bool:
        """Count a degenerate step (or reset the count after a productive
        one); whether Bland's rule applies, after ``_BLAND_TRIP`` in a row."""
        self._stalls = self._stalls + 1 if degenerate else 0
        return self._stalls > _BLAND_TRIP

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
        self.from_low[q] = self.from_up[q] = False
        self.from_low[p] = not at_upper and self.movable[p]
        self.from_up[p] = at_upper and self.movable[p]
        self.basis[k] = q
        self._update_inverse(w, k)
        if not self.dense and not np.all(np.isfinite(self.x[self.basis])):
            raise NumericalError("non-finite basic values after a pivot")

    # -- primal simplex ---------------------------------------------------------

    def _choose_entering(self, r: np.ndarray, tol_d: float, bland: bool):
        eligible = (self.from_low & (r < -tol_d)) | (self.from_up & (r > tol_d))
        if not np.any(eligible):
            return None, 0
        idx = np.flatnonzero(eligible)
        if bland:
            q = int(idx[0])
        else:
            q = int(idx[np.argmax(np.abs(r[idx]))])
        return q, (1 if self.stat[q] == _AT_LOWER else -1)

    def _primal_step(self, q: int, direction: int):
        w = self._ftran(self._column(q))
        weff = direction * w
        xb = self.x[self.basis]
        lb = self.lower[self.basis]
        ub = self.upper[self.basis]

        t_best, k_best, hit_upper = np.inf, -1, False
        pos = weff > _PRIMAL_PIVOT_TOL
        neg = weff < -_PRIMAL_PIVOT_TOL
        with np.errstate(invalid="ignore"):
            t_pos = np.where(pos, (xb - lb) / np.where(pos, weff, 1.0), np.inf)
            t_neg = np.where(neg, (ub - xb) / np.where(neg, -weff, 1.0), np.inf)
        t_rows = np.maximum(np.minimum(t_pos, t_neg), 0.0)  # 0.0: drift guard
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
            self.from_low[q] = direction != 1
            self.from_up[q] = direction == 1
            self.x[q] = self.upper[q] if direction == 1 else self.lower[q]
            return "flip", span

        if not np.isfinite(t_best):
            return "unbounded", np.inf

        self._pivot(k_best, q, w, direction * t_best, hit_upper)
        return "pivot", t_best

    def optimize(self, c: np.ndarray) -> str:
        tol_d = 1e-9 * (1.0 + float(np.max(np.abs(c))))
        bland = False
        self._stalls = 0
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
            bland = self._bland(step <= 1e-11)
            # The eta file may already hold a warm start's dual pivots;
            # counting them keeps it within one refactor period.
            if outcome == "pivot" and max(since_refactor, self.n_etas) >= _REFACTOR_PERIOD:
                self._refactor()
                since_refactor = 0

    # -- phase 1 ----------------------------------------------------------------

    def phase1(self) -> bool:
        """Install a primal-feasible basis; returns False when infeasible."""
        n, m = self.n, self.m
        self.x[:n] = self.lower[:n]
        self.x[n:] = 0.0
        self.stat[:] = _AT_LOWER

        # Slacks and artificials are at zero: this is the structural part of A x.
        resid = self.b - self._a_times(self.x)
        rows = np.arange(m)
        # A <= row's slack carries a surplus; every other row starts on its
        # artificial, signed to take the residual at a nonnegative value.
        slack = (rows >= self.m_eq) & (resid >= 0.0)
        art = self.art[~slack]
        self.unit_sign[self.n_slack + rows[~slack]] = np.where(resid[~slack] >= 0.0, 1.0, -1.0)
        c1 = np.zeros(self.n_total)
        c1[art] = 1.0
        self.basis = np.where(slack, n + rows - self.m_eq, self.art)
        self.stat[self.basis] = _BASIC
        self._derive_masks()
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
        self._derive_masks()
        self._recompute_basic_values()
        return True

    def _pivot_out_artificials(self) -> None:
        """Swap each basic artificial for a column its row reaches.  This
        runs after phase 1's last refactorization and may pivot on every
        row, so it refactors whenever a pivot fills the eta file."""
        n_real = self.n + self.n_slack
        for k in np.flatnonzero(self.basis >= n_real).tolist():
            row = self._times_a(self._row(k))[:n_real]
            row[self.stat[:n_real] == _BASIC] = 0.0
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) <= 1e-7:
                continue  # redundant row; artificial stays basic at zero
            self._pivot(k, j, self._ftran(self._column(j)), 0.0, False)
            if self.n_etas == _REFACTOR_PERIOD:
                self._refactor()

    # -- dual simplex (warm starts) --------------------------------------------

    def dual_optimize(self, c: np.ndarray) -> str:
        """Reoptimize from a dual-feasible basis after bound changes.

        The reduced costs ``self.r`` are priced once and after each
        refactorization; a pivot updates them from the pivot row ``alpha``
        it forms anyway: ``r -= (r_q / alpha_q) * alpha``.  The bounds have
        changed since the basis was optimal, so the entering masks are
        derived afresh here (see :meth:`_derive_masks`)."""
        tol_d = 1e-9 * (1.0 + float(np.max(np.abs(c))))
        since_refactor = 0
        bland = False
        self._stalls = 0
        self.r = r = self._reduced_costs(c)
        self._derive_masks()
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

            alpha = self._times_a(self._row(k))
            if below:
                ok_low = self.from_low & (alpha < -1e-9)
                ok_up = self.from_up & (alpha > 1e-9)
            else:
                ok_low = self.from_low & (alpha > 1e-9)
                ok_up = self.from_up & (alpha < -1e-9)
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

            w = self._ftran(self._column(q))
            if self.n_etas and self._drifted(w, k, alpha[q]):
                self._refactor()
                self.r = r = self._reduced_costs(c)
                since_refactor = 0
                continue
            bound = lb[k] if below else ub[k]
            self._pivot(k, q, w, (xb[k] - bound) / w[k], not below)
            r_q = r[q]
            r -= (r_q / alpha[q]) * alpha
            r[self.basis] = 0.0
            self.iterations += 1
            since_refactor += 1
            bland = self._bland(abs(r_q) <= tol_d)
            if since_refactor >= _REFACTOR_PERIOD:
                self._refactor()
                self.r = r = self._reduced_costs(c)
                since_refactor = 0

    # -- extraction -------------------------------------------------------------

    def extract(self, status: str) -> LPSolution:
        """Solution at the current basis, priced through its inverse as it
        stands (a kernel-form one with its eta file)."""
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
    """Optimize primally from a primal-feasible basis, then re-price until
    the optimum is clean.  A dense inverse is refactored before each
    re-pricing.  A kernel-form one recomputes the basic values through its
    eta file and is refactored only when they leave a row residual
    ``max|b - A x|`` above ``tol_p``; otherwise its basis and eta file are
    the ones ``optimize`` last priced and found optimal, and that pricing
    stands."""
    tol_d = 1e-9 * (1.0 + float(np.max(np.abs(sx.c))))
    for _ in range(3):
        status = sx.optimize(sx.c)
        if status != STATUS_OPTIMAL:
            return status
        if sx.dense:
            sx._refactor()
        else:
            sx._recompute_basic_values()
            if float(np.max(np.abs(sx.b - sx._a_times(sx.x)))) <= sx.tol_p:
                break
            sx._refactor()
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
    """Resolve ``lp`` starting from a basis of a relative that differs in
    its bounds or equality right-hand side.

    The basis must be dual feasible for ``lp``: the optimal basis of an LP
    with the same matrix and objective whose bounds or ``b_eq`` differ, or
    one extended to added rows by :meth:`BasisState.extended` so that it
    stays dual feasible.  The dual simplex restores primal feasibility and
    the polish ends the solve as a cold one ends.  An LP
    from :meth:`Layout.program` reuses its layout, and the factorization of
    ``state`` when the previous warm start on that layout began from the
    same ``state`` (the sibling of a branch).  Falls back to a cold solve,
    basis state included, on any numerical trouble.
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
        sx._warm_refactor(state)
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
