"""Operational dispatch under the DC power-flow approximation.

For a fixed topology (existing lines plus any built candidates) and a fixed
realization of the uncertain parameters — available generator capacities and
demand loads — this module dispatches generation, flows and voltage angles
to minimize generation plus shedding cost, every price (per MWh) weighted
by ``weighting_factor_hours`` in :func:`dispatch_block` and nowhere else.
Every demand may be shed at its shed cost, so the dispatch problem is
feasible for any topology and any realization, including isolated buses; it
is also bounded, because every variable lives in a finite box.

:func:`dispatch_block` writes that model once, for this module and for the
scenario blocks of the investment master; :func:`switching_rows` writes the
master's big-M rows that build a candidate line. The uncertain parameters
appear only as upper bounds (a capacity bounds its generator, a load its
shed) and in the bus-balance right-hand side (each load), never in the
matrix. The gradient of the optimal cost with respect to them is therefore
read off the LP duals: for a capacity it is the reduced cost of its
generator when negative (zero otherwise); for a load it is the balance
price of its bus plus the reduced cost of its shed when negative. That
gradient is what the worst-case search feeds to the uncertainty set.

Because the matrix and costs are fixed for a plan, one optimal basis prices
every realization whose basic values stay within bounds:
:func:`dispatch_piece` turns a basis into a :class:`DispatchPiece`, which
Monte Carlo validation uses to price its draws in batches.  For the same
reason an optimal basis at one realization is dual feasible at any other,
and :func:`solve_opf` can start from it (``warm``): the worst-case search
starts each later ascent that way, and Monte Carlo validation every
dispatch solve after its first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from .errors import NumericalError, ValidationError
from .network import LINE_EXISTING, Line, Network
from .simplex import _AT_UPPER, BasisState, LinearProgram
# Not called here: perfbench/tracer.py times check_kkt under this module.
from .simplex import check_kkt  # noqa: F401

ANGLE_BOUND = math.pi


def clip_uncertain(d: np.ndarray) -> tuple[np.ndarray, int]:
    """Replace negative capacities/loads by zero, counting how many entries
    needed it. Gaussian sampling can stray below zero; the physics cannot."""
    d = np.asarray(d, dtype=float)
    negative = d < 0.0
    if not negative.any():
        return d, 0
    return np.where(negative, 0.0, d), int(negative.sum())


@dataclass
class OPFSolution:
    """Dispatch for one topology and one uncertainty realization."""

    objective: float
    generation: np.ndarray
    served: np.ndarray  # delivered load: load minus shed
    shed: np.ndarray
    flow: np.ndarray
    flow_line_ids: tuple[str, ...]
    angle: np.ndarray
    eta: np.ndarray
    clipped: int
    basis: BasisState


def active_lines(net: Network, built) -> list[Line]:
    """Existing lines plus the built candidates, in file order."""
    built = frozenset(built)
    candidate_ids = {ln.id for ln in net.candidate_lines}
    unknown = built - candidate_ids
    if unknown:
        raise ValidationError(f"unknown candidate line id(s): {sorted(unknown)}")
    return [ln for ln in net.lines
            if ln.status == LINE_EXISTING or ln.id in built]


def dispatch_block(net: Network, lines: list[Line], d: np.ndarray,
                   coupled: list[bool]) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]:
    """DC dispatch of one realization ``d`` over ``lines``, as
    ``(cost, a_eq, b_eq, lower, upper)``.

    Columns are ``[g | s | f | theta]``: generation, shed, line flows and
    bus angles.  Rows are the balance of every bus
    (``g + s + inflow - outflow = load``), the angle coupling of each line
    whose ``coupled`` flag is set, and the reference angle.  Capacities and
    loads enter only as the upper bounds of ``g`` and ``s`` and as the
    balance right-hand side, so the matrix depends on the lines alone.
    """
    n_gen = len(net.generators)
    n_dem = len(net.demands)
    n_line = len(lines)
    n_bus = len(net.buses)
    bus_of = net.bus_index
    off_s = n_gen
    off_f = off_s + n_dem
    off_t = off_f + n_line
    n_var = off_t + n_bus

    w = net.weighting_factor_hours
    cost = np.zeros(n_var)
    cost[:n_gen] = [w * g.marginal_cost for g in net.generators]
    cost[off_s:off_f] = [w * dm.shed_cost for dm in net.demands]

    lower = np.zeros(n_var)
    upper = np.empty(n_var)
    upper[:n_gen] = d[:n_gen]
    upper[off_s:off_f] = d[n_gen:]
    for k, ln in enumerate(lines):
        lower[off_f + k] = -ln.capacity_mw
        upper[off_f + k] = ln.capacity_mw
    lower[off_t:] = -ANGLE_BOUND
    upper[off_t:] = ANGLE_BOUND

    coupled_lines = [k for k, flag in enumerate(coupled) if flag]
    a_eq = np.zeros((n_bus + len(coupled_lines) + 1, n_var))
    b_eq = np.zeros(a_eq.shape[0])
    for i, g in enumerate(net.generators):
        a_eq[bus_of[g.bus], i] = 1.0
    for j, dm in enumerate(net.demands):
        a_eq[bus_of[dm.bus], off_s + j] = 1.0
        b_eq[bus_of[dm.bus]] += d[n_gen + j]
    for k, ln in enumerate(lines):
        a_eq[bus_of[ln.to_bus], off_f + k] = 1.0
        a_eq[bus_of[ln.from_bus], off_f + k] = -1.0
    for row, k in enumerate(coupled_lines, start=n_bus):
        ln = lines[k]
        gamma = net.base_mva * ln.susceptance
        a_eq[row, off_f + k] = 1.0
        a_eq[row, off_t + bus_of[ln.from_bus]] = -gamma
        a_eq[row, off_t + bus_of[ln.to_bus]] = gamma
    a_eq[-1, off_t + bus_of[net.reference_bus]] = 1.0
    return cost, a_eq, b_eq, lower, upper


def switching_rows(net: Network, lines: list[Line],
                   coupled: list[bool]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``a @ y + a_x @ x <= b`` that switch each line whose ``coupled``
    flag is clear, over the columns ``y`` of :func:`dispatch_block` and one
    binary ``x`` per switched line, in order: ``|f - gamma dtheta| <= M (1 -
    x)`` and ``|f| <= capacity x``, with ``M = gamma * 2 * ANGLE_BOUND``,
    the largest ``|gamma dtheta|`` the angle bounds allow."""
    off_f = len(net.generators) + len(net.demands)
    off_t = off_f + len(lines)
    switched = [k for k, flag in enumerate(coupled) if not flag]
    a = np.zeros((4 * len(switched), off_t + len(net.buses)))
    a_x = np.zeros((a.shape[0], len(switched)))
    b = np.zeros(a.shape[0])
    for i, k in enumerate(switched):
        ln = lines[k]
        gamma = net.base_mva * ln.susceptance
        big_m = gamma * 2.0 * ANGLE_BOUND
        r = 4 * i
        a[r:r + 4, off_f + k] = [1.0, -1.0, 1.0, -1.0]
        a[r:r + 2, off_t + net.bus_index[ln.from_bus]] = [-gamma, gamma]
        a[r:r + 2, off_t + net.bus_index[ln.to_bus]] = [gamma, -gamma]
        a_x[r:r + 4, i] = [big_m, big_m, -ln.capacity_mw, -ln.capacity_mw]
        b[r:r + 2] = big_m
    return a, a_x, b


@dataclass(frozen=True)
class DispatchPiece:
    """The optimal dispatch over the critical region of one basis.

    With the nonbasic columns held at their bounds, the basic values and the
    cost are affine in the clipped realization ``d`` (one per row):
    ``x_B(d) = x0 + d @ grad_x`` and ``cost(d) = c0 + d @ grad_c``.  The
    matrix and costs do not depend on ``d``, so a basis whose bound statuses
    follow its reduced-cost signs is dual feasible for every ``d``, and
    optimal wherever ``lower_b <= x_B(d) <= upper0 + d @ grad_u`` (a basic
    generation or shed is bounded by its capacity or load).
    """

    x0: np.ndarray
    grad_x: np.ndarray
    lower_b: np.ndarray
    upper0: np.ndarray
    grad_u: np.ndarray
    grad_b: np.ndarray  # the LP's right-hand side is d @ grad_b
    c0: float
    grad_c: np.ndarray

    def price(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Costs of the rows of ``d``, and which of them the piece certifies:
        those whose basic values lie within bounds to the simplex's primal
        tolerance ``1e-9 * (1 + max|b(d)|)``."""
        x_b = self.x0 + d @ self.grad_x
        tol = 1e-9 * (1.0 + np.max(np.abs(d @ self.grad_b), axis=1, keepdims=True))
        ok = ((x_b >= self.lower_b - tol)
              & (x_b <= self.upper0 + d @ self.grad_u + tol)).all(axis=1)
        return self.c0 + d @ self.grad_c, ok


def dispatch_piece(net: Network, built, state: BasisState) -> DispatchPiece:
    """The :class:`DispatchPiece` of ``state``, an optimal basis of a
    dispatch LP of ``built``.

    Each nonbasic column is first put at the bound its reduced cost picks
    (lower when positive, upper when negative, as it was when near zero).
    The solver leaves a column with equal bounds, such as a capacity clipped
    to zero, at either one, and the piece would misprice every ``d`` that
    separates them.
    """
    lines = active_lines(net, built)
    n_unc = net.n_uncertain
    n_gen = len(net.generators)
    cost, a_eq, _, lower, upper = dispatch_block(net, lines, np.zeros(n_unc),
                                                 [True] * len(lines))
    m, n = a_eq.shape
    # d is the upper bound of the first n_unc columns, and each load is
    # also the right-hand side of the balance row its shed column sits on.
    grad_b = np.zeros((n_unc, m))
    grad_b[n_gen:] = a_eq[:, n_gen:n_unc].T

    # A basic artificial (column n + i) is the unit column of row i, fixed
    # at zero; its sign does not change the other basic values.
    basis = state.basis
    art = basis >= n
    b_mat = np.zeros((m, m))
    b_mat[:, ~art] = a_eq[:, basis[~art]]
    b_mat[basis[art] - n, art.nonzero()[0]] = 1.0
    binv = np.linalg.inv(b_mat)
    pad = np.zeros(m)
    c_b = np.concatenate([cost, pad])[basis]

    nonbasic = np.ones(n, dtype=bool)
    nonbasic[basis[~art]] = False
    r = cost - (c_b @ binv) @ a_eq
    tol_d = 1e-9 * (1.0 + float(np.max(np.abs(cost))))
    at_upper = nonbasic & np.where(np.abs(r) > tol_d, r < 0.0,
                                   state.status[:n] == _AT_UPPER)
    x_n0 = np.where(nonbasic, np.where(at_upper, upper, lower), 0.0)
    x0 = binv @ -(a_eq @ x_n0)
    grad_x = (grad_b - (a_eq[:, :n_unc] * at_upper[:n_unc]).T) @ binv.T
    grad_u = np.zeros((n_unc, m))
    bounded = (basis < n_unc).nonzero()[0]
    grad_u[basis[bounded], bounded] = 1.0
    return DispatchPiece(
        x0=x0, grad_x=grad_x,
        lower_b=np.concatenate([lower, pad])[basis],
        upper0=np.concatenate([upper, pad])[basis], grad_u=grad_u,
        grad_b=grad_b, c0=float(c_b @ x0 + cost @ x_n0),
        grad_c=grad_x @ c_b + cost[:n_unc] * at_upper[:n_unc])


def solve_opf(net: Network, d: np.ndarray | None = None,
              built=frozenset(), *, warm: BasisState | None = None) -> OPFSolution:
    """Minimum-cost dispatch; raises :class:`NumericalError` only if the
    LP ends in a status the model rules out (shedding keeps every instance
    feasible and every column is bounded).

    ``warm``, the :attr:`OPFSolution.basis` of a dispatch of ``built`` at
    another point, starts the solve through :func:`~.simplex.solve_lp_warm`.
    The two LPs differ only in bounds and balance right-hand side, so that
    basis stays dual feasible.  A basis that does not fit this LP, such as
    one of a plan with another line count, falls back to a cold solve."""
    if d is None:
        d = net.nominal_uncertain()
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if d.size != net.n_uncertain:
        raise ValidationError(
            f"uncertain vector has {d.size} entries, expected {net.n_uncertain}")
    d, clipped = clip_uncertain(d)

    n_gen = len(net.generators)
    lines = active_lines(net, built)
    off_f = n_gen + len(net.demands)
    off_t = off_f + len(lines)

    cost, a_eq, b_eq, lower, upper = dispatch_block(net, lines, d, [True] * len(lines))
    lp = LinearProgram(cost, a_eq=a_eq, b_eq=b_eq, lower=lower, upper=upper)
    sol, state = (simplex.solve_lp_with_state(lp) if warm is None
                  else simplex.solve_lp_warm(lp, warm))
    if sol.status != "optimal":
        raise NumericalError(
            f"dispatch LP ended {sol.status}; network data violates the "
            "shedding feasibility invariant")

    # A capacity is the upper bound of its generator; a load is the upper
    # bound of its shed and the balance right-hand side of its bus.
    eta = np.minimum(sol.reduced_costs[:off_f], 0.0)
    eta[n_gen:] += sol.duals_eq[[net.bus_index[dm.bus] for dm in net.demands]]

    x = sol.x
    shed = x[n_gen:off_f].copy()
    return OPFSolution(
        objective=sol.objective,
        generation=x[:n_gen].copy(),
        served=d[n_gen:] - shed,
        shed=shed,
        flow=x[off_f:off_t].copy(),
        flow_line_ids=tuple(ln.id for ln in lines),
        angle=x[off_t:].copy(),
        eta=eta,
        clipped=clipped,
        basis=state,
    )
