"""Operational dispatch under the DC power-flow approximation.

For a fixed topology (existing lines plus any built candidates) and a fixed
realization of the uncertain parameters — available generator capacities and
demand loads — this module dispatches generation, flows and voltage angles
to minimize weighted operating cost. Every demand may be shed at its shed
cost, so the dispatch problem is feasible for any topology and any
realization, including isolated buses; it is also bounded, because all
variables live in finite boxes once the demand pins are substituted.

The solution carries the gradient of the optimal cost with respect to the
uncertain parameters, assembled from LP duals: for a capacity it is the
negative multiplier of the generator limit, for a load it is the balance
price at the demand pin minus the multiplier of the shed limit. That
gradient is what the worst-case search feeds to the uncertainty set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleOperation, ValidationError
from .network import LINE_EXISTING, Line, Network
from .simplex import LinearProgram, solve_lp
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
    served: np.ndarray  # delivered load: pinned demand minus shed
    shed: np.ndarray
    flow: np.ndarray
    flow_line_ids: tuple[str, ...]
    angle: np.ndarray
    eta: np.ndarray
    clipped: int


def active_lines(net: Network, built) -> list[Line]:
    """Existing lines plus the built candidates, in file order."""
    built = frozenset(built)
    candidate_ids = {ln.id for ln in net.candidate_lines}
    unknown = built - candidate_ids
    if unknown:
        raise ValidationError(f"unknown candidate line id(s): {sorted(unknown)}")
    return [ln for ln in net.lines
            if ln.status == LINE_EXISTING or ln.id in built]


def solve_opf(net: Network, d: np.ndarray | None = None,
              built=frozenset()) -> OPFSolution:
    """Minimum-cost dispatch; raises :class:`InfeasibleOperation` only if the
    model invariant (shedding keeps every instance feasible) is broken by
    inconsistent data."""
    if d is None:
        d = net.nominal_uncertain()
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if d.size != net.n_uncertain:
        raise ValidationError(
            f"uncertain vector has {d.size} entries, expected {net.n_uncertain}")
    d, clipped = clip_uncertain(d)

    n_gen = len(net.generators)
    n_dem = len(net.demands)
    cap = d[:n_gen]
    load = d[n_gen:]

    lines = active_lines(net, built)
    n_line = len(lines)
    n_bus = len(net.buses)
    bus_of = net.bus_index

    # Variable layout: [g | p | s | f | theta].
    off_g = 0
    off_p = n_gen
    off_s = off_p + n_dem
    off_f = off_s + n_dem
    off_t = off_f + n_line
    n_var = off_t + n_bus

    w = net.weighting_factor_hours
    c = np.zeros(n_var)
    c[off_g:off_g + n_gen] = [w * g.marginal_cost for g in net.generators]
    c[off_s:off_s + n_dem] = [w * dm.shed_cost for dm in net.demands]

    lower = np.full(n_var, -np.inf)
    upper = np.full(n_var, np.inf)
    lower[off_g:off_g + n_gen] = 0.0
    lower[off_s:off_s + n_dem] = 0.0
    for k, ln in enumerate(lines):
        lower[off_f + k] = -ln.capacity_mw
        upper[off_f + k] = ln.capacity_mw
    lower[off_t:] = -ANGLE_BOUND
    upper[off_t:] = ANGLE_BOUND

    # Equality rows: balance per bus, coupling per line, reference angle,
    # one demand pin per demand.
    m_eq = n_bus + n_line + 1 + n_dem
    a_eq = np.zeros((m_eq, n_var))
    b_eq = np.zeros(m_eq)
    row_balance = 0
    row_coupling = n_bus
    row_reference = n_bus + n_line
    row_pin = row_reference + 1

    for i, g in enumerate(net.generators):
        a_eq[row_balance + bus_of[g.bus], off_g + i] = 1.0
    for j, dm in enumerate(net.demands):
        a_eq[row_balance + bus_of[dm.bus], off_p + j] = -1.0
        a_eq[row_balance + bus_of[dm.bus], off_s + j] = 1.0
    for k, ln in enumerate(lines):
        a_eq[row_balance + bus_of[ln.to_bus], off_f + k] = 1.0
        a_eq[row_balance + bus_of[ln.from_bus], off_f + k] = -1.0
        gamma = net.base_mva * ln.susceptance
        a_eq[row_coupling + k, off_f + k] = 1.0
        a_eq[row_coupling + k, off_t + bus_of[ln.from_bus]] = -gamma
        a_eq[row_coupling + k, off_t + bus_of[ln.to_bus]] = gamma
    a_eq[row_reference, off_t + bus_of[net.reference_bus]] = 1.0
    for j in range(n_dem):
        a_eq[row_pin + j, off_p + j] = 1.0
        b_eq[row_pin + j] = load[j]

    # Inequality rows: generator capacity, shed limit.
    m_ub = n_gen + n_dem
    a_ub = np.zeros((m_ub, n_var))
    b_ub = np.zeros(m_ub)
    row_gcap = 0
    row_scap = n_gen
    for i in range(n_gen):
        a_ub[row_gcap + i, off_g + i] = 1.0
        b_ub[row_gcap + i] = cap[i]
    for j in range(n_dem):
        a_ub[row_scap + j, off_s + j] = 1.0
        b_ub[row_scap + j] = load[j]

    lp = LinearProgram(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                       lower=lower, upper=upper)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise InfeasibleOperation(
            f"dispatch LP ended {sol.status}; network data violates the "
            "shedding feasibility invariant")

    eta = np.empty(net.n_uncertain)
    eta[:n_gen] = -sol.duals_ub[row_gcap:row_gcap + n_gen]
    eta[n_gen:] = (sol.duals_eq[row_pin:row_pin + n_dem]
                   - sol.duals_ub[row_scap:row_scap + n_dem])

    x = sol.x
    shed = x[off_s:off_s + n_dem].copy()
    return OPFSolution(
        objective=sol.objective,
        generation=x[off_g:off_g + n_gen].copy(),
        served=x[off_p:off_p + n_dem] - shed,
        shed=shed,
        flow=x[off_f:off_f + n_line].copy(),
        flow_line_ids=tuple(ln.id for ln in lines),
        angle=x[off_t:].copy(),
        eta=eta,
        clipped=clipped,
    )
