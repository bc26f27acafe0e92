"""Mixed-binary linear minimization by LP-based branch and bound.

Node selection is best-bound (ties broken by creation order), branching picks
the most fractional binary (ties broken by lowest variable index), and child
LPs are warm-started from the parent basis through the dual simplex (a warm
start that falls back to a cold solve still returns its basis, so every open
node carries one). All node LPs share one simplex :class:`~.simplex.Layout`,
and both children of a branch start from one factorization of their
parent's basis. The root LP is solved cold, or warm by the dual simplex
from a given dual-feasible root state (a related MILP's root basis,
extended to this one), and its optimal state is returned for the next
such MILP. The search terminates when the absolute gap between
incumbent and best bound falls to ``gap_tol``; nodes are pruned only when they
provably cannot improve the incumbent by more than a much smaller margin, so
optimality never hinges on the looser reporting gap. The incumbent is
reported as found, without a re-solve.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import IterationLimit, NumericalError, ValidationError
from .simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    BasisState,
    Layout,
    LinearProgram,
    LPSolution,
    solve_lp_warm,
    solve_lp_with_state,
)

_PRUNE_SLACK = 1e-9
_INT_TOL = 1e-6


@dataclass
class MILPSolution:
    status: str
    x: np.ndarray | None = None
    objective: float = np.nan
    best_bound: float = np.nan
    gap: float = np.nan
    nodes: int = 0
    root_pivots: int = 0
    root_state: BasisState | None = None


@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)
    sol: LPSolution = field(compare=False)
    state: BasisState = field(compare=False)


def _fractional(x: np.ndarray, binary: np.ndarray) -> int | None:
    xb = x[binary]
    frac = np.abs(xb - np.round(xb))
    if frac.size == 0 or float(frac.max()) <= _INT_TOL:
        return None
    ties = np.flatnonzero(frac >= float(frac.max()) - 1e-9)
    return int(binary[ties[0]])


def solve_milp(lp: LinearProgram, binary, *, gap_tol: float = 1e-6,
               node_limit: int = 100_000,
               root_state: BasisState | None = None) -> MILPSolution:
    """Branch and bound over the variables of ``lp`` restricted to {0, 1},
    whose indices are ``binary``.

    The answer is the incumbent node's LP solution as found: its binaries
    are integral to within ``_INT_TOL`` (1e-6), so callers round them.
    ``root_state``, a basis state of the relaxation that is dual feasible
    for it, warm-starts the root LP by the dual simplex (falling back to a
    cold solve like any warm start); without it the root is solved cold.
    An optimal answer carries the root's pivot count and optimal state.
    Raises :class:`IterationLimit` when ``node_limit`` LP nodes were
    solved without proving optimality, and :class:`ValidationError` for
    malformed rows or bounds and for a binary index out of range or
    repeated.
    """
    binary = np.atleast_1d(np.asarray(binary, dtype=np.int64))
    # Every node LP shares one layout; it dies when this call returns.
    layout = Layout(lp)
    # Checked before the binaries' bounds are clipped.
    lp._validate_bounds()
    if binary.size and (binary.min() < 0 or binary.max() >= lp.n_vars):
        raise ValidationError("binary index out of range")
    if np.unique(binary).size != binary.size:
        raise ValidationError("duplicate binary index")

    lower = lp.lower.copy()
    upper = lp.upper.copy()
    if binary.size:
        lower[binary] = np.maximum(lower[binary], 0.0)
        upper[binary] = np.minimum(upper[binary], 1.0)

    root_lp = layout.program(lower, upper)
    if root_state is None:
        root_sol, root_state = solve_lp_with_state(root_lp)
    else:
        root_sol, root_state = solve_lp_warm(root_lp, root_state)
        # No child starts from the given state: drop its factorization.
        layout.last_factor = None
    nodes = 1
    if root_sol.status == STATUS_INFEASIBLE:
        return MILPSolution(status=STATUS_INFEASIBLE, nodes=nodes)
    if root_sol.status == STATUS_UNBOUNDED:
        raise NumericalError("LP relaxation is unbounded; the model is missing "
                             "a restraining constraint")

    incumbent: LPSolution | None = None
    incumbent_val = np.inf
    heap: list[_Node] = []
    seq = 0

    def push(sol: LPSolution, state, lo, up):
        nonlocal seq
        heapq.heappush(heap, _Node(sol.objective, seq, lo, up, sol, state))
        seq += 1

    push(root_sol, root_state, lower, upper)

    final_bound: float | None = None
    while heap:
        node = heapq.heappop(heap)
        # The heap is keyed on LP bounds, so the popped node carries the
        # global best bound: the gap test here is the termination criterion.
        if incumbent is not None and incumbent_val - node.bound <= gap_tol:
            final_bound = min(node.bound, incumbent_val)
            break
        j = _fractional(node.sol.x, binary)
        if j is None:
            val = node.bound
            if val < incumbent_val:
                incumbent_val = val
                incumbent = node.sol
            continue
        for fix in (0.0, 1.0):
            if nodes >= node_limit:
                raise IterationLimit(
                    f"branch and bound stopped after {nodes} LP nodes")
            lo = node.lower.copy()
            up = node.upper.copy()
            lo[j] = up[j] = fix
            child_sol, child_state = solve_lp_warm(layout.program(lo, up), node.state)
            nodes += 1
            if child_sol.status != STATUS_OPTIMAL:
                continue
            if incumbent is not None and child_sol.objective >= incumbent_val - _PRUNE_SLACK:
                continue
            push(child_sol, child_state, lo, up)

    if incumbent is None:
        return MILPSolution(status=STATUS_INFEASIBLE, nodes=nodes)
    if final_bound is None:
        final_bound = incumbent_val
    gap = max(0.0, incumbent_val - final_bound)
    return MILPSolution(status=STATUS_OPTIMAL, x=incumbent.x.copy(),
                        objective=incumbent.objective,
                        best_bound=final_bound, gap=gap, nodes=nodes,
                        root_pivots=root_sol.iterations, root_state=root_state)
