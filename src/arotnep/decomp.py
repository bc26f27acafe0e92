"""Two-level decomposition for robust expansion planning.

The outer loop alternates between an investment master problem and a
worst-case operational subproblem:

* the *inner* search maximizes operating cost over the uncertainty set for a
  fixed plan, by block-coordinate ascent: dispatch at the current point,
  take the cost gradient, move to the set point maximizing the linearized
  cost, repeat. Operating cost is convex in the uncertain vector, so each
  sweep is nondecreasing; multiple deterministic starts guard against
  stopping at a poor local maximizer.  The starts of one search share one
  store of priced points, so no point is dispatched twice, and each start
  after the first solves its first dispatch warm, from the last optimal
  basis the store holds: the plan fixes the dispatch LP's matrix and costs,
  so that basis is dual feasible at any point.  Ascent steps solve cold.
* the *master* chooses candidate lines (binaries) and a cost ceiling that
  covers dispatch under every worst-case point collected so far, within the
  investment budget.  It stacks one :func:`~.opf.dispatch_block` per
  scenario, with the candidates' big-M rows from
  :func:`~.opf.switching_rows` on each.

Both bounds read one table of dispatch costs, each visited plan at each
stored scenario (see :func:`outer_solve`).  The loop stops when the gap
closes, when the worst-case search stops producing new points (stall), or
at the iteration cap.

Each iteration adds one scenario, so master ``k + 1`` is master ``k`` plus
one dispatch block.  Only the first master solves its root LP cold; every
later root starts from the previous root's optimal basis, extended by the
new block (:meth:`~.simplex.BasisState.extended`): the artificials of its
equality rows and the slacks of its big-M, capacity and cost-cut rows
become basic, its dispatch columns nonbasic at their lower bounds.  Those
basic columns have zero cost and appear only in the new rows, so the new
rows' duals are 0, the old duals and every reduced cost are unchanged (the
new columns' are their zero costs), and the extended basis is dual
feasible: the dual simplex repairs the new block's values and its violated
cost cut.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .ellipsoid import EllipsoidalSet
from .errors import IterationLimit, NumericalError, ValidationError
from .milp import solve_milp
from .network import LINE_EXISTING, Network
from .opf import (OPFSolution, clip_uncertain, dispatch_block, solve_opf,
                  switching_rows)
from .simplex import BasisState, LinearProgram

# ---------------------------------------------------------------------------
# inner worst-case search


@dataclass
class InnerResult:
    worst_cost: float
    worst_point: np.ndarray
    dispatch: OPFSolution
    iterations: int
    converged: bool


def inner_solve(net: Network, es: EllipsoidalSet, built=frozenset(), *,
                tol: float = 1e-6, max_iter: int = 100,
                start: np.ndarray | None = None,
                priced: dict[bytes, OPFSolution] | None = None) -> InnerResult:
    """Block-coordinate ascent from one starting point, pulled inside the
    set.  It stops on a step or cost change within ``tol``, a zero gradient,
    or a step back to its point.

    ``priced`` maps the bytes of each point already dispatched under
    ``built`` to its dispatch, in solve order; the ascent reads and extends
    it, and solves its first dispatch warm from the last one it holds.  Its
    steps are dispatched cold."""
    if es.dim != net.n_uncertain:
        raise ValidationError("uncertainty set dimension does not match network")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    if start is None:
        adverse = np.where(es.signs == 0.0, 1.0, es.signs)
        start = es.mean + adverse * np.sqrt(np.diag(es.covariance))
    d = es.pull_inside(start)
    priced = {} if priced is None else priced
    sol = _dispatch(net, built, d, priced, warm=True)
    scale = 1.0 + float(np.max(np.abs(es.mean)))
    for it in range(1, max_iter + 1):
        move = es.bounded_step(sol.eta)
        if move.zero_gradient or np.array_equal(move.point, d):
            # A flat cost, or a step back to the point: it is already maximal.
            return InnerResult(sol.objective, d, sol, it, True)
        if it == max_iter:
            break
        new = _dispatch(net, built, move.point, priced)
        small = (float(np.max(np.abs(move.point - d))) <= tol * scale
                 or abs(new.objective - sol.objective) <= tol * (1.0 + abs(new.objective)))
        d, sol = move.point, new
        if small:
            return InnerResult(sol.objective, d, sol, it + 1, True)
    return InnerResult(sol.objective, d, sol, max_iter, False)


def _dispatch(net: Network, built, d: np.ndarray, priced: dict[bytes, OPFSolution],
              warm: bool = False) -> OPFSolution:
    """``built``'s dispatch at ``d`` from ``priced``, solved and stored when
    missing; a ``warm`` solve starts from the last basis stored."""
    key = d.tobytes()
    sol = priced.get(key)
    if sol is None:
        last = next(reversed(priced.values()), None) if warm else None
        sol = priced[key] = solve_opf(net, d=d, built=built,
                                      warm=None if last is None else last.basis)
    return sol


def worst_case_cost(net: Network, es: EllipsoidalSet, built=frozenset(), *,
                    tol: float = 1e-6, max_iter: int = 100,
                    starts: int = 3, seed: int = 0) -> InnerResult:
    """Best converged result over several deterministic starts: the adverse
    one-sigma corner, the mean, and seeded random boundary points.  The
    starts share one store of priced points (see :func:`inner_solve`)."""
    if starts < 1:
        raise ValidationError("starts must be at least 1")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    start_points: list[np.ndarray | None] = [None]
    if starts >= 2:
        start_points.append(es.mean.copy())
    rng = np.random.default_rng(seed)
    for _ in range(max(0, starts - 2)):
        z = rng.standard_normal(es.dim)
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            z, nz = np.ones(es.dim), float(np.sqrt(es.dim))
        start_points.append(es.pull_inside(es.map_z(z / nz * es.radius)))

    priced: dict[bytes, OPFSolution] = {}
    best: InnerResult | None = None
    for sp in start_points:
        res = inner_solve(net, es, built, tol=tol, max_iter=max_iter, start=sp,
                          priced=priced)
        if not res.converged:
            continue
        if best is None or res.worst_cost > best.worst_cost:
            best = res
    if best is None:
        raise IterationLimit(
            f"worst-case search did not converge from any of {starts} starts "
            f"within {max_iter} sweeps")
    return best


# ---------------------------------------------------------------------------
# master investment problem


@dataclass
class MasterResult:
    built: frozenset[str]
    gamma: float
    investment: float
    objective: float
    nodes: int
    root_pivots: int = 0
    # Optimal basis of the root LP, which warm-starts the next master's root.
    root_state: BasisState | None = None


def investment_cost(net: Network, built) -> float:
    cost = {ln.id: ln.build_cost for ln in net.candidate_lines}
    return float(sum(cost[b] for b in built))


def _identical_chains(candidates) -> list[list[int]]:
    """Indices of interchangeable candidates (same corridor and data),
    used to order their binaries and break symmetry."""
    groups: dict[tuple, list[int]] = {}
    for idx, ln in enumerate(candidates):
        key = (tuple(sorted((ln.from_bus, ln.to_bus))), ln.susceptance,
               ln.capacity_mw, ln.build_cost)
        groups.setdefault(key, []).append(idx)
    return [chain for chain in groups.values() if len(chain) > 1]


def solve_master(net: Network, scenarios, *, gap_tol: float = 1e-6,
                 root_state: BasisState | None = None) -> MasterResult:
    """Pick candidate lines minimizing investment plus the worst dispatch
    cost over the stored scenarios.

    ``root_state`` is the :attr:`MasterResult.root_state` of the master over
    all scenarios but the last; it warm-starts the root LP, and a state
    from any other master raises :class:`ValidationError`."""
    candidates = list(net.candidate_lines)
    n_cand = len(candidates)
    scenarios = [clip_uncertain(np.asarray(s, dtype=float))[0] for s in scenarios]
    for s in scenarios:
        if s.size != net.n_uncertain:
            raise ValidationError("scenario size does not match network")
    if not scenarios:
        return MasterResult(frozenset(), 0.0, 0.0, 0.0, 0)

    lines = list(net.lines)
    # The uncoupled lines are the candidates, in order.
    coupled = [ln.status == LINE_EXISTING for ln in lines]
    n_scen = len(scenarios)

    # Columns: candidate binaries, the cost ceiling, then one dispatch block
    # per scenario.  Each block's <= rows are the candidates' switching rows
    # and the block's cost cut.
    blocks = [dispatch_block(net, lines, scen, coupled) for scen in scenarios]
    sw, sw_x, sw_b = switching_rows(net, lines, coupled)
    n_block = blocks[0][0].size
    m_eq_block = blocks[0][2].size
    m_ub_block = sw_b.size + 1
    off_gamma = n_cand
    n_var = n_cand + 1 + n_scen * n_block

    c = np.zeros(n_var)
    c[:n_cand] = [ln.build_cost for ln in candidates]
    c[off_gamma] = 1.0

    lower = np.zeros(n_var)
    upper = np.full(n_var, np.inf)
    upper[:n_cand] = 1.0

    chains = _identical_chains(candidates)
    n_prec = sum(len(ch) - 1 for ch in chains)
    m_ub = n_scen * m_ub_block + 1 + n_prec

    a_eq = np.zeros((n_scen * m_eq_block, n_var))
    b_eq = np.zeros(n_scen * m_eq_block)
    a_ub = np.zeros((m_ub, n_var))
    b_ub = np.zeros(m_ub)

    for k, (cost, blk_eq, blk_b, blk_lo, blk_up) in enumerate(blocks):
        col = n_cand + 1 + k * n_block
        cols = slice(col, col + n_block)
        req = k * m_eq_block
        rub = k * m_ub_block
        cut = rub + sw_b.size
        a_eq[req:req + m_eq_block, cols] = blk_eq
        b_eq[req:req + m_eq_block] = blk_b
        lower[cols] = blk_lo
        upper[cols] = blk_up
        a_ub[rub:cut, cols] = sw
        a_ub[rub:cut, :n_cand] = sw_x
        b_ub[rub:cut] = sw_b
        # Operating cost of this scenario must stay below the ceiling.
        a_ub[cut, cols] = cost
        a_ub[cut, off_gamma] = -1.0

    row = n_scen * m_ub_block
    a_ub[row, :n_cand] = c[:n_cand]
    b_ub[row] = net.budget
    row += 1
    for chain in chains:
        for earlier, later in zip(chain, chain[1:]):
            a_ub[row, later] = 1.0
            a_ub[row, earlier] = -1.0
            row += 1

    if root_state is not None:
        # The last block's <= rows go before the budget and symmetry rows.
        root_state = root_state.extended(
            (n_var, a_eq.shape[0], m_ub), (n_block, m_eq_block, m_ub_block),
            ub_at=(n_scen - 1) * m_ub_block)
    lp = LinearProgram(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                       lower=lower, upper=upper)
    milp = solve_milp(lp, np.arange(n_cand), gap_tol=gap_tol, root_state=root_state)
    if milp.status != "optimal":
        raise NumericalError(
            "investment master reported infeasible although the no-build "
            "plan always satisfies it; the model data is inconsistent")

    built = frozenset(ln.id for i, ln in enumerate(candidates)
                      if round(milp.x[i]) == 1)
    return MasterResult(built=built, gamma=float(milp.x[off_gamma]),
                        investment=investment_cost(net, built),
                        objective=float(milp.objective), nodes=milp.nodes,
                        root_pivots=milp.root_pivots, root_state=milp.root_state)


# ---------------------------------------------------------------------------
# outer loop


@dataclass
class OuterIteration:
    nu: int
    built: frozenset[str]
    investment: float
    worst_cost: float
    z_up: float
    z_lo: float
    gap: float
    master_nodes: int  # B&B nodes of this iteration's master; 0 when none ran
    master_root_pivots: int  # pivots of that master's root LP; 0 when none ran
    # Wall clock: the worst-case search (with the table row it is checked
    # against and any re-ascent), the master (0 when none ran), and the
    # whole iteration.
    search_s: float
    master_s: float
    runtime_s: float


@dataclass
class PlanResult:
    status: str  # "converged" | "stalled" | "iteration_limit"
    built: frozenset[str]
    investment: float
    worst_cost: float
    objective: float
    z_lo: float
    z_up: float
    gap: float
    scenarios: list[np.ndarray]
    iterations: list[OuterIteration]
    inner: InnerResult


def _relative_gap(z_up: float, z_lo: float) -> float:
    return (z_up - z_lo) / max(abs(z_up), 1e-12)


def outer_solve(net: Network, es: EllipsoidalSet, *, tol: float = 1e-6,
                max_outer: int = 50, inner_tol: float = 1e-6,
                max_inner: int = 100, inner_starts: int = 3, seed: int = 0,
                master_gap: float = 1e-6) -> PlanResult:
    """Column-and-constraint style alternation between master and worst case.

    Starts from the no-investment plan, then repeatedly: price the current
    plan against its worst case (upper bound), add that worst point as a
    master scenario, and re-plan (lower bound).

    Every dispatch price comes from one table, each visited plan's dispatch
    at each stored scenario, solved once.  When a plan's search misses a
    costlier stored scenario, :func:`inner_solve` ascends again from that
    scenario, with its table dispatch as the one priced point.  A plan's
    price is the larger of its last ascent and its costliest stored
    scenario, whose table entry is then the reported dispatch.  A plan that
    a master returns again keeps its first :func:`worst_case_cost` result,
    which the stored scenarios then check as they check a fresh one.
    ``z_up`` is the cheapest price, ``z_lo`` the master's plan priced over
    the stored scenarios; a master objective off ``z_lo``, or a ``z_lo``
    above ``z_up``, by more than ``master_gap`` raises
    :class:`NumericalError`.
    """
    if max_outer < 1:
        raise ValidationError(f"max_outer must be at least 1, got {max_outer}")
    for name, value in (("tol", tol), ("inner_tol", inner_tol), ("master_gap", master_gap)):
        if not value >= 0.0:
            raise ValidationError(f"{name} must be nonnegative, got {value}")
    scenarios: list[np.ndarray] = []
    log: list[OuterIteration] = []
    built: frozenset[str] = frozenset()
    z_lo = -np.inf
    table: dict[frozenset, list[OPFSolution]] = {}  # plan -> dispatch per scenario
    searched: dict[frozenset, InnerResult] = {}  # last ascent per plan
    # worst_case_cost per plan: it is deterministic, so a plan that a master
    # returns again is not searched again.
    found: dict[frozenset, InnerResult] = {}
    stall_tol = 1e-6 * (1.0 + float(np.max(np.abs(es.mean))))

    def stored_worst(plan: frozenset) -> tuple[float, int]:
        """Cost and index of ``plan``'s costliest stored scenario."""
        row = table.setdefault(plan, [])
        row.extend(solve_opf(net, d=s, built=plan) for s in scenarios[len(row):])
        k, q = max(enumerate(sol.objective for sol in row), key=lambda kq: kq[1],
                   default=(-1, -np.inf))
        return q, k

    def price(plan: frozenset) -> InnerResult:
        """``plan``'s worst case: its last ascent, or the stored scenario
        that costs more, with the table's dispatch."""
        q, k = stored_worst(plan)
        best = searched[plan]
        if q > best.worst_cost:
            return InnerResult(q, scenarios[k].copy(), table[plan][k], 1, True)
        return best

    def upper_bound() -> tuple[frozenset, float]:
        totals = {p: investment_cost(net, p) + price(p).worst_cost for p in searched}
        plan = min(totals, key=totals.get)
        if z_lo > totals[plan] + master_gap:
            raise NumericalError(f"lower bound {z_lo!r} exceeds upper bound "
                                 f"{totals[plan]!r} by more than {master_gap:g}")
        return plan, totals[plan]

    # The last master's root basis, which starts the next master's root.
    root_state: BasisState | None = None
    status = "iteration_limit"
    for nu in range(1, max_outer + 1):
        tick = time.perf_counter()
        if built not in found:
            found[built] = worst_case_cost(net, es, built, tol=inner_tol, max_iter=max_inner,
                                           starts=inner_starts, seed=seed)
        search = found[built]
        q, k = stored_worst(built)
        if q > search.worst_cost:  # the ascent missed a costlier stored point
            search = inner_solve(net, es, built, tol=inner_tol, max_iter=max_inner,
                                 start=scenarios[k],
                                 priced={scenarios[k].tobytes(): table[built][k]})
        search_s = time.perf_counter() - tick
        searched[built] = search
        worst = price(built)
        z_up = upper_bound()[1]
        gap = _relative_gap(z_up, z_lo)
        log.append(OuterIteration(nu=nu, built=built,
                                  investment=investment_cost(net, built),
                                  worst_cost=worst.worst_cost, z_up=z_up, z_lo=z_lo,
                                  gap=gap, master_nodes=0, master_root_pivots=0,
                                  search_s=search_s, master_s=0.0,
                                  runtime_s=time.perf_counter() - tick))
        if gap <= tol:
            status = "converged"
            break
        point = worst.worst_point
        if any(float(np.max(np.abs(point - s))) <= stall_tol for s in scenarios):
            status = "stalled"
            break
        # A stored point would have stalled, so this one is the ascent's.
        scenarios.append(point.copy())
        table[built].append(worst.dispatch)
        master_tick = time.perf_counter()
        master = solve_master(net, scenarios, gap_tol=master_gap,
                              root_state=root_state)
        log[-1].master_s = time.perf_counter() - master_tick
        root_state = master.root_state
        built = master.built
        z_lo = master.investment + stored_worst(built)[0]
        if abs(z_lo - master.objective) > master_gap:
            raise NumericalError(f"master objective {master.objective!r} is off its "
                                 f"priced plan {z_lo!r} by more than {master_gap:g}")
        log[-1].master_nodes = master.nodes
        log[-1].master_root_pivots = master.root_pivots
        log[-1].runtime_s = time.perf_counter() - tick

    plan, z_up = upper_bound()
    inner = price(plan)
    return PlanResult(status=status, built=plan,
                      investment=investment_cost(net, plan), worst_cost=inner.worst_cost,
                      objective=z_up, z_lo=z_lo, z_up=z_up,
                      gap=_relative_gap(z_up, z_lo), scenarios=scenarios,
                      iterations=log, inner=inner)
