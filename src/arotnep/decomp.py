"""Two-level decomposition for robust expansion planning.

The outer loop alternates between an investment master problem and a
worst-case operational subproblem:

* the *inner* search maximizes operating cost over the uncertainty set for a
  fixed plan, by block-coordinate ascent: dispatch at the current point,
  take the cost gradient, move to the set point maximizing the linearized
  cost, repeat. Operating cost is convex in the uncertain vector, so each
  sweep is nondecreasing; multiple deterministic starts guard against
  stopping at a poor local maximizer.
* the *master* chooses candidate lines (binaries) and a cost ceiling that
  covers dispatch under every worst-case point collected so far, within the
  investment budget.

Upper bounds come from pricing the master's plan against its worst case,
lower bounds from the master itself.  Because the ascent is a heuristic, a
plan's price is only trusted once it covers dispatch under every stored
scenario; otherwise the ascent is restarted from the most expensive stored
point.  The loop stops when the relative gap closes, when the worst-case
search stops producing new points (stall), or at the iteration cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .ellipsoid import EllipsoidalSet
from .errors import IterationLimit, NumericalError, ValidationError
from .milp import MILPProblem, solve_milp
from .network import LINE_EXISTING, Network
from .opf import (ANGLE_BOUND, OPFSolution, clip_uncertain, dispatch_block,
                  solve_opf)
from .simplex import LinearProgram

# ---------------------------------------------------------------------------
# inner worst-case search


@dataclass
class InnerResult:
    worst_cost: float
    worst_point: np.ndarray
    dispatch: OPFSolution
    iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)


def inner_solve(net: Network, es: EllipsoidalSet, built=frozenset(), *,
                tol: float = 1e-6, max_iter: int = 100,
                start: np.ndarray | None = None) -> InnerResult:
    """Block-coordinate ascent from one starting point."""
    if es.dim != net.n_uncertain:
        raise ValidationError("uncertainty set dimension does not match network")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    if start is None:
        adverse = np.where(es.signs == 0.0, 1.0, es.signs)
        start = es.mean + adverse * np.sqrt(np.diag(es.covariance))
    d = es.pull_inside(np.asarray(start, dtype=float))

    history: list[float] = []
    prev_d: np.ndarray | None = None
    prev_q: float | None = None
    scale = 1.0 + float(np.max(np.abs(es.mean)))
    for it in range(1, max_iter + 1):
        sol = solve_opf(net, d=d, built=built)
        q = sol.objective
        history.append(q)
        if prev_d is not None:
            step_small = float(np.max(np.abs(d - prev_d))) <= tol * scale
            cost_small = abs(q - prev_q) <= tol * (1.0 + abs(q))
            if step_small or cost_small:
                return InnerResult(q, d, sol, it, True, history)
        move = es.bounded_step(sol.eta)
        if move.zero_gradient:
            # Flat cost around the current point: it is already maximal.
            return InnerResult(q, d, sol, it, True, history)
        prev_d, prev_q = d, q
        d = move.point
    return InnerResult(history[-1], prev_d, sol, max_iter, False, history)


def worst_case_cost(net: Network, es: EllipsoidalSet, built=frozenset(), *,
                    tol: float = 1e-6, max_iter: int = 100,
                    starts: int = 3, seed: int = 0) -> InnerResult:
    """Best converged result over several deterministic starts: the adverse
    one-sigma corner, the mean, and seeded random boundary points."""
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

    best: InnerResult | None = None
    for sp in start_points:
        res = inner_solve(net, es, built, tol=tol, max_iter=max_iter, start=sp)
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


def solve_master(net: Network, scenarios, *, gap_tol: float = 1e-6) -> MasterResult:
    """Pick candidate lines minimizing investment plus the worst dispatch
    cost over the stored scenarios."""
    candidates = list(net.candidate_lines)
    n_cand = len(candidates)
    scenarios = [clip_uncertain(np.asarray(s, dtype=float))[0] for s in scenarios]
    for s in scenarios:
        if s.size != net.n_uncertain:
            raise ValidationError("scenario size does not match network")
    if not scenarios:
        return MasterResult(frozenset(), 0.0, 0.0, 0.0, 0)

    lines = list(net.lines)
    coupled = [ln.status == LINE_EXISTING for ln in lines]
    n_scen = len(scenarios)

    # Columns: candidate binaries, the cost ceiling, then one dispatch block
    # [g | s | f | theta] per scenario.
    blocks = [dispatch_block(net, lines, scen, coupled) for scen in scenarios]
    n_block = blocks[0][0].size
    m_eq_block = blocks[0][2].size
    off_f = len(net.generators) + len(net.demands)
    off_t = off_f + len(lines)
    off_gamma = n_cand
    n_var = n_cand + 1 + n_scen * n_block

    c = np.zeros(n_var)
    c[:n_cand] = [ln.build_cost for ln in candidates]
    c[off_gamma] = 1.0

    lower = np.zeros(n_var)
    upper = np.full(n_var, np.inf)
    upper[:n_cand] = 1.0

    m_ub_block = 4 * n_cand + 1
    chains = _identical_chains(candidates)
    n_prec = sum(len(ch) - 1 for ch in chains)
    m_ub = n_scen * m_ub_block + 1 + n_prec

    a_eq = np.zeros((n_scen * m_eq_block, n_var))
    b_eq = np.zeros(n_scen * m_eq_block)
    a_ub = np.zeros((m_ub, n_var))
    b_ub = np.zeros(m_ub)

    cand_pos = {ln.id: i for i, ln in enumerate(candidates)}

    for k, (cost, blk_eq, blk_b, blk_lo, blk_up) in enumerate(blocks):
        col = n_cand + 1 + k * n_block
        cols = slice(col, col + n_block)
        req = k * m_eq_block
        rub = k * m_ub_block
        a_eq[req:req + m_eq_block, cols] = blk_eq
        b_eq[req:req + m_eq_block] = blk_b
        lower[cols] = blk_lo
        upper[cols] = blk_up

        of_ = col + off_f
        ot = col + off_t
        for li, ln in enumerate(lines):
            if coupled[li]:
                continue
            gamma_l = net.base_mva * ln.susceptance
            t_from = ot + net.bus_index[ln.from_bus]
            t_to = ot + net.bus_index[ln.to_bus]
            ci = cand_pos[ln.id]
            big_m = gamma_l * 2.0 * ANGLE_BOUND
            r0 = rub + 4 * ci
            # |f - gamma dtheta| <= M (1 - x)
            a_ub[r0, of_ + li] = 1.0
            a_ub[r0, t_from] = -gamma_l
            a_ub[r0, t_to] = gamma_l
            a_ub[r0, ci] = big_m
            b_ub[r0] = big_m
            a_ub[r0 + 1, of_ + li] = -1.0
            a_ub[r0 + 1, t_from] = gamma_l
            a_ub[r0 + 1, t_to] = -gamma_l
            a_ub[r0 + 1, ci] = big_m
            b_ub[r0 + 1] = big_m
            # |f| <= capacity x
            a_ub[r0 + 2, of_ + li] = 1.0
            a_ub[r0 + 2, ci] = -ln.capacity_mw
            a_ub[r0 + 3, of_ + li] = -1.0
            a_ub[r0 + 3, ci] = -ln.capacity_mw

        # Operating cost of this scenario must stay below the ceiling.
        cut = rub + 4 * n_cand
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

    lp = LinearProgram(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
                       lower=lower, upper=upper)
    milp = solve_milp(MILPProblem(lp, np.arange(n_cand)), gap_tol=gap_tol)
    if milp.status != "optimal":
        raise NumericalError(
            "investment master reported infeasible although the no-build "
            "plan always satisfies it; the model data is inconsistent")

    built = frozenset(ln.id for i, ln in enumerate(candidates)
                      if round(milp.x[i]) == 1)
    return MasterResult(built=built, gamma=float(milp.x[off_gamma]),
                        investment=investment_cost(net, built),
                        objective=float(milp.objective), nodes=milp.nodes)


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
    diff = z_up - z_lo
    tiny = 1e-12
    if abs(diff) <= tiny:
        return 0.0
    return diff / max(abs(z_up), tiny)


def outer_solve(net: Network, es: EllipsoidalSet, *, tol: float = 1e-6,
                max_outer: int = 50, inner_tol: float = 1e-6,
                max_inner: int = 100, inner_starts: int = 3, seed: int = 0,
                master_gap: float = 1e-6) -> PlanResult:
    """Column-and-constraint style alternation between master and worst case.

    Starts from the no-investment plan, then repeatedly: price the current
    plan against its worst case (upper bound), add that worst point as a
    master scenario, and re-plan (lower bound).

    The ascent that prices a plan is a heuristic, so its estimate is
    certified before it is trusted: the plan is replayed against every
    stored scenario, and if some stored point costs more than the ascent
    found, the ascent is resumed from that point (each sweep is
    nondecreasing, so resuming can only raise the estimate).  Stored plans
    are likewise re-replayed whenever a new scenario arrives.  Every
    retained price therefore covers the whole scenario pool, which keeps
    the upper bound (the cheapest certified plan) at or above the master's
    lower bound.
    """
    scenarios: list[np.ndarray] = []
    log: list[OuterIteration] = []
    built: frozenset[str] = frozenset()
    z_lo = -np.inf
    # Certified pricing per visited plan: investment, ceiling, certificate.
    candidates: dict[frozenset, tuple[float, float, InnerResult]] = {}
    stall_tol = 1e-6 * (1.0 + float(np.max(np.abs(es.mean))))

    def certify(plan: frozenset, raw: InnerResult) -> InnerResult:
        if not scenarios:
            return raw
        replay = [solve_opf(net, d=s, built=plan) for s in scenarios]
        k = int(np.argmax([r.objective for r in replay]))
        covered = (replay[k].objective
                   <= raw.worst_cost + 1e-9 * (1.0 + abs(raw.worst_cost)))
        if covered:
            return raw
        climb = inner_solve(net, es, plan, tol=inner_tol, max_iter=max_inner,
                            start=scenarios[k])
        if climb.worst_cost >= replay[k].objective:
            return climb
        return InnerResult(replay[k].objective, scenarios[k].copy(),
                           replay[k], 1, True, [replay[k].objective])

    status = "iteration_limit"
    for nu in range(1, max_outer + 1):
        tick = time.perf_counter()
        inner = certify(built, worst_case_cost(net, es, built, tol=inner_tol,
                                               max_iter=max_inner,
                                               starts=inner_starts, seed=seed))
        invest = investment_cost(net, built)
        prior = candidates.get(built)
        if prior is None or inner.worst_cost > prior[1]:
            candidates[built] = (invest, inner.worst_cost, inner)
        z_up = min(inv + q for inv, q, _ in candidates.values())
        gap = _relative_gap(z_up, z_lo) if np.isfinite(z_lo) else np.inf
        log.append(OuterIteration(nu=nu, built=built, investment=invest,
                                  worst_cost=inner.worst_cost, z_up=z_up,
                                  z_lo=z_lo, gap=gap,
                                  runtime_s=time.perf_counter() - tick))
        if gap <= tol:
            status = "converged"
            break
        repeated = any(float(np.max(np.abs(inner.worst_point - s))) <= stall_tol
                       for s in scenarios)
        if repeated:
            status = "stalled"
            break
        point = inner.worst_point.copy()
        scenarios.append(point)
        for plan, (inv, q, _) in list(candidates.items()):
            sol = solve_opf(net, d=point, built=plan)
            if sol.objective > q:
                candidates[plan] = (inv, sol.objective,
                                    InnerResult(sol.objective, point.copy(),
                                                sol, 1, True, [sol.objective]))
        master = solve_master(net, scenarios, gap_tol=master_gap)
        built = master.built
        z_lo = master.objective
        log[-1].runtime_s = time.perf_counter() - tick

    plan_built, (plan_inv, plan_q, plan_inner) = min(
        candidates.items(), key=lambda kv: kv[1][0] + kv[1][1])
    plan_up = plan_inv + plan_q
    return PlanResult(status=status, built=plan_built, investment=plan_inv,
                      worst_cost=plan_q, objective=plan_up,
                      z_lo=z_lo, z_up=plan_up,
                      gap=_relative_gap(plan_up, z_lo) if np.isfinite(z_lo) else np.inf,
                      scenarios=scenarios, iterations=log, inner=plan_inner)
