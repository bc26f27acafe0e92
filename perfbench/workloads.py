"""The benchmark's workloads: inputs made from a seed, the set-up a user
pays before the first operation, one timed round of operations, and the
checks on a round's outputs.

Every workload runs on the bundled garver6 study.  A round is a fixed list
of operations, so a run attempts whole rounds and its share of failed
operations does not depend on how many rounds fit in the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import arotnep
from arotnep import cli, config, decomp, montecarlo, network

HERE = Path(__file__).resolve().parent
STUDY_FILE = arotnep.study_path("garver6_study")
PLAN_FILE = HERE / "data" / "garver6_plan.json"

VALIDATE_SAMPLES = 1000
PLAN_SIZES = range(8)  # candidate plans build 0..7 lines, evenly
WORST_CASE_PER_SIZE = 14  # 112 searches per round
CORR_PER_SIZE = 3  # 24 searches per round

# Correlations of the correlated workload: a base value per pair class,
# jittered per pair from the seed.
RHO_GENERATORS = -0.3
RHO_DEMANDS = 0.6
RHO_CROSS = 0.1
RHO_JITTER = 0.05


@dataclass
class Setup:
    cfg: config.StudyConfig
    net: network.Network
    es: arotnep.EllipsoidalSet
    plan: dict | None = None


@dataclass
class Inputs:
    study_file: Path
    plan_file: Path | None = None
    plans: list[frozenset] = field(default_factory=list)
    seed: int = 0
    radius: float | None = None  # overrides the study's quantile


def set_up(inp: Inputs) -> Setup:
    """Read the study (and a plan), load and annualize the network, and
    build the uncertainty set, as ``arotnep validate`` does."""
    cfg = config.load_study_config(inp.study_file)
    plan = radius = None
    if inp.plan_file is not None:
        plan = cli.read_plan_file(inp.plan_file)
        if network.network_hash(config.resolve_network_path(cfg)) != plan["network_hash"]:
            raise arotnep.ValidationError("plan file does not match the network")
        radius = float(plan["radius"])
    net = config.load_configured_network(cfg)
    es = config.build_uncertainty(cfg, net, radius=radius)
    return Setup(cfg, net, es, plan)


@dataclass
class Round:
    """Outputs of one round; ``latencies_s`` holds one entry per operation
    timed on its own."""

    outputs: list
    latencies_s: list[float]
    attempted: int
    failed: int = 0


def candidate_plans(seed: int, per_size: int) -> list[frozenset]:
    """Budget-feasible line selections, ``per_size`` for each size in
    ``PLAN_SIZES``: candidates are taken in a seeded random order and kept
    while the budget allows, until the size is reached."""
    raw = json.loads((STUDY_FILE.parent / "garver6.json").read_text())
    study = json.loads(STUDY_FILE.read_text())
    rate = study["annualize"]["discount_rate"]
    cands = [(ln["id"], rate * ln["build_cost"]) for ln in raw["lines"]
             if ln["status"] == "candidate"]
    rng = np.random.default_rng([seed, 1])
    plans = []
    for size in PLAN_SIZES:
        for _ in range(per_size):
            built, spent = [], 0.0
            for i in rng.permutation(len(cands)):
                if len(built) == size:
                    break
                if spent + cands[i][1] <= raw["budget"]:
                    built.append(cands[i][0])
                    spent += cands[i][1]
            plans.append(frozenset(built))
    return plans


def correlation_matrix(seed: int, n_gen: int, n: int) -> np.ndarray:
    """Dense, positive definite correlations: every pair nonzero, generator
    pairs near ``RHO_GENERATORS``, demand pairs near ``RHO_DEMANDS`` and
    mixed pairs near ``RHO_CROSS``."""
    rng = np.random.default_rng([seed, 2])
    while True:
        corr = np.full((n, n), RHO_CROSS)
        corr[:n_gen, :n_gen] = RHO_GENERATORS
        corr[n_gen:, n_gen:] = RHO_DEMANDS
        jitter = np.triu(rng.uniform(-RHO_JITTER, RHO_JITTER, (n, n)), 1)
        corr += jitter + jitter.T
        np.fill_diagonal(corr, 1.0)
        if np.linalg.eigvalsh(corr)[0] > 0.1:
            return corr


# ---------------------------------------------------------------------------
# workloads


class Plan:
    name = "plan-garver6"

    def inputs(self, seed: int, out_dir: Path) -> Inputs:
        # The bundled study fixes its own multistart seed; the benchmark
        # seed does not change this workload.
        return Inputs(STUDY_FILE, seed=seed)

    def run_round(self, st: Setup, inp: Inputs) -> Round:
        cfg = st.cfg
        tick = perf_counter()
        plan = decomp.outer_solve(
            st.net, st.es, tol=cfg.tolerance, max_outer=cfg.max_outer,
            inner_tol=cfg.tolerance, max_inner=cfg.max_inner,
            inner_starts=cfg.inner_starts, seed=cfg.seed,
            master_gap=cfg.tolerance)
        return Round([plan], [perf_counter() - tick], 1)

    def values(self, rnd: Round) -> np.ndarray:
        return np.array([rnd.outputs[0].objective, rnd.outputs[0].z_lo])

    def check(self, st: Setup, inp: Inputs, rnd: Round, ref) -> list[str]:
        plan = rnd.outputs[0]
        errors = []
        q = plan.worst_cost
        tol = 1e-7 * (1.0 + abs(q))
        if plan.status != "converged":
            errors.append(f"plan ended {plan.status}")
        invest = sum(ref.build_cost[b] for b in plan.built)
        if invest > ref.budget + 1e-9 or abs(invest - plan.investment) > 1e-9:
            errors.append(f"investment {plan.investment} (reference {invest}) "
                          f"breaks the budget {ref.budget}")
        if plan.z_lo > plan.z_up + 1e-9 * (1.0 + abs(plan.z_up)):
            errors.append(f"z_lo {plan.z_lo} exceeds z_up {plan.z_up}")
        if not ref.in_set(plan.inner.worst_point):
            errors.append("worst point lies outside the set")
        worst = ref.dispatch_cost(plan.inner.worst_point, plan.built)
        if abs(worst - q) > tol:
            errors.append(f"worst cost {q} but HiGHS prices the point at {worst}")
        for k, scen in enumerate(plan.scenarios):
            cost = ref.dispatch_cost(scen, plan.built)
            if cost > q + tol:
                errors.append(f"scenario {k} costs {cost} > certified {q}")
        z_ref = ref.master_objective(plan.scenarios)
        if abs(z_ref - plan.z_lo) > 1e-6 * (1.0 + abs(z_ref)):
            errors.append(f"z_lo {plan.z_lo} but the HiGHS master gives {z_ref}")
        return errors


class Validate:
    name = "validate-garver6"

    def inputs(self, seed: int, out_dir: Path) -> Inputs:
        radius = json.loads(PLAN_FILE.read_text())["radius"]
        return Inputs(STUDY_FILE, PLAN_FILE, seed=seed, radius=radius)

    def run_round(self, st: Setup, inp: Inputs) -> Round:
        study = montecarlo.SimulationStudy(
            n_samples=VALIDATE_SAMPLES, seed=inp.seed,
            q_star=float(st.plan["worst_cost"]), radius=st.es.radius)
        built = frozenset(st.plan["built"])
        tick = perf_counter()
        report = montecarlo.run_simulation(st.net, built, st.es, study)
        per_sample = (perf_counter() - tick) / study.n_samples
        return Round([report], [per_sample], study.n_samples, report.failed_samples)

    def values(self, rnd: Round) -> np.ndarray:
        return rnd.outputs[0].costs

    def check(self, st: Setup, inp: Inputs, rnd: Round, ref) -> list[str]:
        report = rnd.outputs[0]
        built = st.plan["built"]
        # Draw the same Gaussian samples from an independent factorization.
        rng = np.random.default_rng(inp.seed)
        z = rng.standard_normal((report.n_samples, ref.mean.size))
        draws = ref.mean + z @ np.linalg.cholesky(ref.covariance).T
        ref_costs = np.array([ref.dispatch_cost(d, built) for d in draws])
        errors = []
        bad = np.abs(report.costs - ref_costs) > 1e-7 * (1.0 + np.abs(ref_costs))
        if np.any(bad | ~np.isfinite(report.costs)):
            errors.append(f"{int(np.sum(bad))} sample costs differ from HiGHS")
        expected = float(np.sum(ref_costs <= report.q_star)) / report.n_samples
        if abs(report.non_exceedance - expected) > 1.5 / report.n_samples:
            errors.append(f"non-exceedance {report.non_exceedance}, "
                          f"HiGHS gives {expected}")
        return errors


class WorstCase:
    name = "worstcase-garver6"
    per_size = WORST_CASE_PER_SIZE

    def inputs(self, seed: int, out_dir: Path) -> Inputs:
        return Inputs(STUDY_FILE, plans=candidate_plans(seed, self.per_size), seed=seed)

    def run_round(self, st: Setup, inp: Inputs) -> Round:
        cfg = st.cfg
        outputs, latencies, failed = [], [], 0
        for built in inp.plans:
            tick = perf_counter()
            try:
                res = decomp.worst_case_cost(
                    st.net, st.es, built, tol=cfg.tolerance,
                    max_iter=cfg.max_inner, starts=cfg.inner_starts,
                    seed=cfg.seed)
            except arotnep.ArotnepError:
                res = None
                failed += 1
            latencies.append(perf_counter() - tick)
            outputs.append(res)
        return Round(outputs, latencies, len(inp.plans), failed)

    def values(self, rnd: Round) -> np.ndarray:
        return np.array([np.nan if r is None else r.worst_cost for r in rnd.outputs])

    def check(self, st: Setup, inp: Inputs, rnd: Round, ref) -> list[str]:
        errors = []
        steps_checked = 0
        for built, res in zip(inp.plans, rnd.outputs):
            if res is None:
                continue
            q = res.worst_cost
            tag = f"plan {sorted(built)}"
            if not ref.in_set(res.worst_point):
                errors.append(f"{tag}: worst point outside the set")
            cost = ref.dispatch_cost(res.worst_point, built)
            if abs(cost - q) > 1e-7 * (1.0 + abs(q)):
                errors.append(f"{tag}: worst cost {q}, HiGHS {cost}")
            at_mean = ref.dispatch_cost(ref.mean, built)
            if q < at_mean - 1e-7 * (1.0 + abs(at_mean)):
                errors.append(f"{tag}: worst cost {q} below the cost at the mean {at_mean}")
            # One step per search: the step from the worst point's gradient.
            eta = res.dispatch.eta
            if float(np.max(np.abs(eta))) > 1e-12:
                step = st.es.bounded_step(eta)
                best = ref.best_step(eta)
                if not ref.in_set(step.point):
                    errors.append(f"{tag}: bounded step leaves the set")
                if float(eta @ step.point) < best - 1e-6 * (1.0 + abs(best)):
                    errors.append(f"{tag}: bounded step reaches {eta @ step.point}, "
                                  f"the convex solve {best}")
                steps_checked += 1
        if steps_checked == 0:
            errors.append("no bounded step was checked")
        return errors


class WorstCaseCorrelated(WorstCase):
    name = "worstcase-garver6-corr"
    per_size = CORR_PER_SIZE

    def inputs(self, seed: int, out_dir: Path) -> Inputs:
        """Write a copy of the bundled study whose correlation list covers
        every pair with a matrix drawn from the seed."""
        study = json.loads(STUDY_FILE.read_text())
        raw = json.loads((STUDY_FILE.parent / study["network"]).read_text())
        ids = [g["id"] for g in raw["generators"]] + [d["id"] for d in raw["demands"]]
        corr = correlation_matrix(seed, len(raw["generators"]), len(ids))
        study["network"] = str(STUDY_FILE.parent / study["network"])
        study["uncertainty"]["correlations"] = [
            {"a": ids[i], "b": ids[j], "rho": float(corr[i, j])}
            for i in range(len(ids)) for j in range(i + 1, len(ids))]
        path = out_dir / f"study-corr-seed{seed}.json"
        path.write_text(json.dumps(study, indent=1))
        return Inputs(path, plans=candidate_plans(seed, self.per_size), seed=seed)


WORKLOADS = {w.name: w for w in (Plan(), Validate(), WorstCase(), WorstCaseCorrelated())}
