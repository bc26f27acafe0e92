"""Independent reference solutions, built from the network and study JSON
files and solved with SciPy's HiGHS interface.

Nothing here imports the package under test: the dispatch LP, the master
MILP and the ellipsoid-and-box step are re-derived from the raw files, so a
fault in the package's parsing, model building or solvers cannot also hide
in its reference.  None of this is timed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import (Bounds, LinearConstraint, linprog, lsq_linear, milp,
                            minimize_scalar)

ANGLE_BOUND = math.pi


class ReferenceModel:
    """The planning model of one study, read straight from its files.

    Reads the study forms the benchmark uses: fractional spreads and box
    limits, sign-restricted deviations, pairwise correlations and a target
    quantile; ``radius`` overrides the quantile (a plan file carries its own).
    """

    def __init__(self, study_file: Path, radius: float | None = None):
        study = json.loads(Path(study_file).read_text())
        net = json.loads((Path(study_file).parent / study["network"]).read_text())
        self.buses = [b["id"] for b in net["buses"]]
        self.bus = {b: i for i, b in enumerate(self.buses)}
        self.ref_bus = next(b["id"] for b in net["buses"] if b.get("reference"))
        self.base_mva = float(net["base_mva"])
        self.budget = float(net["budget"])
        hours = float(net["weighting_factor_hours"])
        rate = study["annualize"]["discount_rate"] if "annualize" in study else 1.0
        self.lines = net["lines"]
        self.gens = net["generators"]
        self.dems = net["demands"]
        self.candidates = [ln for ln in self.lines if ln["status"] == "candidate"]
        self.build_cost = {ln["id"]: rate * float(ln.get("build_cost", 0.0))
                           for ln in self.candidates}
        self.gen_cost = np.array([hours * g["marginal_cost"] for g in self.gens])
        self.shed_cost = np.array([hours * d["shed_cost"] for d in self.dems])
        self.n_gen = len(self.gens)

        # The uncertainty set: generator capacities then demand loads.
        unc = study["uncertainty"]
        self.ids = [g["id"] for g in self.gens] + [d["id"] for d in self.dems]
        self.mean = np.array([g["capacity_mw"] for g in self.gens]
                             + [d["load_mw"] for d in self.dems], dtype=float)
        n = self.mean.size
        frac = np.array([unc["std"]["generator_fraction"]] * self.n_gen
                        + [unc["std"]["demand_fraction"]] * (n - self.n_gen))
        std = frac * self.mean / unc["std"].get("interval_z", 2.3263)
        corr = np.eye(n)
        pos = {uid: i for i, uid in enumerate(self.ids)}
        for entry in unc.get("correlations", []):
            i, j = pos[entry["a"]], pos[entry["b"]]
            corr[i, j] = corr[j, i] = entry["rho"]
        self.covariance = corr * np.outer(std, std)
        self.precision = np.linalg.inv(self.covariance)
        if radius is None:
            from statistics import NormalDist
            radius = NormalDist().inv_cdf(unc["quantile"])
        self.radius = float(radius)
        bnd = unc["bounds"]
        hw = np.array([bnd["generator_fraction"]] * self.n_gen
                      + [bnd["demand_fraction"]] * (n - self.n_gen)) * self.mean
        signs = np.array([-1.0] * self.n_gen + [1.0] * (n - self.n_gen))
        self.lower = np.where(signs > 0, self.mean, self.mean - hw)
        self.upper = np.where(signs < 0, self.mean, self.mean + hw)

    # -- set geometry ------------------------------------------------------

    def in_set(self, d: np.ndarray, tol: float = 1e-7) -> bool:
        d = np.asarray(d, dtype=float)
        scale = 1.0 + float(np.max(np.abs(self.mean)))
        if np.any(d < self.lower - tol * scale) or np.any(d > self.upper + tol * scale):
            return False
        delta = d - self.mean
        return float(delta @ self.precision @ delta) <= self.radius**2 * (1.0 + tol) + tol

    def best_step(self, eta: np.ndarray) -> float:
        """max ``eta @ d`` over the ellipsoid intersected with the box, as
        the minimum of its Lagrangian dual over the ellipsoid multiplier.

        For a multiplier ``w > 0`` the dual function is a box-constrained
        least-squares problem (solved by BVLS); every value of it bounds the
        maximum from above, and strong duality holds because the mean lies
        strictly inside the ellipsoid.
        """
        eta = np.asarray(eta, dtype=float)
        R = np.linalg.cholesky(self.precision).T  # precision = R' R
        target = np.linalg.solve(R.T, eta)
        bounds = (self.lower - self.mean, self.upper - self.mean)
        r2 = self.radius**2

        def dual(log_w: float) -> float:
            w = math.exp(log_w)
            delta = lsq_linear(R, target / w, bounds=bounds, method="bvls",
                               tol=1e-14).x
            return float(eta @ delta - 0.5 * w * (delta @ self.precision @ delta - r2))

        w0 = math.sqrt(float(eta @ self.covariance @ eta)) / max(self.radius, 1e-12)
        res = minimize_scalar(dual, bounds=(math.log(w0) - 30.0, math.log(w0) + 30.0),
                              method="bounded", options={"xatol": 1e-10})
        return float(eta @ self.mean) + float(res.fun)

    # -- dispatch LP -------------------------------------------------------

    def dispatch_cost(self, d: np.ndarray, built) -> float:
        """Minimum operating cost for capacities and loads ``d`` with the
        existing lines plus the candidate ids in ``built``."""
        d = np.maximum(np.asarray(d, dtype=float), 0.0)
        cap, load = d[:self.n_gen], d[self.n_gen:]
        built = set(built)
        lines = [ln for ln in self.lines if ln["status"] == "existing" or ln["id"] in built]
        ng, nd, nl, nb = self.n_gen, len(self.dems), len(lines), len(self.buses)
        og, os_, of, ot = 0, ng, ng + nd, ng + nd + nl
        nv = ot + nb
        c = np.zeros(nv)
        c[og:os_] = self.gen_cost
        c[os_:of] = self.shed_cost
        a = np.zeros((nb + nl + 1, nv))
        b = np.zeros(nb + nl + 1)
        for i, g in enumerate(self.gens):
            a[self.bus[g["bus"]], og + i] = 1.0
        for j, dm in enumerate(self.dems):
            a[self.bus[dm["bus"]], os_ + j] = 1.0
            b[self.bus[dm["bus"]]] += load[j]
        for k, ln in enumerate(lines):
            fb, tb = self.bus[ln["from_bus"]], self.bus[ln["to_bus"]]
            a[tb, of + k] += 1.0
            a[fb, of + k] -= 1.0
            gam = self.base_mva * ln["susceptance"]
            a[nb + k, of + k] = 1.0
            a[nb + k, ot + fb] = -gam
            a[nb + k, ot + tb] = gam
        a[nb + nl, ot + self.bus[self.ref_bus]] = 1.0
        bounds = ([(0.0, x) for x in cap] + [(0.0, x) for x in load]
                  + [(-ln["capacity_mw"], ln["capacity_mw"]) for ln in lines]
                  + [(-ANGLE_BOUND, ANGLE_BOUND)] * nb)
        res = linprog(c, A_eq=a, b_eq=b, bounds=bounds, method="highs")
        if res.status != 0:
            raise RuntimeError(f"reference dispatch LP failed: {res.message}")
        return float(res.fun)

    # -- master MILP -------------------------------------------------------

    def master_objective(self, scenarios) -> float:
        """Optimal investment plus worst dispatch cost over ``scenarios``,
        with disjunctive big-M constraints for candidate lines."""
        cands = self.candidates
        nc, ng, nd = len(cands), self.n_gen, len(self.dems)
        nl, nb = len(self.lines), len(self.buses)
        blk = ng + nd + nl + nb
        ns = len(scenarios)
        nv = nc + 1 + ns * blk
        cpos = {ln["id"]: i for i, ln in enumerate(cands)}
        c = np.zeros(nv)
        c[:nc] = [self.build_cost[ln["id"]] for ln in cands]
        c[nc] = 1.0
        lo = np.zeros(nv)
        hi = np.full(nv, np.inf)
        hi[:nc] = 1.0
        rows, rlo, rhi = [], [], []

        def row(entries, low, high):
            r = np.zeros(nv)
            for j, v in entries:
                r[j] += v
            rows.append(r)
            rlo.append(low)
            rhi.append(high)

        row([(i, c[i]) for i in range(nc)], -np.inf, self.budget)
        for k, scen in enumerate(scenarios):
            scen = np.maximum(np.asarray(scen, dtype=float), 0.0)
            base = nc + 1 + k * blk
            og, os_, of, ot = base, base + ng, base + ng + nd, base + ng + nd + nl
            hi[og:os_] = scen[:ng]
            hi[os_:of] = scen[ng:]
            for li, ln in enumerate(self.lines):
                lo[of + li], hi[of + li] = -ln["capacity_mw"], ln["capacity_mw"]
            lo[ot:ot + nb], hi[ot:ot + nb] = -ANGLE_BOUND, ANGLE_BOUND
            for bi, bus in enumerate(self.buses):
                ent = [(og + i, 1.0) for i, g in enumerate(self.gens) if g["bus"] == bus]
                ent += [(os_ + j, 1.0) for j, dm in enumerate(self.dems) if dm["bus"] == bus]
                ent += [(of + li, 1.0) for li, ln in enumerate(self.lines) if ln["to_bus"] == bus]
                ent += [(of + li, -1.0) for li, ln in enumerate(self.lines) if ln["from_bus"] == bus]
                load = sum(scen[ng + j] for j, dm in enumerate(self.dems) if dm["bus"] == bus)
                row(ent, load, load)
            for li, ln in enumerate(self.lines):
                gam = self.base_mva * ln["susceptance"]
                fb, tb = ot + self.bus[ln["from_bus"]], ot + self.bus[ln["to_bus"]]
                coupling = [(of + li, 1.0), (fb, -gam), (tb, gam)]
                if ln["status"] == "existing":
                    row(coupling, 0.0, 0.0)
                    continue
                x = cpos[ln["id"]]
                big_m = gam * 2.0 * ANGLE_BOUND
                row(coupling + [(x, big_m)], -np.inf, big_m)
                row(coupling + [(x, -big_m)], -big_m, np.inf)
                row([(of + li, 1.0), (x, -ln["capacity_mw"])], -np.inf, 0.0)
                row([(of + li, 1.0), (x, ln["capacity_mw"])], 0.0, np.inf)
            row([(ot + self.bus[self.ref_bus], 1.0)], 0.0, 0.0)
            row([(og + i, self.gen_cost[i]) for i in range(ng)]
                + [(os_ + j, self.shed_cost[j]) for j in range(nd)] + [(nc, -1.0)],
                -np.inf, 0.0)
        integrality = np.zeros(nv)
        integrality[:nc] = 1
        res = milp(c, constraints=LinearConstraint(np.array(rows), rlo, rhi),
                   integrality=integrality, bounds=Bounds(lo, hi),
                   options={"mip_rel_gap": 1e-10})
        if res.status != 0:
            raise RuntimeError(f"reference master MILP failed: {res.message}")
        return float(res.fun)
