"""Command-line front end.

Three subcommands drive a study file (see :mod:`arotnep.config`):

``plan``
    Run the master/worst-case decomposition and write ``plan.json``
    (machine-readable, byte-reproducible, priced by dispatch LPs alone) plus
    ``iterations.csv`` (the outer-loop log; its ``*_s`` columns are wall clock,
    its master node and pivot counts move with the BLAS thread count).
``validate``
    Price a previously written plan by Monte Carlo sampling and write
    ``validation.csv``.  Refuses to run when the network file no longer
    matches the hash embedded in the plan.
``sweep``
    Re-plan across a list of set radii and write ``sweep.csv``, one row
    per radius; failures are recorded in the row and the sweep continues.

Exit codes: 0 converged, 2 iteration limit, 3 stalled, 4 configuration or
data error, 5 file/IO error.  Outputs go to ``AROTNEP_OUTPUT_DIR`` when
set, else the study's ``output_dir``, else the working directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import (
    StudyConfig,
    build_uncertainty,
    load_configured_network,
    load_study_config,
    resolve_network_path,
)
from .decomp import PlanResult, outer_solve
from .ellipsoid import phi
from .errors import ArotnepError, ParseError, ValidationError
from .montecarlo import SimulationStudy, emit_report, run_simulation
from .network import get_int, get_num, network_hash, read_json
from .opf import active_lines

EXIT_OK = 0
EXIT_ITERATION_LIMIT = 2
EXIT_STALL = 3
EXIT_CONFIG = 4
EXIT_IO = 5

PLAN_SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "AROTNEP_OUTPUT_DIR"

_STATUS_EXIT = {"converged": EXIT_OK, "iteration_limit": EXIT_ITERATION_LIMIT,
                "stalled": EXIT_STALL}


# ---------------------------------------------------------------------------
# shared plumbing


def _output_dir(cfg: StudyConfig) -> Path:
    override = os.environ.get(OUTPUT_DIR_ENV)
    if override:
        out = Path(override)
    elif cfg.output_dir is not None:
        out = cfg.base_dir / cfg.output_dir
    else:
        out = Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _checked_network_path(cfg: StudyConfig) -> Path:
    path = resolve_network_path(cfg)
    if not path.is_file():
        raise FileNotFoundError(f"network file not found: {path}")
    return path


def plan_to_dict(cfg: StudyConfig, net_hash: str, radius: float,
                 plan: PlanResult) -> dict:
    return {
        "schema_version": PLAN_SCHEMA_VERSION,
        "network_file": cfg.network,
        "network_hash": net_hash,
        "radius": radius,
        "status": plan.status,
        "built": sorted(plan.built),
        "investment": plan.investment,
        "worst_cost": plan.worst_cost,
        "objective": plan.objective,
        "z_lo": plan.z_lo,
        "z_up": plan.z_up,
        "gap": plan.gap,
        "worst_point": [float(v) for v in plan.inner.worst_point],
        "scenarios": [[float(v) for v in s] for s in plan.scenarios],
        "outer_iterations": len(plan.iterations),
    }


def read_plan_file(path: str | Path) -> dict:
    """A written plan of this schema version, its ``radius`` and
    ``worst_cost`` checked as numbers."""
    data = read_json(path, "plan file")
    ctx = f"plan file {path}"
    if not isinstance(data, dict):
        raise ParseError(f"{ctx} must hold a JSON object")
    for key in ("schema_version", "network_hash", "built", "worst_cost", "radius", "status"):
        if key not in data:
            raise ParseError(f"{ctx} lacks required key {key!r}")
    version = get_int(data, "schema_version", ctx)
    if version != PLAN_SCHEMA_VERSION:
        raise ParseError(f"{ctx}: unsupported schema_version {version}, "
                         f"expected {PLAN_SCHEMA_VERSION}")
    if not isinstance(data["built"], list):
        raise ParseError(f"{ctx}: 'built' must be a list")
    return {**data, "radius": get_num(data, "radius", ctx),
            "worst_cost": get_num(data, "worst_cost", ctx)}


def _write_iteration_log(plan: PlanResult, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nu", "z_up", "z_lo", "gap", "investment",
                         "worst_cost", "built", "master_nodes",
                         "master_root_pivots", "search_s", "master_s",
                         "runtime_s"])
        for it in plan.iterations:
            writer.writerow([it.nu, repr(it.z_up), repr(it.z_lo),
                             repr(it.gap), repr(it.investment),
                             repr(it.worst_cost),
                             " ".join(sorted(it.built)), it.master_nodes,
                             it.master_root_pivots, f"{it.search_s:.6f}",
                             f"{it.master_s:.6f}", f"{it.runtime_s:.6f}"])


def _run_study(cfg: StudyConfig, radius: float):
    net = load_configured_network(cfg)
    es = build_uncertainty(cfg, net, radius=radius)
    plan = outer_solve(
        net, es, tol=cfg.tolerance, max_outer=cfg.max_outer,
        inner_tol=cfg.tolerance, max_inner=cfg.max_inner,
        inner_starts=cfg.inner_starts, seed=cfg.seed,
        master_gap=cfg.tolerance)
    return net, plan


# ---------------------------------------------------------------------------
# subcommands


def cmd_plan(config_path: str) -> int:
    cfg = load_study_config(config_path)
    net_path = _checked_network_path(cfg)
    radius = cfg.radius()
    _, plan = _run_study(cfg, radius)

    out = _output_dir(cfg)
    plan_path = out / "plan.json"
    doc = plan_to_dict(cfg, network_hash(net_path), radius, plan)
    plan_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _write_iteration_log(plan, out / "iterations.csv")

    print(f"status: {plan.status}")
    print(f"radius: {radius:g}")
    print(f"built: {' '.join(sorted(plan.built)) or '(none)'}")
    print(f"investment: {plan.investment:.6f}")
    print(f"worst operating cost: {plan.worst_cost:.6f}")
    print(f"objective: {plan.objective:.6f}")
    print(f"gap: {plan.gap:.3e}")
    print(f"wrote {plan_path} and {out / 'iterations.csv'}")
    return _STATUS_EXIT[plan.status]


def cmd_validate(config_path: str, plan_path: str) -> int:
    cfg = load_study_config(config_path)
    plan = read_plan_file(plan_path)
    net_path = _checked_network_path(cfg)

    actual_hash = network_hash(net_path)
    if actual_hash != plan["network_hash"]:
        raise ValidationError(
            f"network file {net_path} does not match the plan "
            f"(hash {actual_hash[:12]}… vs plan {str(plan['network_hash'])[:12]}…); "
            "refusing to price a plan against a different network")

    net = load_configured_network(cfg)
    built = frozenset(str(b) for b in plan["built"])
    active_lines(net, built)  # rejects unknown candidate ids early
    radius = plan["radius"]
    es = build_uncertainty(cfg, net, radius=radius)
    study = SimulationStudy(
        n_samples=cfg.simulation.samples, seed=cfg.simulation.seed,
        q_star=plan["worst_cost"], radius=radius)
    report = run_simulation(net, built, es, study)

    out = _output_dir(cfg)
    report_path = out / "validation.csv"
    emit_report(report, report_path)

    print(f"samples: {report.n_samples} (seed {report.seed})")
    print(f"planned quantile: {report.q_star:.6f} at radius {radius:g} "
          f"(target probability {phi(radius):.5f})")
    print(f"empirical non-exceedance: {report.non_exceedance:.4f} "
          f"(95% Wilson interval [{report.non_exceedance_lo:.4f}, "
          f"{report.non_exceedance_hi:.4f}])")
    print(f"clipped samples: {report.clipped_samples}, "
          f"failed samples: {report.failed_samples}, "
          f"dispatch solves: {report.dispatch_solves}")
    print(f"wrote {report_path}")
    return EXIT_OK


def _parse_betas(text: str) -> list[float]:
    betas = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError as exc:
            raise ValidationError(f"invalid radius {token!r} in --betas") from exc
        if value < 0.0 or not np.isfinite(value):
            raise ValidationError(f"radius must be finite and nonnegative, got {value}")
        betas.append(value)
    if not betas:
        raise ValidationError("--betas named no radii")
    return betas


def cmd_sweep(config_path: str, betas_text: str) -> int:
    cfg = load_study_config(config_path)
    betas = _parse_betas(betas_text)
    _checked_network_path(cfg)

    rows = []
    worst_exit = EXIT_OK
    for beta in betas:
        tick = time.perf_counter()
        try:
            _, plan = _run_study(cfg, beta)
        except ArotnepError as exc:
            rows.append({"beta": repr(beta), "status": "error", "error": str(exc)})
            worst_exit = max(worst_exit, EXIT_CONFIG)
            print(f"beta {beta:g}: error: {exc}")
            continue
        runtime = time.perf_counter() - tick
        rows.append({
            "beta": repr(beta), "status": plan.status, "objective": repr(plan.objective),
            "investment": repr(plan.investment), "worst_cost": repr(plan.worst_cost),
            "outer_iterations": len(plan.iterations),
            "runtime_s": f"{runtime:.6f}",
        })
        worst_exit = max(worst_exit, _STATUS_EXIT[plan.status])
        print(f"beta {beta:g}: {plan.status}, objective {plan.objective:.6f}, "
              f"investment {plan.investment:.6f}, "
              f"iterations {len(plan.iterations)}")

    out = _output_dir(cfg)
    sweep_path = out / "sweep.csv"
    fields = ["beta", "status", "objective", "investment", "worst_cost",
              "outer_iterations", "runtime_s", "error"]
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, restval="")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {sweep_path}")
    return worst_exit


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arotnep",
        description="Robust transmission expansion planning under "
                    "ellipsoidal uncertainty.",
        epilog=f"Exit codes: 0 converged, 2 iteration limit, 3 stalled, "
               f"4 configuration error, 5 IO error. Set {OUTPUT_DIR_ENV} to "
               f"override the output directory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve a study and write the plan")
    p.add_argument("--config", required=True, help="study file (JSON)")

    p = sub.add_parser("validate",
                       help="price a written plan by Monte Carlo sampling")
    p.add_argument("--config", required=True, help="study file (JSON)")
    p.add_argument("--plan", required=True, help="plan file written by 'plan'")

    p = sub.add_parser("sweep", help="re-plan across a list of set radii")
    p.add_argument("--config", required=True, help="study file (JSON)")
    p.add_argument("--betas", required=True,
                   help="comma-separated list of radii, e.g. 0,1.28155,2.3263")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plan":
            return cmd_plan(args.config)
        if args.command == "validate":
            return cmd_validate(args.config, args.plan)
        return cmd_sweep(args.config, args.betas)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc.__cause__, OSError) else EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArotnepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
