"""Study files: one JSON document describing a complete planning run.

A study names the network file, how to put its costs on a per-year basis,
the uncertainty model (spreads, correlations, set radius or target
quantile, optional interval limits), solver tolerances and caps, and the
simulation settings used when a plan is priced by sampling.  Relative paths
are resolved against the directory holding the study file, so a study can
travel with its network.

Exactly one of ``beta`` (the set radius) or ``quantile`` (the target
non-exceedance probability, mapped through the Gaussian quantile function)
must be given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ellipsoid import EllipsoidalSet, beta_for_quantile, std_from_interval
from .errors import ParseError, ValidationError
from .network import (Network, annualize_costs, get_int, get_num, load_network,
                      read_json, require_keys)


@dataclass(frozen=True)
class CorrelationEntry:
    a: str
    b: str
    rho: float


@dataclass(frozen=True)
class UncertaintySpec:
    std_values: tuple[float, ...] | None
    generator_fraction: float | None
    demand_fraction: float | None
    interval_z: float
    std_scale: float
    correlations: tuple[CorrelationEntry, ...]
    beta: float | None
    quantile: float | None
    bound_values: tuple[float, ...] | None
    bound_generator_fraction: float | None
    bound_demand_fraction: float | None
    bounded: bool
    sign_restricted: bool


@dataclass(frozen=True)
class SimulationSettings:
    samples: int
    seed: int


@dataclass(frozen=True)
class StudyConfig:
    base_dir: Path
    network: str
    annualize: tuple[float, float] | None
    uncertainty: UncertaintySpec
    tolerance: float
    max_outer: int
    max_inner: int
    inner_starts: int
    seed: int
    simulation: SimulationSettings
    output_dir: str | None

    def radius(self) -> float:
        """Set radius: ``beta`` directly, or the Gaussian quantile of the
        requested non-exceedance probability."""
        if self.uncertainty.beta is not None:
            return self.uncertainty.beta
        return beta_for_quantile(self.uncertainty.quantile)


def _parse_uncertainty(obj, ctx: str) -> UncertaintySpec:
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx} must be an object")
    require_keys(obj, {"std", "correlations", "beta", "quantile", "bounds",
                       "sign_restricted", "std_scale"}, {"std"}, ctx)

    std = obj["std"]
    if not isinstance(std, dict):
        raise ParseError(f"{ctx}.std must be an object")
    std_values = None
    gen_frac = dem_frac = None
    interval_z = 2.3263
    if "values" in std:
        require_keys(std, {"values"}, {"values"}, f"{ctx}.std")
        if not isinstance(std["values"], list) or not std["values"]:
            raise ParseError(f"{ctx}.std.values must be a nonempty list")
        std_values = tuple(float(v) for v in std["values"])
        if any(v <= 0.0 or not math.isfinite(v) for v in std_values):
            raise ValidationError(f"{ctx}.std.values must be positive")
    else:
        require_keys(std, {"generator_fraction", "demand_fraction", "interval_z"},
                     {"generator_fraction", "demand_fraction"}, f"{ctx}.std")
        gen_frac = get_num(std, "generator_fraction", f"{ctx}.std")
        dem_frac = get_num(std, "demand_fraction", f"{ctx}.std")
        if gen_frac <= 0.0 or dem_frac <= 0.0:
            raise ValidationError(f"{ctx}.std fractions must be positive")
        if "interval_z" in std:
            interval_z = get_num(std, "interval_z", f"{ctx}.std")
            if interval_z <= 0.0:
                raise ValidationError(f"{ctx}.std.interval_z must be positive")

    std_scale = 1.0
    if "std_scale" in obj:
        std_scale = get_num(obj, "std_scale", ctx)
        if std_scale <= 0.0:
            raise ValidationError(f"{ctx}.std_scale must be positive")

    correlations = []
    for i, entry in enumerate(obj.get("correlations", [])):
        ectx = f"{ctx}.correlations[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{ectx} must be an object")
        require_keys(entry, {"a", "b", "rho"}, {"a", "b", "rho"}, ectx)
        a, b = str(entry["a"]), str(entry["b"])
        rho = get_num(entry, "rho", ectx)
        if a == b:
            raise ValidationError(f"{ectx}: correlates {a!r} with itself")
        if not -1.0 < rho < 1.0:
            raise ValidationError(f"{ectx}: rho must lie strictly in (-1, 1)")
        correlations.append(CorrelationEntry(a, b, rho))

    beta = quantile = None
    if "beta" in obj:
        beta = get_num(obj, "beta", ctx)
        if beta < 0.0 or not math.isfinite(beta):
            raise ValidationError(f"{ctx}.beta must be finite and nonnegative")
    if "quantile" in obj:
        quantile = get_num(obj, "quantile", ctx)
        if not 0.0 < quantile < 1.0:
            raise ValidationError(
                f"{ctx}.quantile must lie strictly in (0, 1)")
    if (beta is None) == (quantile is None):
        raise ValidationError(
            f"{ctx}: exactly one of 'beta' or 'quantile' must be given")

    bound_values = None
    bnd_gen = bnd_dem = None
    bounded = "bounds" in obj
    if bounded:
        bounds = obj["bounds"]
        if not isinstance(bounds, dict):
            raise ParseError(f"{ctx}.bounds must be an object")
        if "values" in bounds:
            require_keys(bounds, {"values"}, {"values"}, f"{ctx}.bounds")
            if not isinstance(bounds["values"], list) or not bounds["values"]:
                raise ParseError(f"{ctx}.bounds.values must be a nonempty list")
            bound_values = tuple(float(v) for v in bounds["values"])
            if any(v < 0.0 for v in bound_values):
                raise ValidationError(f"{ctx}.bounds.values must be nonnegative")
        else:
            require_keys(bounds, {"generator_fraction", "demand_fraction"},
                         {"generator_fraction", "demand_fraction"},
                         f"{ctx}.bounds")
            bnd_gen = get_num(bounds, "generator_fraction", f"{ctx}.bounds")
            bnd_dem = get_num(bounds, "demand_fraction", f"{ctx}.bounds")
            if bnd_gen < 0.0 or bnd_dem < 0.0:
                raise ValidationError(f"{ctx}.bounds fractions must be nonnegative")

    sign_restricted = True
    if "sign_restricted" in obj:
        if not isinstance(obj["sign_restricted"], bool):
            raise ParseError(f"{ctx}.sign_restricted must be a boolean")
        sign_restricted = obj["sign_restricted"]

    return UncertaintySpec(
        std_values=std_values, generator_fraction=gen_frac,
        demand_fraction=dem_frac, interval_z=interval_z, std_scale=std_scale,
        correlations=tuple(correlations), beta=beta, quantile=quantile,
        bound_values=bound_values, bound_generator_fraction=bnd_gen,
        bound_demand_fraction=bnd_dem, bounded=bounded,
        sign_restricted=sign_restricted)


def study_config_from_dict(data: dict, base_dir: Path) -> StudyConfig:
    if not isinstance(data, dict):
        raise ParseError("study file must hold a JSON object")
    require_keys(
        data,
        {"network", "annualize", "uncertainty", "tolerance", "max_outer",
         "max_inner", "inner_starts", "seed", "simulation", "output_dir"},
        {"network", "uncertainty"}, "study")

    network = data["network"]
    if not isinstance(network, str) or not network:
        raise ParseError("study: network must be a nonempty path string")

    annualize = None
    if "annualize" in data:
        blk = data["annualize"]
        if not isinstance(blk, dict):
            raise ParseError("study.annualize must be an object")
        require_keys(blk, {"return_period_years", "discount_rate"},
                     {"return_period_years", "discount_rate"}, "study.annualize")
        annualize = (get_num(blk, "return_period_years", "study.annualize"),
                     get_num(blk, "discount_rate", "study.annualize"))

    uncertainty = _parse_uncertainty(data["uncertainty"], "study.uncertainty")

    tolerance = 1e-6
    if "tolerance" in data:
        tolerance = get_num(data, "tolerance", "study")
        if tolerance <= 0.0:
            raise ValidationError("study: tolerance must be positive")

    caps = {"max_outer": 50, "max_inner": 100, "inner_starts": 3, "seed": 0}
    for key in list(caps):
        if key in data:
            caps[key] = get_int(data, key, "study")
    if caps["max_outer"] < 1 or caps["max_inner"] < 1 or caps["inner_starts"] < 1:
        raise ValidationError("study: iteration caps and starts must be at least 1")

    samples, sim_seed = 1000, 0
    if "simulation" in data:
        blk = data["simulation"]
        if not isinstance(blk, dict):
            raise ParseError("study.simulation must be an object")
        require_keys(blk, {"samples", "seed"}, {"samples"}, "study.simulation")
        samples = get_int(blk, "samples", "study.simulation")
        if samples < 1:
            raise ValidationError("study.simulation: samples must be at least 1")
        if "seed" in blk:
            sim_seed = get_int(blk, "seed", "study.simulation")

    output_dir = None
    if "output_dir" in data:
        if not isinstance(data["output_dir"], str) or not data["output_dir"]:
            raise ParseError("study: output_dir must be a nonempty string")
        output_dir = data["output_dir"]

    return StudyConfig(
        base_dir=base_dir, network=network, annualize=annualize,
        uncertainty=uncertainty, tolerance=tolerance,
        max_outer=caps["max_outer"], max_inner=caps["max_inner"],
        inner_starts=caps["inner_starts"], seed=caps["seed"],
        simulation=SimulationSettings(samples=samples, seed=sim_seed),
        output_dir=output_dir)


def load_study_config(path: str | Path) -> StudyConfig:
    return study_config_from_dict(read_json(path, "study file"),
                                  Path(path).resolve().parent)


def resolve_network_path(cfg: StudyConfig) -> Path:
    return cfg.base_dir / cfg.network


def load_configured_network(cfg: StudyConfig) -> Network:
    net = load_network(resolve_network_path(cfg))
    if cfg.annualize is not None:
        net = annualize_costs(net, *cfg.annualize)
    return net


def build_uncertainty(cfg: StudyConfig, net: Network,
                      radius: float | None = None) -> EllipsoidalSet:
    """Materialize the study's uncertainty set for a loaded network;
    ``radius`` overrides the configured value (used by sweeps)."""
    spec = cfg.uncertainty
    mean = net.nominal_uncertain()
    n = net.n_uncertain
    n_gen = len(net.generators)

    if spec.std_values is not None:
        if len(spec.std_values) != n:
            raise ValidationError(
                f"study.uncertainty.std.values has {len(spec.std_values)} "
                f"entries, network has {n} uncertain parameters")
        std = np.array(spec.std_values)
    else:
        frac = np.array([spec.generator_fraction] * n_gen
                        + [spec.demand_fraction] * (n - n_gen))
        std = std_from_interval(frac * mean, spec.interval_z)
        if np.any(std <= 0.0):
            raise ValidationError(
                "study.uncertainty: fractional spreads need nonzero nominal "
                "values; give std.values explicitly instead")
    std = std * spec.std_scale

    corr = np.eye(n)
    pos = {uid: i for i, uid in enumerate(net.uncertain_ids)}
    for entry in spec.correlations:
        if entry.a not in pos or entry.b not in pos:
            raise ValidationError(
                f"study.uncertainty.correlations: unknown parameter in "
                f"({entry.a!r}, {entry.b!r})")
        i, j = pos[entry.a], pos[entry.b]
        corr[i, j] = corr[j, i] = entry.rho

    half_width = None
    if spec.bounded:
        if spec.bound_values is not None:
            if len(spec.bound_values) != n:
                raise ValidationError(
                    f"study.uncertainty.bounds.values has "
                    f"{len(spec.bound_values)} entries, network has {n}")
            half_width = np.array(spec.bound_values)
        else:
            bfrac = np.array([spec.bound_generator_fraction] * n_gen
                             + [spec.bound_demand_fraction] * (n - n_gen))
            half_width = bfrac * mean

    signs = net.uncertain_signs() if spec.sign_restricted else None
    if radius is None:
        radius = cfg.radius()
    return EllipsoidalSet.from_std_and_correlation(
        mean, std, corr, radius, half_width=half_width, signs=signs)
