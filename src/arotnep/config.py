"""Study files: one JSON document describing a complete planning run.

A study names the network file, how to put its build costs on a per-year basis,
the uncertainty model (spreads, correlations, set radius or target
quantile, optional interval limits), solver tolerances and caps, and the
simulation settings used when a plan is priced by sampling.  Relative paths
are resolved against the directory holding the study file, so a study can
travel with its network.

Exactly one of ``beta`` (the set radius) or ``quantile`` (the target
non-exceedance probability, mapped through the Gaussian quantile function)
must be given.  Spreads (``std``) and interval limits (``bounds``) take the
same two forms: per-parameter ``values``, or a ``generator_fraction`` and a
``demand_fraction`` of the nominal values.  Every number must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ellipsoid import EllipsoidalSet, phi_inv, std_from_interval
from .errors import ParseError, ValidationError
from .network import (Network, annualize_costs, get_int, get_num, load_network,
                      read_json, require_keys)


@dataclass(frozen=True)
class CorrelationEntry:
    a: str
    b: str
    rho: float


@dataclass(frozen=True)
class Spread:
    """Per-parameter ``values``, or one fraction of the nominal value for
    every generator and one for every demand."""

    values: tuple[float, ...] | None = None
    generator_fraction: float | None = None
    demand_fraction: float | None = None

    def expand(self, net: Network, what: str) -> np.ndarray:
        """One entry per uncertain parameter; ``what`` names the block in errors."""
        n = net.n_uncertain
        if self.values is None:
            n_gen = len(net.generators)
            frac = np.array([self.generator_fraction] * n_gen
                            + [self.demand_fraction] * (n - n_gen))
            return frac * net.nominal_uncertain()
        if len(self.values) != n:
            raise ValidationError(
                f"study.uncertainty.{what}.values has {len(self.values)} "
                f"entries, network has {n} uncertain parameters")
        return np.array(self.values)


@dataclass(frozen=True)
class UncertaintySpec:
    std: Spread
    interval_z: float
    correlations: tuple[CorrelationEntry, ...]
    beta: float | None
    quantile: float | None
    bounds: Spread | None
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
        return phi_inv(self.uncertainty.quantile)


def _parse_spread(obj, ctx: str, positive: bool,
                  extra: frozenset[str] = frozenset()) -> Spread:
    """A ``values`` list or a pair of fractions, all positive or all
    nonnegative; ``extra`` names keys the caller reads next to the fractions."""
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx} must be an object")
    if "values" in obj:
        require_keys(obj, {"values"}, {"values"}, ctx)
        if not isinstance(obj["values"], list) or not obj["values"]:
            raise ParseError(f"{ctx}.values must be a nonempty list")
        entries = {f"values[{i}]": v for i, v in enumerate(obj["values"])}
        spread = Spread(values=tuple(get_num(entries, key, ctx) for key in entries))
        nums, what = spread.values, f"{ctx}.values"
    else:
        fractions = {"generator_fraction", "demand_fraction"}
        require_keys(obj, fractions | extra, fractions, ctx)
        nums = (get_num(obj, "generator_fraction", ctx),
                get_num(obj, "demand_fraction", ctx))
        spread, what = Spread(None, *nums), f"{ctx} fractions"
    if any(v <= 0.0 if positive else v < 0.0 for v in nums):
        raise ValidationError(
            f"{what} must be {'positive' if positive else 'nonnegative'}")
    return spread


def _parse_uncertainty(obj, ctx: str) -> UncertaintySpec:
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx} must be an object")
    require_keys(obj, {"std", "correlations", "beta", "quantile", "bounds",
                       "sign_restricted"}, {"std"}, ctx)

    std = _parse_spread(obj["std"], f"{ctx}.std", True, frozenset({"interval_z"}))
    interval_z = 2.3263
    if "interval_z" in obj["std"]:
        interval_z = get_num(obj["std"], "interval_z", f"{ctx}.std")
        if interval_z <= 0.0:
            raise ValidationError(f"{ctx}.std.interval_z must be positive")

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
        if beta < 0.0:
            raise ValidationError(f"{ctx}.beta must be nonnegative")
    if "quantile" in obj:
        quantile = get_num(obj, "quantile", ctx)
        if not 0.0 < quantile < 1.0:
            raise ValidationError(
                f"{ctx}.quantile must lie strictly in (0, 1)")
    if (beta is None) == (quantile is None):
        raise ValidationError(
            f"{ctx}: exactly one of 'beta' or 'quantile' must be given")

    bounds = None
    if "bounds" in obj:
        bounds = _parse_spread(obj["bounds"], f"{ctx}.bounds", False)

    sign_restricted = True
    if "sign_restricted" in obj:
        if not isinstance(obj["sign_restricted"], bool):
            raise ParseError(f"{ctx}.sign_restricted must be a boolean")
        sign_restricted = obj["sign_restricted"]

    return UncertaintySpec(
        std=std, interval_z=interval_z,
        correlations=tuple(correlations), beta=beta, quantile=quantile,
        bounds=bounds, sign_restricted=sign_restricted)


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
    if caps["seed"] < 0:
        raise ValidationError("study: seed must be nonnegative")

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
            if sim_seed < 0:
                raise ValidationError("study.simulation: seed must be nonnegative")

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

    std = spec.std.expand(net, "std")
    if spec.std.values is None:
        std = std_from_interval(std, spec.interval_z)
        if np.any(std <= 0.0):
            raise ValidationError(
                "study.uncertainty: fractional spreads need nonzero nominal "
                "values; give std.values explicitly instead")

    corr = np.eye(n)
    pos = {uid: i for i, uid in enumerate(net.uncertain_ids)}
    for entry in spec.correlations:
        if entry.a not in pos or entry.b not in pos:
            raise ValidationError(
                f"study.uncertainty.correlations: unknown parameter in "
                f"({entry.a!r}, {entry.b!r})")
        i, j = pos[entry.a], pos[entry.b]
        corr[i, j] = corr[j, i] = entry.rho

    half_width = None if spec.bounds is None else spec.bounds.expand(net, "bounds")
    signs = net.uncertain_signs() if spec.sign_restricted else None
    if radius is None:
        radius = cfg.radius()
    return EllipsoidalSet.from_std_and_correlation(
        mean, std, corr, radius, half_width=half_width, signs=signs)
