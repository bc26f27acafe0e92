"""Power network model and its JSON file interface.

A network bundles buses, existing and candidate transmission lines,
generators and demands, together with the study-wide economic settings
(budget, operating-hours weighting factor, currency). Files are strictly
validated: unknown keys, wrong types and dangling references are rejected
rather than ignored, so a network that loads is a network the solvers can
trust.

Uncertain parameter order
-------------------------
Every consumer of uncertainty data in this package lists parameters as all
generator capacities (file order) followed by all demand loads (file order);
:meth:`Network.uncertain_ids` and :meth:`Network.nominal_uncertain` define
that order once.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

SCHEMA_VERSION = 1
LINE_EXISTING = "existing"
LINE_CANDIDATE = "candidate"


@dataclass(frozen=True)
class Bus:
    id: str
    reference: bool = False


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    susceptance: float
    capacity_mw: float
    status: str
    build_cost: float = 0.0


@dataclass(frozen=True)
class Generator:
    id: str
    bus: str
    capacity_mw: float
    marginal_cost: float


@dataclass(frozen=True)
class Demand:
    id: str
    bus: str
    load_mw: float
    bid_price: float
    shed_cost: float


@dataclass
class Network:
    name: str
    currency: str
    base_mva: float
    budget: float
    weighting_factor_hours: float
    max_parallel_lines: int
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    demands: tuple[Demand, ...]

    @cached_property
    def bus_index(self) -> dict[str, int]:
        return {bus.id: i for i, bus in enumerate(self.buses)}

    @cached_property
    def reference_bus(self) -> str:
        return next(bus.id for bus in self.buses if bus.reference)

    @property
    def candidate_lines(self) -> tuple[Line, ...]:
        return tuple(ln for ln in self.lines if ln.status == LINE_CANDIDATE)

    @property
    def n_uncertain(self) -> int:
        return len(self.generators) + len(self.demands)

    @cached_property
    def uncertain_ids(self) -> tuple[str, ...]:
        return tuple(g.id for g in self.generators) + tuple(d.id for d in self.demands)

    def nominal_uncertain(self) -> np.ndarray:
        """Nominal values of the uncertain parameters: generator capacities
        followed by demand loads."""
        return np.array([g.capacity_mw for g in self.generators]
                        + [d.load_mw for d in self.demands])

    def uncertain_signs(self) -> np.ndarray:
        """-1 for parameters that only deviate downward (capacities),
        +1 for those that only deviate upward (loads)."""
        return np.array([-1.0] * len(self.generators) + [+1.0] * len(self.demands))


# ---------------------------------------------------------------------------
# parsing


def require_keys(obj: dict, allowed: set[str], required: set[str], ctx: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{ctx}: missing keys {sorted(missing)}")


def get_num(obj: dict, key: str, ctx: str) -> float:
    """``obj[key]`` as a finite float (``json`` reads NaN and Infinity)."""
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ParseError(f"{ctx}: {key} must be a finite number, got {v!r}")
    return float(v)


def get_int(obj: dict, key: str, ctx: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{ctx}: {key} must be an integer, got {v!r}")
    return v


def _get_str(obj: dict, key: str, ctx: str) -> str:
    v = obj[key]
    if not isinstance(v, str):
        raise ParseError(f"{ctx}: {key} must be a string, got {v!r}")
    return v


def _get_id(obj: dict, ctx: str) -> str:
    v = obj["id"]
    if isinstance(v, bool):
        raise ParseError(f"{ctx}: id must be a string or integer, got {v!r}")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str) and v:
        return v
    raise ParseError(f"{ctx}: id must be a non-empty string or integer, got {v!r}")


def _objects(data: dict, key: str, allowed: set[str], optional: set[str]):
    """Yield ``(ctx, entry)`` for each object of the array ``data[key]``,
    checking the array, each entry's type and each entry's keys."""
    if not isinstance(data[key], list):
        raise ParseError(f"network: {key} must be an array")
    for i, entry in enumerate(data[key]):
        ctx = f"{key}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{ctx}: expected an object")
        require_keys(entry, allowed, allowed - optional, ctx)
        yield ctx, entry


def network_from_dict(data: dict) -> Network:
    """Build and validate a :class:`Network` from parsed JSON data."""
    if not isinstance(data, dict):
        raise ParseError("network file must contain a JSON object")
    top_allowed = {"schema_version", "name", "currency", "base_mva", "budget",
                   "weighting_factor_hours", "max_parallel_lines", "buses",
                   "lines", "generators", "demands"}
    top_required = top_allowed - {"currency"}
    require_keys(data, top_allowed, top_required, "network")
    version = get_int(data, "schema_version", "network")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version}, expected {SCHEMA_VERSION}")

    buses = []
    for ctx, entry in _objects(data, "buses", {"id", "reference"}, {"reference"}):
        ref = entry.get("reference", False)
        if not isinstance(ref, bool):
            raise ParseError(f"{ctx}: reference must be true or false")
        buses.append(Bus(id=_get_id(entry, ctx), reference=ref))

    lines = []
    for ctx, entry in _objects(data, "lines", {"id", "from_bus", "to_bus", "susceptance",
                                               "capacity_mw", "status", "build_cost"},
                               {"build_cost"}):
        status = _get_str(entry, "status", ctx)
        if status not in (LINE_EXISTING, LINE_CANDIDATE):
            raise ParseError(f"{ctx}: status must be "
                             f"'{LINE_EXISTING}' or '{LINE_CANDIDATE}', got {status!r}")
        lines.append(Line(
            id=_get_id(entry, ctx),
            from_bus=str(entry["from_bus"]),
            to_bus=str(entry["to_bus"]),
            susceptance=get_num(entry, "susceptance", ctx),
            capacity_mw=get_num(entry, "capacity_mw", ctx),
            status=status,
            build_cost=get_num(entry, "build_cost", ctx) if "build_cost" in entry else 0.0,
        ))

    generators = [
        Generator(id=_get_id(entry, ctx), bus=str(entry["bus"]),
                  capacity_mw=get_num(entry, "capacity_mw", ctx),
                  marginal_cost=get_num(entry, "marginal_cost", ctx))
        for ctx, entry in _objects(data, "generators",
                                   {"id", "bus", "capacity_mw", "marginal_cost"}, set())]

    demands = [
        Demand(id=_get_id(entry, ctx), bus=str(entry["bus"]),
               load_mw=get_num(entry, "load_mw", ctx),
               bid_price=get_num(entry, "bid_price", ctx),
               shed_cost=get_num(entry, "shed_cost", ctx))
        for ctx, entry in _objects(data, "demands",
                                   {"id", "bus", "load_mw", "bid_price", "shed_cost"}, set())]

    net = Network(
        name=_get_str(data, "name", "network"),
        currency=_get_str(data, "currency", "network") if "currency" in data else "",
        base_mva=get_num(data, "base_mva", "network"),
        budget=get_num(data, "budget", "network"),
        weighting_factor_hours=get_num(data, "weighting_factor_hours", "network"),
        max_parallel_lines=get_int(data, "max_parallel_lines", "network"),
        buses=tuple(buses),
        lines=tuple(lines),
        generators=tuple(generators),
        demands=tuple(demands),
    )
    validate_network(net)
    return net


def validate_network(net: Network) -> None:
    """Semantic checks beyond file shape; raises :class:`ValidationError`."""
    if not net.buses:
        raise ValidationError("network has no buses")
    bus_ids = [b.id for b in net.buses]
    if len(set(bus_ids)) != len(bus_ids):
        raise ValidationError("duplicate bus id")
    refs = [b.id for b in net.buses if b.reference]
    if len(refs) != 1:
        raise ValidationError(f"exactly one reference bus required, found {len(refs)}")

    known = set(bus_ids)
    line_ids = [ln.id for ln in net.lines]
    if len(set(line_ids)) != len(line_ids):
        raise ValidationError("duplicate line id")
    corridor_candidates: dict[tuple[str, str], int] = {}
    for ln in net.lines:
        if ln.from_bus not in known or ln.to_bus not in known:
            raise ValidationError(f"line {ln.id}: endpoint references unknown bus")
        if ln.from_bus == ln.to_bus:
            raise ValidationError(f"line {ln.id}: connects a bus to itself")
        if ln.susceptance <= 0.0:
            raise ValidationError(f"line {ln.id}: susceptance must be positive")
        if ln.capacity_mw <= 0.0:
            raise ValidationError(f"line {ln.id}: capacity must be positive")
        if ln.build_cost < 0.0:
            raise ValidationError(f"line {ln.id}: build cost must be nonnegative")
        if ln.status == LINE_CANDIDATE:
            if ln.build_cost <= 0.0:
                raise ValidationError(f"line {ln.id}: candidate needs a positive build cost")
            key = tuple(sorted((ln.from_bus, ln.to_bus)))
            corridor_candidates[key] = corridor_candidates.get(key, 0) + 1
    for key, count in corridor_candidates.items():
        if count > net.max_parallel_lines:
            raise ValidationError(
                f"corridor {key[0]}-{key[1]} offers {count} candidates, more than "
                f"max_parallel_lines={net.max_parallel_lines}")

    seen_unit: set[str] = set()
    for gen in net.generators:
        if gen.id in seen_unit:
            raise ValidationError(f"duplicate generator/demand id {gen.id!r}")
        seen_unit.add(gen.id)
        if gen.bus not in known:
            raise ValidationError(f"generator {gen.id}: unknown bus {gen.bus!r}")
        if gen.capacity_mw < 0.0:
            raise ValidationError(f"generator {gen.id}: capacity must be nonnegative")
        if gen.marginal_cost < 0.0:
            raise ValidationError(f"generator {gen.id}: marginal cost must be nonnegative")
    for dem in net.demands:
        if dem.id in seen_unit:
            raise ValidationError(f"duplicate generator/demand id {dem.id!r}")
        seen_unit.add(dem.id)
        if dem.bus not in known:
            raise ValidationError(f"demand {dem.id}: unknown bus {dem.bus!r}")
        if dem.load_mw < 0.0:
            raise ValidationError(f"demand {dem.id}: load must be nonnegative")
        if dem.bid_price < 0.0 or dem.shed_cost < 0.0:
            raise ValidationError(f"demand {dem.id}: prices must be nonnegative")
        if dem.shed_cost < dem.bid_price:
            raise ValidationError(
                f"demand {dem.id}: shed cost must be at least the bid price, "
                "otherwise shedding would undercut serving")

    if net.base_mva <= 0.0:
        raise ValidationError("base_mva must be positive")
    if net.budget < 0.0:
        raise ValidationError("budget must be nonnegative")
    if net.weighting_factor_hours <= 0.0:
        raise ValidationError("weighting_factor_hours must be positive")
    if net.max_parallel_lines < 1:
        raise ValidationError("max_parallel_lines must be at least 1")


def network_to_dict(net: Network) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": net.name,
        "currency": net.currency,
        "base_mva": net.base_mva,
        "budget": net.budget,
        "weighting_factor_hours": net.weighting_factor_hours,
        "max_parallel_lines": net.max_parallel_lines,
        "buses": [{"id": b.id, "reference": b.reference} for b in net.buses],
        "lines": [{"id": ln.id, "from_bus": ln.from_bus, "to_bus": ln.to_bus,
                   "susceptance": ln.susceptance, "capacity_mw": ln.capacity_mw,
                   "status": ln.status, "build_cost": ln.build_cost}
                  for ln in net.lines],
        "generators": [{"id": g.id, "bus": g.bus, "capacity_mw": g.capacity_mw,
                        "marginal_cost": g.marginal_cost} for g in net.generators],
        "demands": [{"id": d.id, "bus": d.bus, "load_mw": d.load_mw,
                     "bid_price": d.bid_price, "shed_cost": d.shed_cost}
                    for d in net.demands],
    }


def read_json(path: str | Path, what: str):
    """Parsed JSON of the file at ``path``; ``what`` names the file in errors.

    An unreadable file raises :class:`ParseError` caused by the
    :class:`OSError`, so callers can tell I/O failures from bad content.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_network(path: str | Path) -> Network:
    """Read, parse and validate a network file."""
    return network_from_dict(read_json(path, "network file"))


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n")


def network_hash(path: str | Path) -> str:
    """SHA-256 of the file bytes; plan files embed it so a plan can refuse to
    run against a network it was not computed for."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def annualize_costs(net: Network, return_period_years: float,
                    discount_rate: float) -> Network:
    """Express build costs on a per-year basis.

    Candidate build costs are multiplied by ``discount_rate`` (a 10 M
    investment at a 10% rate contributes 1 M per year). Operating prices stay
    per MWh: the dispatch alone weights them by ``weighting_factor_hours``.
    The budget is annual and left untouched; ``return_period_years``
    documents the planning horizon and must be positive.
    """
    if return_period_years <= 0.0:
        raise ValidationError("return_period_years must be positive")
    if not 0.0 < discount_rate <= 1.0:
        raise ValidationError("discount_rate must lie in (0, 1]")
    return replace(net, lines=tuple(
        replace(ln, build_cost=ln.build_cost * discount_rate) if ln.status == LINE_CANDIDATE
        else ln
        for ln in net.lines))
