"""Network model, file parsing, validation, hashing and cost annualization."""

import json
from dataclasses import replace

import numpy as np
import pytest

from arotnep.datasets import dataset_names, dataset_path, load_dataset
from arotnep.errors import ParseError, ValidationError
from arotnep.network import (
    LINE_CANDIDATE,
    LINE_EXISTING,
    annualize_costs,
    load_network,
    network_from_dict,
    network_hash,
    network_to_dict,
    save_network,
)
from arotnep.opf import dispatch_block


@pytest.fixture
def garver():
    return load_dataset("garver6")


def minimal_dict(**overrides):
    doc = {
        "schema_version": 1,
        "name": "tiny",
        "currency": "MEUR",
        "base_mva": 100.0,
        "budget": 1.0,
        "weighting_factor_hours": 10.0,
        "max_parallel_lines": 2,
        "buses": [{"id": "a", "reference": True}, {"id": "b"}],
        "lines": [{"id": "l1", "from_bus": "a", "to_bus": "b", "susceptance": 2.0,
                   "capacity_mw": 10.0, "status": "existing"}],
        "generators": [{"id": "g1", "bus": "a", "capacity_mw": 20.0, "marginal_cost": 3.0}],
        "demands": [{"id": "d1", "bus": "b", "load_mw": 5.0, "bid_price": 9.0,
                     "shed_cost": 9.0}],
    }
    doc.update(overrides)
    return doc


def test_bundled_datasets_load(garver):
    assert set(dataset_names()) == {"garver6", "onebus", "twobus"}
    assert len(garver.buses) == 6
    assert sum(ln.status == LINE_EXISTING for ln in garver.lines) == 6
    assert len(garver.candidate_lines) == 45
    assert garver.n_uncertain == 8
    assert garver.reference_bus == "1"
    for name in dataset_names():
        net = load_dataset(name)
        assert net.name == name


def test_uncertain_ordering_and_signs(garver):
    assert garver.uncertain_ids == ("G1", "G3", "G6", "D1", "D2", "D3", "D4", "D5")
    nominal = garver.nominal_uncertain()
    assert nominal[:3].tolist() == [150.0, 360.0, 600.0]
    assert nominal[3:].tolist() == [80.0, 240.0, 40.0, 160.0, 240.0]
    assert garver.uncertain_signs().tolist() == [-1.0] * 3 + [1.0] * 5


def test_round_trip(tmp_path, garver):
    path = tmp_path / "net.json"
    save_network(garver, path)
    again = load_network(path)
    assert again == garver


def test_hash_changes_with_content(tmp_path, garver):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_network(garver, p1)
    save_network(garver, p2)
    assert network_hash(p1) == network_hash(p2)
    assert network_hash(dataset_path("garver6")) != network_hash(
        dataset_path("twobus"))
    doc = network_to_dict(garver)
    doc["budget"] = 41.0
    p2.write_text(json.dumps(doc))
    assert network_hash(p1) != network_hash(p2)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_network(tmp_path / "nope.json")


def test_invalid_json_is_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_network(p)


def test_unknown_key_rejected():
    with pytest.raises(ParseError, match="unknown key"):
        network_from_dict(minimal_dict(surprise=1))


def test_missing_key_rejected():
    doc = minimal_dict()
    del doc["base_mva"]
    with pytest.raises(ParseError, match="missing key"):
        network_from_dict(doc)


def test_wrong_schema_version():
    with pytest.raises(ParseError, match="schema_version"):
        network_from_dict(minimal_dict(schema_version=2))


def test_bool_is_not_a_number():
    doc = minimal_dict(base_mva=True)
    with pytest.raises(ParseError):
        network_from_dict(doc)



@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_number_rejected(value):
    with pytest.raises(ParseError, match="budget must be a finite number"):
        network_from_dict(minimal_dict(budget=value))

def test_integer_ids_are_normalized():
    doc = minimal_dict(buses=[{"id": 1, "reference": True}],
                       lines=[], generators=[], demands=[])
    net = network_from_dict(doc)
    assert net.buses[0].id == "1"


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d["buses"].append({"id": "a"}), "duplicate bus"),
    (lambda d: d["buses"].__setitem__(0, {"id": "a"}), "reference bus"),
    (lambda d: d["buses"].append({"id": "c", "reference": True}), "reference bus"),
    (lambda d: d["lines"][0].__setitem__("to_bus", "zz"), "unknown bus"),
    (lambda d: d["lines"][0].__setitem__("to_bus", "a"), "itself"),
    (lambda d: d["lines"][0].__setitem__("susceptance", 0.0), "susceptance"),
    (lambda d: d["lines"][0].__setitem__("capacity_mw", -1.0), "capacity"),
    (lambda d: d["generators"][0].__setitem__("bus", "zz"), "unknown bus"),
    (lambda d: d["generators"][0].__setitem__("capacity_mw", -1.0), "capacity"),
    (lambda d: d["demands"][0].__setitem__("load_mw", -2.0), "load"),
    (lambda d: d["demands"][0].__setitem__("id", "g1"), "duplicate"),
    (lambda d: d["demands"][0].__setitem__("bid_price", 10.0), "shed cost"),
])
def test_semantic_validation(mutate, message):
    doc = minimal_dict()
    mutate(doc)
    with pytest.raises(ValidationError, match=message):
        network_from_dict(doc)


def test_candidate_needs_build_cost():
    doc = minimal_dict()
    doc["lines"][0]["status"] = "candidate"
    with pytest.raises(ValidationError, match="build cost"):
        network_from_dict(doc)


def test_corridor_candidate_limit():
    doc = minimal_dict(max_parallel_lines=1)
    doc["lines"] = [
        {"id": f"c{k}", "from_bus": "a", "to_bus": "b", "susceptance": 1.0,
         "capacity_mw": 5.0, "status": "candidate", "build_cost": 1.0}
        for k in range(2)
    ]
    with pytest.raises(ValidationError, match="max_parallel_lines"):
        network_from_dict(doc)


def test_annualize_scales_build_costs_only(garver):
    annual = annualize_costs(garver, return_period_years=25.0, discount_rate=0.10)
    # A 10% rate turns a 30 build cost into 3 per year.
    cand = {ln.id: ln for ln in annual.candidate_lines}
    assert cand["C2-6a"].build_cost == pytest.approx(3.0)
    # Existing lines and physical data stay put.
    for old, new in zip(garver.lines, annual.lines, strict=True):
        rate = 0.10 if old.status == LINE_CANDIDATE else 1.0
        assert new == replace(old, build_cost=old.build_cost * rate)
    assert annual.budget == garver.budget
    # Prices stay per MWh, and the hours weighting stays for the dispatch.
    assert annual.generators == garver.generators
    assert annual.demands == garver.demands
    assert annual.weighting_factor_hours == garver.weighting_factor_hours == 8760.0
    # The dispatch prices to the bit what prices pre-multiplied by the hours
    # price with a weight of one.
    hours = garver.weighting_factor_hours
    premultiplied = replace(
        annual, weighting_factor_hours=1.0,
        generators=tuple(replace(g, marginal_cost=g.marginal_cost * hours)
                         for g in annual.generators),
        demands=tuple(replace(d, bid_price=d.bid_price * hours,
                              shed_cost=d.shed_cost * hours) for d in annual.demands))
    lines = list(annual.lines)
    coupled = [ln.status == LINE_EXISTING for ln in lines]
    d = annual.nominal_uncertain()
    cost = dispatch_block(annual, lines, d, coupled)[0]
    assert cost.tobytes() == dispatch_block(premultiplied, lines, d, coupled)[0].tobytes()


def test_annualize_rejects_bad_rates(garver):
    with pytest.raises(ValidationError, match="return_period_years must be positive"):
        annualize_costs(garver, return_period_years=0.0, discount_rate=0.1)
    with pytest.raises(ValidationError, match="discount_rate must lie in"):
        annualize_costs(garver, return_period_years=25.0, discount_rate=0.0)
    with pytest.raises(ValidationError, match="discount_rate must lie in"):
        annualize_costs(garver, return_period_years=25.0, discount_rate=1.5)
