"""Tests for study files and the command-line front end.

Commands are invoked in-process through ``main(argv)`` so exit codes and
outputs are observed exactly as a shell would see them.
"""

import csv
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arotnep import cli
from arotnep.cli import main
from arotnep.config import build_uncertainty, load_study_config
from arotnep.datasets import dataset_path, study_names, study_path
from arotnep.errors import IterationLimit, ParseError, ValidationError

# ---------------------------------------------------------------------------
# helpers


def base_twobus_study(**overrides):
    doc = {
        "network": str(dataset_path("twobus")),
        "annualize": {"return_period_years": 25, "discount_rate": 0.10},
        "uncertainty": {
            "std": {"values": [20.0, 5.0]},
            "bounds": {"values": [40.0, 10.0]},
            "beta": 1.28155,
        },
        "simulation": {"samples": 200, "seed": 7},
        "output_dir": "out",
    }
    doc.update(overrides)
    return doc


def write_study(tmp_path, doc, name="study.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def read_sweep_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# study files


def test_bundled_studies_load():
    for name in study_names():
        cfg = load_study_config(study_path(name))
        assert cfg.tolerance == 1e-6
    garver_cfg = load_study_config(study_path("garver6_study"))
    assert garver_cfg.radius() == pytest.approx(2.3263, abs=1e-4)
    assert garver_cfg.annualize == (25.0, 0.10)


def test_radius_and_quantile_are_exclusive(tmp_path):
    doc = base_twobus_study()
    doc["uncertainty"]["quantile"] = 0.9
    with pytest.raises(ValidationError, match="exactly one"):
        load_study_config(write_study(tmp_path, doc))
    doc2 = base_twobus_study()
    del doc2["uncertainty"]["beta"]
    with pytest.raises(ValidationError, match="exactly one"):
        load_study_config(write_study(tmp_path, doc2, "s2.json"))


def test_config_rejections(tmp_path):
    bad_tol = base_twobus_study(tolerance=0.0)
    with pytest.raises(ValidationError, match="tolerance"):
        load_study_config(write_study(tmp_path, bad_tol, "t.json"))

    no_samples = base_twobus_study(simulation={"samples": 0})
    with pytest.raises(ValidationError, match="samples"):
        load_study_config(write_study(tmp_path, no_samples, "n.json"))

    unknown = base_twobus_study(spam=1)
    with pytest.raises(ParseError, match="unknown keys"):
        load_study_config(write_study(tmp_path, unknown, "u.json"))

    bad_rho = base_twobus_study()
    bad_rho["uncertainty"]["correlations"] = [{"a": "G1", "b": "D2", "rho": 1.0}]
    with pytest.raises(ValidationError, match="rho"):
        load_study_config(write_study(tmp_path, bad_rho, "r.json"))

    self_corr = base_twobus_study()
    self_corr["uncertainty"]["correlations"] = [{"a": "G1", "b": "G1", "rho": 0.5}]
    with pytest.raises(ValidationError, match="itself"):
        load_study_config(write_study(tmp_path, self_corr, "c.json"))



@pytest.mark.parametrize("block", ["std", "bounds"])
@pytest.mark.parametrize("entry", ["abc", [1], True, "40"])
def test_spread_values_must_be_numbers(tmp_path, block, entry):
    doc = base_twobus_study()
    doc["uncertainty"][block]["values"][0] = entry
    with pytest.raises(ParseError, match=rf"{block}: values\[0\] must be a finite number"):
        load_study_config(write_study(tmp_path, doc))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_tolerance_rejected(tmp_path, value):
    doc = base_twobus_study(tolerance=value)
    with pytest.raises(ParseError, match="tolerance must be a finite number"):
        load_study_config(write_study(tmp_path, doc))

def test_build_uncertainty_fraction_convention(tmp_path, garver_annual):
    doc = {
        "network": str(dataset_path("garver6")),
        "uncertainty": {
            "std": {"generator_fraction": 0.5, "demand_fraction": 0.2,
                    "interval_z": 2.3263},
            "bounds": {"generator_fraction": 0.5, "demand_fraction": 0.2},
            "beta": 1.0,
        },
    }
    cfg = load_study_config(write_study(tmp_path, doc))
    es = build_uncertainty(cfg, garver_annual)
    mean = garver_annual.nominal_uncertain()
    frac = np.array([0.5] * 3 + [0.2] * 5)
    np.testing.assert_allclose(np.sqrt(np.diag(es.covariance)),
                               frac * mean / 2.3263, rtol=1e-12)
    np.testing.assert_allclose(es.half_width, frac * mean, rtol=1e-12)
    np.testing.assert_array_equal(es.signs, garver_annual.uncertain_signs())


def test_build_uncertainty_checks_lengths_and_ids(tmp_path, twobus):
    short = base_twobus_study()
    short["uncertainty"]["std"] = {"values": [1.0]}
    cfg = load_study_config(write_study(tmp_path, short, "s.json"))
    with pytest.raises(ValidationError, match="entries"):
        build_uncertainty(cfg, twobus)

    ghost = base_twobus_study()
    ghost["uncertainty"]["correlations"] = [{"a": "G1", "b": "NOPE", "rho": 0.3}]
    cfg2 = load_study_config(write_study(tmp_path, ghost, "g.json"))
    with pytest.raises(ValidationError, match="unknown parameter"):
        build_uncertainty(cfg2, twobus)


# ---------------------------------------------------------------------------
# plan command


def test_plan_writes_outputs_and_exits_zero(tmp_path, capsys):
    cfg_path = write_study(tmp_path, base_twobus_study())
    rc = main(["plan", "--config", str(cfg_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status: converged" in out

    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert plan["status"] == "converged"
    assert plan["built"] == ["C1-2a"]
    assert plan["radius"] == pytest.approx(1.28155)
    gen_cost = 1.0e-5 * 8760.0
    expected = 1.0 + gen_cost * (60.0 + 1.28155 * 5.0)
    assert plan["objective"] == pytest.approx(expected, rel=1e-6)

    log = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
    assert log[0] == ("nu,z_up,z_lo,gap,investment,worst_cost,built,"
                      "master_nodes,master_root_pivots,search_s,master_s,runtime_s")
    assert len(log) == 1 + plan["outer_iterations"]
    # The last iteration converges before it would solve a master.
    nodes = [int(row.split(",")[-5]) for row in log[1:]]
    assert nodes[-1] == 0 and all(n >= 1 for n in nodes[:-1])
    pivots = [int(row.split(",")[-4]) for row in log[1:]]
    assert pivots[-1] == 0
    # Wall clock: the search and the master are parts of the iteration.
    for k, row in enumerate(log[1:], start=1):
        search_s, master_s, runtime_s = map(float, row.split(",")[-3:])
        assert search_s > 0.0 and search_s + master_s <= runtime_s + 2e-6  # rounding
        assert (master_s == 0.0) == (k == len(log) - 1)


def readme_text_block():
    """The plan summary that README's quick start shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```text\n", 1)[1].split("```", 1)[0]


def test_readme_entry_points_resolve():
    # Each name in README's table of main entry points, as written: a bare
    # name is exported by arotnep, a dotted one names its module.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("The main entry points", 1)[1].split("\n\n", 2)[1]
    names = [name for row in table.splitlines()[2:]
             for name in re.findall(r"`([\w.]+)`", row.split("|")[1])]
    assert "outer_solve" in names and len(names) >= 15
    for name in names:
        module, _, attr = name.rpartition(".")
        assert hasattr(importlib.import_module(module or "arotnep"), attr), name


def test_plan_logs_master_nodes_on_bundled_study(tmp_path):
    # Branch-and-bound ties, and so the node and pivot counts, depend on how
    # threaded BLAS sums; the counts below hold for one BLAS thread.  Only
    # the first master solves its root cold.  Both bounds are priced by the
    # small dispatch LPs, so plan.json does not depend on the thread count.
    procs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               cli.OUTPUT_DIR_ENV: str(out), "PYTHONPATH": os.pathsep.join(sys.path)}
        procs[threads] = subprocess.run(
            [sys.executable, "-m", "arotnep.cli", "plan", "--config",
             str(study_path("garver6_study"))], capture_output=True, text=True, env=env)
        assert procs[threads].returncode == 0, procs[threads].stderr
    with open(tmp_path / "1" / "iterations.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["master_nodes"]) for row in rows] == [163, 83, 73, 37, 0]
    assert [int(row["master_root_pivots"]) for row in rows] == [226, 136, 271, 201, 0]
    first = (tmp_path / "1" / "plan.json").read_bytes()
    assert first == (tmp_path / "2" / "plan.json").read_bytes()
    plan = json.loads(first)
    assert plan["built"] == ["C2-6a", "C2-6b", "C2-6c", "C3-5a", "C3-5b",
                             "C4-6a", "C4-6b"]
    assert plan["objective"] == pytest.approx(131.1628257905744, rel=1e-12)
    assert plan["z_lo"] == plan["z_up"]
    summary = [line for line in procs["1"].stdout.splitlines()
               if not line.startswith("wrote ")]
    assert summary == readme_text_block().splitlines()


def test_plan_bytes_reproducible(tmp_path, monkeypatch):
    cfg_path = write_study(tmp_path, base_twobus_study())
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "a"))
    assert main(["plan", "--config", str(cfg_path)]) == 0
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "b"))
    assert main(["plan", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "a" / "plan.json").read_bytes()
    second = (tmp_path / "b" / "plan.json").read_bytes()
    assert first == second


def test_plan_quantile_maps_to_radius(tmp_path):
    doc = base_twobus_study()
    del doc["uncertainty"]["beta"]
    doc["uncertainty"]["quantile"] = 0.99
    cfg_path = write_study(tmp_path, doc)
    assert main(["plan", "--config", str(cfg_path)]) == 0
    plan = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert plan["radius"] == pytest.approx(2.3263, abs=1e-4)


def test_plan_missing_network_exits_io_without_outputs(tmp_path, capsys):
    doc = base_twobus_study(network="nowhere/missing.json")
    cfg_path = write_study(tmp_path, doc)
    rc = main(["plan", "--config", str(cfg_path)])
    assert rc == 5
    assert "not found" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_plan_bad_config_exits_config_code(tmp_path, capsys):
    doc = base_twobus_study()
    doc["uncertainty"]["quantile"] = 0.9  # both beta and quantile
    cfg_path = write_study(tmp_path, doc)
    assert main(["plan", "--config", str(cfg_path)]) == 4
    assert "exactly one" in capsys.readouterr().err

    doc2 = base_twobus_study(annualize={"return_period_years": 25,
                                        "discount_rate": 0.0})
    cfg2 = write_study(tmp_path, doc2, "bad_rate.json")
    assert main(["plan", "--config", str(cfg2)]) == 4


@pytest.mark.parametrize("block", [None, "simulation"])
def test_plan_negative_seed_exits_config_code(tmp_path, capsys, block):
    doc = base_twobus_study()
    (doc if block is None else doc[block])["seed"] = -1
    cfg_path = write_study(tmp_path, doc)
    assert main(["plan", "--config", str(cfg_path)]) == 4
    key = "study: seed" if block is None else f"study.{block}: seed"
    assert f"error: {key} must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_plan_non_positive_definite_correlation_exits_config_code(tmp_path, capsys):
    doc = json.loads(study_path("garver6_study").read_text())
    doc["network"] = str(dataset_path("garver6"))
    doc["output_dir"] = "out"
    doc["uncertainty"]["correlations"] = [
        {"a": "G1", "b": "G3", "rho": 0.9},
        {"a": "G1", "b": "G6", "rho": 0.9},
        {"a": "G3", "b": "G6", "rho": -0.9},
    ]
    cfg_path = write_study(tmp_path, doc)
    assert main(["plan", "--config", str(cfg_path)]) == 4
    assert "not positive definite (leading minor 2)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "plan.json").exists()


def test_plan_zero_discount_rate_names_the_key(tmp_path, capsys):
    doc = base_twobus_study(annualize={"return_period_years": 25,
                                       "discount_rate": 0.0})
    cfg_path = write_study(tmp_path, doc)
    assert main(["plan", "--config", str(cfg_path)]) == 4
    assert "discount_rate" in capsys.readouterr().err


def test_plan_unreadable_config_exits_io(tmp_path):
    assert main(["plan", "--config", str(tmp_path / "absent.json")]) == 5


# ---------------------------------------------------------------------------
# validate command


def test_plan_then_validate_calibrates(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    study = str(study_path("onebus_calibration_study"))
    assert main(["plan", "--config", study]) == 0
    assert main(["validate", "--config", study,
                 "--plan", str(tmp_path / "plan.json")]) == 0
    out = capsys.readouterr().out
    assert "empirical non-exceedance" in out

    with open(tmp_path / "validation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    summary = {r[1]: r[2] for r in rows if r[0] == "summary"}
    prob = float(summary["non_exceedance"])
    assert 0.87 <= prob <= 0.93
    lo, hi = float(summary["non_exceedance_lo"]), float(summary["non_exceedance_hi"])
    assert lo < prob < hi
    assert f"(95% Wilson interval [{lo:.4f}, {hi:.4f}])" in out
    assert f"dispatch solves: {summary['dispatch_solves']}" in out
    assert int(summary["n_samples"]) == 1000
    assert sum(int(r[3]) for r in rows if r[0] == "bin") == 1000


def test_validate_refuses_tampered_plan(tmp_path, monkeypatch, capsys):
    cfg_path = write_study(tmp_path, base_twobus_study())
    assert main(["plan", "--config", str(cfg_path)]) == 0
    plan_path = tmp_path / "out" / "plan.json"
    doc = json.loads(plan_path.read_text())
    doc["network_hash"] = "0" * 64
    plan_path.write_text(json.dumps(doc))
    rc = main(["validate", "--config", str(cfg_path),
               "--plan", str(plan_path)])
    assert rc == 4
    assert "refusing" in capsys.readouterr().err



@pytest.mark.parametrize("key, value, error", [
    pytest.param("radius", "x", "radius must be a finite number", id="radius-x"),
    pytest.param("worst_cost", None, "worst_cost must be a finite number", id="worst_cost-None"),
    # A plan of another schema, or of none, is not priced.
    pytest.param("schema_version", 2, "unsupported schema_version 2", id="schema_version-2"),
    pytest.param("schema_version", True, "schema_version must be an integer",
                 id="schema_version-True"),
    pytest.param("schema_version", ..., "lacks required key 'schema_version'",
                 id="schema_version-missing"),
])
def test_validate_rejects_non_numeric_plan_values(tmp_path, capsys, key, value, error):
    cfg_path = write_study(tmp_path, base_twobus_study())
    assert main(["plan", "--config", str(cfg_path)]) == 0
    plan_path = tmp_path / "out" / "plan.json"
    doc = json.loads(plan_path.read_text())
    if value is ...:
        del doc[key]
    else:
        doc[key] = value
    plan_path.write_text(json.dumps(doc))
    rc = main(["validate", "--config", str(cfg_path),
               "--plan", str(plan_path)])
    assert rc == 4
    assert error in capsys.readouterr().err

def test_validate_missing_plan_exits_io(tmp_path):
    cfg_path = write_study(tmp_path, base_twobus_study())
    rc = main(["validate", "--config", str(cfg_path),
               "--plan", str(tmp_path / "ghost.json")])
    assert rc == 5


def test_validate_zero_samples_rejected_at_config(tmp_path):
    doc = base_twobus_study(simulation={"samples": 0, "seed": 1})
    cfg_path = write_study(tmp_path, doc)
    rc = main(["validate", "--config", str(cfg_path),
               "--plan", str(tmp_path / "irrelevant.json")])
    assert rc == 4


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_monotone_objective_and_matching_single_row(tmp_path):
    cfg_path = write_study(tmp_path, base_twobus_study())
    rc = main(["sweep", "--config", str(cfg_path),
               "--betas", "0,0.5,1.28155"])
    assert rc == 0
    rows = read_sweep_rows(tmp_path / "out" / "sweep.csv")
    assert [row["status"] for row in rows] == ["converged"] * 3
    objectives = [float(row["objective"]) for row in rows]
    assert objectives == sorted(objectives)
    for row in rows:
        assert float(row["runtime_s"]) > 0.0

    # A one-entry sweep at radius zero matches the plan command's output.
    zero = base_twobus_study()
    zero["uncertainty"]["beta"] = 0.0
    zero["output_dir"] = "zero"
    zero_cfg = write_study(tmp_path, zero, "zero.json")
    assert main(["plan", "--config", str(zero_cfg)]) == 0
    plan = json.loads((tmp_path / "zero" / "plan.json").read_text())
    assert float(rows[0]["objective"]) == pytest.approx(plan["objective"],
                                                        rel=1e-9)


def test_sweep_records_failures_and_continues(tmp_path, monkeypatch, capsys):
    cfg_path = write_study(tmp_path, base_twobus_study())
    real = cli.outer_solve

    def flaky(net, es, **kwargs):
        if es.radius > 1.0:
            raise IterationLimit("stress failure for testing")
        return real(net, es, **kwargs)

    monkeypatch.setattr(cli, "outer_solve", flaky)
    rc = main(["sweep", "--config", str(cfg_path), "--betas", "0.5,2.0"])
    assert rc == 4
    rows = read_sweep_rows(tmp_path / "out" / "sweep.csv")
    assert rows[0]["status"] == "converged"
    assert rows[1]["status"] == "error"
    assert "stress failure" in rows[1]["error"]
    assert "error" in capsys.readouterr().out


def test_sweep_argument_validation(tmp_path):
    cfg_path = write_study(tmp_path, base_twobus_study())
    assert main(["sweep", "--config", str(cfg_path), "--betas", " , "]) == 4
    assert main(["sweep", "--config", str(cfg_path), "--betas", "-1"]) == 4
    assert main(["sweep", "--config", str(cfg_path), "--betas", "weird"]) == 4


# ---------------------------------------------------------------------------
# entry points


def test_module_help_runs():
    proc = subprocess.run([sys.executable, "-m", "arotnep.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "plan" in proc.stdout
    assert "sweep" in proc.stdout


def test_console_script_help_runs():
    exe = shutil.which("arotnep")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "validate" in proc.stdout
