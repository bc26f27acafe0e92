"""Quick checks of the benchmark's own parts (input generation, the HiGHS
references, the tracer).  Not part of the package's test suite; run with
``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import arotnep  # noqa: E402
import workloads  # noqa: E402
from reference import ReferenceModel  # noqa: E402
from tracer import Tracer, round_metrics  # noqa: E402


@pytest.fixture(scope="module")
def garver6():
    st = workloads.set_up(workloads.Inputs(workloads.STUDY_FILE))
    return st, ReferenceModel(workloads.STUDY_FILE)


def test_candidate_plans_are_seeded_sized_and_within_budget(garver6):
    st, ref = garver6
    plans = workloads.candidate_plans(3, 2)
    assert plans == workloads.candidate_plans(3, 2)
    assert plans != workloads.candidate_plans(4, 2)
    assert [len(p) for p in plans] == [k for k in workloads.PLAN_SIZES for _ in range(2)]
    for p in plans:
        assert sum(ref.build_cost[b] for b in p) <= ref.budget


def test_correlation_matrix_is_dense_and_positive_definite():
    corr = workloads.correlation_matrix(5, 3, 8)
    assert np.allclose(corr, corr.T)
    assert np.all(corr[~np.eye(8, dtype=bool)] != 0.0)
    assert np.linalg.eigvalsh(corr)[0] > 0.1
    assert np.array_equal(corr, workloads.correlation_matrix(5, 3, 8))


def test_reference_dispatch_matches_solve_opf(garver6):
    st, ref = garver6
    rng = np.random.default_rng(0)
    plans = workloads.candidate_plans(0, 1)
    for built, d in zip(plans, st.es.sample(rng, len(plans))):
        ours = arotnep.solve_opf(st.net, d=d, built=built).objective
        assert ref.dispatch_cost(d, built) == pytest.approx(ours, rel=1e-8, abs=1e-9)


def test_reference_step_matches_bounded_step(tmp_path):
    inp = workloads.WorstCaseCorrelated().inputs(2, tmp_path)
    st = workloads.set_up(inp)
    ref = ReferenceModel(inp.study_file)
    assert np.allclose(ref.covariance, st.es.covariance)
    rng = np.random.default_rng(1)
    for _ in range(3):
        eta = rng.normal(size=st.es.dim)
        step = st.es.bounded_step(eta)
        assert ref.in_set(step.point)
        assert ref.best_step(eta) == pytest.approx(float(eta @ step.point), rel=1e-7)


def test_reference_master_matches_solve_master(garver6):
    st, ref = garver6
    scenario = st.es.mean + np.sqrt(np.diag(st.es.covariance)) * st.es.signs * -1.0
    ours = arotnep.solve_master(st.net, [scenario])
    assert ref.master_objective([scenario]) == pytest.approx(ours.objective, rel=1e-7)


def test_tracer_records_spans_and_restores_the_package(garver6):
    st, _ = garver6
    before = arotnep.decomp.solve_opf
    with Tracer() as tracer:
        arotnep.decomp.worst_case_cost(st.net, st.es, frozenset(), starts=1)
    assert arotnep.decomp.solve_opf is before
    assert np.linalg.inv.__module__ == "numpy.linalg"
    m = round_metrics(tracer.spans)
    assert m["worst_case_calls"] == 1 and m["inner_calls"] == 1
    assert m["opf_calls"] == m["inner_sweeps"] == m["lp_cold_calls"]
    assert m["lp_refactors"] > 0 and m["step_calls"] > 0
    assert all(s.parent is None or s.parent < s.id for s in tracer.spans)
    assert {s.op for s in tracer.spans} == {0}


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "worstcase-garver6", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout == ""
