"""Spans around the package's public functions, recorded from outside.

:class:`Tracer` replaces module attributes (the names callers look up at
call time) with wrappers that record one span per call: name, start, end,
the enclosing span and the operation it belongs to (the id of its
outermost span), plus a few counts read from the call's result.  ``numpy.linalg.inv`` is wrapped as a
counter only: a call made while a simplex span is open is a basis
refactorization of that span.  Everything is kept in memory, written out at
the end, and the originals are restored on exit.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

import arotnep
from arotnep import config, decomp, milp, montecarlo, opf, simplex

_SIMPLEX = ("simplex.cold", "simplex.warm")


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "attrs")

    def __init__(self, sid, parent, name, op, start):
        self.id, self.parent, self.name, self.op = sid, parent, name, op
        self.start, self.end, self.attrs = start, start, {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _cold_attrs(span, result):
    sol, state = result
    span.attrs["pivots"] = sol.iterations
    if state is not None:
        span.attrs["basis"] = hash((tuple(sorted(state.basis.tolist())),
                                    state.status.tobytes()))


def _warm_attrs(span, result):
    span.attrs["pivots"] = result[0].iterations


def _plan_attrs(span, result):
    span.attrs["outer_iterations"] = len(result.iterations)
    span.attrs["scenarios"] = len(result.scenarios)


# (owner, attribute, span name, attribute reader)
_TARGETS = [
    (config, "load_study_config", "config.load_study_config", None),
    (config, "load_configured_network", "network.load_configured_network", None),
    (config, "build_uncertainty", "config.build_uncertainty", None),
    (decomp, "outer_solve", "decomp.outer_solve", _plan_attrs),
    (decomp, "solve_master", "decomp.solve_master",
     lambda s, r: s.attrs.update(nodes=r.nodes)),
    (decomp, "worst_case_cost", "decomp.worst_case_cost", None),
    (decomp, "inner_solve", "decomp.inner_solve",
     lambda s, r: s.attrs.update(sweeps=r.iterations)),
    (decomp, "solve_milp", "milp.solve_milp",
     lambda s, r: s.attrs.update(nodes=r.nodes)),
    (milp, "solve_lp_with_state", "simplex.cold", _cold_attrs),
    (milp, "solve_lp_warm", "simplex.warm", _warm_attrs),
    (simplex, "solve_lp_with_state", "simplex.cold", _cold_attrs),
    (decomp, "solve_opf", "opf.solve_opf", None),
    (montecarlo, "solve_opf", "opf.solve_opf", None),
    (opf, "check_kkt", "opf.check_kkt", None),
    (arotnep.EllipsoidalSet, "bounded_step", "ellipsoid.bounded_step",
     lambda s, r: s.attrs.update(stage=r.stage)),
    (montecarlo, "run_simulation", "montecarlo.run_simulation",
     lambda s, r: s.attrs.update(samples=r.n_samples)),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, reader in _TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, reader))
        inv = np.linalg.inv
        self._saved.append((np.linalg, "inv", inv))
        np.linalg.inv = self._count_refactor(inv)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, reader):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            if self.stack:
                span = Span(sid, self.stack[-1].id, name, self.stack[-1].op, perf_counter())
            else:
                span = Span(sid, None, name, sid, perf_counter())
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
            if reader is not None:
                reader(span, result)
            return result
        return traced

    def _count_refactor(self, inv):
        @functools.wraps(inv)
        def counted(a):
            if self.stack and self.stack[-1].name in _SIMPLEX:
                attrs = self.stack[-1].attrs
                attrs["refactors"] = attrs.get("refactors", 0) + 1
            return inv(a)
        return counted

    def mark(self) -> int:
        return len(self.spans)

    def dump(self, path) -> None:
        rows = [{"id": s.id, "parent": s.parent, "name": s.name, "op": s.op,
                 "start": s.start, "end": s.end, **s.attrs} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Per set-up medians of the config and network layers."""
    def per_setup_ms(name):
        return _median([s.seconds * 1e3 for s in spans if s.name == name])
    return {
        "config_study_ms": per_setup_ms("config.load_study_config"),
        "network_load_ms": per_setup_ms("network.load_configured_network"),
        "uncertainty_build_ms": per_setup_ms("config.build_uncertainty"),
    }


def round_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and busy times over the spans of one round."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    ids = {s.id: s for s in spans}

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def parent_name(s):
        p = ids.get(s.parent) if s is not None else None
        return p.name if p is not None else None

    cold = by_name.get("simplex.cold", [])
    warm = by_name.get("simplex.warm", [])
    node_lps = [s for s in cold + warm if parent_name(s) == "milp.solve_milp"]
    steps = by_name.get("ellipsoid.bounded_step", [])
    boundary = [s for s in steps if s.attrs.get("stage") == "boundary"]
    opf_spans = by_name.get("opf.solve_opf", [])
    # Optimal bases of the dispatch LPs that price Monte Carlo samples.
    mc_bases = Counter(
        s.attrs["basis"] for s in cold if "basis" in s.attrs
        and parent_name(ids.get(s.parent)) == "montecarlo.run_simulation")
    mc_priced = sum(mc_bases.values())
    return {
        "outer_iterations": total("decomp.outer_solve", "outer_iterations"),
        "master_scenarios": total("decomp.outer_solve", "scenarios"),
        "master_calls": calls("decomp.solve_master"),
        "master_s": seconds("decomp.solve_master"),
        "master_nodes": total("decomp.solve_master", "nodes"),
        "worst_case_calls": calls("decomp.worst_case_cost"),
        "worst_case_s": seconds("decomp.worst_case_cost"),
        "inner_calls": calls("decomp.inner_solve"),
        "inner_s": seconds("decomp.inner_solve"),
        "inner_sweeps": total("decomp.inner_solve", "sweeps"),
        "milp_s": seconds("milp.solve_milp"),
        "milp_nodes": total("milp.solve_milp", "nodes"),
        "node_lps": len(node_lps),
        "node_lp_p50_ms": _median([s.seconds * 1e3 for s in node_lps]),
        "lp_cold_calls": len(cold),
        "lp_cold_s": sum(s.seconds for s in cold),
        "lp_cold_pivots": sum(s.attrs.get("pivots", 0) for s in cold),
        "lp_warm_calls": len(warm),
        "lp_warm_s": sum(s.seconds for s in warm),
        "lp_warm_pivots": sum(s.attrs.get("pivots", 0) for s in warm),
        "lp_warm_fallbacks": sum(1 for s in cold if parent_name(s) == "simplex.warm"),
        "lp_refactors": sum(s.attrs.get("refactors", 0) for s in cold + warm),
        "opf_calls": len(opf_spans),
        "opf_s": sum(s.seconds for s in opf_spans),
        "opf_p50_ms": _median([s.seconds * 1e3 for s in opf_spans]),
        "kkt_s": seconds("opf.check_kkt"),
        "step_calls": len(steps),
        "step_s": sum(s.seconds for s in steps),
        "step_boundary_calls": len(boundary),
        "step_boundary_share": len(boundary) / len(steps) if steps else 0.0,
        "step_boundary_s": sum(s.seconds for s in boundary),
        "mc_s": seconds("montecarlo.run_simulation"),
        "mc_samples": total("montecarlo.run_simulation", "samples"),
        "mc_distinct_bases": len(mc_bases),
        "mc_top10_share": (sum(n for _, n in mc_bases.most_common(10)) / mc_priced
                           if mc_priced else 0.0),
        "trace_spans": len(spans),
    }
