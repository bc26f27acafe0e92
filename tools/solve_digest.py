#!/usr/bin/env python3
"""Digests of every LP solve in one benchmark round, for bit-identity checks.

Runs one round of each benchmark workload (``perfbench/workloads.py``, used
as is) at a given seed and prints, per workload, the number of LP solves,
a SHA-256 over the sorted distinct per-solve digests, a SHA-256 over the
round's outputs and the round's Python allocation peak::

    OPENBLAS_NUM_THREADS=1 python3 tools/solve_digest.py --seed 1

A per-solve digest covers the status, pivot count, objective, ``x``, the
duals, the reduced costs and the basis with its statuses.  Only the
outermost call counts: a warm start that falls back to a cold solve is one
solve.  A change meant to move no computed bit must print main's
``outputs`` hash on every workload.  Its ``solves`` hash matches main's too
unless the change alters how a solve is reached: one that removes repeated
solves lowers the counts only, because the hash covers distinct solves,
but one that moves solves from cold to warm changes the counts and the
``solves`` hash, since a warm solve takes other pivots.  The BLAS thread
count changes the bits of the master LPs, so compare runs under the same
``OPENBLAS_NUM_THREADS``.

The peak is ``tracemalloc``'s, taken over the round alone (set-up excluded,
the digests' own few kilobytes included): the largest total of Python and
NumPy allocations live at once.  Unlike the benchmark's ``peak_rss_mb`` it
does not see the interpreter, the loaded libraries or memory the allocator
keeps after a free, so it moves only with what the program allocates.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from arotnep import milp, simplex  # noqa: E402

# Fields that say how a result was reached, not what it is: the wall-clock
# columns of an outer iteration, and the sweep count of a worst-case search.
_SKIP = {("OuterIteration", "search_s"), ("OuterIteration", "master_s"),
         ("OuterIteration", "runtime_s"), ("InnerResult", "iterations")}


def _feed(h, value) -> None:
    """Hash ``value`` with its type and shape, so distinct values differ."""
    if dataclasses.is_dataclass(value):
        name = type(value).__name__
        h.update(name.encode())
        for f in dataclasses.fields(value):
            if (name, f.name) not in _SKIP:
                h.update(f.name.encode())
                _feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        h.update(b"dict")
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"seq{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, frozenset):
        _feed(h, sorted(value))
    elif isinstance(value, str):
        h.update(b"str" + value.encode())
    elif value is None:
        h.update(b"none")
    else:
        a = np.asarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def _solve_digest(result) -> str:
    sol, state = result
    h = hashlib.sha256()
    for field in ("status", "iterations", "objective", "x", "duals_eq",
                  "duals_ub", "reduced_costs"):
        _feed(h, getattr(sol, field))
    _feed(h, None if state is None else (state.basis, state.status))
    return h.hexdigest()


class SolveRecorder:
    """Wraps the simplex entry points that the package calls by name."""

    _TARGETS = [(simplex, "solve_lp_with_state", "cold"),
                (milp, "solve_lp_with_state", "cold"),
                (simplex, "solve_lp_warm", "warm"),
                (milp, "solve_lp_warm", "warm")]

    def __init__(self):
        self.counts = {"cold": 0, "warm": 0}
        self.digests: set[str] = set()
        self._depth = 0
        self._saved = []

    def __enter__(self):
        for owner, attr, kind in self._TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, kind))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        return False

    def _wrap(self, fn, kind):
        def recorded(*args, **kwargs):
            self._depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.counts[kind] += 1
                self.digests.add(_solve_digest(result))
            return result
        return recorded


def digest_round(name: str, seed: int) -> str:
    work = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as out:
        inp = work.inputs(seed, Path(out))
        st = workloads.set_up(inp)
        tracemalloc.start()
        try:
            with SolveRecorder() as rec:
                rnd = work.run_round(st, inp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    solves = hashlib.sha256("".join(sorted(rec.digests)).encode()).hexdigest()
    h = hashlib.sha256()
    _feed(h, rnd.outputs)
    return (f"{name}: cold {rec.counts['cold']} warm {rec.counts['warm']} "
            f"distinct {len(rec.digests)}\n  solves  {solves}\n  outputs {h.hexdigest()}"
            f"\n  peak    {peak / 1e6:.2f} MB allocated (tracemalloc)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        print(digest_round(name, args.seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
