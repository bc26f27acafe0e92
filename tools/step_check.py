#!/usr/bin/env python3
"""Robustness census of ``EllipsoidalSet.bounded_step`` on seeded families.

Builds four families of uncertainty sets with gradients and takes one step
on each, through the public API only, so the same script runs against any
checkout that has ``src/arotnep``::

    OPENBLAS_NUM_THREADS=1 python3 tools/step_check.py

For every family it prints the number of steps, how many ended at each
stage (``ellipsoid``, ``box``, ``boundary``), how many raised
``NumericalError`` and how many returned a point outside
``contains(tol=1e-9)``.  Any other exception propagates.

Families:

* ``random``: dense covariances with 2 to 24 coordinates and a smallest
  eigenvalue down to 1e-3, mixed deviation signs and half-widths (seeds
  0-2999, the same instances as the tests' ``random_step_instance``);
* ``harsh``: 2 to 12 coordinates at scales from 1e-2 to 1e3, a covariance
  floor down to 1e-6 of the scale, infinite and zero half-widths and
  gradients with exact zeros (2000 instances);
* ``rank2``: four coordinates with a rank-2 covariance plus 1e-9 times the
  identity (seeds 0-399, the tests' near-singular family);
* ``floor``: 3 to 8 coordinates with a rank-deficient covariance plus a
  floor from 1e-10 to 1e-4 (1500 instances).
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from arotnep import EllipsoidalSet, NumericalError  # noqa: E402


def random_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    a = rng.normal(size=(n, n))
    cov = a @ a.T + 10.0 ** rng.uniform(-3.0, 0.0) * np.eye(n)
    mean = rng.normal(scale=3.0, size=n)
    radius = float(rng.uniform(0.3, 4.0))
    half = rng.uniform(0.05, 3.0, size=n)
    signs = rng.choice([-1.0, 0.0, 1.0], size=n)
    eta = rng.normal(size=n)
    return EllipsoidalSet(mean, cov, radius, half_width=half, signs=signs), eta


def harsh_instance(seed: int):
    rng = np.random.default_rng(10_000 + seed)
    n = int(rng.integers(2, 13))
    scale = 10.0 ** rng.uniform(-2.0, 3.0)
    a = rng.normal(size=(n, n))
    cov = scale**2 * (a @ a.T / n + 10.0 ** rng.uniform(-6.0, 0.0) * np.eye(n))
    mean = rng.normal(scale=3.0 * scale, size=n)
    radius = float(rng.uniform(0.3, 4.0))
    half = scale * rng.uniform(0.05, 3.0, size=n)
    kind = rng.integers(0, 6, size=n)
    half[kind == 0] = np.inf
    half[kind == 1] = 0.0
    signs = rng.choice([-1.0, 0.0, 1.0], size=n)
    eta = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    eta[rng.random(n) < 0.2] = 0.0
    return EllipsoidalSet(mean, cov, radius, half_width=half, signs=signs), eta


def rank2_instance(seed: int):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 2))
    es = EllipsoidalSet(rng.normal(scale=3.0, size=4), a @ a.T + 1e-9 * np.eye(4),
                        rng.uniform(0.3, 4.0), half_width=rng.uniform(0.05, 3.0, size=4),
                        signs=rng.choice([-1.0, 0.0, 1.0], size=4))
    return es, rng.normal(size=4)


def floor_instance(seed: int):
    rng = np.random.default_rng(20_000 + seed)
    n = int(rng.integers(3, 9))
    a = rng.normal(size=(n, int(rng.integers(1, n))))
    cov = a @ a.T + 10.0 ** rng.uniform(-10.0, -4.0) * np.eye(n)
    es = EllipsoidalSet(rng.normal(scale=3.0, size=n), cov, rng.uniform(0.3, 4.0),
                        half_width=rng.uniform(0.05, 3.0, size=n),
                        signs=rng.choice([-1.0, 0.0, 1.0], size=n))
    return es, rng.normal(size=n)


FAMILIES = {
    "random": (random_instance, 3000),
    "harsh": (harsh_instance, 2000),
    "rank2": (rank2_instance, 400),
    "floor": (floor_instance, 1500),
}


def census(make, count: int) -> Counter:
    tally = Counter()
    for seed in range(count):
        es, eta = make(seed)
        tally["steps"] += 1
        try:
            step = es.bounded_step(eta)
        except NumericalError:
            tally["NumericalError"] += 1
            continue
        tally[step.stage] += 1
        if not es.contains(step.point, tol=1e-9):
            tally["outside"] += 1
    return tally


def main() -> int:
    keys = ("steps", "ellipsoid", "box", "boundary", "NumericalError", "outside")
    print(f"{'family':<8}" + "".join(f"{k:>16}" for k in keys))
    for name, (make, count) in FAMILIES.items():
        tally = census(make, count)
        print(f"{name:<8}" + "".join(f"{tally[k]:>16}" for k in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main())
