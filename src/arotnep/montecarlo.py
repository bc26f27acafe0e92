"""Monte Carlo pricing of a fixed expansion plan.

Draws Gaussian scenarios with the uncertainty set's mean and covariance,
prices each one with the dispatch model, and reports how often the realized
operating cost stays at or below the planned worst-case quantile.  The
report carries the empirical non-exceedance probability, summary statistics
with a fitted normal, and a histogram (Freedman-Diaconis bin width, at
least 10 bins whenever the costs spread at all).

Most draws share an optimal basis with another draw (a garver6 plan prices
1000 draws from about 10 bases), so the draws are priced in pieces.  Walking
them in order, the first draw still unpriced is solved with
:func:`~arotnep.opf.solve_opf`, and its cost is exactly what that solve
reports.  Its optimal basis becomes a :class:`~arotnep.opf.DispatchPiece`,
first moved to the bounds its reduced costs pick so that it is dual
feasible for every draw.  The piece prices all remaining draws in one batch
and certifies those whose basic values lie within their bounds to the
simplex's primal tolerance; only the others go on to the next dispatch
solve.  The plan fixes the dispatch LP's matrix and costs, so the last
optimal basis is dual feasible at every draw: only the first solve is
cold, and each later one starts warm from the basis of the last solve that
succeeded.  The report counts those solves (``dispatch_solves``) and gives
the non-exceedance a 95 % Wilson score interval.

Reports are written as CSV: a summary block followed by one row per
histogram bin (see :func:`emit_report` for the row layout).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .ellipsoid import EllipsoidalSet
from .errors import ArotnepError, ValidationError
from .network import Network
from .opf import clip_uncertain, dispatch_piece, solve_opf

SUMMARY_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimulationStudy:
    """What to simulate: sample count, seed, and the planned quantile."""

    n_samples: int
    seed: int
    q_star: float
    radius: float

    def __post_init__(self):
        if not _is_int(self.n_samples):
            raise ValidationError(
                f"n_samples must be an integer, got {self.n_samples!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValidationError(
                f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.n_samples < 1:
            raise ValidationError(
                f"n_samples must be at least 1, got {self.n_samples}")
        if math.isnan(self.q_star):
            raise ValidationError("q_star must not be NaN")
        if self.radius < 0.0 or not math.isfinite(self.radius):
            raise ValidationError(
                f"radius must be finite and nonnegative, got {self.radius}")


@dataclass
class SimulationReport:
    """Empirical pricing of a plan against sampled scenarios."""

    n_samples: int
    seed: int
    q_star: float
    radius: float
    non_exceedance: float
    non_exceedance_lo: float
    non_exceedance_hi: float
    costs: np.ndarray
    mean: float
    std: float
    quantiles: dict[float, float]
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    clipped_samples: int
    failed_samples: int
    dispatch_solves: int
    built: tuple[str, ...] = field(default_factory=tuple)


def sample_scenarios(es: EllipsoidalSet, n_samples: int, seed: int) -> np.ndarray:
    """``n_samples`` Gaussian draws (one per row) with the set's mean and
    covariance; identical seeds give identical draws."""
    return es.sample(np.random.default_rng(seed), n_samples)


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95 % Wilson score interval for a proportion of ``k`` successes in
    ``n`` trials.  The ends are exactly 0 at ``k = 0`` and exactly 1 at
    ``k = n``, where the formula's two terms cancel only to rounding."""
    z = NormalDist().inv_cdf(0.975)
    p = k / n
    shrink = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / shrink
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / shrink
    lo = 0.0 if k == 0 else centre - half
    hi = 1.0 if k == n else centre + half
    return lo, hi


def _histogram(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Freedman-Diaconis histogram with at least 10 bins; a spread-free
    sample collapses to a single bin holding everything."""
    lo = float(np.min(costs))
    hi = float(np.max(costs))
    span = hi - lo
    if span <= 1e-12 * (1.0 + abs(hi)):
        pad = max(1e-9, 1e-9 * abs(hi))
        edges = np.array([lo - pad, hi + pad])
        return edges, np.array([costs.size])
    q25, q75 = np.percentile(costs, [25.0, 75.0])
    iqr = float(q75 - q25)
    if iqr > 0.0:
        width = 2.0 * iqr / costs.size ** (1.0 / 3.0)
        bins = max(10, int(math.ceil(span / width)))
    else:
        bins = 10
    counts, edges = np.histogram(costs, bins=bins, range=(lo, hi))
    return edges, counts


def run_simulation(net: Network, built, es: EllipsoidalSet,
                   study: SimulationStudy) -> SimulationReport:
    """Price ``built`` against sampled scenarios and compare each cost with
    the planned quantile ``study.q_star``.

    Samples whose dispatch fails are counted and excluded from the cost
    statistics; shedding keeps dispatch feasible, so failures indicate a
    numerical problem rather than an expensive scenario.  A failed solve
    leaves the basis that the next one starts from as it was.
    """
    if es.dim != net.n_uncertain:
        raise ValidationError("uncertainty set dimension does not match network")
    built = frozenset(built)
    draws = sample_scenarios(es, study.n_samples, study.seed)
    clipped_draws, _ = clip_uncertain(draws)

    costs = np.full(study.n_samples, np.nan)
    failed = solves = 0
    warm = None
    pending = np.arange(study.n_samples)
    while pending.size:
        i, pending = pending[0], pending[1:]
        solves += 1
        try:
            sol = solve_opf(net, d=draws[i], built=built, warm=warm)
        except ArotnepError:
            failed += 1
            continue
        warm = sol.basis
        costs[i] = sol.objective
        priced, certified = dispatch_piece(net, built, sol.basis).price(
            clipped_draws[pending])
        costs[pending[certified]] = priced[certified]
        pending = pending[~certified]
    clipped = int(np.sum(np.isfinite(costs) & (draws < 0.0).any(axis=1)))

    ok = costs[np.isfinite(costs)]
    if ok.size == 0:
        raise ValidationError("every sampled scenario failed to price")
    below = int(np.sum(ok <= study.q_star))
    lo, hi = wilson_interval(below, study.n_samples)
    edges, counts = _histogram(ok)
    quantiles = {q: float(np.quantile(ok, q)) for q in SUMMARY_QUANTILES}
    return SimulationReport(
        n_samples=study.n_samples, seed=study.seed, q_star=study.q_star,
        radius=study.radius, non_exceedance=below / study.n_samples,
        non_exceedance_lo=lo, non_exceedance_hi=hi, costs=costs,
        mean=float(np.mean(ok)), std=float(np.std(ok)), quantiles=quantiles,
        bin_edges=edges, bin_counts=counts, clipped_samples=clipped,
        failed_samples=failed, dispatch_solves=solves,
        built=tuple(sorted(built)))


# ---------------------------------------------------------------------------
# report output

_SUMMARY_FLOAT_KEYS = ("q_star", "radius", "non_exceedance", "non_exceedance_lo",
                       "non_exceedance_hi", "mean", "std")
_SUMMARY_INT_KEYS = ("n_samples", "seed", "clipped_samples", "failed_samples",
                     "dispatch_solves")


def emit_report(report: SimulationReport, path) -> None:
    """Write the report as CSV.

    Rows are ``summary,<key>,<value>`` followed by
    ``bin,<lower>,<upper>,<count>``, one row per histogram bin; floats are
    written with full precision so reparsing reproduces them exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for key, value in _summary_items(report):
            writer.writerow(["summary", key, value])
        for i in range(report.bin_counts.size):
            writer.writerow(["bin", repr(float(report.bin_edges[i])),
                             repr(float(report.bin_edges[i + 1])),
                             int(report.bin_counts[i])])


def _summary_items(report: SimulationReport):
    for key in _SUMMARY_INT_KEYS:
        yield key, str(getattr(report, key))
    for key in _SUMMARY_FLOAT_KEYS:
        yield key, repr(float(getattr(report, key)))
    for q in sorted(report.quantiles):
        yield f"quantile_{q}", repr(float(report.quantiles[q]))
    yield "built", " ".join(report.built)
