"""Adaptive robust transmission expansion planning under ellipsoidal uncertainty.

The package couples a master investment problem over candidate transmission
lines with an operational worst-case subproblem driven by a first-order
probability approximation, and validates planned quantiles by Monte Carlo
simulation. All linear programming and branch-and-bound machinery is
self-contained and built on numpy.

Typical use::

    from arotnep import load_dataset, annualize_costs, outer_solve
    from arotnep import EllipsoidalSet

    net = annualize_costs(load_dataset("garver6"), 25, 0.10)
    es = EllipsoidalSet.from_std_and_correlation(
        net.nominal_uncertain(), std, correlation, radius,
        signs=net.uncertain_signs())
    plan = outer_solve(net, es)
"""

from .config import (
    StudyConfig,
    build_uncertainty,
    load_configured_network,
    load_study_config,
)
from .datasets import dataset_names, dataset_path, load_dataset, study_names, study_path
from .decomp import (
    InnerResult,
    MasterResult,
    PlanResult,
    outer_solve,
    solve_master,
    worst_case_cost,
)
from .ellipsoid import (
    EllipsoidalSet,
    phi,
    phi_inv,
    prob_exceedance,
    soyster_beta,
    std_from_interval,
)
from .errors import (
    ArotnepError,
    IterationLimit,
    NumericalError,
    ParseError,
    ValidationError,
)
from .montecarlo import SimulationReport, SimulationStudy, emit_report, run_simulation
from .network import Network, annualize_costs, load_network, network_hash
from .opf import OPFSolution, solve_opf

__version__ = "0.1.0"

__all__ = [
    "ArotnepError",
    "EllipsoidalSet",
    "InnerResult",
    "IterationLimit",
    "MasterResult",
    "Network",
    "NumericalError",
    "OPFSolution",
    "ParseError",
    "PlanResult",
    "SimulationReport",
    "SimulationStudy",
    "StudyConfig",
    "ValidationError",
    "__version__",
    "annualize_costs",
    "build_uncertainty",
    "dataset_names",
    "dataset_path",
    "emit_report",
    "load_configured_network",
    "load_dataset",
    "load_network",
    "load_study_config",
    "network_hash",
    "outer_solve",
    "phi",
    "phi_inv",
    "prob_exceedance",
    "run_simulation",
    "solve_master",
    "solve_opf",
    "soyster_beta",
    "std_from_interval",
    "study_names",
    "study_path",
    "worst_case_cost",
]
