"""Self-sustainability analysis for harvest-store-consume energy systems.

A system harvests energy packets at Poisson arrival epochs, stores them in
an infinite buffer, and drains the buffer at a constant rate.  This package
decides whether the system can sustain itself forever with positive
probability, computes eventual-outage probabilities and bounds through the
adjustment coefficient of the embedded random walk, and checks every
closed-form result against seeded Monte-Carlo simulation.
"""
from __future__ import annotations

__version__ = "0.2.0"

from .errors import (
    ConvergenceError,
    DomainError,
    GridError,
    ParseError,
    PreconditionError,
)
from .distributions import (
    EVENT_BLOCK,
    DistributionSpec,
    Kind,
    log_laplace,
    moments,
    parse_distribution_spec,
    poisson_events,
    sample_block,
    scripted_events,
)
from .analytic import (
    AdjustmentResult,
    SolveMethod,
    Sustainability,
    SustainabilityVerdict,
    SystemParams,
    asymptotic_outage,
    eventual_outage_poisson_exact,
    ladder_height_density_poisson,
    outage_bound,
    required_initial_energy,
    solve_adjustment_coefficient,
    solve_renewal_equation,
    stationary_outage,
    step_cgf,
    tilted_ladder_mean_poisson,
    utilization,
)
from .simulate import (
    EstimateWithCI,
    LadderSample,
    LindleyStats,
    TrialOutcome,
    collect_ladder_samples,
    estimate_eventual_outage,
    estimate_phi_from_max,
    simulate_first_passage,
    simulate_lindley,
    trial_rng,
)

__all__ = [
    "__version__",
    "ConvergenceError",
    "DomainError",
    "GridError",
    "ParseError",
    "PreconditionError",
    "EVENT_BLOCK",
    "DistributionSpec",
    "Kind",
    "log_laplace",
    "moments",
    "parse_distribution_spec",
    "poisson_events",
    "sample_block",
    "scripted_events",
    "AdjustmentResult",
    "SolveMethod",
    "Sustainability",
    "SustainabilityVerdict",
    "SystemParams",
    "asymptotic_outage",
    "eventual_outage_poisson_exact",
    "ladder_height_density_poisson",
    "outage_bound",
    "required_initial_energy",
    "solve_adjustment_coefficient",
    "solve_renewal_equation",
    "stationary_outage",
    "step_cgf",
    "tilted_ladder_mean_poisson",
    "utilization",
    "EstimateWithCI",
    "LadderSample",
    "LindleyStats",
    "TrialOutcome",
    "collect_ladder_samples",
    "estimate_eventual_outage",
    "estimate_phi_from_max",
    "simulate_first_passage",
    "simulate_lindley",
    "trial_rng",
]
