"""Self-sustainability analysis for harvest-store-consume energy systems.

A system harvests energy packets at Poisson arrival epochs, stores them in
an infinite buffer, and drains the buffer at a constant rate.  This package
decides whether the system can sustain itself forever with positive
probability, computes eventual-outage probabilities and bounds through the
adjustment coefficient of the embedded random walk, and checks every
closed-form result against seeded Monte-Carlo simulation.

The package exports the ``__all__`` names of :mod:`hsc.errors`,
:mod:`hsc.distributions`, :mod:`hsc.analytic` and :mod:`hsc.simulate`.
:mod:`hsc.simulate`, and with it numpy, loads lazily, at the first lookup
of it or of one of its names; so ``import hsc`` loads no numpy, and
neither does the closed-form report of ``hsc analyze``.
"""
from __future__ import annotations

__version__ = "0.9.0"

from . import analytic, distributions, errors
from .errors import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .analytic import *  # noqa: F401,F403

# hsc.simulate's public names, which it takes as its __all__: listed here, since
# the package must know them without loading hsc.simulate and numpy
_SIMULATE = (
    "TrialOutcome",
    "LadderSample",
    "EstimateWithCI",
    "LindleyStats",
    "trial_rng",
    "simulate_first_passage",
    "estimate_outage_curves",
    "estimate_eventual_outage",
    "collect_ladder_samples",
    "estimate_phi_from_max",
    "simulate_lindley",
)

__all__ = [
    "__version__",
    *errors.__all__,
    *distributions.__all__,
    *analytic.__all__,
    *_SIMULATE,
]


def __getattr__(name: str):
    # PEP 562: called only for names not in the module's namespace.  Once
    # imported, simulate is an attribute of the package, and no longer passes
    # here.  Not `from . import simulate`, which looks the name up here again.
    if name == "simulate" or name in _SIMULATE:
        from importlib import import_module

        simulate = import_module(".simulate", __name__)
        return simulate if name == "simulate" else getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
