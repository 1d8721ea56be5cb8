"""Self-sustainability analysis for harvest-store-consume energy systems.

A system harvests energy packets at Poisson arrival epochs, stores them in
an infinite buffer, and drains the buffer at a constant rate.  This package
decides whether the system can sustain itself forever with positive
probability, computes eventual-outage probabilities and bounds through the
adjustment coefficient of the embedded random walk, and checks every
closed-form result against seeded Monte-Carlo simulation.

The package exports the ``__all__`` names of :mod:`hsc.errors`,
:mod:`hsc.distributions`, :mod:`hsc.analytic` and :mod:`hsc.simulate`.
"""
from __future__ import annotations

__version__ = "0.5.1"

from . import analytic, distributions, errors, simulate
from .errors import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .analytic import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *errors.__all__,
    *distributions.__all__,
    *analytic.__all__,
    *simulate.__all__,
]
