"""Closed-form and numeric analysis of the battery surplus process.

Model.  A store starts with energy ``u0`` and is drained at constant rate
``p``.  Energy packets arrive as a Poisson process with rate ``lam``; packet
sizes are i.i.d. draws from a :class:`~hsc.distributions.DistributionSpec`
law, with the first packet landing at time zero.  The system suffers an
energy outage when the surplus first touches zero.

Observed just before each arrival, the surplus is ``u0`` minus a random walk
whose step is the net draw over one inter-arrival period::

    step = p * gap - packet

so an outage is, equivalently, the walk's running maximum exceeding ``u0``.
With utilization ``rho = lam * mean / p``:

* ``rho <= 1``: outage is certain regardless of ``u0``.
* ``rho > 1``: the outage probability ``psi(u0)`` is strictly less than one
  and decays exponentially in ``u0`` at the adjustment coefficient ``r*``,
  the unique positive root of the step cumulant generating function.

For Poisson arrivals the decay is exact, not just asymptotic::

    psi(u0) = theta * exp(-r* u0),   theta = E[e^{-r* X}] = 1 - r* p / lam

and ``exp(-r* u0)`` is always an upper bound.  ``r*`` is solved in the
fixed-point form ``(1 - E[e^{-r X}]) / (r mean) = 1 / rho`` of the CGF
root by :func:`solve_adjustment_coefficient`, and ``theta`` is taken as
``E[e^{-r* X}]`` by :func:`eventual_outage_poisson_exact` (at ``u0 = 0``),
so both keep their digits at either end of rho (Asmussen & Albrecher,
*Ruin Probabilities*, ch. IV).  The module also provides the first-ascent
("ladder") height density of the walk, an O(n log n) trapezoidal solver
for the defective renewal equation satisfied by ``phi = 1 - psi``, and the
stationary fraction of time spent empty in the ``rho < 1`` regime.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .distributions import PHI_SERIES, DistributionSpec, Kind, log_laplace, log_phi
from .errors import ConvergenceError, DomainError, GridError, PreconditionError

if TYPE_CHECKING:  # numpy loads in the two functions that use it, not with hsc.cli
    import numpy as np

__all__ = [
    "Sustainability",
    "SystemParams",
    "SolveMethod",
    "AdjustmentResult",
    "utilization",
    "step_cgf",
    "solve_adjustment_coefficient",
    "outage_bound",
    "eventual_outage_poisson_exact",
    "asymptotic_outage",
    "required_initial_energy",
    "ladder_height_density_poisson",
    "tilted_ladder_mean_poisson",
    "solve_renewal_equation",
    "stationary_outage",
]


class Sustainability(enum.Enum):
    UNSUSTAINABLE_CERTAIN = "UnsustainableCertain"
    SELF_SUSTAINABLE_POSSIBLE = "SelfSustainablePossible"


@dataclass(frozen=True)
class SystemParams:
    """Harvest-store-consume system parameters.

    Attributes:
        lam: Poisson arrival rate of energy packets (per unit time).
        packet: packet-size law.
        p: constant consumption rate (energy per unit time).
        u0: initial stored energy.
    """

    lam: float
    packet: DistributionSpec
    p: float
    u0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lam", "p"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)
        u0 = float(self.u0)
        if not math.isfinite(u0) or u0 < 0.0:
            raise ValueError(f"u0 must be nonnegative and finite, got {u0!r}")
        object.__setattr__(self, "u0", u0)
        if not isinstance(self.packet, DistributionSpec):
            raise ValueError(f"packet must be a DistributionSpec, got {self.packet!r}")

    @property
    def rho(self) -> float:
        """Utilization: mean harvested power over consumed power."""
        return self.lam * self.packet.mean / self.p


class SolveMethod(enum.Enum):
    CLOSED_FORM = "closed-form"
    NUMERIC = "numeric"


class AdjustmentResult(NamedTuple):
    """Adjustment coefficient and how it was solved."""

    r_star: float
    method: SolveMethod
    iterations: int
    residual: float


def utilization(params: SystemParams) -> Sustainability:
    """Classify the system by ``params.rho``: rho <= 1 makes eventual outage certain."""
    if params.rho <= 1.0:
        return Sustainability.UNSUSTAINABLE_CERTAIN
    return Sustainability.SELF_SUSTAINABLE_POSSIBLE


def step_cgf(params: SystemParams, r: float) -> float:
    """Cumulant generating function of one walk step at ``r``.

    ``K(r) = -log(1 - p*r/lam) + log E[e^{-r X}]``; finite for
    ``p*r < lam`` (and, for exponential packets, ``r > -1/mean``).
    Raises :class:`DomainError` outside that range or where ``K(r)`` is
    not a finite double.
    """
    r = float(r)
    if params.p * r >= params.lam:
        raise DomainError(
            f"step CGF diverges at r={r}: requires p*r < lam "
            f"({params.p}*{r} >= {params.lam})"
        )
    x = -params.p * r / params.lam
    if x < math.inf:
        log1p_x = math.log1p(x)
    else:  # r < 0 and a tiny lam: log1p(x) is log(x) to the last bit
        log1p_x = math.log(params.p) + math.log(-r) - math.log(params.lam)
    return log_laplace(params.packet, r) - log1p_x  # finite where log_laplace is


def _rho_minus_one(params: SystemParams) -> float:
    # (lam*mean - p) / p, whose numerator cancels as rho -> 1: Dekker's
    # product (Veltkamp split at 2^27 + 1) gives lam*mean = hi + lo exactly,
    # so the numerator is rounded once.  The split overflows (lo = nan) for
    # lam or mean above 1e299, where the plain difference is used.
    x, y, p = params.lam, params.packet.mean, params.p
    xh = x * 134217729.0 - (x * 134217729.0 - x)
    yh = y * 134217729.0 - (y * 134217729.0 - y)
    hi = x * y
    lo = xh * yh - hi + xh * (y - yh) + (x - xh) * yh + (x - xh) * (y - yh)
    excess = (hi - p + (lo if math.isfinite(lo) else 0.0)) / p
    if not excess > 0.0:
        raise PreconditionError(f"adjustment coefficient requires rho > 1, got rho - 1 = {excess}")
    # r* < lam/p and r* mean < rho bound every argument of the solve, and the
    # uniform law's transform doubles r* mean, which exp(log rho) can round
    # up by 1e-13 relative: so lam/p must be finite and rho well below 9e307
    if not (excess < 1e307 and x / p < math.inf):
        raise DomainError(
            f"rho - 1 = {excess} must be below 1e307 and lam/p = {x / p} must be finite"
        )
    return excess


def _newton_step(kind: Kind, a: float, log_rho: float) -> tuple[float, float]:
    # g = log phi(a) + log rho, zero at a = r* mean, and the Newton step
    # g / (dg / d log a), which estimates the relative error of a (inf where the slope underflows)
    value, slope = log_phi(kind, a)
    g = value + log_rho
    return g, g / slope if slope else math.inf


def solve_adjustment_coefficient(
    params: SystemParams, tol: float = 1e-12, force_numeric: bool = False
) -> AdjustmentResult:
    """Find the unique positive root ``r*`` of the step CGF.

    For ``r > 0``, ``K(r) = 0`` exactly when ``phi(a) = 1 / rho``, where
    ``a = r * mean`` and ``phi(a) = (1 - E[e^{-r X}]) / a`` falls from 1 to
    0.  Newton steps on the concave ``log phi(a) + log rho`` in ``log a``
    start from an upper bound on the root and fall monotonically onto it;
    a step below the lower bound ``(1 - 1/rho) E[X]^2 / (E[X^2] / 2)``
    bisects instead.  A short series gives ``1 - phi`` for small ``a``, and
    ``rho - 1`` is formed exactly, so ``r*`` keeps its digits as
    ``rho -> 1``.  Exponential packets use ``r* = (lam*mean - p) /
    (p*mean)`` unless ``force_numeric``.

    ``residual`` is the last Newton step, an estimate of the relative
    error of ``r*``, plus ``ulp(r*) / r*`` where ``r*`` is subnormal.  The
    outage prefactor ``theta`` is ``eventual_outage_poisson_exact`` at ``u0 = 0``.

    Raises:
        PreconditionError: if ``rho <= 1`` (no positive root exists).
        DomainError: if ``rho > 1e307``, ``lam/p`` overflows or ``r*`` underflows.
        ConvergenceError: if ``residual > tol``, or after 100 steps.
    """
    excess = _rho_minus_one(params)
    log_rho = math.log1p(excess)
    mean, kind = params.packet.mean, params.packet.kind
    if kind is Kind.EXPONENTIAL and not force_numeric:
        a, method, iterations = excess, SolveMethod.CLOSED_FORM, 0
        residual = abs(_newton_step(kind, excess, log_rho)[1])
    else:
        # 1 - c1 a <= phi(a) <= min(1/a, 1 - c1 a + c2 a^2) brackets the root
        c1, c2 = PHI_SERIES[kind][:2]
        x = -math.expm1(-log_rho)  # 1 - 1/rho
        disc = c1 * c1 - 4.0 * c2 * x
        lo, s = math.log(x / c1), log_rho
        if disc >= 0.0:
            s = min(s, math.log(2.0 * x / (c1 + math.sqrt(disc))))
        for iterations in range(1, 101):
            g, step = _newton_step(kind, math.exp(s), log_rho)
            if g >= 0.0 or step <= 1e-15 * max(1.0, abs(s)):
                break  # at the root, up to rounding
            s = s - step if s - step > lo else 0.5 * (lo + s)
        else:
            raise ConvergenceError("adjustment coefficient did not converge in 100 steps")
        residual = abs(step)
        if residual > tol:
            raise ConvergenceError(f"root polish stalled: residual {residual} exceeds tol {tol}")
        a, method = math.exp(s), SolveMethod.NUMERIC
    r = a / mean
    if r < sys.float_info.min:  # subnormal: rounded by up to ulp(r) / r
        residual += math.ulp(r) / r if r else math.inf
        if not residual <= tol:
            raise DomainError(f"r* = {a!r} / {mean!r} underflows: residual {residual} exceeds tol {tol}")
    return AdjustmentResult(min(r, params.lam / params.p), method, iterations, residual)  # r* < lam/p, up to rounding


def outage_bound(r_star: float, u0: float) -> float:
    """Exponential upper bound ``exp(-r* u0)`` on the outage probability."""
    if not 0.0 < r_star < math.inf:
        raise PreconditionError(f"r_star must be positive and finite, got {r_star!r}")
    if not u0 >= 0.0:
        raise PreconditionError(f"u0 must be nonnegative, got {u0!r}")
    return math.exp(-r_star * u0)


def _ladder_mass(params: SystemParams, r_star: float, what: str) -> float:
    # theta = E[e^{-r* X}] = 1 - r* p/lam for a caller's r*, which may
    # round to lam/p (det, rho >~ 37)
    if params.rho <= 1.0:
        raise PreconditionError(f"{what} requires rho > 1, got rho = {params.rho}")
    if params.lam / params.p == math.inf:  # as the solver, whose r* the caller passes
        raise DomainError(f"{what}: lam / p = {params.lam!r} / {params.p!r} overflows")
    if not (r_star * params.packet.mean > 0.0 and r_star <= params.lam / params.p):
        raise PreconditionError(f"r_star must lie in (0, lam/p], got {r_star!r}")
    return math.exp(log_laplace(params.packet, r_star))


def eventual_outage_poisson_exact(params: SystemParams, r_star: float) -> float:
    """Exact eventual-outage probability ``theta exp(-r* u0)``.

    ``theta = E[e^{-r* X}]``; exactness relies on the memoryless arrival
    stream.  ``r_star`` must be the adjustment coefficient of ``params``:
    the solver's Newton step from it, a relative error, is under 1e-6.

    Raises:
        PreconditionError: if ``rho <= 1`` or ``r_star`` is inconsistent.
        DomainError: if ``lam/p`` overflows, as in the solver.
    """
    theta = _ladder_mass(params, r_star, "exact formula")
    log_rho = math.log1p(_rho_minus_one(params))
    step = _newton_step(params.packet.kind, r_star * params.packet.mean, log_rho)[1]
    if not abs(step) <= 1e-6:
        raise PreconditionError(
            f"r_star={r_star} is not a CGF root for these parameters "
            f"(relative residual {abs(step)})"
        )
    return theta * math.exp(-r_star * params.u0)


def asymptotic_outage(
    defect: float, r_star: float, mu_tilde: float, u0: float
) -> float:
    """Renewal-theoretic tail approximation of the outage probability.

    ``psi(u0) ~ defect / (r* mu_tilde) * exp(-r* u0)`` where ``defect = 1 -
    theta`` is the mass the (defective) ladder-height law misses and
    ``mu_tilde`` the mean of its exponentially tilted, proper version.  Pass
    the defect itself, not ``1 - theta``, which cancels as rho -> 1: with
    Poisson arrivals it is ``r* p / lam``, and the formula then equals
    :func:`eventual_outage_poisson_exact`.  Where ``r* mu_tilde`` or a
    factor leaves the double range, or ``exp(-r* u0)`` is subnormal and
    multiplied by more than 1, the value is formed from logs; it raises
    :class:`DomainError` where the value is not a finite double.
    """
    if not 0.0 < defect <= 1.0:
        raise PreconditionError(f"defect must be in (0, 1], got {defect!r}")
    if not 0.0 < r_star < math.inf:
        raise PreconditionError(f"r_star must be positive and finite, got {r_star!r}")
    if not mu_tilde > 0.0:
        raise PreconditionError(f"mu_tilde must be positive, got {mu_tilde!r}")
    if not u0 >= 0.0:
        raise PreconditionError(f"u0 must be nonnegative, got {u0!r}")
    scale = r_star * mu_tilde
    if scale >= sys.float_info.min:  # a normal double, so defect / scale is finite
        ratio, tail = defect / scale, math.exp(-r_star * u0)
        psi = ratio * tail
        # a subnormal tail has lost digits that a ratio above 1 would bring back
        if psi > 0.0 and (tail >= sys.float_info.min or ratio <= 1.0):
            return psi
    # scale or the exponential left the double range: form psi from logs
    log_psi = math.log(defect) - math.log(r_star) - math.log(mu_tilde) - r_star * u0
    if not log_psi < math.log(sys.float_info.max):  # also catches nan
        raise DomainError(f"asymptotic outage e^{log_psi} is not a finite double")
    return math.exp(log_psi)


def required_initial_energy(r_star: float, epsilon: float) -> float:
    """Smallest ``u0`` whose exponential bound meets target ``epsilon``.

    Inverts ``exp(-r* u0) = epsilon``: ``u0 = -log(epsilon) / r*``, or
    raises :class:`DomainError` where that overflows (at a subnormal ``r*``).
    """
    if not 0.0 < r_star < math.inf:
        raise PreconditionError(f"r_star must be positive and finite, got {r_star!r}")
    if not 0.0 < epsilon <= 1.0:
        raise PreconditionError(f"epsilon must be in (0, 1], got {epsilon!r}")
    u0 = abs(math.log(epsilon)) / r_star  # abs, not minus: 0.0 at epsilon = 1
    if not math.isfinite(u0):
        raise DomainError(f"-log({epsilon!r}) / r* overflows at r* = {r_star!r}")
    return u0


def ladder_height_density_poisson(
    params: SystemParams, r_star: float, x: float | np.ndarray
) -> float | np.ndarray:
    """Defective density of the walk's first ascent height.

    For Poisson arrivals: ``(lam/p - r*) exp(-lam x / p)`` on ``x >= 0``,
    with total mass ``theta = 1 - r* p / lam < 1``.
    """
    import numpy as np

    theta = _ladder_mass(params, r_star, "ladder density form")
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):
        raise PreconditionError("ladder heights are nonnegative; x must be >= 0")
    beta = params.lam / params.p
    with np.errstate(over="ignore"):  # -beta x past the doubles is -inf, whose exp is the density's 0
        out = theta * beta * np.exp(-beta * arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def tilted_ladder_mean_poisson(params: SystemParams, r_star: float) -> float:
    """Mean of the tilted ladder-height law: ``1 / (lam/p - r*)``, or inf."""
    # lam / p first: theta * lam keeps only a few bits at a subnormal lam
    delta = _ladder_mass(params, r_star, "tilted ladder mean") * (params.lam / params.p)
    return 1.0 / delta if delta > 0.0 else math.inf


def solve_renewal_equation(
    f_h: Callable[[np.ndarray], np.ndarray], theta: float, step: float, u_max: float
) -> np.ndarray:
    """Solve the defective renewal equation for ``phi = 1 - psi``.

    Solves ``phi(u) = (1 - theta) + integral_0^u phi(u - x) f_h(x) dx`` on
    the grid ``0, step, ..., u_max`` with the trapezoid rule, anchored at
    ``phi(0) = 1 - theta``.  The quadrature error is O(step^2) for smooth
    kernels.  The trapezoid system is solved exactly, up to rounding, by
    power-series division in O(n log n) for n grid steps.

    Args:
        f_h: ladder-height density, a vectorized callable tabulated once on
            the grid.
        theta: total (defective) mass of the ladder-height law, in [0, 1].
        step: grid spacing.
        u_max: grid endpoint.

    Returns:
        ``phi`` tabulated on the grid.

    Raises:
        GridError: if ``step`` does not tile ``u_max`` within 1e-9 in at most 2**22 steps, is too
            coarse for ``f_h`` (its discrete mass exceeds ``theta``, or the
            solution leaves [0, 1], by more than ``step``), or ``f_h``
            returns the wrong shape.
        PreconditionError: if ``f_h`` is not finite or is negative.
    """
    import numpy as np

    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise GridError(f"step must be positive and finite, got {step!r}")
    if not 0.0 <= theta <= 1.0:
        raise PreconditionError(f"theta must be a probability, got {theta!r}")
    n = _grid_points(u_max, step)
    f = np.asarray(f_h(np.arange(n + 1) * step), dtype=float)
    if f.shape != (n + 1,):
        raise GridError(f"f_h returned shape {f.shape}, grid needs ({n + 1},)")
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        raise PreconditionError(f"f_h is not finite at index {bad[0]}: {f[bad[0]]!r}")
    if np.any(f < 0.0):
        raise PreconditionError("f_h must be nonnegative")
    with np.errstate(over="ignore"):  # a mass past the doubles is inf: too coarse a step
        mass = float(np.trapezoid(f, dx=step))
    if mass > theta + step:
        raise GridError(
            f"discrete mass {mass} of f_h exceeds theta = {theta} "
            f"beyond the step tolerance"
        )

    phi = np.empty(n + 1)
    phi[0] = 1.0 - theta
    denom = 1.0 - 0.5 * step * f[0]
    if denom <= 0.0:
        raise GridError(
            f"step {step} too coarse for kernel value f_h(0) = {f[0]}"
        )
    # Trapezoid row j >= 1 reads sum_{i < j} a_i phi_{j-i} = b_j with a_0 =
    # denom, a_i = -step f_i and b_j = (1 - theta) + step f_j phi_0 / 2: a
    # lower-triangular Toeplitz system, so the series of phi_{k+1} is B / A
    # mod z^n.  Newton doubling g <- g (2 - A g) inverts A, each pass
    # correcting the coefficients [m, 2m) from two cyclic FFT products of
    # length 2m, O(n log n) in all (Brent & Kung 1978).
    rfft, irfft = np.fft.rfft, np.fft.irfft
    a = -step * f[:n]
    a[0] = denom
    g = np.array([1.0 / denom])
    m = 1
    with np.errstate(over="ignore", invalid="ignore"):  # a series past the doubles fails the check below
        while m < n:
            size = 2 * m
            ag = irfft(rfft(a[:size], size) * rfft(g, size), size)  # A g: 1 below z^m
            g = np.concatenate([g, -irfft(rfft(g, size) * rfft(ag[m:], size), size)[:m]])
            m = size
        b = (1.0 - theta) + step * f[1:] * (0.5 * phi[0])
        phi[1:] = irfft(rfft(b, 2 * m) * rfft(g[:n], 2 * m), 2 * m)[:n]
    # a step too coarse for f_h makes the trapezoid rows grow without bound
    if not np.all((-step <= phi) & (phi <= 1.0 + step)):
        raise GridError(f"step {step} too coarse for f_h: the solution leaves [0, 1] by more than the step")
    return phi


def _grid_points(u_max: float, step: float) -> int:
    u_max = float(u_max)
    if not (math.isfinite(u_max) and u_max > 0.0):
        raise GridError(f"u_max must be positive and finite, got {u_max!r}")
    n = round(u_max / step) if u_max / step < 2**22 + 0.5 else 0  # 2**22 steps: 340 MB at the solve's peak
    if n < 1 or abs(n * step - u_max) > 1e-9:
        raise GridError(
            f"step {step} does not tile [0, {u_max}] within 1e-9 in 1 to 2**22 steps"
        )
    return n


def stationary_outage(params: SystemParams) -> float:
    """Long-run fraction of time the store is empty: ``1 - rho`` (rho < 1).

    Raises:
        PreconditionError: if ``rho >= 1`` (no stationary empty fraction:
            the store either drains forever or grows without bound).
    """
    rho = params.rho
    if rho >= 1.0:
        raise PreconditionError(
            f"stationary outage fraction requires rho < 1, got rho = {rho}"
        )
    return 1.0 - rho


# Checks of the Monte-Carlo arguments, here rather than in hsc.simulate so
# that hsc.cli checks a sweep without loading numpy.


def _finite_horizon(horizon: float) -> float:
    horizon = float(horizon)
    if not 0.0 < horizon < math.inf:
        raise PreconditionError(f"horizon must be positive and finite, got {horizon!r}")
    return horizon


def _integer(name: str, value: int, least: int, error: type[ValueError] = PreconditionError) -> int:
    # an int is integral as it is; float() would overflow past 2**1024
    if not (value >= least and (isinstance(value, int) or float(value).is_integer())):
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_protocol(horizon: float, u0_grid: list[float], seed: int, workers: int | None) -> float:
    """Check the Monte-Carlo arguments a sweep shares; return the horizon as a float.

    The CLI maps the horizon's :class:`PreconditionError` to exit code 3 and
    the ``ValueError`` of the others to exit code 2.
    """
    if not u0_grid or not all(0.0 <= u0 < math.inf for u0 in u0_grid):
        raise ValueError(
            f"the u0 grid must be nonempty and every u0 must be nonnegative and finite, got {u0_grid}"
        )
    horizon = _finite_horizon(horizon)
    _integer("seed", seed, 0, ValueError)
    if workers is not None:
        _integer("workers", workers, 1, ValueError)
    return horizon
