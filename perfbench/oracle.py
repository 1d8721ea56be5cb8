"""High-precision reference values the benchmark checks hsc outputs against.

The adjustment coefficient ``r*`` is the positive root of the step CGF
``K(r) = -log(1 - r p/lam) + log E[e^{-r X}]``.  The oracle solves for
``t = log(delta)`` with ``delta = lam/p - r`` in mpmath, so that
``theta = delta / (lam/p)`` keeps its digits where ``r*`` rounds to
``lam/p`` in double precision (deterministic packets at ``rho >= 50``).
Nothing here imports hsc: the oracle shares no code with what it checks.
"""
from __future__ import annotations

import math

import mpmath as mp
from scipy.stats import binom

DPS = 60
R_STAR_RTOL = 1e-9
PSI_RTOL = 1e-9
# psi_exact below this is compared absolutely: hsc returns 0.0 where the
# true value underflows a double (exp at rho = 1e3 has psi ~ 1e-1305).
PSI_ABS_FLOOR = 1e-300
# Binomial tail probability, on either side, below which a Monte-Carlo
# count is called inconsistent with its closed form.  It is P(|Z| > 5), so
# each side rejects at about |z| > 4.9.
TAIL_ALPHA = 5.7e-7


def _mgf_neg(kind: str, mean, r):
    """E[e^{-r X}] for the three packet families, in mpmath."""
    if kind == "exp":
        return 1 / (1 + r * mean)
    if kind == "det":
        return mp.exp(-r * mean)
    a = 2 * mean * r
    return -mp.expm1(-a) / a


def adjustment(kind: str, mean: float, lam: float, p: float) -> tuple[float, mp.mpf]:
    """Return ``(r_star, theta)`` for ``rho = lam mean / p > 1``.

    ``r_star`` is a double.  ``theta = 1 - r* p / lam`` is returned as an
    mpmath number because it can lie far below the double range.
    """
    with mp.workdps(DPS):
        beta = mp.mpf(lam) / mp.mpf(p)
        m = mp.mpf(mean)

        def cgf(r):
            return -mp.log(1 - r / beta) + mp.log(_mgf_neg(kind, m, r))

        def minus_cgf_at(t):  # -K(beta - e^t)
            return t - mp.log(beta) - mp.log(_mgf_neg(kind, m, beta - mp.exp(t)))

        # A point left of the root: start from the mean-variance guess.
        mu = 1 / beta - m
        var_x = {"exp": m * m, "det": mp.mpf(0), "unif": m * m / 3}[kind]
        r_lo = min(-2 * mu / (var_x + 1 / beta**2), beta / 2)
        while cgf(r_lo) >= 0:
            r_lo /= 2
        t_hi = mp.log(beta - r_lo)  # -K > 0 here
        k = 0
        while minus_cgf_at(mp.log(beta) - mp.mpf(2) ** k) >= 0:
            k += 1
        t_lo = mp.log(beta) - mp.mpf(2) ** k  # -K < 0 here
        eps = mp.mpf(10) ** (-(DPS - 10))
        while t_hi - t_lo > eps * max(1, abs(t_hi)):
            mid = (t_lo + t_hi) / 2
            if minus_cgf_at(mid) > 0:
                t_hi = mid
            else:
                t_lo = mid
        delta = mp.exp((t_lo + t_hi) / 2)
        return float(beta - delta), delta / beta


def psi_exact(r_star: float, theta, u0: float) -> float:
    """``theta exp(-r* u0)`` evaluated in mpmath, rounded to a double."""
    with mp.workdps(DPS):
        return float(theta * mp.exp(-mp.mpf(r_star) * mp.mpf(u0)))


def close(value: float, reference: float, rtol: float, floor: float = 0.0) -> bool:
    """True when ``value`` is finite and within ``rtol`` (or ``floor``) of it."""
    return math.isfinite(value) and abs(value - reference) <= rtol * abs(reference) + floor


def binomial_consistent(k: int, n: int, prob: float, sides: str = "two") -> bool:
    """Is ``k`` outages in ``n`` trials consistent with outage probability ``prob``?

    ``sides="upper"`` only rejects counts that are too high, for estimates
    that are biased low by the finite horizon.
    """
    too_high = binom.sf(k - 1, n, prob) < TAIL_ALPHA
    if sides == "upper":
        return not too_high
    return not (too_high or binom.cdf(k, n, prob) < TAIL_ALPHA)
