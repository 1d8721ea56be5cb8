"""60-digit reference for the adjustment coefficient, sharing no code with hsc.

``r*`` is the positive root of the step CGF
``K(r) = -log(1 - r p/lam) + log E[e^{-r X}]``.  It is found by bisection
on ``t = log(lam/p - r)``, so that ``theta = 1 - r* p/lam = e^t p/lam``
keeps its digits where ``r*`` lies within a double's rounding of ``lam/p``
(deterministic packets at large rho), and far below the double range.
The inputs are taken as the exact doubles given, not as a nominal rho.
"""
from __future__ import annotations

import mpmath as mp

DPS = 60


def log_laplace(kind: str, mean, r):
    """``log E[e^{-r X}]`` for exp, det and unif on (0, 2 mean), at the caller's precision."""
    if kind == "exp":
        return -mp.log1p(r * mean)
    if kind == "det":
        return -r * mean
    b = 2 * r * mean
    return mp.log(-mp.expm1(-b) / b)


def adjustment(kind: str, mean: float, lam: float, p: float) -> tuple[mp.mpf, mp.mpf]:
    """Return ``(r*, theta)`` as mpmath numbers, for ``lam * mean > p``."""
    with mp.workdps(DPS):
        mean, beta = mp.mpf(mean), mp.mpf(lam) / mp.mpf(p)
        log_beta = mp.log(beta)

        def cgf_at(t):  # K(beta - e^t): negative on (0, r*), positive above
            return log_beta - t + log_laplace(kind, mean, beta - mp.exp(t))

        r_lo = beta / 2
        while cgf_at(mp.log(beta - r_lo)) >= 0:
            r_lo /= 2
        t_hi = mp.log(beta - r_lo)
        k = 0
        while cgf_at(log_beta - mp.mpf(2) ** k) <= 0:
            k += 1
        t_lo = log_beta - mp.mpf(2) ** k
        eps = mp.mpf(10) ** (-(DPS - 10))
        while t_hi - t_lo > eps * max(1, abs(t_hi)):
            mid = (t_lo + t_hi) / 2
            if cgf_at(mid) > 0:
                t_lo = mid
            else:
                t_hi = mid
        delta = mp.exp((t_lo + t_hi) / 2)
        return beta - delta, delta / beta
