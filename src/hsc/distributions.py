"""Energy-packet size distributions and arrival event sources.

Three one-parameter packet-size families are supported, each keyed by its
mean m:

* ``exp``  -- exponential with mean m
* ``det``  -- the point mass at m (every packet carries exactly m)
* ``unif`` -- uniform on (0, 2m)

A spec string such as ``"exp:mean=1.5"`` selects a family (mini-grammar:
``kind:mean=<float>``, kind case-insensitive).  Event sources yield an
endless stream of ``(gap, packet)`` pairs: ``packet`` is the energy of the
arrival being delivered and ``gap`` the waiting time until the next one.
The first packet of a stream lands at time zero.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, ParseError

__all__ = [
    "Kind",
    "DistributionSpec",
    "parse_distribution_spec",
    "sample_block",
    "log_laplace",
    "poisson_events",
    "scripted_events",
    "EVENT_BLOCK",
]

# Event sources draw gaps and packets in fixed-size blocks so that a
# vectorized consumer of the same generator state sees the identical stream.
EVENT_BLOCK = 1024

class Kind(enum.Enum):
    """Packet-size family tag; values double as the spec-string tokens."""

    EXPONENTIAL = "exp"
    DETERMINISTIC = "det"
    UNIFORM = "unif"


@dataclass(frozen=True)
class DistributionSpec:
    """A packet-size law: a family tag plus its mean.

    Attributes:
        kind: which one-parameter family.
        mean: mean packet energy, strictly positive and finite.
    """

    kind: Kind
    mean: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Kind):
            raise ValueError(f"kind must be a Kind, got {self.kind!r}")
        m = float(self.mean)
        if not math.isfinite(m) or m <= 0.0:
            raise ValueError(f"mean must be positive and finite, got {self.mean!r}")
        object.__setattr__(self, "mean", m)

    def spec_string(self) -> str:
        """Canonical round-trippable spec string, e.g. ``"exp:mean=1.0"``."""
        return f"{self.kind.value}:mean={self.mean!r}"


_KINDS = {k.value: k for k in Kind}


def parse_distribution_spec(text: str) -> DistributionSpec:
    """Parse ``kind:mean=<float>`` into a :class:`DistributionSpec`.

    The kind token is case-insensitive.  Raises :class:`ParseError` with the
    offending position for grammar violations, and plain ``ValueError`` for a
    syntactically valid but nonpositive mean.
    """
    if not isinstance(text, str):
        raise ParseError("distribution spec must be a string")
    s = text.strip()
    colon = s.find(":")
    if colon < 0:
        raise ParseError(
            f"expected ':' after the kind token in {text!r} (position {len(s)})"
        )
    kind_token = s[:colon].strip().lower()
    if kind_token not in _KINDS:
        raise ParseError(
            f"unknown kind {kind_token!r} at position 0 in {text!r}; "
            f"expected one of exp, det, unif"
        )
    rest = s[colon + 1 :].strip()
    if not rest.lower().startswith("mean"):
        raise ParseError(
            f"expected 'mean=' at position {colon + 1} in {text!r}"
        )
    after_key = rest[4:].lstrip()
    if not after_key.startswith("="):
        raise ParseError(
            f"expected '=' after 'mean' at position {colon + 1 + 4} in {text!r}"
        )
    value_token = after_key[1:].strip()
    if not value_token:
        raise ParseError(f"missing mean value at end of {text!r}")
    try:
        mean = float(value_token)
    except ValueError:
        raise ParseError(
            f"mean value {value_token!r} in {text!r} is not a number"
        ) from None
    return DistributionSpec(_KINDS[kind_token], mean)


def sample_block(
    spec: DistributionSpec, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw ``n`` packet sizes as one vectorized call (one stream advance)."""
    if spec.kind is Kind.EXPONENTIAL:
        return rng.exponential(spec.mean, n)
    if spec.kind is Kind.DETERMINISTIC:
        return np.full(n, spec.mean)
    return rng.uniform(0.0, 2.0 * spec.mean, n)


def log_laplace(spec: DistributionSpec, r: float) -> float:
    """``log E[e^{-r X}]`` of the packet law, finite where the transform
    itself under- or overflows.

    Exponential packets need ``r > -1/mean``; otherwise a
    :class:`DomainError` is raised.
    """
    a = float(r) * spec.mean
    if spec.kind is Kind.EXPONENTIAL:
        if a <= -1.0:
            raise DomainError(
                f"E[e^(-rX)] of exponential packets diverges at r={r} "
                f"(requires r > -1/mean = {-1.0 / spec.mean})"
            )
        return -math.log1p(a)
    if spec.kind is Kind.DETERMINISTIC:
        return -a
    # uniform: E e^{-bU} = (1 - e^{-b}) / b for U ~ Unif(0, 1) and b = 2a,
    # with e^{-b} factored out for b < 0; expm1 keeps it exact as b -> 0
    b = abs(2.0 * a)
    return 0.0 if b == 0.0 else math.log(-math.expm1(-b) / b) + max(-2.0 * a, 0.0)


# Taylor coefficients c_k = E[Y^(k+1)] / (k+1)! of
# 1 - phi(a) = sum_{k>=1} (-1)^(k+1) c_k a^k, for Y = X / mean.
PHI_SERIES = {
    Kind.EXPONENTIAL: [1.0] * 12,
    Kind.DETERMINISTIC: [1.0 / math.factorial(k + 1) for k in range(1, 13)],
    Kind.UNIFORM: [2.0 ** (k + 1) / math.factorial(k + 2) for k in range(1, 13)],
}


def log_phi(kind: Kind, a: float) -> tuple[float, float]:
    """``log phi(a)`` and its slope ``d log phi / d log a``, for ``a > 0``.

    ``phi(a) = (1 - E[e^{-a Y}]) / a`` with ``Y = X / mean`` falls from 1
    to 0.  Below ``a = 0.1`` the series ``PHI_SERIES`` is summed until a
    term falls under 1e-17 of the total (at most twelve terms), so
    ``1 - phi`` keeps its digits as ``a -> 0``.
    """
    if kind is Kind.EXPONENTIAL:
        return -math.log1p(a), -a / (1.0 + a)
    if a < 0.1:
        w = aw = 0.0  # 1 - phi and a * d(1 - phi)/da
        power = -1.0
        for k, c in enumerate(PHI_SERIES[kind], 1):
            power *= -a
            w += c * power
            aw += k * c * power
            if c * abs(power) < 1e-17 * w:
                break
        return math.log1p(-w), -aw / (1.0 - w)
    # with a * phi = 1 - E e^{-aY} = l1 and m = -a d/da E e^{-aY}
    if kind is Kind.DETERMINISTIC:
        l1, m = -math.expm1(-a), a * math.exp(-a)
    else:
        laplace = -math.expm1(-2.0 * a) / (2.0 * a)
        l1, m = 1.0 - laplace, laplace - math.exp(-2.0 * a)
    return math.log(l1 / a), m / l1 - 1.0


def poisson_events(
    lam: float, packet: DistributionSpec, rng: np.random.Generator
) -> Iterator[tuple[float, float]]:
    """Endless ``(gap, packet)`` stream with Exp(lam) gaps.

    Draws are made in fixed blocks of :data:`EVENT_BLOCK` (gaps first, then
    packet sizes) so the simulation kernels can replay the identical stream
    from the same generator state without going through this generator.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"arrival rate must be positive and finite, got {lam!r}")
    scale = 1.0 / lam
    while True:
        gaps = rng.exponential(scale, EVENT_BLOCK)
        packets = sample_block(packet, rng, EVENT_BLOCK)
        yield from zip(gaps.tolist(), packets.tolist())


def scripted_events(
    pairs: Iterable[tuple[float, float]]
) -> Iterator[tuple[float, float]]:
    """Finite, hand-written event stream for tests; validates positivity."""
    for i, (gap, packet) in enumerate(pairs):
        if not gap > 0.0:
            raise ValueError(f"gap #{i} must be positive, got {gap!r}")
        if not packet > 0.0:
            raise ValueError(f"packet #{i} must be positive, got {packet!r}")
        yield float(gap), float(packet)
