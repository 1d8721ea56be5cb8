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
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, ParseError

if TYPE_CHECKING:  # numpy loads with hsc.simulate, not with hsc.cli
    import numpy as np

__all__ = [
    "Kind",
    "DistributionSpec",
    "parse_distribution_spec",
    "sample_block",
    "raw_block",
    "scale_block",
    "log_laplace",
    "poisson_events",
    "EventStream",
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


def sample_block(spec: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` packet sizes as one vectorized call (one stream advance).

    The draws are numpy's ``exponential(mean)`` and ``uniform(0, 2 *
    mean)``, bit for bit; a packet past the largest double (``2 * mean``
    itself may overflow) is ``+inf``.  It is :func:`raw_block` and then
    :func:`scale_block`; the block walk calls the two apart, a raw draw per
    row and one scale per batch of rows.
    """
    import numpy as np

    return scale_block(spec, raw_block(spec, rng, np.empty(n)))


def raw_block(spec: DistributionSpec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the law's unscaled draws: standard exponentials,
    uniforms on [0, 1), or the constant mean.  :func:`scale_block` makes
    them packet sizes."""
    if spec.kind is Kind.EXPONENTIAL:
        rng.standard_exponential(out=out)
    elif spec.kind is Kind.UNIFORM:
        rng.random(out=out)
    else:
        out.fill(spec.mean)
    return out


def scale_block(spec: DistributionSpec, out: np.ndarray) -> np.ndarray:
    """Scale the law's raw draws (:func:`raw_block`) in ``out`` to packet
    sizes, in place; a zero stays zero."""
    if spec.kind is Kind.DETERMINISTIC:
        return out
    factor = 2.0 if spec.kind is Kind.UNIFORM else 1.0  # numpy's uniform(0, 2 * mean) is (2 * mean) * u
    # Below mean 2**1018 no packet overflows: the uniforms are below 1, numpy's
    # standard exponentials below 7.7 + 53 log 2 < 45 (a ziggurat tail draw is
    # r - log1p(-u), r = 7.697 and u < 1 on a 2**-53 grid, in
    # random_standard_exponential of numpy/random/src/distributions/
    # distributions.c).  Past it a packet may overflow, to +inf, and so may
    # 2 * mean: there (2 u) * mean, the same product rounded once, is taken.
    # The errstate costs more than a block's multiply, so it is taken only
    # there; a scale of exactly 1 is no multiply at all.
    if spec.mean < 2.0**1018:
        scale = factor * spec.mean
        if scale != 1.0:
            out *= scale
        return out
    import numpy as np

    with np.errstate(over="ignore"):
        out *= factor  # exact
        out *= spec.mean
    return out


def log_laplace(spec: DistributionSpec, r: float) -> float:
    """``log E[e^{-r X}]`` of the packet law, finite where the transform
    itself under- or overflows.

    Exponential packets need ``r > -1/mean``.  A :class:`DomainError` is
    raised there, where ``r`` is not finite, and where the value is not a
    finite double.
    """
    r = float(r)
    if not math.isfinite(r):
        raise DomainError(f"log E[e^(-rX)] needs a finite r, got r={r}")
    a = r * spec.mean
    if spec.kind is Kind.EXPONENTIAL:
        if a <= -1.0:
            raise DomainError(
                f"E[e^(-rX)] of exponential packets diverges at r={r} "
                f"(requires r > -1/mean = {-1.0 / spec.mean})"
            )
        # where r*mean overflows, log1p(a) is log(a) to the last bit
        return -math.log1p(a) if a < math.inf else -(math.log(r) + math.log(spec.mean))
    if spec.kind is Kind.DETERMINISTIC:
        if math.isinf(a):
            raise DomainError(f"log E[e^(-rX)] = -r*mean at r={r} is not a finite double")
        return -a
    # uniform: E e^{-bU} = (1 - e^{-b}) / b for U ~ Unif(0, 1) and b = 2a,
    # with e^{-b} factored out for b < 0; expm1 keeps it exact as b -> 0
    b = abs(2.0 * a)
    if b == math.inf:  # the value is -log b for r > 0, and b - log b > 1.8e308 for r < 0
        if r < 0.0:
            raise DomainError(f"log E[e^(-rX)] at r={r} is not a finite double")
        return -(math.log(2.0) + math.log(r) + math.log(spec.mean))
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


class EventStream:
    """The endless ``(gap, packet)`` stream of :func:`poisson_events`.

    Iterating it yields pairs; :meth:`take` hands out the next ``n`` pairs
    as two float arrays.  It is its own iterator (``iter(stream) is
    stream``).  The current block is held as two arrays, with ``at``, the
    number of its pairs already read: pairs and arrays read from that one
    position, and :meth:`take` and :meth:`close` only move it.  The block's
    two lists, from which pairs are read, are made when its first pair is
    read, so a block that :meth:`take` hands out whole is never listed.
    ``lam`` must be positive and finite (``ValueError`` otherwise).
    """

    __slots__ = ("scale", "packet", "rng", "gaps", "packets", "at", "g", "q", "closed", "__weakref__")

    def __init__(self, lam: float, packet: DistributionSpec, rng: np.random.Generator) -> None:
        if not (lam > 0.0 and math.isfinite(lam)):
            raise ValueError(f"arrival rate must be positive and finite, got {lam!r}")
        self.scale, self.packet, self.rng = 1.0 / lam, packet, rng
        self.at = EVENT_BLOCK  # no block yet: the first read draws one
        self.closed = False

    def __iter__(self) -> EventStream:
        return self

    def __next__(self) -> tuple[float, float]:
        at = self.at
        if at == EVENT_BLOCK:
            if self.closed:
                raise StopIteration
            self._draw()
            at = 0
        if self.g is None:
            self.g, self.q = self.gaps.tolist(), self.packets.tolist()
        self.at = at + 1
        return self.g[at], self.q[at]

    def _draw(self) -> None:
        # make the next block the current one, none of its pairs read and
        # not yet listed
        self.gaps = self.rng.exponential(self.scale, EVENT_BLOCK)
        self.packets = sample_block(self.packet, self.rng, EVENT_BLOCK)
        self.at = 0
        self.g = self.q = None

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``n`` gaps and packets, as two arrays of ``n`` doubles
        (none once the stream is closed).  A negative ``n`` raises
        ``ValueError``."""
        import numpy as np

        n = operator.index(n)
        if n < 0:
            raise ValueError(f"take(n) needs n >= 0, got n = {n}")
        if self.closed:
            n = 0
        gaps, packets = np.empty(n), np.empty(n)
        k = 0
        while k < n:
            if self.at == EVENT_BLOCK:
                self._draw()
            m = min(n - k, EVENT_BLOCK - self.at)
            gaps[k : k + m] = self.gaps[self.at : self.at + m]
            packets[k : k + m] = self.packets[self.at : self.at + m]
            self.at += m
            k += m
        return gaps, packets

    def close(self) -> None:
        """End the stream: it yields no more pairs, and takes none."""
        self.closed = True
        self.at = EVENT_BLOCK


def poisson_events(lam: float, packet: DistributionSpec, rng: np.random.Generator) -> EventStream:
    """Endless ``(gap, packet)`` stream with Exp(lam) gaps.

    Draws are made in fixed blocks of :data:`EVENT_BLOCK` (gaps first,
    ``rng.exponential(1 / lam, EVENT_BLOCK)``, then as many packet sizes,
    :func:`sample_block`) so the simulation kernels can replay the
    identical stream from the same generator state without going through
    this stream.  A block is drawn when its first pair is read.  The
    returned :class:`EventStream` also hands out its next pairs as arrays
    (:meth:`EventStream.take`); pairs and arrays share one position in the
    stream.  :func:`hsc.simulate_lindley` takes a chunk of arrays at a time
    and walks it as lockstep lanes, exactly (see :mod:`hsc.simulate`).
    """
    return EventStream(lam, packet, rng)
