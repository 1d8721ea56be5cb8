"""Seeded Monte-Carlo engines for the surplus process.

Every engine reads one event-stream convention: ``(gap, packet)`` pairs,
the first packet at time zero, drawn in blocks of ``EVENT_BLOCK`` gaps
(``1 / lam`` times ``standard_exponential()``, bit for bit) and then as many
packets, the final block's packets only up to the horizon or step limit.
The scalar simulators read it through :func:`hsc.distributions.poisson_events`;
the vectorized kernels draw the same blocks and read them as one random
walk, ``S_n = sum_{j<n} (p * gap_j - packet_j)``, with two functionals:

* the largest energy deficit before the horizon, ``D_i = max_j (p *
  min(T_{j+1}, H) - A_j)`` (``T_j``: time of arrival ``j``; ``A_j``: energy
  delivered up to and including it).  From any ``u0`` the trial has an
  outage within ``H`` exactly when ``u0 <= D_i``, so one walk per trial
  counts a whole ``u0`` grid; near ties go to the scalar first-passage
  simulator, which solves the exact ramp-crossing instant.  In a block the
  walk is ``s + (p / lam) * cumsum(units) - cumsum(packets)``: ``units``
  are the block's standard exponentials and ``s`` the walk at its start.
  Packets are nonnegative, so after a block no later deficit exceeds ``p *
  H - A``; the walk stops at the first block end where no grid ``u0`` lies
  above its running maximum and within reach of that bound, tie band
  included.
* the first ascending ladder point and the running maximum of a walk
  truncated at ``max_steps``, summed as ``s + cumsum(p * gap - packet)``.

Both add the offset ``s`` to scalars, not to the block: rounding is
monotone, so ``max_i fl(s + x_i) == fl(s + max_i x_i)``, and ``fl(s + x_i)
> 0`` exactly when ``x_i > -s``.  The battery recursion at arrival epochs
(``rho < 1`` regime) is scalar.  Trial ``i`` of a run seeded with ``seed``
walks its own stream ``trial_rng(seed, i)``; the kernels build its generator
from its Philox key, derived for a whole chunk of trials in one vectorized
pass (:func:`_trial_keys`) and equal to numpy's seed-sequence spawn key.  So
counts are bit-identical in any trial order or worker count.

The columns (``rho``) of one packet law share each trial's draws and both
running sums: arrival times are ``1 / lam`` times ``cumsum(units)``, and the
energy delivered does not depend on ``rho``.  A block's packets are drawn
once, up to the longest horizon cut among the columns still walking (a
shorter draw is the prefix of a longer one).  Each column keeps its own
offset, cut and stop rule, and the trial ends when all have stopped.  A
sweep puts one task per (packet law, trial chunk) on one pool queue.
"""
from __future__ import annotations

import math
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .analytic import SystemParams
from .distributions import EVENT_BLOCK, DistributionSpec, poisson_events, sample_block
from .errors import PreconditionError

__all__ = [
    "TrialOutcome",
    "LadderSample",
    "EstimateWithCI",
    "LindleyStats",
    "trial_rng",
    "simulate_first_passage",
    "estimate_outage_curve",
    "estimate_eventual_outage",
    "collect_ladder_samples",
    "estimate_phi_from_max",
    "simulate_lindley",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# Relative gap between u0 and D_i within which the scalar simulator decides.
# The walk's block sums are within 6.6e-13 of D_i in exact arithmetic
# (3 families, rho 0.9 to 1.3, horizons to 1e5), well inside the band.
_TIE_RTOL = 1e-9
# Cap on lam * H, the expected arrivals per trial.  A trial with no outage
# walks until p * H - A falls below every u0, about lam * H / rho arrivals
# at 30-60 ns each (measured on a 2-core x86 host), so 1e8 costs seconds
# per trial where an uncapped horizon hangs.  The figures need 1.3e3.  It
# caps the steps of a ladder walk and of a battery recursion run alike.
_MAX_ARRIVALS = 1e8


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one first-passage trial."""

    outage: bool
    tau: float | None  # exact crossing instant, present iff outage
    arrivals_observed: int


@dataclass(frozen=True)
class LadderSample:
    """First ascending ladder point (if any) and running maximum of one walk."""

    terminated: bool  # no ladder point observed within the truncated walk
    max_shortfall: float  # running maximum of the walk (worst energy deficit)
    first_ladder_epoch: int | None
    first_ladder_height: float | None


@dataclass(frozen=True)
class EstimateWithCI:
    """A binomial proportion with its 95% confidence interval."""

    estimate: float
    stderr: float
    ci95_lo: float
    ci95_hi: float
    trials: int
    horizon: float
    seed: int


@dataclass(frozen=True)
class LindleyStats:
    """Post-burn-in emptiness statistics of a battery recursion run."""

    time_empty_fraction: float
    arrival_empty_fraction: float
    steps: int
    burn_in: int


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent reconstructible stream for trial ``index`` of run ``seed``."""
    seed = int(seed)
    index = int(index)
    if seed < 0 or index < 0:
        raise ValueError("seed and trial index must be nonnegative")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _trial_keys(seed: int, lo: int, hi: int) -> np.ndarray:
    """Philox keys of ``trial_rng(seed, i)`` for ``i`` in ``[lo, hi)``, shape ``(hi - lo, 2)``.

    Row ``i - lo`` equals ``SeedSequence(entropy=seed, spawn_key=(i,))
    .generate_state(2, np.uint64)``.  For ``seed < 2**128`` and ``i < 2**32``
    that sequence's entropy is the seed zero-padded to four pool words plus
    one spawn word.  So its pool starts as ``SeedSequence(seed).pool``, after
    16 hash steps, and the spawn word is hashed into each of the four pool
    words; the key is ``generate_state`` of that pool.  Other seeds and
    indices go through ``SeedSequence`` one trial at a time.
    """
    seed, lo, hi = int(seed), int(lo), int(hi)
    if seed < 0 or lo < 0:
        raise ValueError("seed and trial index must be nonnegative")
    if seed >= 2**128 or hi > 2**32:
        keys = [
            np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
            for i in range(lo, hi)
        ]
        return np.array(keys, dtype=np.uint64).reshape(-1, 2)
    spawn = np.arange(lo, hi, dtype=np.uint32)
    hash_a = _INIT_A * pow(_MULT_A, 16, 1 << 32) & _WORD
    hash_b = _INIT_B
    words = []
    for word in np.random.SeedSequence(seed).pool.tolist():
        value = spawn ^ hash_a  # hashmix(spawn word)
        hash_a = hash_a * _MULT_A & _WORD
        value *= hash_a
        value ^= value >> 16
        value = (_MIX_MULT_L * word & _WORD) - _MIX_MULT_R * value  # mix(pool word, it)
        value ^= value >> 16
        value ^= hash_b  # generate_state
        hash_b = hash_b * _MULT_B & _WORD
        value *= hash_b
        value ^= value >> 16
        words.append(value.astype(np.uint64))
    return np.stack([words[0] | words[1] << 32, words[2] | words[3] << 32], axis=1)


class _Key(ISeedSequence):
    # Hands a precomputed key to Philox, which asks for generate_state(2, uint64).
    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


def _keyed_rng(key: np.ndarray) -> np.random.Generator:
    # The generator trial_rng builds for the trial whose key this is.
    return np.random.Generator(np.random.Philox(_Key(key)))


def _finite_horizon(horizon: float) -> float:
    horizon = float(horizon)
    if not 0.0 < horizon < math.inf:
        raise PreconditionError(f"horizon must be positive and finite, got {horizon!r}")
    return horizon


def _integer(name: str, value: int, least: int, error: type[ValueError] = PreconditionError) -> int:
    if not (float(value).is_integer() and value >= least):
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _walk_length(name: str, value: int, least: int) -> int:
    value = _integer(name, value, least)
    if value > _MAX_ARRIVALS:
        raise PreconditionError(f"{name} = {value} exceeds {_MAX_ARRIVALS:g} steps")
    return value


def _check_protocol(
    horizon: float, u0_grid: list[float], workers: int | None, ci_method: str
) -> float:
    """Check the Monte-Carlo arguments a sweep shares; return the horizon as a float.

    The CLI maps the horizon's :class:`PreconditionError` to exit code 3 and
    the ``ValueError`` of the others to exit code 2.
    """
    if not u0_grid or not all(0.0 <= u0 < math.inf for u0 in u0_grid):
        raise ValueError(
            f"the u0 grid must be nonempty and every u0 must be nonnegative and finite, got {u0_grid}"
        )
    horizon = _finite_horizon(horizon)
    if workers is not None:
        _integer("workers", workers, 1, ValueError)
    if ci_method not in ("normal", "wilson"):
        raise ValueError(f"unknown ci_method {ci_method!r}")
    return horizon


def simulate_first_passage(
    params: SystemParams,
    horizon: float,
    events: Iterator[tuple[float, float]] | Iterable[tuple[float, float]],
) -> TrialOutcome:
    """Run one trial until outage or until simulated time passes ``horizon``.

    The surplus jumps by the packet size at each arrival and ramps down at
    rate ``p`` in between; a trough at or below zero is an outage and the
    crossing instant is solved exactly on the ramp.  A finite scripted
    stream that runs dry leaves the surplus on a final unbroken ramp.
    ``horizon`` must be finite, since an endless stream at ``rho > 1`` may
    never produce an outage.
    """
    horizon = _finite_horizon(horizon)
    p = params.p
    t = 0.0  # arrival instant of the pair being consumed
    level = params.u0  # surplus just before that arrival
    seen = 0
    for gap, packet in events:
        seen += 1
        post = level + packet
        level = post - p * gap  # trough at the next arrival instant
        if level <= 0.0:
            tau = t + post / p
            if tau <= horizon:
                return TrialOutcome(True, tau, seen)
            return TrialOutcome(False, None, seen)
        t += gap
        if t >= horizon:
            return TrialOutcome(False, None, seen)
    tau = t + level / p
    if tau <= horizon:
        return TrialOutcome(True, tau, seen)
    return TrialOutcome(False, None, seen)


def _max_deficit(
    columns: list[SystemParams], horizon: float, rng: np.random.Generator, u0_sorted: list[float]
) -> list[float]:
    # D_i of the module docstring for each column, or a running maximum that
    # decides each of u0_sorted alike: a column stops at a block end once no
    # u0 lies above its maximum yet within reach of its p * H - A (plus the
    # tie band), or at its first ramp reaching the horizon.
    scales = [1.0 / params.lam for params in columns]
    rates = [params.p / params.lam for params in columns]
    best = [-math.inf] * len(columns)
    s = [0.0] * len(columns)  # the walk after the previous block
    t = [0.0] * len(columns)  # and the arrival time after it
    live = list(range(len(columns)))
    units, walk = np.empty(EVENT_BLOCK), np.empty(EVENT_BLOCK)
    while live:
        rng.standard_exponential(out=units)
        units.cumsum(out=units)
        cuts = []
        for k in live:
            n, end = EVENT_BLOCK, t[k] + scales[k] * float(units[-1])
            if end >= horizon:  # cut at the first ramp reaching H
                ends = t[k] + scales[k] * units
                n = int(np.searchsorted(ends, horizon)) + 1
                end = float(ends[n - 1])
            t[k] = end
            cuts.append(n)
        packets = sample_block(columns[0].packet, rng, max(cuts))
        packets.cumsum(out=packets)
        walking = []
        for k, n in zip(live, cuts):
            x = np.multiply(units[:n], rates[k], out=walk[:n])
            x -= packets[:n]
            p = columns[k].p
            if t[k] >= horizon:  # the column's last ramp, cut at H
                x[-1] -= p * (t[k] - horizon)
            best[k] = max(best[k], s[k] + float(x.max()))
            s[k] += float(x[-1])
            bound = s[k] + p * (horizon - t[k])  # p * H - A caps later deficits
            j = bisect_right(u0_sorted, best[k])  # first u0 the walk has not reached
            if t[k] < horizon and j < len(u0_sorted) and (
                u0_sorted[j] - _TIE_RTOL * (1.0 + abs(bound)) <= bound
            ):
                walking.append(k)
        live = walking
    return best


def _count_range(
    columns: list[SystemParams], horizon: float, seed: int, u0_grid: list[float], lo: int, hi: int
) -> list[list[int]]:
    # Outages of trials [lo, hi) for each column (one packet law) and u0;
    # near ties go to the scalar simulator, one (trial, column, u0) at a time.
    u0s = np.asarray(u0_grid, dtype=float)
    u0_sorted = sorted(u0s.tolist())
    deficits = np.array(
        [_max_deficit(columns, horizon, _keyed_rng(key), u0_sorted) for key in _trial_keys(seed, lo, hi)]
    )  # (trial, column)
    counts = np.zeros((len(columns), u0s.size), dtype=np.int64)
    for start in range(0, len(deficits), EVENT_BLOCK):  # caps the (trial, u0) arrays
        for k, params in enumerate(columns):
            d = deficits[start : start + EVENT_BLOCK, k, None]
            hit = u0s <= d
            for t, j in np.argwhere(np.abs(u0s - d) <= _TIE_RTOL * (1.0 + np.abs(d))):
                events = poisson_events(params.lam, params.packet, trial_rng(seed, lo + start + t))
                hit[t, j] = simulate_first_passage(
                    replace(params, u0=float(u0s[j])), horizon, events
                ).outage
            counts[k] += hit.sum(axis=0)
    return counts.tolist()


def _estimate(
    outages: int, trials: int, horizon: float, seed: int, ci_method: str
) -> EstimateWithCI:
    est = outages / trials
    stderr = math.sqrt(est * (1.0 - est) / trials)
    if ci_method == "normal":
        lo = max(0.0, est - _Z95 * stderr)
        hi = min(1.0, est + _Z95 * stderr)
    else:
        z2 = _Z95 * _Z95
        denom = 1.0 + z2 / trials
        center = (est + z2 / (2.0 * trials)) / denom
        half = (
            _Z95
            * math.sqrt(est * (1.0 - est) / trials + z2 / (4.0 * trials * trials))
            / denom
        )
        lo = max(0.0, center - half)
        hi = min(1.0, center + half)
    return EstimateWithCI(est, stderr, lo, hi, trials, horizon, int(seed))


def _estimate_outage_curves(
    columns: list[SystemParams],
    horizon: float,
    trials: int,
    seed: int,
    u0_grid: list[float],
    workers: int | None = None,
    ci_method: str = "normal",
) -> list[list[EstimateWithCI]]:
    """:func:`estimate_outage_curve` for each of ``columns``, in order.

    Every column uses the same trial streams, and the columns of one packet
    law walk each trial together.  With ``workers > 1`` the trials are split
    into that many chunks, and every (packet law, chunk) task goes on the
    queue of one pool, so no worker waits at a column boundary.  Once a task
    raises, the tasks not yet started are cancelled.
    """
    trials = _integer("trials", trials, 1)
    horizon = _check_protocol(horizon, u0_grid, workers, ci_method)
    arrivals = max(params.lam for params in columns) * horizon
    if not arrivals <= _MAX_ARRIVALS:
        raise PreconditionError(
            f"lam * horizon = {arrivals} expected arrivals per trial exceeds {_MAX_ARRIVALS:g}"
        )
    chunks = 1 if workers is None else min(int(workers), trials)
    groups: dict[DistributionSpec, list[int]] = {}  # packet law -> its columns, in order
    for k, params in enumerate(columns):
        groups.setdefault(params.packet, []).append(k)
    bounds = np.linspace(0, trials, chunks + 1, dtype=int).tolist()
    tasks = [
        ([columns[k] for k in ks], horizon, seed, u0_grid, lo, hi)
        for ks in groups.values()
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    with ExitStack() as stack:
        # one task per chunk as asked, but no more processes than CPUs: under
        # fork the pool starts every process at the first submit
        run = map if chunks == 1 else stack.enter_context(
            ProcessPoolExecutor(min(chunks, os.cpu_count() or 1))
        ).map
        counts = list(run(_count_range, *zip(*tasks)))  # (task, column of its law, u0)
    outages: dict[int, list[int]] = {}  # column -> its counts over all chunks
    for g, ks in enumerate(groups.values()):
        outages.update(zip(ks, np.sum(counts[g * chunks : (g + 1) * chunks], axis=0).tolist()))
    return [
        [_estimate(n, trials, horizon, seed, ci_method) for n in outages[k]]
        for k in range(len(columns))
    ]


def estimate_outage_curve(
    params: SystemParams,
    horizon: float,
    trials: int,
    seed: int,
    u0_grid: list[float],
    workers: int | None = None,
    ci_method: str = "normal",
) -> list[EstimateWithCI]:
    """:func:`estimate_eventual_outage` for every u0 in ``u0_grid`` (``params.u0`` unused).

    Each trial walks once for the whole grid.  With ``workers > 1`` the
    trials are split into that many chunks, run on a pool opened for this
    call and their counts summed.
    """
    (curve,) = _estimate_outage_curves(
        [params], horizon, trials, seed, u0_grid, workers, ci_method
    )
    return curve


def estimate_eventual_outage(
    params: SystemParams,
    horizon: float,
    trials: int,
    seed: int,
    workers: int | None = None,
    ci_method: str = "normal",
) -> EstimateWithCI:
    """Fraction of seeded trials that suffer an outage within ``horizon``.

    The estimate is identical for any ``workers`` value (trials own their
    streams; aggregation is a plain count).  It is a downward-biased
    estimator of the eventual-outage probability, since crossings beyond
    the horizon are not observed.

    Args:
        ci_method: ``"normal"`` (clamped normal approximation, default) or
            ``"wilson"`` for a score interval that behaves near 0 and 1.
    """
    (est,) = estimate_outage_curve(
        params, horizon, trials, seed, [params.u0], workers, ci_method
    )
    return est


def _ladder_kernel(
    params: SystemParams,
    max_steps: int,
    rng: np.random.Generator,
    stop_drawdown: float | None = None,
) -> LadderSample:
    # First ladder point and running maximum of S_n, over the draws of
    # poisson_events(rng), a block at a time.
    # stop_drawdown ends the run once the walk sits that far below its
    # running maximum: with drift down, the probability that either recorded
    # statistic could still change is at most exp(-r* drawdown).
    scale = 1.0 / params.lam
    s = s_max = 0.0
    epoch = height = None
    gaps = np.empty(EVENT_BLOCK)
    for done in range(0, max_steps, EVENT_BLOCK):
        rng.standard_exponential(out=gaps)
        x = gaps[: max_steps - done]
        x *= scale
        x *= params.p
        x -= sample_block(params.packet, rng, x.size)
        x.cumsum(out=x)  # the walk is s + x
        top = s + float(x.max())
        if epoch is None and top > 0.0:
            first = int(np.argmax(x > -s))
            epoch, height = done + first + 1, s + float(x[first])
        s_max = max(s_max, top)
        s += float(x[-1])
        if stop_drawdown is not None and s_max - s >= stop_drawdown:
            break
    return LadderSample(epoch is None, s_max, epoch, height)


def collect_ladder_samples(
    params: SystemParams,
    walks: int,
    max_steps: int,
    seed: int,
    stop_drawdown: float | None = None,
) -> list[LadderSample]:
    """Run ``walks`` independent truncated ladder walks on per-walk streams.

    ``stop_drawdown`` (optional) trades an error bounded by
    ``exp(-r* stop_drawdown)`` per walk for a large speedup; pass e.g.
    ``30 / r*`` to keep that error below 1e-13.  ``max_steps`` above 1e8
    raises :class:`PreconditionError` before any draw.
    """
    walks = _integer("walks", walks, 1)
    max_steps = _walk_length("max_steps", max_steps, 1)
    return [
        _ladder_kernel(params, max_steps, _keyed_rng(key), stop_drawdown)
        for key in _trial_keys(seed, 0, walks)
    ]


def estimate_phi_from_max(samples: list[LadderSample], u0: float) -> float:
    """Empirical fraction of walks whose running maximum stayed at or below u0."""
    if not samples:
        raise PreconditionError("samples must be nonempty")
    hits = sum(1 for s in samples if s.max_shortfall <= u0)
    return hits / len(samples)


def simulate_lindley(
    params: SystemParams,
    steps: int,
    burn_in: int,
    events: Iterator[tuple[float, float]] | Iterable[tuple[float, float]],
    require_stationary: bool = True,
) -> LindleyStats:
    """Iterate ``W_{n+1} = max(0, W_n + packet_n - p * gap_n)`` from W_0 = u0.

    Post-burn-in accounting: ``arrival_empty_fraction`` is the share of
    produced levels that are exactly zero; ``time_empty_fraction`` is the
    share of elapsed time the store spends empty, where the interval after
    arrival ``n`` contributes ``max(0, gap_n - (W_n + packet_n) / p)``.
    The returned ``steps`` counts the pairs consumed, fewer than asked if
    the stream runs dry.

    Raises:
        PreconditionError: unless ``steps > burn_in >= 0`` are integers;
            when ``steps`` exceeds 1e8, before any draw; when ``rho >= 1``
            and ``require_stationary`` is set, since there is no stationary
            regime to sample; or when the stream ends before any
            post-burn-in step.
    """
    burn_in = _integer("burn_in", burn_in, 0)
    steps = _walk_length("steps", steps, burn_in + 1)
    if require_stationary and params.rho >= 1.0:
        raise PreconditionError(
            f"no stationary regime at rho = {params.rho} >= 1; "
            "pass require_stationary=False to run anyway"
        )
    p = params.p
    w = params.u0
    events = iter(events)
    for gap, packet in islice(events, burn_in):
        w_next = w + packet - p * gap
        w = w_next if w_next > 0.0 else 0.0
    counted = 0
    empty_arrivals = 0
    empty_time = 0.0
    total_time = 0.0
    for counted, (gap, packet) in enumerate(islice(events, steps - burn_in), 1):
        total_time += gap
        idle = gap - (w + packet) / p
        if idle > 0.0:
            empty_time += idle
        w_next = w + packet - p * gap
        if w_next > 0.0:
            w = w_next
        else:
            w = 0.0
            empty_arrivals += 1
    if counted == 0 or total_time <= 0.0:
        raise PreconditionError("event stream ended before any post-burn-in step")
    return LindleyStats(
        time_empty_fraction=empty_time / total_time,
        arrival_empty_fraction=empty_arrivals / counted,
        steps=burn_in + counted,
        burn_in=burn_in,
    )

