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
walks its own stream ``trial_rng(seed, i)``, ``Philox(seed).jumped(i)``: one
key per run and one counter stretch of 2**128 per trial.  The kernels set a
generator to each trial's counter (:func:`_trial_states`) rather than build
one per trial.  So counts are bit-identical in any trial order or worker
count.

The columns (``rho``) of one packet law share each trial's draws and both
running sums: arrival times are ``1 / lam`` times ``cumsum(units)``, and the
energy delivered does not depend on ``rho``.  A block's packets are drawn
once, up to the longest horizon cut among the columns still walking (a
shorter draw is the prefix of a longer one).  Each column keeps its own
offset, cut and stop rule, and the trial ends when all have stopped.  A
sweep puts one task per (packet law, trial chunk) on one pool queue.

The deficit walk takes up to ``_ROWS`` trials a block at a time, one row of
a buffer each.  Per trial it does what the stream order needs: it sets the
trial's generator (a trial keeps its own until it ends, so no state is saved
or restored between blocks), draws the block's units into its row, finds
each live column's cut once the batch has summed the rows, and draws the
packets up to the largest cut into a second row, zeroing the rest.  Per
batch it sums the unit rows and the packet rows (one row-wise ``cumsum``
each) and, for each column, forms the walk with one multiply and one
subtract over all rows, fixes each cut row's last ramp, masks its tail and
takes the row maxima; then it updates each (trial, column) running maximum,
offset and stop rule.  Elementwise IEEE operations and sequential row sums
give every ``D_i`` bit for bit as a walk of one trial at a time does, so
counts and CSV bytes do not depend on the batching.
"""
from __future__ import annotations

import math
import os
from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

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
    "estimate_outage_curves",
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
# Cap on the (trial, u0) cells counted at once, about 17 bytes each, so the
# count takes about 4.5 MB whatever the size of the u0 grid.
_COUNT_CELLS = 2**18
# Trials whose blocks are walked as one batch, in three (rows, EVENT_BLOCK)
# arrays of 128 KB each.
_ROWS = 16
# Generators the batched walk has finished with, for later calls to reuse:
# building one takes about 20 us, reading a state out of one 3 us.
_SPARE_RNGS: list[np.random.Generator] = []


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
    """Independent reconstructible stream for trial ``index`` of run ``seed``.

    It draws as ``Philox(seed).jumped(index)``: the run's Philox key, counting
    from ``index * 2**128``.  The seed is any nonnegative integer and the
    index an integer in ``[0, 2**128)``.
    """
    (rng,) = _trial_streams(seed, index, index + 1)
    return rng


def _trial_states(seed: int, lo: int, hi: int) -> Iterator[dict]:
    # The state of trial_rng(seed, i) before its first draw, for i in [lo,
    # hi): one dict, set to each trial's counter in turn.  A trial draws at
    # most about 2e8 values (the 1e8-arrival cap), 5e7 counter steps, far
    # below the 2**128 between two trials.
    seed = _integer("seed", seed, 0, ValueError)
    lo = _integer("trial index", lo, 0, ValueError)
    if not hi <= 2**128:  # past it, jumped(i) wraps round to jumped(i - 2**128)
        raise ValueError(f"a trial index must be below 2**128, got {hi - 1}")
    state = np.random.Philox(seed).state  # buffer_pos 4, has_uint32 and uinteger 0: nothing buffered
    counter = state["state"]["counter"]  # words [0, 0, i mod 2**64, i >> 64]
    for i in range(lo, hi):
        counter[3], counter[2] = divmod(i, 2**64)
        yield state


def _spare_rng() -> np.random.Generator:
    # A generator whose state the caller sets before any draw.
    try:
        return _SPARE_RNGS.pop()
    except IndexError:
        return np.random.Generator(np.random.Philox(0))


def _trial_streams(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    # trial_rng(seed, i) for i in [lo, hi), as one generator set to each
    # trial's state in turn: use each before taking the next.
    rng = _spare_rng()
    for state in _trial_states(seed, lo, hi):
        rng.bit_generator.state = state
        yield rng


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


def _walk_length(name: str, value: int, least: int) -> int:
    value = _integer(name, value, least)
    if value > _MAX_ARRIVALS:
        raise PreconditionError(f"{name} = {value} exceeds {_MAX_ARRIVALS:g} steps")
    return value


def _check_protocol(
    horizon: float, u0_grid: list[float], seed: int, workers: int | None, ci_method: str
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
    _integer("seed", seed, 0, ValueError)
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


class _Walk:
    # One trial's walk for each column: the running maximum, the walk after
    # the previous block and the arrival time after it, the block's steps (0
    # once the column has stopped), and the trial's own generator.
    __slots__ = ("index", "best", "s", "t", "steps", "rng")

    def __init__(self, index: int, width: int, rng: np.random.Generator):
        self.index = index
        self.best = [-math.inf] * width
        self.s = [0.0] * width
        self.t = [0.0] * width
        self.steps = [EVENT_BLOCK] * width
        self.rng = rng


def _steps_to(horizon: float, units: np.ndarray, t: float, scale: float, lam: float) -> int:
    # The least n with t + scale * units[n - 1] >= horizon, given that n =
    # EVENT_BLOCK qualifies: the sums rise with units, so the exact test
    # moves a guess taken from units alone to the first step that passes.
    n = min(int(units.searchsorted((horizon - t) * lam)), EVENT_BLOCK - 1) + 1
    while n > 1 and t + scale * float(units[n - 2]) >= horizon:
        n -= 1
    while t + scale * float(units[n - 1]) < horizon:
        n += 1
    return n


def _max_deficits(
    columns: list[SystemParams], horizon: float, seed: int, lo: int, hi: int, u0_sorted: list[float]
) -> np.ndarray:
    # D_i of the module docstring for trials [lo, hi) and each column, as a
    # (trial, column) array, or a running maximum that decides each of
    # u0_sorted alike: a column stops at a block end once no u0 lies above its
    # maximum yet within reach of its p * H - A (plus the tie band), or at its
    # first ramp reaching the horizon.  Up to _ROWS trials walk a block as one
    # batch, one row each; trials that go on share the next batch with new
    # ones.  Each trial keeps its generator, which sits after its units while
    # the batch sums them and after its packets while the batch walks them.
    width = len(columns)
    scales = [1.0 / params.lam for params in columns]
    rates = [params.p / params.lam for params in columns]
    deficits = np.empty((hi - lo, width))
    rows = min(_ROWS, hi - lo)
    units, packets, walk = np.empty((3, rows, EVENT_BLOCK))
    states = _trial_states(seed, lo, hi)
    start, walking = lo, []  # the next trial to start, trials that go on
    while walking or start < hi:
        batch = walking + [None] * min(rows - len(walking), hi - start)
        for r, trial in enumerate(batch):
            if trial is None:
                trial = batch[r] = _Walk(start, width, _spare_rng())
                trial.rng.bit_generator.state = next(states)
                start += 1
            trial.rng.standard_exponential(out=units[r])
        m = len(batch)
        u, pk, x = units[:m], packets[:m], walk[:m]
        u.cumsum(axis=1, out=u)
        for r, (trial, total) in enumerate(zip(batch, u[:, -1].tolist())):
            t, steps = trial.t, trial.steps
            for k, n in enumerate(steps):
                if n:
                    end = t[k] + scales[k] * total
                    if end >= horizon:  # cut at the first ramp reaching H
                        n = steps[k] = _steps_to(horizon, u[r], t[k], scales[k], columns[k].lam)
                        end = t[k] + scales[k] * float(u[r, n - 1])
                    t[k] = end
            n = max(steps)
            pk[r, :n] = sample_block(columns[0].packet, trial.rng, n)
            if n < EVENT_BLOCK:
                pk[r, n:] = 0.0
        pk.cumsum(axis=1, out=pk)
        for k, params in enumerate(columns):
            p = params.p
            # cells past a cut are masked below; for tiny lam they can overflow
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(u, rates[k], out=x)
                x -= pk
            for r, trial in enumerate(batch):
                n, t = trial.steps[k], trial.t[k]
                if n and t >= horizon:  # the column's last ramp, cut at H
                    x[r, n - 1] -= p * (t - horizon)
                    x[r, n:] = -math.inf
            tops, lasts = x.max(axis=1).tolist(), x[:, -1].tolist()
            for r, trial in enumerate(batch):
                if trial.steps[k]:
                    t, s = trial.t[k], trial.s[k]
                    best = trial.best[k] = max(trial.best[k], s + tops[r])
                    if t >= horizon:
                        trial.steps[k] = 0
                        continue
                    s = trial.s[k] = s + lasts[r]
                    bound = s + p * (horizon - t)  # p * H - A caps later deficits
                    j = bisect_right(u0_sorted, best)  # first u0 the walk has not reached
                    if not (j < len(u0_sorted) and u0_sorted[j] - _TIE_RTOL * (1.0 + abs(bound)) <= bound):
                        trial.steps[k] = 0
        walking = []
        for trial in batch:
            if any(trial.steps):
                walking.append(trial)
            else:
                deficits[trial.index - lo] = trial.best
                _SPARE_RNGS.append(trial.rng)
    return deficits


def _count_range(
    columns: list[SystemParams], horizon: float, seed: int, u0_grid: list[float], lo: int, hi: int
) -> list[list[int]]:
    # Outages of trials [lo, hi) for each column (one packet law) and u0;
    # near ties go to the scalar simulator, one (trial, column, u0) at a time.
    u0s = np.asarray(u0_grid, dtype=float)
    deficits = _max_deficits(columns, horizon, seed, lo, hi, sorted(u0s.tolist()))
    counts = np.zeros((len(columns), u0s.size), dtype=np.int64)
    rows = max(1, _COUNT_CELLS // u0s.size)  # trials per (trial, u0) array
    for start in range(0, len(deficits), rows):
        for k, params in enumerate(columns):
            d = deficits[start : start + rows, k, None]
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


def estimate_outage_curves(
    columns: list[SystemParams],
    horizon: float,
    trials: int,
    seed: int,
    u0_grid: list[float],
    workers: int | None = None,
    ci_method: str = "normal",
) -> list[list[EstimateWithCI]]:
    """:func:`estimate_eventual_outage` for each of ``columns`` and each u0 in ``u0_grid``.

    Returns one curve per column, in order, each with one estimate per u0
    (``params.u0`` unused).  Every column uses the same trial streams, the
    columns of one packet law walk each trial together, and each trial walks
    once for the whole grid.  With ``workers > 1`` the trials are split into
    that many chunks, and every (packet law, chunk) task goes on the queue
    of one pool opened for this call, so no worker waits at a column
    boundary.  Once a task raises, the tasks not yet started are cancelled.
    """
    trials = _integer("trials", trials, 1)
    horizon = _check_protocol(horizon, u0_grid, seed, workers, ci_method)
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
        run = map
        if chunks > 1:
            # imported here: it takes about a tenth of `import hsc.cli`
            from concurrent.futures import ProcessPoolExecutor

            # one task per chunk as asked, but no more processes than CPUs:
            # under fork the pool starts every process at the first submit
            run = stack.enter_context(ProcessPoolExecutor(min(chunks, os.cpu_count() or 1))).map
        counts = list(run(_count_range, *zip(*tasks)))  # (task, column of its law, u0)
    outages: dict[int, list[int]] = {}  # column -> its counts over all chunks
    for g, ks in enumerate(groups.values()):
        outages.update(zip(ks, np.sum(counts[g * chunks : (g + 1) * chunks], axis=0).tolist()))
    return [
        [_estimate(n, trials, horizon, seed, ci_method) for n in outages[k]]
        for k in range(len(columns))
    ]


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
    ((est,),) = estimate_outage_curves(
        [params], horizon, trials, seed, [params.u0], workers, ci_method
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
        _ladder_kernel(params, max_steps, rng, stop_drawdown) for rng in _trial_streams(seed, 0, walks)
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
            when ``steps`` exceeds 1e8, before any draw; when ``rho >= 1``,
            since there is no stationary regime to sample; or when the
            stream ends before any post-burn-in step.
    """
    burn_in = _integer("burn_in", burn_in, 0)
    steps = _walk_length("steps", steps, burn_in + 1)
    if params.rho >= 1.0:
        raise PreconditionError(f"no stationary regime at rho = {params.rho} >= 1")
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

