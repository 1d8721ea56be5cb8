"""Seeded Monte-Carlo engines for the surplus process.

Every engine reads one event-stream convention: ``(gap, packet)`` pairs,
the first packet at time zero, drawn in blocks of ``EVENT_BLOCK`` gaps
(``1 / lam`` times ``standard_exponential()``, bit for bit) and then as many
packets.  The scalar simulators and the tie replays read it through
:func:`hsc.distributions.poisson_events`, which always draws whole blocks.
The vectorized kernels draw the same blocks, a final block's packets only
up to the horizon or step limit (a prefix of the same draws), and read them
as one random walk, ``S_n = sum_{j<n} (p * gap_j - packet_j)``, with two
functionals:

* the largest energy deficit before the horizon, ``D_i = max_j (p *
  min(T_{j+1}, H) - A_j)`` (``T_j``: time of arrival ``j``; ``A_j``: energy
  delivered up to and including it).  From any ``u0`` the trial has an
  outage within ``H`` exactly when ``u0 <= D_i``, so one walk per trial
  counts a whole ``u0`` grid; near ties go to the scalar first-passage
  simulator, which sums the same stream in exact integer arithmetic and so
  decides an outage exactly at ``tau == H``.  In a block the
  walk is ``s + (p / lam) * min(cumsum(units), lam * H - U) -
  cumsum(packets)``: ``units`` are the block's standard exponentials, ``U``
  the sum of the earlier blocks' units (``lam`` times the arrival time) and
  ``s`` the walk at the block's start.  The ``min`` clamps each ramp at the
  horizon before the multiply, so past it only packets are subtracted and
  nothing overflows.  Packets are nonnegative, so after a block no later
  deficit exceeds ``p * H - A``; the walk stops at the first block end
  where no grid ``u0`` lies above its running maximum and within reach of
  that bound, tie band included.
* the first ascending ladder point and the running maximum of a walk
  truncated at ``max_steps``, summed as ``s + cumsum(p * gap - packet)``.

Both add the offset ``s`` to scalars, not to the block: rounding is
monotone, so ``max_i fl(s + x_i) == fl(s + max_i x_i)``, and ``fl(s + x_i)
> 0`` exactly when ``x_i > -s``.  The battery recursion at arrival epochs
(``rho < 1`` regime) is scalar.  Trial ``i`` of a run seeded with ``seed``
walks its own stream ``trial_rng(seed, i)``, ``Philox(seed).jumped(i)``: one
key per run and one counter stretch of 2**128 per trial.  Each trial's
generator comes from :func:`_trial_rngs`, which sets a spare one to the
trial's counter rather than build one per trial; both kernels give theirs
back when the trial ends.  So counts are bit-identical in any trial order or
worker count.

The columns (``rho``) of one packet law share each trial's draws and both
running sums: time is counted in units, ``cumsum(units)``, which each column
scales by its own ``p / lam`` and clamps at its own ``lam * H``, and the
energy delivered does not depend on ``rho``.  A block's packets are drawn
once, up to the first unit sum reaching the farthest ``lam * H`` among the
columns still walking (a shorter draw is the prefix of a longer one).  Each
column keeps its own offset and stop rule, and the trial ends when all have
stopped.  A sweep puts one task per (packet law, trial chunk) on one pool
queue.

The process keeps one worker pool and reuses it across calls.  The first
call with more than one chunk opens it, with ``min(chunks, cpu_count)``
workers.  A call that needs another size replaces it, and so does a call
that finds it broken (a worker died), which then runs its tasks once more
on the new pool.  The old pool is shut down, its threads joined, before the
new one forks.  An ``atexit`` hook closes the pool at interpreter exit,
before the modules its threads use are torn down.  A forked child opens
its own, under a new lock, rather than queue on one whose threads it has
not got.

The deficit walk takes up to ``_ROWS`` trials a block at a time, one row of
a buffer each.  Per trial it does what the stream order needs: it takes the
trial's generator (a trial keeps its own until it ends, so no state is saved
or restored between blocks), draws the block's units into its row and,
once the batch has summed the rows, draws the packets up to the farthest
live column's horizon into a second row, zeroing the rest.  Per batch it
sums the unit rows and the packet rows (one row-wise ``cumsum`` each) and,
for each column, forms the walk with one clamp, one multiply and one
subtract over all rows and takes the row maxima; then it updates each
(trial, column) running maximum, offset and stop rule.  Elementwise IEEE
operations and sequential row sums give every ``D_i`` bit for bit as a walk
of one trial at a time does, so counts and CSV bytes do not depend on the
batching.
"""
from __future__ import annotations

import atexit
import math
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import compress, islice
from typing import Callable, Iterable, Iterator

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
# The walk's block sums are within 3.9e-13 of D_i in exact arithmetic
# (3 families, rho 0.9 to 1.3, horizons 1e3 to 1e5, 20 trials each), well
# inside the band.
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
# Generators the vectorized walks have finished with, for _trial_rngs to hand
# out again: building one takes about 20 us, reading a state out of one 3 us.
_SPARE_RNGS: list[np.random.Generator] = []
# The worker pool, {pid: (size, pool)}, and the lock held while a caller
# gets, replaces or submits to it.  Keyed by the process that opened it: a
# forked child keeps its parent's entry (dropping it there would run the
# pool's finalizer on locks copied mid-fork) and opens its own.  The child
# gets a new lock, since a fork taken while another thread held this one
# copies it held.
_POOLS: dict[int, tuple] = {}
_POOL_LOCK = threading.Lock()


def _new_pool_lock() -> None:
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only, as is fork
    os.register_at_fork(after_in_child=_new_pool_lock)


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one first-passage trial."""

    outage: bool
    tau: float | None  # the double nearest the crossing instant, present iff outage
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


@dataclass(frozen=True)
class LindleyStats:
    """Post-burn-in emptiness statistics of a battery recursion run."""

    time_empty_fraction: float
    arrival_empty_fraction: float
    steps: int


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent reconstructible stream for trial ``index`` of run ``seed``.

    It draws as ``Philox(seed).jumped(index)``: the run's Philox key, counting
    from ``index * 2**128``.  The seed is any nonnegative integer and the
    index an integer in ``[0, 2**128)``.
    """
    return next(_trial_rngs(seed, index, index + 1))


def _trial_rngs(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    # trial_rng(seed, i) for i in [lo, hi): a spare generator, or a new one
    # if there is none, set to the trial's state before its first draw.  A
    # caller done with one may put it back on _SPARE_RNGS.  A trial draws at
    # most about 2e8 values (the 1e8-arrival cap), 5e7 counter steps, far
    # below the 2**128 between two trials.
    seed = _integer("seed", seed, 0, ValueError)
    lo = _integer("trial index", lo, 0, ValueError)
    if not hi <= 2**128:  # past it, jumped(i) wraps round to jumped(i - 2**128)
        raise ValueError(f"a trial index must be below 2**128, got {hi - 1}")
    state = np.random.Philox(seed).state  # buffer_pos 4, has_uint32 and uinteger 0: nothing buffered
    counter = state["state"]["counter"]  # words [0, 0, i mod 2**64, i >> 64]
    for i in range(lo, hi):
        try:  # not check-then-act: another thread may pop between the two
            rng = _SPARE_RNGS.pop()
        except IndexError:
            rng = np.random.Generator(np.random.Philox(0))
        counter[3], counter[2] = divmod(i, 2**64)
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
    """Run one trial until its outage is decided at ``horizon``.

    The surplus jumps by the packet size at each arrival and ramps down at
    rate ``p`` in between, so after arrival ``j`` it is ``u0 + A_j - p t``
    and reaches zero at ``tau = (u0 + A_J) / p``.  The walk stops at arrival
    ``J`` once its ramp reaches zero by the next arrival (``p T_{J+1} >= u0
    + A_J``), once that arrival is at or past ``horizon``, or when a finite
    stream runs dry; it is an outage iff ``u0 + A_J <= p * horizon``.  Every sum is exact (integers in units of 2**-1074) and
    ``tau`` is the double nearest the exact instant.  A gap is clamped at
    the horizon, which ends the walk as an infinite one would, and after an
    infinite packet no outage can follow.  ``horizon`` must be finite, since
    an endless stream at ``rho > 1`` may never produce an outage.
    """
    horizon = _finite_horizon(horizon)
    pn, pd = params.p.as_integer_ratio()
    supply = pd * _units(params.u0)  # pd (u0 + A_j)
    drain = 0  # pn T_{j+1}
    limit = pn * _units(horizon)  # pn H
    seen = 0
    for gap, packet in events:
        seen += 1
        if packet == math.inf:
            return TrialOutcome(False, None, seen)
        supply += pd * _units(packet)
        drain += pn * _units(min(gap, horizon))
        if drain >= min(supply, limit):
            break
    if supply > limit:
        return TrialOutcome(False, None, seen)
    return TrialOutcome(True, supply / (pn << 1074), seen)


def _units(x: float) -> int:
    # a finite double as an integer multiple of 2**-1074, the spacing of
    # the subnormals, which divides every double's spacing
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


class _Walk:
    # One trial's walk: its unit sum before the block (lam times the arrival
    # time, shared by the columns), for each column the running maximum, the
    # walk after the previous block and whether it still walks, and the
    # trial's own generator.
    __slots__ = ("index", "units", "best", "s", "live", "rng")

    def __init__(self, index: int, width: int, rng: np.random.Generator):
        self.index = index
        self.units = 0.0
        self.best = [-math.inf] * width
        self.s = [0.0] * width
        self.live = [True] * width
        self.rng = rng


def _max_deficits(
    columns: list[SystemParams], horizon: float, seed: int, lo: int, hi: int, u0_sorted: list[float]
) -> np.ndarray:
    # D_i of the module docstring for trials [lo, hi) and each column, as a
    # (trial, column) array, or a running maximum that decides each of
    # u0_sorted alike: a column stops at a block end once no u0 lies above its
    # maximum yet within reach of its p * H - A (plus the tie band), or in the
    # block where its ramps reach the horizon.  Up to _ROWS trials walk a block
    # as one batch, one row each; trials that go on share the next batch with
    # new ones.  Each trial keeps its generator, which sits after its units
    # while the batch sums them and after its packets while the batch walks
    # them.
    width = len(columns)
    reach = [params.lam * horizon for params in columns]  # the horizon in units
    rates = [params.p / params.lam for params in columns]
    least = math.ulp(0.0)
    deficits = np.empty((hi - lo, width))
    rows = min(_ROWS, hi - lo)
    units, packets, walk = np.empty((3, rows, EVENT_BLOCK))
    rngs = _trial_rngs(seed, lo, hi)
    start, walking = lo, []  # the next trial to start, trials that go on
    while walking or start < hi:
        batch = walking + [None] * min(rows - len(walking), hi - start)
        for r, trial in enumerate(batch):
            if trial is None:
                trial = batch[r] = _Walk(start, width, next(rngs))
                start += 1
            trial.rng.standard_exponential(out=units[r])
        m = len(batch)
        u, pk, x = units[:m], packets[:m], walk[:m]
        u.cumsum(axis=1, out=u)
        ends = u[:, -1].tolist()
        for r, (trial, end) in enumerate(zip(batch, ends)):
            # packets up to the first ramp reaching the farthest live horizon
            far = max(compress(reach, trial.live)) - trial.units
            n = int(u[r].searchsorted(far)) + 1 if end >= far else EVENT_BLOCK
            pk[r, :n] = sample_block(columns[0].packet, trial.rng, n)
            if n < EVENT_BLOCK:
                pk[r, n:] = 0.0
        pk.cumsum(axis=1, out=pk)
        done = np.array([[trial.units] for trial in batch])
        for k, rate in enumerate(rates):
            # each ramp clamped at the horizon: (p / lam) * min(U, lam * H) - A.
            # A room is at least the least double, so that a stopped column's
            # room, below zero, times a large rate cannot overflow, nor a room
            # of zero times an overflowed rate make a nan.
            room = np.maximum(reach[k] - done, least)
            rooms = room.ravel().tolist()
            np.minimum(u, room, out=x)
            x *= rate
            x -= pk
            tops, lasts = x.max(axis=1).tolist(), x[:, -1].tolist()
            for r, trial in enumerate(batch):
                if trial.live[k]:
                    s = trial.s[k]
                    best = trial.best[k] = max(trial.best[k], s + tops[r])
                    left = rooms[r] - ends[r]  # the units from the block end to H
                    if left <= 0.0:  # a ramp of this block reached the horizon
                        trial.live[k] = False
                        continue
                    s = trial.s[k] = s + lasts[r]
                    bound = s + rate * left  # p * H - A caps later deficits
                    j = bisect_right(u0_sorted, best)  # first u0 the walk has not reached
                    if not (j < len(u0_sorted) and u0_sorted[j] - _TIE_RTOL * (1.0 + abs(bound)) <= bound):
                        trial.live[k] = False
        walking = []
        for trial, end in zip(batch, ends):
            if any(trial.live):
                trial.units += end
                walking.append(trial)
            else:
                deficits[trial.index - lo] = trial.best
                _SPARE_RNGS.append(trial.rng)
    return deficits


def _count_range(
    columns: list[SystemParams], horizon: float, seed: int, u0_grid: list[float], lo: int, hi: int
) -> list[list[int]]:
    # Outages of trials [lo, hi) for each column (one packet law) and u0.  The
    # scalar simulator decides, one (trial, column, u0) at a time, each u0
    # near a tie and every u0 of a D_i that is not finite (+inf where p / lam
    # overflows, -inf where the first packet is infinite): there the band
    # test reads inf <= inf.
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


def _estimate(outages: int, trials: int, ci_method: str) -> EstimateWithCI:
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
    return EstimateWithCI(est, stderr, lo, hi, trials)


def _close_pool() -> None:
    # caller holds _POOL_LOCK; wait=True joins the pool's threads, since from
    # Python 3.12 on os.fork warns while threads are alive
    held = _POOLS.pop(os.getpid(), None)
    if held is not None:
        held[1].shutdown(wait=True)


def _shutdown_pool() -> None:
    # Registered at import, so it runs at interpreter exit while the modules
    # the pool's threads use are still there; once they are torn down, the
    # executor's own weakref callback fails on them.
    with _POOL_LOCK:
        _close_pool()


atexit.register(_shutdown_pool)


def _pool_map(fn: Callable, size: int, *iterables: Iterable) -> list:
    """``list(map(fn, *iterables))`` on the process's pool of ``size`` workers."""
    # imported here: it takes about a tenth of `import hsc.cli`
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    broken = None  # the pool that broke under this call, which then runs once more
    while True:
        try:
            with _POOL_LOCK:
                held = _POOLS.get(os.getpid())
                if held is not None and (held[0] != size or held is broken):
                    _close_pool()
                    held = None
                if held is None:
                    held = _POOLS[os.getpid()] = (size, ProcessPoolExecutor(size))
                # map submits every task now, so a pool that another caller
                # replaces runs them to the end first; once a task raises, its
                # iterator cancels the tasks not yet started
                results = held[1].map(fn, *iterables)
            return list(results)
        except BrokenProcessPool:
            if broken is not None:
                raise
            broken = held


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
    of the process's worker pool, so no worker waits at a column boundary.
    The pool has ``min(chunks, cpu_count)`` workers; the first such call
    opens it, later calls of the same size reuse it, and one of another
    size or one that finds it broken replaces it.  It closes at interpreter
    exit.  Once a task raises, the tasks not yet started are cancelled.
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
    if chunks > 1:
        # one task per chunk as asked, but no more processes than CPUs:
        # under fork the pool starts every process at its first submit
        counts = _pool_map(_count_range, min(chunks, os.cpu_count() or 1), *zip(*tasks))
    else:
        counts = list(map(_count_range, *zip(*tasks)))
    # counts: (task, column of its law, u0)
    outages: dict[int, list[int]] = {}  # column -> its counts over all chunks
    for g, ks in enumerate(groups.values()):
        outages.update(zip(ks, np.sum(counts[g * chunks : (g + 1) * chunks], axis=0).tolist()))
    return [
        [_estimate(n, trials, ci_method) for n in outages[k]]
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
    samples = []
    for rng in _trial_rngs(seed, 0, walks):
        samples.append(_ladder_kernel(params, max_steps, rng, stop_drawdown))
        _SPARE_RNGS.append(rng)
    return samples


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
    )

