"""Seeded Monte-Carlo engines for the surplus process.

Every engine reads one event-stream convention: ``(gap, packet)`` pairs,
the first packet at time zero, drawn in blocks of ``EVENT_BLOCK`` gaps
(``1 / lam`` times ``standard_exponential()``, bit for bit) and then as many
packets.  The scalar simulators and the tie replays read it through
:func:`hsc.distributions.poisson_events`, which always draws whole blocks.
The vectorized walk draws the same blocks, a final block's packets only
up to the horizon or the step cap (a prefix of the same draws), and reads
them as one random walk, ``S_n = sum_{j<n} (p * gap_j - packet_j)``.  A
deficit walk forms a block as ``s + (p / lam) * min(cumsum(units), R) -
cumsum(packets)``: ``units`` are the block's standard exponentials, ``s``
the walk at the block's start and ``R`` its room, the horizon in units,
``lam * H - U`` (``U``: the earlier blocks' unit sum), so past the horizon
only packets are subtracted.  A ladder walk has no horizon and sums its
steps, ``s + cumsum(p * (units / lam) - packets)``, zero past its step cap.
A row maximum not below +inf (a step or a ramp past the doubles, or ``inf -
inf``) makes ``D_i`` +inf, for the exact scalar to decide, and a ladder
walk raise :class:`DomainError`.  A deficit walk below the doubles ends
below every bound.  A ladder walk walks on there, raising once its rise
since reaches ``2**1023``, and an infinite packet ends it.
Its functionals:

* the largest energy deficit before the horizon, ``D_i = max_j (p *
  min(T_{j+1}, H) - A_j)`` (``T_j``: time of arrival ``j``; ``A_j``: energy
  delivered up to and including it).  From any ``u0`` the trial has an
  outage within ``H`` exactly when ``u0 <= D_i``, so one walk per trial
  counts a whole ``u0`` grid, by a search of the sorted ``D_i`` for each
  ``u0``.  A search of the sorted grid for each ``D_i`` finds the trials with
  a ``u0`` near a tie; those ``u0`` go to the scalar first-passage
  simulator, which sums the same stream in exact integer arithmetic and so
  decides an outage exactly at ``tau == H``.  Packets are nonnegative, so
  after a block no later deficit exceeds ``p * H - A``; the walk stops at
  the first block end where no grid ``u0`` lies above its running maximum
  and within reach of that bound, tie band included.
* the first ascending ladder point (the first ``S_n > 0``) and the running
  maximum (``S_0 = 0`` included) of a walk with no horizon, truncated at
  ``max_steps``, which may stop at a block end a given drawdown below it.

The offset ``s`` is added to scalars, not to the block: rounding is
monotone, so ``max_i fl(s + x_i) == fl(s + max_i x_i)``, and ``fl(s + x_i)
> 0`` exactly when ``x_i > -s``.  The battery recursion at arrival epochs
(``rho < 1`` regime) is the walk reflected at zero, kept in time units,
``v = W / p``: one subtraction ``v + packet / p - gap`` gives the next
level, or the idle time before the next arrival.  It reads the caller's
event stream a chunk at a time as arrays (an
:class:`~hsc.distributions.EventStream` hands them out, any other iterable
is converted, and a pair of another length than two raises ``ValueError``)
and walks a chunk as lanes of consecutive steps in lockstep,
lane 0 from the carried level and the others from 0.  Rounding is
monotone, so each step is monotone in the level: a lane started at 0 never
lies above the true chain, and from the true chain's first zero on it holds
the same doubles.  Only a lane whose true start is not 0 is walked again,
from that start up to its first zero, by one sequential ``cumsum``; the
times are sequential sums too, so every statistic is the scalar loop's, bit
for bit.
Trial ``i`` of a run seeded with ``seed`` walks its own stream
``trial_rng(seed, i)``, ``PCG64DXSM(seed).jumped(i)``.  Each trial's
generator comes from :func:`_trial_rngs`, which sets a spare one to the
trial's state rather than build one per trial, and the walk gives it back
when the trial ends.  So counts are bit-identical in any trial order or
worker count.

The columns (``rho``) of one packet law share each trial's draws and both
running sums: time is counted in units, ``cumsum(units)``, which each column
scales by its own ``p / lam`` and clamps at its own ``lam * H``, and the
energy delivered does not depend on ``rho``.  A block's packets are drawn
once, up to the first unit sum reaching the farthest ``lam * H`` among the
columns still walking (a shorter draw is the prefix of a longer one).  Each
column keeps its own offset and stop rule, and the trial ends when all have
stopped.  The packet laws of a call share each trial's first block of units
too: that block is drawn for runs of ``_RUN`` trials at a time, and summed
once per run before any packet.  The first law walks on from the trial's
generator, each later one from a generator set to the state it had just
after those units, so each law reads the stream it would read alone.  A
sweep puts one task per trial chunk, holding every column, on one pool
queue.

The process keeps one worker pool and reuses it across calls; see
:func:`estimate_outage_curves` for when it opens, is replaced and closes.
A call that finds it broken (a worker died) runs its tasks once more on a
new one, and the old pool is shut down, its threads joined, before the new
one forks.

The walk takes up to ``_ROWS`` trials a block at a time, one buffer row
each.  Per trial it takes the trial's generator (kept until the trial ends,
so no state is saved or restored between blocks), draws the block's units
into its row (the first block comes from its run), then the law's raw
packets (:func:`~hsc.distributions.raw_block`) into a second buffer's row,
zeroing the rest: a deficit walk's up to the first unit sum at the farthest
live horizon, so it sums its unit rows first by one row-wise ``cumsum``, a
ladder walk's up to its step cap.  Per batch one multiply scales the
packets (none at a scale of 1).  A deficit walk sums them by one row-wise
``cumsum`` and per column takes one clamp (none where no ramp reaches its
room), one multiply, one subtract and the row maxima; a ladder walk forms
its steps as the 0.5.1 per-walk kernel does and sums them by one row-wise
``cumsum``.  Then it updates each (trial, column) maximum, offset and stop
rule, and a ladder walk's first ladder point.  Elementwise IEEE operations
and sequential row sums give every functional bit for bit as walking one
trial at a time does, so counts and CSV bytes do not depend on batching.
"""
from __future__ import annotations

import atexit
import math
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import chain, compress, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _SIMULATE
from .analytic import SystemParams, _check_protocol, _finite_horizon, _integer
from .distributions import EVENT_BLOCK, DistributionSpec, EventStream, poisson_events, raw_block, scale_block
from .distributions import sample_block  # noqa: F401  (hsc.simulate.sample_block: a traced name)
from .errors import DomainError, PreconditionError

__all__ = list(_SIMULATE)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# The scalar simulator decides where |u0 - D_i| <= _TIE_RTOL * (p / lam + |D_i|),
# a band that scales with the walk.  The walk's block sums are within 4.0e-13
# of D_i in exact arithmetic (3 families, rho 0.9 to 1.3, horizons 1e3 to 1e5,
# 20 trials each, p / lam near 1), well inside it.
_TIE_RTOL = 1e-9
# Cap on lam * H, the expected arrivals per trial.  A trial with no outage
# walks until p * H - A falls below every u0, about lam * H / rho arrivals
# at 30-60 ns each (measured on a 2-core x86 host), so 1e8 costs seconds
# per trial where an uncapped horizon hangs.  The figures need 1.3e3.  It
# caps the steps of a ladder walk and of a battery recursion run alike.
_MAX_ARRIVALS = 1e8
# Pairs the battery recursion reads at a time, about 1 MB of work arrays, and
# the steps of one of its lockstep lanes (see _lindley_lanes).
_LINDLEY_CHUNK = 64 * EVENT_BLOCK
_LANE = 256
# Trials whose blocks are walked as one batch, in three 128 KB (rows, EVENT_BLOCK) arrays.
_ROWS = 16
# Trials whose first unit blocks are drawn as one 512 KB array (and summed there
# for the deficit walks), which each packet law of a call then walks from.
# Each run starts one walk per law, whose batch drains at the run's end: runs
# of _ROWS trials cost about 7 % more per trial on short walks, runs of 256 no
# less than these.
_RUN = 64
# Generators the vectorized walks have finished with, for _restored to hand
# out again: building one takes about 20 us, setting its state 1.6 us.
_SPARE_RNGS: list[np.random.Generator] = []
# One jumped() step of PCG64DXSM advances it _JUMP_STEP draws (2**128 over the
# golden ratio), which maps its LCG state s to _JUMP_MUL * s + _JUMP_INC * inc (mod 2**128).
_JUMP_STEP = 0x9E3779B97F4A7C15F39CC0605CEDC835
_JUMP_MUL = 0x06445A8B93F375E9AAC611FA20A2C7E5
_JUMP_INC = 0x0393F1824EE36CCE04DAFDEFA8C2D67D
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

    max_shortfall: float  # running maximum of the walk (worst energy deficit)
    first_ladder_epoch: int | None
    first_ladder_height: float | None

    @property
    def terminated(self) -> bool:  # no ladder point observed within the truncated walk
        return self.first_ladder_epoch is None


@dataclass(frozen=True)
class EstimateWithCI:
    """A binomial proportion with its Wilson 95% score interval.

    ``stderr`` is the plug-in ``sqrt(p (1 - p) / n)``.  The interval
    ``[ci95_lo, ci95_hi]`` is Wilson's (1927): it lies in ``[0, 1]``, holds
    the estimate, is exactly 0 at its lower end when no trial has an outage
    and exactly 1 at its upper end when every trial has one, and has a
    positive width whatever the count.
    """

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

    It draws as ``PCG64DXSM(seed).jumped(index)``.  The seed is any
    nonnegative integer and the index an integer in ``[0, 2**64)``: a jump is
    2**128 over the golden ratio, so any two such trials start more than
    2**63 steps apart on the generator's cycle, and a trial draws at most
    about 2**28 values (the 1e8-arrival cap).  No two trials' draws overlap.
    """
    return next(_trial_rngs(seed, index, index + 1))


def _trial_rngs(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    # trial_rng(seed, i) for i in [lo, hi): a spare generator set to the
    # trial's state before its first draw.  The run's state is advanced once,
    # lo jumps in place (jumped() would build a second generator from fresh
    # OS entropy), and then one jump per trial by the affine step of _JUMP_MUL.
    seed = _integer("seed", seed, 0, ValueError)
    lo = _integer("trial index", lo, 0, ValueError)
    if not hi <= 2**64:
        raise ValueError(f"a trial index must be below 2**64, got {hi - 1}")
    bits = np.random.PCG64DXSM(seed)
    bits.advance(_JUMP_STEP * lo % 2**128)
    state = bits.state  # has_uint32 and uinteger 0: nothing buffered
    words = state["state"]

    def states() -> Iterator[dict]:
        for _ in range(lo, hi):
            yield state
            words["state"] = (_JUMP_MUL * words["state"] + _JUMP_INC * words["inc"]) % 2**128

    return _restored(states())


def _restored(states: Iterable[dict]) -> Iterator[np.random.Generator]:
    # a generator set to each state in turn: a spare one, or a new one if
    # there is none.  A caller done with one may put it back on _SPARE_RNGS.
    for state in states:
        try:  # not check-then-act: another thread may pop between the two
            rng = _SPARE_RNGS.pop()
        except IndexError:
            rng = np.random.Generator(np.random.PCG64DXSM(0))
        rng.bit_generator.state = state
        yield rng


def _first_blocks(seed: int, lo: int, hi: int) -> Iterator[tuple[range, list, np.ndarray]]:
    # Trials [lo, hi) in runs of up to _RUN: their indices, their generators
    # and their first blocks of units, raw, a row each of one array, drawn
    # before any packet, so each generator is just past its units.  Every run
    # reuses one array, so a run's rows hold until the next is drawn; a new
    # array per run cost a page fault per 4 KB of it.
    rngs = _trial_rngs(seed, lo, hi)
    runs = np.empty((min(_RUN, hi - lo), EVENT_BLOCK))
    for start in range(lo, hi, _RUN):
        run = list(islice(rngs, _RUN))
        first = runs[: len(run)]
        for rng, row in zip(run, first):
            rng.standard_exponential(out=row)
        yield range(start, start + len(run)), run, first


def _walk_length(name: str, value: int, least: int) -> int:
    value = _integer(name, value, least)
    if value > _MAX_ARRIVALS:
        raise PreconditionError(f"{name} = {value} exceeds {_MAX_ARRIVALS:g} steps")
    return value


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
    stream runs dry; it is an outage iff ``u0 + A_J <= p * horizon``.  Every
    sum is exact (integers in units of 2**-1074) and ``tau`` is the double
    nearest the exact instant.  A gap is clamped at the horizon, which ends
    the walk as an infinite one would.  An infinite packet rules out an
    outage where ``p * horizon`` is finite, and raises :class:`DomainError`
    where it is not.  A negative or nan gap or packet raises
    :class:`PreconditionError`.  ``horizon`` must be finite, since an endless
    stream at ``rho > 1`` may never produce an outage.  A stream that yields
    more than ``2 * _MAX_ARRIVALS`` (2e8) pairs with the outage undecided, as
    one whose time does not advance, raises :class:`PreconditionError`: a
    trial of ``lam * horizon <= 1e8``, as every estimate has, reads about
    Poisson(``lam * horizon``) + 1 pairs, far below it.
    """
    horizon = _finite_horizon(horizon)
    pn, pd = params.p.as_integer_ratio()
    supply = pd * _units(params.u0)  # pd (u0 + A_j)
    drain = 0  # pn T_{j+1}
    limit = pn * _units(horizon)  # pn H
    cap = int(2 * _MAX_ARRIVALS)
    seen = 0
    for gap, packet in events:
        seen += 1
        if seen > cap:
            raise PreconditionError(f"{cap} pairs read and no outage decided by horizon {horizon!r}")
        if not gap >= 0.0 <= packet:  # also a nan
            raise PreconditionError(f"event {seen} has a negative or nan gap or packet: {(gap, packet)!r}")
        if packet == math.inf:
            if not params.p * horizon < math.inf:  # both past the doubles: no order between them
                raise DomainError(f"an infinite packet and p * horizon = inf at p = {params.p!r}")
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
    # One trial's walk: its steps and unit sum before the block, shared by the
    # columns; per column the running maximum, the walk after the previous
    # block and whether it still walks; its first ladder point; its rise since
    # it fell below the doubles (-inf after an infinite packet); its generator.
    __slots__ = ("index", "steps", "units", "best", "s", "live", "epoch", "height", "rise", "rng")

    def __init__(self, index: int, width: int, rng: np.random.Generator, best: float):
        self.index = index
        self.steps = 0
        self.units = self.rise = 0.0
        self.best = [best] * width
        self.s = [0.0] * width
        self.live = [True] * width
        self.epoch = self.height = None
        self.rng = rng


def _walk_blocks(
    columns: list[SystemParams], horizon: float,
    starts: Iterable[tuple[int, np.random.Generator, np.ndarray]],
    u0_sorted: list[float] | None, max_steps: float = math.inf, drawdown: float = math.inf,
) -> Iterator[_Walk]:
    # The walks of the trials in starts, each yielded once all its columns
    # stop.  A start is a trial's index, its generator just past its first
    # block of units and that block's units, summed for a deficit walk.
    # A deficit walk (u0_sorted given) stops a column at a block end once no
    # u0 lies above its maximum yet within reach of its p * H - A (plus the
    # tie band), or in the block where its ramps reach the horizon; a ladder
    # walk (u0_sorted None, one column, no horizon) once it sits drawdown
    # below its maximum, or in the block of its max_steps-th step.
    ladder = u0_sorted is None
    origin = 0.0 if ladder else -math.inf  # a ladder walk's maximum counts S_0 = 0
    width = len(columns)
    reach = [params.lam * horizon for params in columns]  # the horizon in units
    rates = [params.p / params.lam for params in columns]
    packet = columns[0].packet
    p, scale = columns[0].p, 1.0 / columns[0].lam  # a ladder walk's one column
    units, packets, walk = np.empty((3, _ROWS, EVENT_BLOCK))
    starts = iter(starts)
    batch: list[_Walk] = []  # trials that go on, then new ones
    while True:
        m = len(batch)
        for r, trial in enumerate(batch):
            trial.rng.standard_exponential(out=units[r])
        if not ladder:
            units[:m].cumsum(axis=1, out=units[:m])
        for index, rng, row in islice(starts, _ROWS - m):
            units[len(batch)] = row
            batch.append(_Walk(index, width, rng, origin))
        if not batch:
            return
        m = len(batch)
        u, pk, x = units[:m], packets[:m], walk[:m]
        ends = None if ladder else u[:, -1].tolist()
        for r, trial in enumerate(batch):
            if ladder:  # no horizon: packets up to the step cap
                n = min(max_steps - trial.steps, EVENT_BLOCK)
            else:  # packets up to the first ramp reaching the farthest live horizon
                far = max(compress(reach, trial.live)) - trial.units
                n = int(u[r].searchsorted(far)) + 1 if ends[r] >= far else EVENT_BLOCK
            raw_block(packet, trial.rng, pk[r, :n])
            if n < EVENT_BLOCK:
                pk[r, n:] = 0.0
                if ladder:  # and its units, so that no step follows the cap
                    u[r, n:] = 0.0
        scale_block(packet, pk)  # the zeros past each row's packets stay zero
        with np.errstate(over="ignore", invalid="ignore"):  # the rule below takes an inf or a nan
            if ladder:
                # the steps p * gap - packet as the 0.5.1 kernel forms them (zero past the cap), summed
                np.multiply(u, scale, out=x)
                if p != 1.0:
                    x *= p
                x -= pk
                x.cumsum(axis=1, out=x)
            else:
                pk.cumsum(axis=1, out=pk)
            for k, rate in enumerate(rates):
                if not ladder:
                    # (p / lam) * min(U, R) - A, each room R at least the least
                    # double, as the oracles form it: where lam * H underflows to
                    # 0 a ramp is then the least double times p / lam, not 0.
                    rooms = [max(reach[k] - trial.units, math.ulp(0.0)) for trial in batch]
                    clamped = any(map(float.__lt__, rooms, ends))  # some ramp reaches its room
                    np.multiply(np.minimum(u, np.array(rooms)[:, None], out=x) if clamped else u, rate, out=x)
                    x -= pk
                tops, lasts = x.max(axis=1).tolist(), x[:, -1].tolist()
                for r, trial in enumerate(batch):
                    if trial.live[k]:
                        s = trial.s[k]
                        top = s + tops[r]
                        if ladder and s + lasts[r] == -math.inf:
                            # below the doubles, it stays below its maximum while its rise is below
                            # 2**1023: since its lowest block end down there, or, where the block's own
                            # sum fell, at most the block's ramps up to an infinite packet, which ends it
                            rise = trial.rise if s == -math.inf else -math.inf
                            end = int(pk[r].argmax())  # the first infinite packet, if any
                            gone = pk[r, end] == math.inf
                            ramps = float(u[r, :end if gone else EVENT_BLOCK].sum()) * rate
                            trial.rise = max(rise + lasts[r], 0.0) if lasts[r] > -math.inf else ramps
                            if not max(rise + tops[r], trial.rise) < 2.0**1023:
                                top = math.inf  # it may climb back
                            trial.rise = -math.inf if gone else trial.rise
                        if not top < math.inf:  # a step past the doubles, or inf - inf
                            if ladder:  # which has no exact fallback
                                raise DomainError(f"ladder walk {trial.index} leaves the doubles at p / lam = {rate!r}")
                            top = math.inf  # so no u0 is left above it, and the scalar decides each
                        if ladder and trial.epoch is None and top > 0.0:
                            first = int(np.argmax(x[r] > -s))
                            trial.epoch, trial.height = trial.steps + first + 1, s + float(x[r, first])
                        best = trial.best[k] = max(trial.best[k], top)
                        left = max_steps - trial.steps - EVENT_BLOCK if ladder else rooms[r] - ends[r]
                        # the step cap, the room (left: units to it), or an infinite packet
                        if left <= 0.0 or trial.rise == -math.inf:
                            trial.live[k] = False
                            continue
                        s = trial.s[k] = s + lasts[r]
                        if ladder:  # with no drawdown, a walk below the doubles walks on
                            trial.live[k] = drawdown == math.inf or best - s < drawdown
                        else:
                            bound = s + rate * left  # p * H - A caps later deficits
                            j = bisect_right(u0_sorted, best)  # first u0 the walk has not reached
                            trial.live[k] = j < len(u0_sorted) and u0_sorted[j] - _TIE_RTOL * (rate + abs(bound)) <= bound
        walking = []
        for r, trial in enumerate(batch):
            if any(trial.live):
                trial.steps += EVENT_BLOCK
                if not ladder:
                    trial.units += ends[r]
                walking.append(trial)
            else:
                _SPARE_RNGS.append(trial.rng)
                yield trial
        batch = walking


def _max_deficits(
    columns: list[SystemParams], horizon: float, seed: int, lo: int, hi: int, u0_sorted: list[float]
) -> np.ndarray:
    # The deficit walks' running maxima, as a (trial, column) array.  The
    # packet laws share each trial's first block of units, drawn and summed
    # once: the first law walks on from the trial's generator, each later one
    # from a generator set to the state it had after those units.
    laws: dict[DistributionSpec, list[int]] = {}  # packet law -> its columns
    for k, params in enumerate(columns):
        laws.setdefault(params.packet, []).append(k)
    deficits = np.empty((hi - lo, len(columns)))
    for indices, rngs, first in _first_blocks(seed, lo, hi):
        first.cumsum(axis=1, out=first)  # before any packet: a block's packet count reads its unit sums
        states = [rng.bit_generator.state for rng in rngs] if len(laws) > 1 else []  # for later laws
        for ks in laws.values():
            walked = list(_walk_blocks([columns[k] for k in ks], horizon, zip(indices, rngs, first), u0_sorted))
            deficits[np.ix_([trial.index - lo for trial in walked], ks)] = [trial.best for trial in walked]
            rngs = _restored(states)
    return deficits


def _count_range(
    columns: list[SystemParams], horizon: float, seed: int, u0_grid: list[float], lo: int, hi: int
) -> list[list[int]]:
    # Outages of trials [lo, hi) for each column and u0, from searches of the
    # sorted D_i and the sorted grid.  The scalar decides, one (trial, column,
    # u0) at a time on the column's own packet law, each u0 near a tie and
    # every u0 of a D_i that is not finite (+inf where the walk leaves the
    # doubles, -inf where the first packet is infinite): its band is inf.
    u0s = np.asarray(u0_grid, dtype=float)
    grid = np.sort(u0s)
    deficits = _max_deficits(columns, horizon, seed, lo, hi, grid.tolist())
    counts = np.zeros((len(columns), u0s.size), dtype=np.int64)
    for k, (params, d) in enumerate(zip(columns, deficits.T)):
        counts[k] = d.size - np.sort(d).searchsorted(u0s)  # the trials with u0 <= D_i
        with np.errstate(over="ignore"):  # a gap past the doubles is no tie
            band = _TIE_RTOL * (params.p / params.lam + np.abs(d))
            # rounding is monotone: a band holding a u0 holds a neighbour of D_i in the grid
            sides = grid[np.clip(grid.searchsorted(d) - [[1], [0]], 0, grid.size - 1)]
            tied = np.flatnonzero((np.abs(sides - d) <= band).any(axis=0))
            near = np.abs(u0s - d[tied, None]) <= band[tied, None]
        for t, j in np.argwhere(near):
            events = poisson_events(params.lam, params.packet, trial_rng(seed, lo + tied[t]))
            outage = simulate_first_passage(
                replace(params, u0=float(u0s[j])), horizon, events
            ).outage
            counts[k, j] += outage - bool(u0s[j] <= d[tied[t]])
    return counts.tolist()


def _estimate(outages: int, trials: int) -> EstimateWithCI:
    est = outages / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (est + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(est * (1.0 - est) / trials + z2 / (4.0 * trials * trials)) / denom
    # the score interval ends at 0 with no outage and at 1 with all: set so,
    # since center -/+ half leaves a rounding error there
    lo = center - half if outages else 0.0
    hi = center + half if outages < trials else 1.0
    return EstimateWithCI(est, math.sqrt(est * (1.0 - est) / trials), lo, hi, trials)


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
    # imported here, as only a pooled call needs it
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
) -> list[list[EstimateWithCI]]:
    """:func:`estimate_eventual_outage` for each of ``columns`` and each u0 in ``u0_grid``.

    Returns one curve per column, in order, each with one estimate per u0
    (``params.u0`` unused).  Every column uses the same trial streams, the
    columns of one packet law walk each trial together, every law walks from
    the trial's one first block of units, and each trial walks once for the
    whole grid.  With ``workers > 1`` the trials are split into that many
    chunks, whose sizes differ by at most one, and one task per chunk,
    holding every column, goes on the queue of the process's worker pool.
    The pool has ``min(chunks, cpu_count)`` workers; the first such call
    opens it, later calls of the same size reuse it, and one of another
    size or one that finds it broken replaces it.  It closes at interpreter
    exit.  Once a task raises, the tasks not yet started are cancelled.
    """
    if not columns:
        raise ValueError("columns must hold at least one SystemParams")
    trials = _integer("trials", trials, 1)
    horizon = _check_protocol(horizon, u0_grid, seed, workers)
    arrivals = max(params.lam for params in columns) * horizon
    if not arrivals <= _MAX_ARRIVALS:
        raise PreconditionError(
            f"lam * horizon = {arrivals} expected arrivals per trial exceeds {_MAX_ARRIVALS:g}"
        )
    chunks = 1 if workers is None else min(int(workers), trials)
    bounds = np.linspace(0, trials, chunks + 1, dtype=int).tolist()
    tasks = [(columns, horizon, seed, u0_grid, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    if chunks > 1:
        # one task per chunk as asked, but no more processes than CPUs:
        # under fork the pool starts every process at its first submit
        counts = _pool_map(_count_range, min(chunks, os.cpu_count() or 1), *zip(*tasks))
    else:
        counts = list(map(_count_range, *zip(*tasks)))
    # counts: (chunk, column, u0)
    return [
        [_estimate(n, trials) for n in curve]
        for curve in np.sum(counts, axis=0).tolist()
    ]


def estimate_eventual_outage(
    params: SystemParams,
    horizon: float,
    trials: int,
    seed: int,
    workers: int | None = None,
) -> EstimateWithCI:
    """Fraction of seeded trials that suffer an outage within ``horizon``.

    The estimate is identical for any ``workers`` value (trials own their
    streams; aggregation is a plain count).  It is a downward-biased
    estimator of the eventual-outage probability, since crossings beyond
    the horizon are not observed.
    """
    ((est,),) = estimate_outage_curves([params], horizon, trials, seed, [params.u0], workers)
    return est


def collect_ladder_samples(
    params: SystemParams,
    walks: int,
    max_steps: int,
    seed: int,
    stop_drawdown: float | None = None,
) -> list[LadderSample]:
    """Run ``walks`` independent truncated ladder walks on per-walk streams.

    ``stop_drawdown`` (optional) ends a walk at a block end that far below
    its running maximum, trading an error bounded by ``exp(-r*
    stop_drawdown)`` per walk for a large speedup; pass e.g. ``30 / r*`` to
    keep that error below 1e-13.  One that is not positive (``inf`` never
    stops) and ``max_steps`` above 1e8 raise :class:`PreconditionError`
    before any draw.  A walk sums its steps ``p * gap - packet``: where a
    step or the walk leaves the doubles it raises :class:`DomainError`,
    unless it falls below them and cannot climb back above its maximum.
    """
    walks = _integer("walks", walks, 1)
    max_steps = _walk_length("max_steps", max_steps, 1)
    if not (stop_drawdown is None or stop_drawdown > 0.0):
        raise PreconditionError(f"stop_drawdown must be positive or None, got {stop_drawdown!r}")
    samples = [None] * walks
    starts = (start for run in _first_blocks(seed, 0, walks) for start in zip(*run))
    for trial in _walk_blocks([params], math.inf, starts, None, max_steps, stop_drawdown or math.inf):
        samples[trial.index] = LadderSample(trial.best[0], trial.epoch, trial.height)
    return samples


def estimate_phi_from_max(samples: list[LadderSample], u0: float) -> float:
    """Empirical fraction of walks whose running maximum stayed at or below
    ``u0``, which must be at least 0 (a nan raises :class:`PreconditionError`)."""
    if not samples:
        raise PreconditionError("samples must be nonempty")
    if not u0 >= 0.0:
        raise PreconditionError(f"u0 must be nonnegative, got {u0!r}")
    hits = sum(1 for s in samples if s.max_shortfall <= u0)
    return hits / len(samples)


def simulate_lindley(
    params: SystemParams,
    steps: int,
    burn_in: int,
    events: Iterator[tuple[float, float]] | Iterable[tuple[float, float]],
) -> LindleyStats:
    """Iterate ``v_{n+1} = max(0, v_n + packet_n / p - gap_n)`` from v_0 = u0 / p.

    ``v = W / p`` is the battery level in time units, the time the store
    takes to empty.  Post-burn-in accounting: ``arrival_empty_fraction`` is
    the share of produced levels that are zero; ``time_empty_fraction`` is
    the share of elapsed time the store spends empty, where the interval
    after arrival ``n`` contributes ``max(0, gap_n - v_n - packet_n / p)``.
    The returned ``steps`` counts the pairs consumed, fewer than asked if
    the stream runs dry.  The stream is read ``_LINDLEY_CHUNK`` pairs at a
    time, as arrays from an :class:`~hsc.distributions.EventStream` and by
    converting any other iterable, and never past the ``steps`` pairs used.

    Raises:
        PreconditionError: unless ``steps > burn_in >= 0`` are integers;
            when ``steps`` exceeds 1e8, before any draw; when ``rho >= 1``,
            since there is no stationary regime to sample; when the stream
            ends before any post-burn-in step; when no time passes after
            the burn-in (every counted gap is 0); or when a gap or packet of
            an iterable other than an :class:`~hsc.distributions.EventStream`
            is negative.
        DomainError: where a level or the elapsed time leaves the doubles.
        ValueError: where an event of another iterable is not a pair.
    """
    burn_in = _integer("burn_in", burn_in, 0)
    steps = _walk_length("steps", steps, burn_in + 1)
    if params.rho >= 1.0:
        raise PreconditionError(f"no stationary regime at rho = {params.rho} >= 1")
    p = params.p
    v = params.u0 / p
    take = events.take if isinstance(events, EventStream) else _pair_arrays(iter(events))
    read = empty_arrivals = 0
    empty_time = total_time = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan level is raised below
        while read < steps:
            gaps, packets = take(min(steps - read, _LINDLEY_CHUNK))
            if not gaps.size:
                break
            raw, v = _lindley_lanes(v, gaps, packets, p)
            lo = max(burn_in - read, 0)  # the chunk's first counted step
            read += gaps.size
            raw, gaps = raw[lo:], gaps[lo:]
            # the store was empty for -raw before an arrival where raw <= 0
            # (+0.0 elsewhere, which leaves the sum as it is; after a nan
            # level every level is nan, which is raised below)
            empty_arrivals += int(np.count_nonzero(raw <= 0.0))
            empty_time = _running_sum(empty_time, -np.minimum(raw, 0.0))
            total_time = _running_sum(total_time, gaps)
    counted = read - burn_in
    if counted <= 0:
        raise PreconditionError("event stream ended before any post-burn-in step")
    if total_time <= 0.0:
        raise PreconditionError(f"no time passes in the {counted} post-burn-in steps: every gap is 0")
    if not (v < math.inf and total_time < math.inf):  # a level past the doubles stays inf, or becomes nan
        raise DomainError(f"a battery level or the elapsed time leaves the doubles at p = {p!r}")
    return LindleyStats(
        time_empty_fraction=empty_time / total_time,
        arrival_empty_fraction=empty_arrivals / counted,
        steps=read,
    )


def _pair_arrays(events: Iterator[tuple[float, float]]) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
    """``take(n)`` for an iterator of pairs: its next ``n`` pairs (fewer if
    it runs dry) as gap and packet arrays, reading no further."""

    def take(n: int) -> tuple[np.ndarray, np.ndarray]:
        pairs = list(islice(events, n))
        if not set(map(len, pairs)) <= {2}:
            raise ValueError("each event must be a (gap, packet) pair")
        flat = np.fromiter(chain.from_iterable(pairs), float)
        if (flat < 0.0).any():  # a nan or an inf is raised as a level or time
            raise PreconditionError("a gap or packet is negative")
        return flat[0::2], flat[1::2]

    return take


def _lindley_lanes(v: float, gaps: np.ndarray, packets: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """The recursion from level ``v``: each step's level before the clamp,
    ``fl(fl(v + packet / p) - gap)``, and the level after the last step,
    the scalar loop's doubles.

    Lanes of ``_LANE`` steps run in lockstep, lane 0 from ``v`` and the
    others from 0 (see the module docstring).  A lane whose true start is
    not 0 is walked again as one sequential cumsum of ``[start, q0, -g0,
    q1, -g1, ...]`` (``q = packet / p``), each window of lanes twice the
    last, up to its first level at or below 0.  Each lane's row of that
    interleaved array leads with a slot, 0.0 but where a walk starts, since
    adding 0.0 leaves a level as it is.
    """
    n = gaps.size
    steps = min(_LANE, n)
    lanes = -(-n // steps)
    if lanes * steps > n:  # pad: a step with no gap and no packet leaves the level as it is
        pad = np.zeros(lanes * steps - n)
        gaps, packets = np.concatenate((gaps, pad)), np.concatenate((packets, pad))
    width = 2 * steps + 1
    x = np.empty((lanes, width))
    x[:, 0] = 0.0
    np.divide(packets.reshape(lanes, steps), p, out=x[:, 1::2])
    np.negative(gaps.reshape(lanes, steps), out=x[:, 2::2])
    raw = np.empty((lanes, steps))
    level = np.zeros(lanes)
    level[0] = v
    for q, g, r in zip(x[:, 1::2].T, x[:, 2::2].T, raw.T):
        np.add(level, q, out=r)
        np.add(r, g, out=r)
        np.maximum(r, 0.0, out=level)
    ends = level.tolist()
    flat_x, flat_raw = x.ravel(), raw.ravel()
    v, k, w = ends[0], 1, 1  # the true start of lane k, and the next window's lanes
    while k < lanes:
        if v == 0.0:  # lane k walked from its true start
            v, k, w = ends[k], k + 1, 1
            continue
        w = min(w, lanes - k)
        x[k, 0] = v
        c = flat_x[k * width : (k + w) * width].cumsum().reshape(w, width)[:, 2::2].ravel()
        zero = c <= 0.0
        j = int(zero.argmax())
        if zero[j]:  # the true chain meets the lane's at its first zero
            flat_raw[k * steps : k * steps + j + 1] = c[: j + 1]
            k += j // steps + 1
            v, w = ends[k - 1], 1
        else:
            flat_raw[k * steps : (k + w) * steps] = c
            v, k, w = float(c[-1]), k + w, 2 * w
    return flat_raw[:n], v


def _running_sum(start: float, x: np.ndarray) -> float:
    """``start + x[0] + x[1] + ...``, added one at a time, as a loop would."""
    return float(np.concatenate(([start], x)).cumsum()[-1])
