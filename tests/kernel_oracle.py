"""Kernels the library used before, kept as references for the tests.

The per-point first-passage kernel is a float replay of the exact scalar
:func:`hsc.simulate_first_passage` over the same block draws as
:func:`hsc.poisson_events` for one initial energy ``params.u0``: it sums
times and troughs in floats, so it can miss an outage at ``tau == H``
exactly, where the scalar cannot.  The tests compare it with the scalar
away from such ties and use it to rebuild sweeps the old way, one walk per
``(trial, u0)``.

The full-block max-deficit walk, in the library's block arithmetic, draws
every block's packets in full and always walks to the horizon, where the
library's walk draws its final block's packets only up to the horizon and
stops once every u0 is decided.  The per-trial max-deficit walk does what the
library's walk does, draws and stop rule included, one trial at a time with
one generator, where the library walks a batch of trials together, each on
its own generator.  The sawtooth recorder lists the breakpoints of the
trajectory whose troughs :func:`hsc.simulate_first_passage` scans,
:func:`scripted_events` feeds the scalar simulators hand-written pairs, and
the Lindley path lists the levels whose statistics :func:`hsc.simulate_lindley`
accumulates.  The scalar ladder walk reads the stream one pair at a
time.  The per-walk ladder kernel, which the library used up to 0.5.1, walks
one trial at a time as ``s + cumsum(p * gap - packet)``: the exact oracle of
the library's ladder walks, which form the same steps for a batch of trials
at a time and so give its samples bit for bit.  The renewal march
solves the trapezoid rows one dot product at a time, where the library
divides power series.  The Lindley time loop is the battery recursion as
the library ran it up to 0.8.0, one pair at a time with the level in time
units: the exact oracle of the library's lanes, which walk a chunk of
steps as lockstep lanes and walk again, by one cumsum, each lane whose
true start is not 0 (rounding is monotone, so a lane started at 0 meets
the true chain at its first zero and holds the same doubles from there).
The Lindley loop recurses in energy and tests the step index on every
pair; it equals the library bit for bit only at ``p = 1``.  The event
generator is :func:`hsc.poisson_events` as a plain generator, before the
stream kept its place and handed out arrays.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import replace
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from hsc.analytic import (
    SystemParams,
    eventual_outage_poisson_exact,
    outage_bound,
    solve_adjustment_coefficient,
)
from hsc.cli import ResultRow
from hsc.distributions import EVENT_BLOCK, parse_distribution_spec, poisson_events, sample_block
from hsc.errors import DomainError, PreconditionError
from hsc.simulate import (
    _TIE_RTOL,
    _Z95,
    EstimateWithCI,
    LadderSample,
    LindleyStats,
    TrialOutcome,
    _finite_horizon,
    _integer,
    simulate_first_passage,
    trial_rng,
)


def _first_passage_kernel(
    params: SystemParams, horizon: float, rng: np.random.Generator
) -> TrialOutcome:
    # Vectorized float replay of simulate_first_passage over
    # poisson_events(rng): identical block draws and stopping order, with the
    # crossing predicate and tau in float arithmetic.
    p = params.p
    scale = 1.0 / params.lam
    t0 = 0.0
    level = params.u0
    seen = 0
    while True:
        gaps = rng.exponential(scale, EVENT_BLOCK)
        packets = sample_block(params.packet, rng, EVENT_BLOCK)
        troughs = level + np.cumsum(packets - p * gaps)
        cum_gaps = np.cumsum(gaps)
        hits = np.flatnonzero(troughs <= 0.0)
        overs = np.flatnonzero(t0 + cum_gaps >= horizon)
        j_hit = int(hits[0]) if hits.size else None
        j_over = int(overs[0]) if overs.size else None
        if j_hit is not None and (j_over is None or j_hit <= j_over):
            prev = troughs[j_hit - 1] if j_hit > 0 else level
            post = prev + packets[j_hit]
            arrive = t0 + (cum_gaps[j_hit] - gaps[j_hit])
            tau = arrive + post / p
            if tau <= horizon:
                return TrialOutcome(True, float(tau), seen + j_hit + 1)
            return TrialOutcome(False, None, seen + j_hit + 1)
        if j_over is not None:
            return TrialOutcome(False, None, seen + j_over + 1)
        seen += EVENT_BLOCK
        level = float(troughs[-1])
        t0 = float(t0 + cum_gaps[-1])


def _max_deficit(
    columns: list[SystemParams], horizon: float, rng: np.random.Generator, u0_sorted: list[float]
) -> list[float]:
    # D_i of the hsc.simulate docstring for each column, or a running maximum
    # that decides each of u0_sorted alike: a column stops at a block end once
    # no u0 lies above its maximum yet within reach of its p * H - A (plus the
    # tie band), or in the block where its ramps reach the horizon.
    reach = [params.lam * horizon for params in columns]
    rates = [params.p / params.lam for params in columns]
    best = [-math.inf] * len(columns)
    s = [0.0] * len(columns)  # the walk after the previous block
    done = 0.0  # the unit sum before the block
    live = list(range(len(columns)))
    units, walk = np.empty(EVENT_BLOCK), np.empty(EVENT_BLOCK)
    while live:
        rng.standard_exponential(out=units)
        units.cumsum(out=units)
        far = max(reach[k] for k in live) - done
        n = min(int(np.searchsorted(units, far)) + 1, EVENT_BLOCK)
        packets = np.zeros(EVENT_BLOCK)
        packets[:n] = sample_block(columns[0].packet, rng, n)
        packets.cumsum(out=packets)
        walking = []
        for k in live:
            room = max(reach[k] - done, math.ulp(0.0))
            x = np.minimum(units, room, out=walk)
            x *= rates[k]
            x -= packets
            best[k] = max(best[k], s[k] + float(x.max()))
            left = room - float(units[-1])
            if left <= 0.0:  # a ramp of this block reached the horizon
                continue
            s[k] += float(x[-1])
            bound = s[k] + rates[k] * left  # p * H - A caps later deficits
            j = bisect_right(u0_sorted, best[k])  # first u0 the walk has not reached
            if j < len(u0_sorted) and u0_sorted[j] - _TIE_RTOL * (rates[k] + abs(bound)) <= bound:
                walking.append(k)
        done += float(units[-1])
        live = walking
    return best


def max_deficit_full_blocks(
    params: SystemParams, horizon: float, rng: np.random.Generator
) -> float:
    # D_i walked to the horizon, every block drawn in full: unit gaps, then
    # all EVENT_BLOCK packets, each block walked as (p / lam) * min(units,
    # lam * H - done) - cumsum(packets) on top of the walk at its start.
    reach, rate = params.lam * horizon, params.p / params.lam
    done = s0 = 0.0
    best = -math.inf
    while True:
        units = np.cumsum(rng.standard_exponential(EVENT_BLOCK))
        packets = np.cumsum(sample_block(params.packet, rng, EVENT_BLOCK))
        room = max(reach - done, math.ulp(0.0))
        deficits = rate * np.minimum(units, room) - packets
        best = max(best, s0 + float(deficits.max()))
        if room <= float(units[-1]):
            return best
        s0 += float(deficits[-1])
        done += float(units[-1])


def poisson_events_generator(lam, packet, rng):
    """:func:`hsc.poisson_events` as the generator it was up to 0.8.0: the
    same block draws, yielded pair by pair."""
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


def record_path(
    params: SystemParams,
    horizon: float,
    events: Iterator[tuple[float, float]] | Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Breakpoints of the sawtooth surplus trajectory.

    Returns ``(time, surplus)`` pairs: the start point, a pre-jump and
    post-jump pair at each arrival, and a final point at the outage instant
    (surplus zero) or at the horizon.  Consecutive points sharing a time
    coordinate encode the jump; between breakpoints the surplus is linear
    with slope ``-p``.  Pre-jump values reproduce the troughs seen by
    :func:`hsc.simulate_first_passage` on the same stream, and ``horizon``
    must be finite as there.
    """
    horizon = _finite_horizon(horizon)
    p = params.p
    t = 0.0
    level = params.u0
    pts: list[tuple[float, float]] = [(0.0, level)]
    first = True
    for gap, packet in events:
        if not first:
            pts.append((t, level))
        first = False
        post = level + packet
        pts.append((t, post))
        level = post - p * gap
        if level <= 0.0:
            tau = t + post / p
            if tau <= horizon:
                pts.append((tau, 0.0))
            else:
                pts.append((horizon, post - p * (horizon - t)))
            return pts
        t_next = t + gap
        if t_next >= horizon:
            pts.append((horizon, post - p * (horizon - t)))
            return pts
        t = t_next
    # stream ran dry: one final ramp from the last recorded state
    tau = t + level / p
    if tau <= horizon:
        pts.append((tau, 0.0))
    else:
        pts.append((horizon, level - p * (horizon - t)))
    return pts


def lindley_path(
    params: SystemParams,
    steps: int,
    events: Iterator[tuple[float, float]] | Iterable[tuple[float, float]],
) -> list[float]:
    """Battery levels at arrival epochs: ``[W_0, W_1, ..]``, W_0 = u0."""
    steps = _integer("steps", steps, 0)
    p = params.p
    w = params.u0
    path = [w]
    for gap, packet in islice(events, steps):
        w = max(0.0, w + packet - p * gap)
        path.append(w)
    return path


def simulate_ladder(
    params: SystemParams,
    max_steps: int,
    events: Iterator[tuple[float, float]] | Iterable[tuple[float, float]],
) -> LadderSample:
    """Walk ``S_n = sum(p * gap_i - packet_i)`` for up to ``max_steps`` steps.

    Records the first epoch at which the walk becomes strictly positive
    (the first ascending ladder point) and the running maximum, both
    truncated at ``max_steps``.  The scalar oracle of the ladder walks.
    """
    max_steps = _integer("max_steps", max_steps, 1)
    p = params.p
    s = 0.0
    s_max = 0.0
    epoch: int | None = None
    height: float | None = None
    n = 0
    for gap, packet in events:
        n += 1
        s += p * gap - packet
        if epoch is None and s > 0.0:
            epoch, height = n, s
        if s > s_max:
            s_max = s
        if n >= max_steps:
            break
    return LadderSample(s_max, epoch, height)


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
    return LadderSample(s_max, epoch, height)


def count_outages_full_walk(params, horizon, seed, u0_grid, lo, hi):
    """Outages of trials ``[lo, hi)`` for each u0, from unstopped walks:
    ``u0 <= D_i``, with the scalar simulator deciding inside the tie band."""
    counts = [0] * len(u0_grid)
    for i in range(lo, hi):
        deficit = max_deficit_full_blocks(params, horizon, trial_rng(seed, i))
        for k, u0 in enumerate(u0_grid):
            if abs(u0 - deficit) <= _TIE_RTOL * (params.p / params.lam + abs(deficit)):
                events = poisson_events(params.lam, params.packet, trial_rng(seed, i))
                counts[k] += simulate_first_passage(replace(params, u0=u0), horizon, events).outage
            else:
                counts[k] += u0 <= deficit
    return counts


def _old_path_estimate(params, horizon, trials, seed):
    # One kernel walk per trial for the single u0 in params, then the
    # Wilson interval as estimate_eventual_outage computes it.
    outages = sum(
        _first_passage_kernel(params, horizon, trial_rng(seed, i)).outage
        for i in range(trials)
    )
    est = outages / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (est + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(est * (1.0 - est) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if outages == 0 else center - half
    hi = 1.0 if outages == trials else center + half
    return EstimateWithCI(est, math.sqrt(est * (1.0 - est) / trials), lo, hi, trials)


def old_path_sweep(spec):
    """Rows of ``run_sweep(spec)`` computed point by point: a fresh ``r*``
    solve and one kernel walk per ``(trial, u0)``."""
    rows = []
    for dist_text in spec.dist_list:
        packet = parse_distribution_spec(dist_text)
        for rho in spec.rho_list:
            for u0 in spec.u0_grid:
                params = SystemParams(rho * spec.p / packet.mean, packet, spec.p, u0)
                r_star = psi_bound = psi_mc = ci_lo = ci_hi = None
                psi_exact = 1.0
                if rho > 1.0:
                    r_star = solve_adjustment_coefficient(params).r_star
                    psi_exact = eventual_outage_poisson_exact(params, r_star)
                    psi_bound = outage_bound(r_star, u0)
                if spec.trials > 0:
                    est = _old_path_estimate(params, spec.horizon, spec.trials, spec.seed)
                    psi_mc, ci_lo, ci_hi = est.estimate, est.ci95_lo, est.ci95_hi
                rows.append(
                    ResultRow(
                        packet.spec_string(), float(rho), float(u0), r_star, psi_exact,
                        psi_bound, psi_mc, ci_lo, ci_hi, spec.trials, spec.horizon,
                        spec.seed,
                    )
                )
    return rows


def renewal_march(f, theta, step):
    """``solve_renewal_equation`` on a checked tabulated kernel, one grid
    point at a time: O(n^2)."""
    n = f.size - 1
    phi = np.empty(n + 1)
    phi[0] = 1.0 - theta
    denom = 1.0 - 0.5 * step * f[0]
    half_phi0 = 0.5 * phi[0]
    for j in range(1, n + 1):
        interior = f[1:j] @ phi[j - 1 : 0 : -1]
        phi[j] = ((1.0 - theta) + step * (interior + f[j] * half_phi0)) / denom
    return phi


def lindley_time_loop(params, steps, burn_in, events):
    """``simulate_lindley`` as the scalar loop it was up to 0.8.0, on checked
    arguments: the level in time units, ``v = W / p``, one pair at a time.
    The exact oracle of the library's lanes, bit for bit."""
    p = params.p
    v = params.u0 / p
    events = iter(events)
    for gap, packet in islice(events, burn_in):
        v = v + packet / p - gap
        if v <= 0.0:
            v = 0.0
    counted = 0
    empty_arrivals = 0
    empty_time = 0.0
    total_time = 0.0
    for gap, packet in islice(events, steps - burn_in):
        counted += 1
        total_time += gap
        v = v + packet / p - gap
        if v <= 0.0:  # the store was empty for -v before this arrival
            empty_time -= v
            v = 0.0
            empty_arrivals += 1
    if counted == 0:
        raise PreconditionError("event stream ended before any post-burn-in step")
    if total_time <= 0.0:
        raise PreconditionError(f"no time passes in the {counted} post-burn-in steps: every gap is 0")
    if not (v < math.inf and total_time < math.inf):
        raise DomainError(f"a battery level or the elapsed time leaves the doubles at p = {p!r}")
    return LindleyStats(
        time_empty_fraction=empty_time / total_time,
        arrival_empty_fraction=empty_arrivals / counted,
        steps=burn_in + counted,
    )


def lindley_loop(params, steps, burn_in, events):
    """``simulate_lindley`` on checked arguments, testing the step index on
    every pair."""
    p = params.p
    w = params.u0
    counted = 0
    empty_arrivals = 0
    empty_time = 0.0
    total_time = 0.0
    n = 0
    for gap, packet in events:
        if n >= steps:
            break
        if n >= burn_in:
            counted += 1
            total_time += gap
            idle = gap - (w + packet) / p
            if idle > 0.0:
                empty_time += idle
        w_next = w + packet - p * gap
        w = w_next if w_next > 0.0 else 0.0
        if n >= burn_in and w == 0.0:
            empty_arrivals += 1
        n += 1
    if counted == 0 or total_time <= 0.0:
        raise PreconditionError("event stream ended before any post-burn-in step")
    return LindleyStats(
        time_empty_fraction=empty_time / total_time,
        arrival_empty_fraction=empty_arrivals / counted,
        steps=n,
    )
