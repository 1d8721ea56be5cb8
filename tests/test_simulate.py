"""Monte-Carlo engines: scripted exact-value cases, determinism contracts,
and agreement between the scalar simulators and the vectorized kernels.
"""
import bisect
import collections
import concurrent.futures
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hsc import (
    EVENT_BLOCK,
    DistributionSpec,
    DomainError,
    Kind,
    LadderSample,
    PreconditionError,
    SystemParams,
    collect_ladder_samples,
    estimate_eventual_outage,
    estimate_outage_curves,
    estimate_phi_from_max,
    eventual_outage_poisson_exact,
    parse_distribution_spec,
    poisson_events,
    sample_block,
    simulate_first_passage,
    simulate_lindley,
    solve_adjustment_coefficient,
    trial_rng,
)
from hsc.cli import main, run_simulate
from hsc.distributions import raw_block, raw_draw
import hsc.simulate as simulate
from hsc.simulate import (
    _count_range,
    _max_deficits,
    _trial_rngs,
)
import kernel_oracle
from kernel_oracle import (
    _first_passage_kernel,
    count_outages_full_walk,
    lindley_path,
    max_deficit_full_blocks,
    record_path,
    scripted_events,
    simulate_ladder,
)

EXP1 = DistributionSpec(Kind.EXPONENTIAL, 1.0)
DET1 = DistributionSpec(Kind.DETERMINISTIC, 1.0)
UNIF1 = DistributionSpec(Kind.UNIFORM, 1.0)


def mm1(u0=0.0, lam=1.1):
    return SystemParams(lam=lam, packet=EXP1, p=1.0, u0=u0)


def walk_trial(columns, horizon, seed, i, u0_sorted):
    """The batched walk's row for trial ``i`` alone, one value per column."""
    return _max_deficits(columns, horizon, seed, i, i + 1, u0_sorted)[0].tolist()


def watch_rows(monkeypatch, record):
    """Call ``record(spec, rng, n)`` before each row's packet draw of the walk.

    The walk looks its law's draw up once per call (``raw_draw``) and calls
    it per row; a constant law draws no row, so nothing is recorded for it.
    """

    def hook(spec):
        draw = raw_draw(spec)
        if draw is None:
            return None

        def watched(rng, out):
            record(spec, rng, out.size)
            return draw(rng, out=out)

        return watched

    monkeypatch.setattr(simulate, "raw_draw", hook)


pair_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.05, max_value=3.0),
    ),
    min_size=1,
    max_size=30,
)


class TestFirstPassageScripted:
    def test_single_ramp_crossing(self):
        # surplus 1, packet 0.5 at t=0, next arrival never comes in time:
        # the ramp from 1.5 crosses zero at t = 1.5 exactly
        out = simulate_first_passage(mm1(u0=1.0), 10.0, scripted_events([(2.0, 0.5)]))
        assert out.outage is True
        assert out.tau == 1.5
        assert out.arrivals_observed == 1

    def test_crossing_beyond_horizon_is_not_outage(self):
        out = simulate_first_passage(mm1(u0=1.0), 1.4, scripted_events([(2.0, 0.5)]))
        assert out.outage is False
        assert out.tau is None

    def test_trough_exactly_zero_counts(self):
        # the ramp from 2 reaches zero at the second arrival, t = 2 < H = 5,
        # which ends the walk before its packet lifts u0 + A past p * H
        out = simulate_first_passage(mm1(u0=1.0), 5.0, scripted_events([(2.0, 1.0), (1.0, 5.0)]))
        assert out.outage is True
        assert out.tau == 2.0

    def test_an_infinite_gap_ends_the_walk_as_the_horizon_does(self):
        # 1 / lam overflows at a subnormal lam; the ramp from 3 runs to H
        params = SystemParams(lam=5e-324, packet=EXP1, p=0.37)
        assert next(poisson_events(params.lam, EXP1, trial_rng(0, 0)))[0] == math.inf
        out = simulate_first_passage(params, 10.0, scripted_events([(math.inf, 3.0)]))
        assert (out.outage, out.tau) == (True, 3.0 / 0.37)
        assert not simulate_first_passage(params, 8.0, scripted_events([(math.inf, 3.0)])).outage

    def test_no_outage_follows_an_infinite_packet(self):
        # exp packets of mean near 1e308 draw inf
        out = simulate_first_passage(mm1(), 10.0, scripted_events([(1.0, math.inf), (1.0, 1.0)]))
        assert (out.outage, out.tau, out.arrivals_observed) == (False, None, 1)

    def test_an_infinite_packet_where_p_h_leaves_the_doubles_raises(self):
        # the packet and p * H are both past the doubles, so neither bounds
        # the other
        params = SystemParams(lam=1.0, packet=EXP1, p=1e308)
        with pytest.raises(DomainError, match="infinite packet"):
            simulate_first_passage(params, 2.0, scripted_events([(1.0, math.inf)]))
        assert not simulate_first_passage(params, 1.0, scripted_events([(1.0, math.inf)])).outage

    @pytest.mark.parametrize("pairs", [
        [(0.5, -5.0)],  # read as an outage at tau = -3
        [(-1.0, 1.0)] * 5,  # read as an outage at 7
        [(1.0, math.nan)],  # an untyped ValueError from _units
        [(math.nan, 1.0)],
        [(1.0, -math.inf)],  # an OverflowError
        [(1.0, 1.0), (-math.inf, 1.0)],
    ])
    def test_a_negative_or_nan_gap_or_packet_is_refused(self, pairs):
        with pytest.raises(PreconditionError, match="negative or nan"):
            simulate_first_passage(mm1(u0=2.0, lam=1.1), 10.0, pairs)

    def test_zero_drift_stream_never_crosses(self):
        events = scripted_events(itertools.repeat((1.0, 1.0)))
        out = simulate_first_passage(mm1(u0=10.0), 500.0, events)
        assert out.outage is False
        assert out.arrivals_observed >= 500

    def test_a_stream_whose_time_stands_still_raises_past_the_pair_cap(self, monkeypatch):
        # gaps of 0 never reach the horizon and packets keep the surplus up,
        # so no pair decides the outage: without the cap this never returns
        monkeypatch.setattr(simulate, "_MAX_ARRIVALS", 50)
        read = []
        events = (read.append(pair) or pair for pair in itertools.repeat((0.0, 1.0)))
        with pytest.raises(PreconditionError, match="100 pairs read and no outage decided"):
            simulate_first_passage(SystemParams(0.5, EXP1, 1.0, u0=1.0), 10.0, events)
        assert len(read) == 101

    def test_a_stream_decided_at_the_pair_cap_returns(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_ARRIVALS", 50)
        pairs = [(0.0, 1.0)] * 99 + [(20.0, 0.0)]  # the 100th gap passes the horizon
        out = simulate_first_passage(SystemParams(0.5, EXP1, 1.0, u0=1.0), 10.0, pairs)
        assert (out.outage, out.arrivals_observed) == (False, 100)

    def test_exhausted_stream_ends_on_final_ramp(self):
        # after the only arrival the surplus is 1.5 at t = 0.5, then ramps
        out = simulate_first_passage(mm1(u0=1.0), 10.0, scripted_events([(0.5, 1.0)]))
        assert out.outage is True
        assert out.tau == pytest.approx(2.0)

    def test_horizon_validation(self):
        with pytest.raises(PreconditionError):
            simulate_first_passage(mm1(), 0.0, scripted_events([(1.0, 1.0)]))

    @given(pairs=pair_lists, u0=st.floats(min_value=0.0, max_value=20.0))
    @example(pairs=[(1.0, 1.0), (1.0, 1.0)], u0=2.2250738585e-313)  # fl(u0 + 1) - 1 == 0
    @settings(max_examples=120)
    def test_tau_matches_prefix_sum_computation(self, pairs, u0):
        # independent reconstruction in exact arithmetic: troughs are
        # u0 - cumsum(p*gap - packet)
        p = 1
        params = SystemParams(lam=1.0, packet=EXP1, p=p, u0=u0)
        gaps = [Fraction(g) for g, _ in pairs]
        packets = [Fraction(x) for _, x in pairs]
        arrivals = [0, *itertools.accumulate(gaps)][:-1]
        posts = [Fraction(u0) + a - p * t for a, t in zip(itertools.accumulate(packets), arrivals)]
        troughs = [post - p * gap for post, gap in zip(posts, gaps)]
        hit = [j for j, trough in enumerate(troughs) if trough <= 0]
        if hit:
            j = hit[0]
            expected_tau = arrivals[j] + posts[j] / p
        else:  # final unbroken ramp after the stream runs dry
            expected_tau = (arrivals[-1] + gaps[-1]) + troughs[-1] / p
        out = simulate_first_passage(params, 1e9, scripted_events(pairs))
        assert out.outage is True
        assert out.tau == float(expected_tau)


class TestRecordPath:
    def test_breakpoints_of_single_crossing(self):
        pts = record_path(mm1(u0=1.0), 10.0, scripted_events([(2.0, 0.5)]))
        assert pts == [(0.0, 1.0), (0.0, 1.5), (1.5, 0.0)]

    def test_truncated_at_horizon_on_single_ramp(self):
        pts = record_path(mm1(u0=1.0), 1.2, scripted_events([(5.0, 0.5)]))
        assert pts[-1] == (1.2, pytest.approx(1.5 - 1.2))

    def test_pre_jump_points_are_the_troughs(self):
        pairs = [(1.0, 2.0), (0.5, 1.0), (2.0, 0.25)]
        params = mm1(u0=4.0)
        pts = record_path(params, 100.0, scripted_events(pairs))
        # breakpoints: start, jump at 0, then (pre, post) per later arrival
        gaps = np.array([g for g, _ in pairs])
        packets = np.array([x for _, x in pairs])
        troughs = 4.0 - np.cumsum(1.0 * gaps - packets)
        assert pts[2] == (1.0, pytest.approx(float(troughs[0])))
        assert pts[4] == (1.5, pytest.approx(float(troughs[1])))

    def test_path_consistent_with_first_passage_on_same_stream(self):
        params = mm1(u0=3.0)
        for i in range(10):
            out = simulate_first_passage(
                params,
                200.0,
                poisson_events(params.lam, params.packet, trial_rng(11, i)),
            )
            if not out.outage:
                continue
            pts = record_path(
                params,
                200.0,
                poisson_events(params.lam, params.packet, trial_rng(11, i)),
            )
            assert pts[-1][0] == pytest.approx(out.tau, rel=1e-12)
            assert pts[-1][1] == 0.0
            return
        pytest.fail("no outage among the first 10 trial streams")

    @given(pairs=pair_lists, u0=st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=60)
    def test_path_geometry(self, pairs, u0):
        params = SystemParams(lam=1.0, packet=EXP1, p=1.0, u0=u0)
        pts = record_path(params, 50.0, scripted_events(pairs))
        times = [t for t, _ in pts]
        assert times == sorted(times)
        assert pts[0] == (0.0, u0)
        # between consecutive breakpoints at distinct times the drop is p*dt
        for (t0, v0), (t1, v1) in zip(pts[1:], pts[2:]):
            if t1 > t0 and v1 <= v0:  # ramp segment, not a jump
                assert v0 - v1 == pytest.approx(t1 - t0, rel=1e-9, abs=1e-9)


class TestLadderScripted:
    def test_first_ascent_epoch_and_height(self):
        # steps p*gap - packet = (-1, 0.5, 2): first positive partial sum
        # is the third, at level 1.5
        pairs = [(0.5, 1.5), (2.0, 1.5), (3.0, 1.0)]
        res = simulate_ladder(mm1(), 10, scripted_events(pairs))
        assert res.terminated is False
        assert res.first_ladder_epoch == 3
        assert res.first_ladder_height == pytest.approx(1.5)
        assert res.max_shortfall == pytest.approx(1.5)

    def test_truncation_hides_later_ascent(self):
        pairs = [(0.5, 1.5), (2.0, 1.5), (3.0, 1.0)]
        res = simulate_ladder(mm1(), 2, scripted_events(pairs))
        assert res.terminated is True
        assert res.first_ladder_epoch is None
        assert res.max_shortfall == 0.0

    def test_all_negative_steps(self):
        res = simulate_ladder(mm1(), 10, scripted_events([(0.5, 1.0)] * 4))
        assert res.terminated is True
        assert res.first_ladder_height is None
        assert res.max_shortfall == 0.0

    def test_max_steps_validation(self):
        with pytest.raises(PreconditionError):
            simulate_ladder(mm1(), 0, scripted_events([(1.0, 1.0)]))

    @pytest.mark.parametrize("max_steps", [0, -5, 2.5])
    def test_max_steps_checked_by_both_walkers(self, max_steps):
        with pytest.raises(PreconditionError, match="max_steps"):
            simulate_ladder(mm1(), max_steps, scripted_events([(1.0, 1.0)] * 3))
        with pytest.raises(PreconditionError, match="max_steps"):
            collect_ladder_samples(mm1(), 3, max_steps, 1)

    def test_max_steps_above_the_cap_raise_before_any_draw(self, monkeypatch):
        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(simulate, "_walk_blocks", walk)
        with pytest.raises(PreconditionError, match="max_steps"):
            collect_ladder_samples(mm1(), 1, 10**11, 1)
        with pytest.raises(AssertionError, match="walked"):  # the cap itself walks
            collect_ladder_samples(mm1(), 1, int(simulate._MAX_ARRIVALS), 1)

    @pytest.mark.parametrize("walks", [2.7, 0, -1])
    def test_walks_checked(self, walks):
        with pytest.raises(PreconditionError, match="walks must be an integer"):
            collect_ladder_samples(mm1(), walks, 10, 1)

    @pytest.mark.parametrize("stop_drawdown", [0, 0.0, -1.0, math.nan, -math.inf])
    def test_stop_drawdown_must_be_positive(self, monkeypatch, stop_drawdown):
        # 0 and -1 used to cut every walk after its first block, and nan
        # never stopped one
        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(simulate, "_walk_blocks", walk)
        with pytest.raises(PreconditionError, match="stop_drawdown"):
            collect_ladder_samples(mm1(), 3, 100, 1, stop_drawdown)

    def test_an_infinite_stop_drawdown_never_stops(self):
        params = SystemParams(1.01, EXP1, 1.0)
        unstopped = collect_ladder_samples(params, 40, 3000, 3)
        assert collect_ladder_samples(params, 40, 3000, 3, math.inf) == unstopped
        assert collect_ladder_samples(params, 40, 3000, 3, 1e-300) != unstopped

    def test_kernel_matches_scalar_walk(self):
        params = mm1()
        for max_steps in (3000, 1, 1024, 1025, 2048):
            walks = collect_ladder_samples(params, 20, max_steps, 17)
            for i, a in enumerate(walks):
                b = simulate_ladder(
                    params, max_steps, poisson_events(params.lam, params.packet, trial_rng(17, i))
                )
                assert a.terminated == b.terminated
                assert a.first_ladder_epoch == b.first_ladder_epoch
                assert a.max_shortfall == pytest.approx(b.max_shortfall, rel=1e-9)
                if a.first_ladder_height is not None:
                    assert a.first_ladder_height == pytest.approx(
                        b.first_ladder_height, rel=1e-9
                    )

    @staticmethod
    def bits(sample):
        """A sample's epoch and the bits of its two floats (nan for no height)."""
        height = math.nan if sample.first_ladder_height is None else sample.first_ladder_height
        floats = np.array([sample.max_shortfall, height]).view(np.uint64).tolist()
        return sample.first_ladder_epoch, floats

    def assert_equals_the_kernel(self, params, walks, max_steps, seed, stop):
        got = collect_ladder_samples(params, walks, max_steps, seed, stop)
        expect = [kernel_oracle._ladder_kernel(params, max_steps, trial_rng(seed, i), stop) for i in range(walks)]
        assert [self.bits(a) for a in got] == [self.bits(b) for b in expect]
        return expect

    def test_kernel_equals_the_block_walk_bit_for_bit(self):
        # the per-walk kernel of 0.5.1 sums p * gap - packet a block at a
        # time, as the batched walk does; p = 1 skips a multiply by 1
        for packet in (EXP1, DET1, UNIF1):
            for rho, p in itertools.product((0.9, 1.0, 1.1, 1.2), (0.7, 1.0)):
                params = SystemParams(lam=p * rho, packet=packet, p=p)
                for max_steps, stop in itertools.product((1, 1023, 1024, 1025, 3000), (None, 20.0)):
                    for walks, seed in ((17, 8), (20, 9)):
                        self.assert_equals_the_kernel(params, walks, max_steps, seed, stop)

    @pytest.mark.parametrize("walks", [1, 15, 16, 17, 40, 150])
    def test_batches_of_any_size_mix_stopped_and_capped_walks(self, walks):
        # at rho 1 a drawdown of 40 stops some of the first 15 walks of seed 1
        # at the end of their first block, some at the end of their second,
        # and lets the rest, walk 0 among them, reach the cap of 2500 steps in
        # their third; 150 walks take their first blocks from three runs of
        # the one run array
        params = SystemParams(lam=1.0, packet=EXP1, p=1.0)
        self.assert_equals_the_kernel(params, walks, 2500, 1, 40.0)
        ends = set()
        for i in range(min(walks, 15)):
            events = poisson_events(params.lam, params.packet, trial_rng(1, i))
            pairs = np.array(list(itertools.islice(events, 2500)))
            walk = np.cumsum(params.p * pairs[:, 0] - pairs[:, 1])
            peak = np.maximum.accumulate(np.maximum(walk, 0.0))
            ends.add(next((e for e in (1024, 2048) if peak[e - 1] - walk[e - 1] >= 40.0), 2500))
        assert ends == ({2500} if walks == 1 else {1024, 2048, 2500})

    @pytest.mark.parametrize("max_steps", [1, 700, 1023])
    def test_walks_capped_in_their_first_block_across_runs(self, max_steps):
        # every walk ends in its first block, walked where its run drew it:
        # 2 * _RUN + 9 walks cross two run edges and end on a part batch
        walks = 2 * simulate._RUN + 9
        for stop in (None, 20.0):
            self.assert_equals_the_kernel(SystemParams(0.9, UNIF1, 0.7), walks, max_steps, 4, stop)

    def test_a_drawdown_ends_some_walks_in_their_first_block(self, monkeypatch):
        # at rho 1 a drawdown of 20 ends some of seed 6's walks at their first
        # block end and lets the others go on, so the walks that go on from
        # one run fill batches beside those of the next
        drawn = []
        watch_rows(monkeypatch, lambda spec, rng, n: drawn.append(n))
        walks = 2 * simulate._RUN + 9
        self.assert_equals_the_kernel(SystemParams(1.0, EXP1, 1.0), walks, 5000, 6, 20.0)
        assert walks < len(drawn) < 2 * walks  # some walks end in their first block, some go on

    def test_a_call_holds_fewer_than_a_run_and_a_batch_of_walks(self, monkeypatch):
        # a walk is held from its run's draw to its sample: the walks that go
        # on from a run are walked down to fewer than _ROWS before the next
        # run is drawn, so 2000 walks never hold as many as _RUN + _ROWS
        issued, done, held = [0], [0], []
        first_blocks, sample = simulate._first_blocks, simulate.LadderSample

        def runs(*args):
            for run in first_blocks(*args):
                issued[0] += len(run[0])
                held.append(issued[0] - done[0])
                yield run

        def counted(*args):
            done[0] += 1
            return sample(*args)

        monkeypatch.setattr(simulate, "_first_blocks", runs)
        monkeypatch.setattr(simulate, "LadderSample", counted)
        samples = collect_ladder_samples(SystemParams(1.0, EXP1, 1.0), 2000, 3000, 7, 20.0)
        assert done[0] == len(samples) == 2000 and None not in samples
        assert simulate._RUN < max(held) < simulate._RUN + simulate._ROWS

    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    def test_first_ascents_after_the_first_block_equal_the_kernel(self, packet):
        # at rho 1 about one walk in fifty first rises above zero after its
        # first block, where the walk's offset is not 0: each batch finds its
        # rows' first ascents by one search over the block, against each
        # row's own offset, and every sample is the per-walk kernel's
        expect = self.assert_equals_the_kernel(SystemParams(1.0, packet, 1.0), 1000, 3500, 21, None)
        late = [b.first_ladder_epoch for b in expect if not b.terminated and b.first_ladder_epoch > EVENT_BLOCK]
        assert len(late) >= 5 and max(late) > 2 * EVENT_BLOCK, late

    def test_kernel_finds_a_first_ladder_point_after_the_first_block(self):
        # trial 2 of seed 17 at rho 1.02 first rises above zero at step 3302
        params = SystemParams(lam=1.02, packet=EXP1, p=1.0)
        a = collect_ladder_samples(params, 3, 5000, 17)[2]
        b = simulate_ladder(params, 5000, poisson_events(params.lam, params.packet, trial_rng(17, 2)))
        assert b.first_ladder_epoch > EVENT_BLOCK
        assert a.first_ladder_epoch == b.first_ladder_epoch
        assert a.first_ladder_height == pytest.approx(b.first_ladder_height, rel=1e-9)

    def test_kernel_matches_the_stream_walk_in_a_cut_final_block(self):
        # drifting up (rho < 1), the running maximum lands in the last of
        # 3000 steps' three blocks, the one cut at max_steps
        for packet in (EXP1, DistributionSpec(Kind.UNIFORM, 1.0)):
            params = SystemParams(lam=0.9, packet=packet, p=1.0)
            for i, a in enumerate(collect_ladder_samples(params, 10, 3000, 17)):
                events = poisson_events(params.lam, params.packet, trial_rng(17, i))
                pairs = np.array(list(itertools.islice(events, 3000)))
                walk = np.cumsum(params.p * pairs[:, 0] - pairs[:, 1])
                assert walk.argmax() >= 2 * EVENT_BLOCK
                assert a.max_shortfall == pytest.approx(walk.max(), rel=1e-9)

    def test_walks_use_the_trial_streams(self):
        params = mm1()
        for stop in (None, 40.0):
            expect = [kernel_oracle._ladder_kernel(params, 2500, trial_rng(12, i), stop) for i in range(40)]
            assert collect_ladder_samples(params, 40, 2500, 12, stop) == expect

    def test_walks_give_their_generators_back(self):
        simulate._SPARE_RNGS.append(trial_rng(0, 0))  # so that one kept away shows
        spare = len(simulate._SPARE_RNGS)
        collect_ladder_samples(mm1(), 5, 100, 3)
        assert len(simulate._SPARE_RNGS) == spare

    def test_a_ramp_past_the_doubles_raises(self):
        # p / lam = 1e308 times a unit sum above 1.8 leaves the doubles, as no
        # horizon clamps a ladder walk; up to 0.6.0 its running maximum read
        # +inf, which can hide a finite one (a ramp rounds to +inf while the
        # walk, ramp less packets, is still a double)
        params = SystemParams(1e-308, DistributionSpec(Kind.EXPONENTIAL, 1e-300), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="leaves the doubles"):
                collect_ladder_samples(params, 3, 3000, 1)

    def test_a_ramp_and_a_packet_sum_past_the_doubles_raise(self):
        # inf - inf made a nan cell: up to 0.6.0 three samples read a
        # max_shortfall of 0.0, and the walk warned under -W error
        params = SystemParams(1e-308, DistributionSpec(Kind.EXPONENTIAL, 1e308), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                collect_ladder_samples(params, 3, 3000, 1)

    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    @pytest.mark.parametrize("max_steps", [3000, 5000])
    def test_a_walk_scaled_near_the_top_of_the_doubles_scales_exactly(self, packet, max_steps):
        # scaling the means and p by 2**1015 scales every step exactly, and
        # the walk sums steps, so every sample scales bit for bit (summed
        # apart, the unit and packet sums overflowed to inf - inf and every
        # family raised).  Drifting down, 15 to 20 of each family's 40 walks
        # fall past -2**1024 from step 2124 on and end below every bound;
        # at 5000 steps all 40 have fallen by step 4096 and walk on below the
        # doubles to the cap, their rise since tracked
        big = 2.0**1015
        params = SystemParams(1.2, packet, 1.0)
        scaled = SystemParams(1.2, replace(packet, mean=big), big)
        plain = collect_ladder_samples(params, 40, max_steps, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = collect_ladder_samples(scaled, 40, max_steps, 9)
        expect = [
            LadderSample(math.ldexp(a.max_shortfall, 1015), a.first_ladder_epoch,
                         None if a.terminated else math.ldexp(a.first_ladder_height, 1015))
            for a in plain
        ]
        assert [self.bits(a) for a in got] == [self.bits(b) for b in expect]

    def test_a_walk_that_may_climb_back_into_the_doubles_raises(self):
        # walk 0 of seed 5 at rho 0.9 falls to -17.5 at step 160 and then
        # rises to its maximum, 303, at step 3000.  Scaled by 2**1020 each
        # step is a double, but the maximum, 303 * 2**1020, is not, so it
        # raises.  Walked on at -inf past the fall of its first block's own
        # sum below -2**1024 (-16 unscaled), it read a maximum of 5.38
        # (unscaled), not 303
        packet = DistributionSpec(Kind.UNIFORM, 1.0)
        assert collect_ladder_samples(SystemParams(0.9, packet, 1.0), 1, 3000, 5)[0].max_shortfall > 300.0
        big = 2.0**1020
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="leaves the doubles"):
                collect_ladder_samples(SystemParams(0.9, replace(packet, mean=big), big), 1, 3000, 5)

    def test_a_walk_that_falls_at_a_block_end_and_climbs_back_scales_exactly(self):
        # walk 0 of seed 145 at unif rho 1 ends its first two blocks at -53.3
        # and -68.7, and climbs from there to its maximum, 25.3 at step 4920,
        # from 2.82 over those two blocks.  Scaled by 2**1018 each block's own
        # sums, the first block end and the maximum are doubles, but the second
        # block end is past -2**1024 (-64 unscaled).  The walk runs at 2**900
        # and its sample is scaled back.  Without that scale it walked on below
        # the doubles and raised, and stopped at the fall or walked on
        # unchecked at -inf, it read 2.82 (unscaled)
        packet = DistributionSpec(Kind.UNIFORM, 1.0)
        steps = [gap - size for gap, size in itertools.islice(poisson_events(1.0, packet, trial_rng(145, 0)), 5120)]
        blocks = np.cumsum(np.reshape(steps, (5, 1024)), axis=1)  # each block's own sums
        ends = np.cumsum(blocks[:, -1])
        assert np.abs(blocks).max() < 64.0 and ends[0] > -64.0 > ends[1]
        (plain,) = collect_ladder_samples(SystemParams(1.0, packet, 1.0), 1, 5120, 145)
        assert max(blocks[0].max(), ends[0] + blocks[1].max()) + 20.0 < plain.max_shortfall < 64.0
        big = 2.0**1018
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (got,) = collect_ladder_samples(SystemParams(1.0, replace(packet, mean=big), big), 1, 5120, 145)
        expect = LadderSample(math.ldexp(plain.max_shortfall, 1018), plain.first_ladder_epoch,
                              math.ldexp(plain.first_ladder_height, 1018))
        assert self.bits(got) == self.bits(expect)

    def test_a_walk_at_a_subnormal_rate_sums_its_steps(self):
        # 1 / lam = 1e310 is past the doubles, so the walk counts time in
        # units of 2**130; without that scale every gap read inf and it raised.
        # Its maximum and first ladder point are those of the exact sum of the
        # same draws, p * unit / lam - packet, within rounding
        params = SystemParams(1e-310, DistributionSpec(Kind.UNIFORM, 1e-300), 1e-315)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = collect_ladder_samples(params, 3, 3000, 1)
        rng = trial_rng(1, 0)
        steps = []
        for n in (1024, 1024, 952):  # the last block's packets up to the step cap
            units = rng.standard_exponential(EVENT_BLOCK)[:n]
            packets = raw_block(params.packet, rng, np.empty(n)) * (2.0 * params.packet.mean)
            steps += [Fraction(params.p) * Fraction(u) / Fraction(params.lam) - Fraction(x) for u, x in zip(units, packets)]
        walk = list(itertools.accumulate(steps))
        exact = max(0, *walk)
        assert float(exact) == 0.02932707101717432
        assert got[0].max_shortfall == pytest.approx(float(exact), rel=1e-12)
        assert walk[0] > 0 and got[0].first_ladder_epoch == 1
        assert got[0].first_ladder_height == pytest.approx(float(walk[0]), rel=1e-12)
        assert all(0.02 < a.max_shortfall < 0.04 for a in got)

    def test_an_infinite_packet_ends_a_walk_at_any_ramp(self):
        # exp packets of mean 1e308 are infinite about a sixth of the time,
        # and at p / lam = 2**1014 a block's ramps sum past 2**1023.  No rise
        # follows an infinite packet, so only the ramps before it bound the
        # walk's rise once its block sum falls past the doubles, and each walk
        # ends at its first one with the kernel's sample
        params = SystemParams(1.0, DistributionSpec(Kind.EXPONENTIAL, 1e308), 2.0**1014)
        with np.errstate(over="ignore"):  # the kernel's block sums overflow to -inf
            expect = [kernel_oracle._ladder_kernel(params, 3000, trial_rng(3, i)) for i in range(20)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = collect_ladder_samples(params, 20, 3000, 3)
        assert [self.bits(a) for a in got] == [self.bits(b) for b in expect]

    def test_stop_drawdown_only_prunes_decided_walks(self):
        params = mm1()
        full = collect_ladder_samples(params, 150, 20000, 5)
        pruned = collect_ladder_samples(params, 150, 20000, 5, stop_drawdown=300.0)
        for a, b in zip(full, pruned):
            assert a.terminated == b.terminated
            assert a.first_ladder_epoch == b.first_ladder_epoch


class TestPhiFromMax:
    def test_counting(self):
        samples = [
            LadderSample(0.0, None, None),
            LadderSample(0.5, 2, 0.5),
            LadderSample(2.0, 1, 2.0),
        ]
        assert [s.terminated for s in samples] == [True, False, False]
        assert estimate_phi_from_max(samples, 1.0) == pytest.approx(2.0 / 3.0)
        assert estimate_phi_from_max(samples, math.inf) == 1.0
        assert estimate_phi_from_max(samples, 0.0) == pytest.approx(1.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_phi_from_max([], 1.0)


class TestLindley:
    def test_single_recursion_step(self):
        # W1 = max(0, 5 + 2 - 1) = 6
        path = lindley_path(
            SystemParams(0.5, DET1, 1.0, u0=5.0), 1, scripted_events([(1.0, 2.0)])
        )
        assert path == [5.0, 6.0]

    def test_empty_interval_accounting(self):
        # store empties 1 time-unit into a 3-unit gap: idle 2 of 3
        stats = simulate_lindley(
            SystemParams(0.5, DET1, 1.0, u0=0.0),
            steps=1,
            burn_in=0,
            events=scripted_events([(3.0, 1.0)]),
        )
        assert stats.time_empty_fraction == pytest.approx(2.0 / 3.0)
        assert stats.arrival_empty_fraction == 1.0
        assert stats.steps == 1

    def test_clamps_at_zero(self):
        path = lindley_path(
            SystemParams(0.5, DET1, 1.0, u0=1.0),
            3,
            scripted_events([(5.0, 1.0), (1.0, 3.0), (10.0, 1.0)]),
        )
        assert path == [1.0, 0.0, 2.0, 0.0]

    def test_stationary_guard(self):
        with pytest.raises(PreconditionError):
            simulate_lindley(
                mm1(lam=1.2), 10, 0, scripted_events([(1.0, 1.0)] * 10)
            )

    def test_step_burnin_validation(self):
        with pytest.raises(PreconditionError):
            simulate_lindley(mm1(lam=0.9), 5, 5, scripted_events([(1.0, 1.0)] * 9))
        with pytest.raises(PreconditionError):
            simulate_lindley(mm1(lam=0.9), 5, -1, scripted_events([(1.0, 1.0)] * 9))

    def test_short_stream_rejected(self):
        with pytest.raises(PreconditionError):
            simulate_lindley(mm1(lam=0.9), 10, 5, scripted_events([(1.0, 1.0)] * 3))

    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    @pytest.mark.parametrize("burn_in", [0, 1, 1023, 1024, 1025])
    def test_equals_the_loop_oracle(self, packet, burn_in):
        params = SystemParams(lam=0.8, packet=packet, p=1.0, u0=0.5)
        for steps in (burn_in + 1, 5000):
            got, ref = (
                f(params, steps, burn_in, poisson_events(0.8, packet, trial_rng(21, burn_in)))
                for f in (simulate_lindley, kernel_oracle.lindley_loop)
            )
            assert got == ref

    @pytest.mark.parametrize("size", [0, 3, 5, 6, 9, 1029, 2500])
    def test_equals_the_loop_oracle_when_the_stream_runs_dry(self, size):
        # 5 burn-in pairs: the stream ends during burn-in (0, 3), at its
        # end (5), or during the counted steps (6, 9 of 10; of 2 * size
        # steps, at the end of the first block of counted pairs (1029) or
        # inside the third (2500))
        params = mm1(lam=0.9, u0=0.3)
        steps = max(10, 2 * size)
        pairs = [(0.5 + 0.25 * (i % 3), 0.2 + 0.5 * (i % 2)) for i in range(size)]
        try:
            ref = kernel_oracle.lindley_loop(params, steps, 5, scripted_events(pairs))
        except PreconditionError:
            with pytest.raises(PreconditionError, match="ended before"):
                simulate_lindley(params, steps, 5, scripted_events(pairs))
        else:
            assert simulate_lindley(params, steps, 5, scripted_events(pairs)) == ref
            assert ref.steps == size

    @pytest.mark.parametrize("steps,burn_in", [(100.7, 10), (100, 10.2), (math.inf, 10), (100, math.nan)])
    def test_non_integral_counts_rejected(self, steps, burn_in):
        events = scripted_events([(1.0, 1.0)] * 200)
        with pytest.raises(PreconditionError, match="must be an integer"):
            simulate_lindley(mm1(lam=0.9), steps, burn_in, events)

    def test_steps_above_the_cap_raise_before_any_draw(self):
        def events():
            raise AssertionError("walked")
            yield

        with pytest.raises(PreconditionError, match="steps"):
            simulate_lindley(mm1(lam=0.9), 10**11, 0, events())
        with pytest.raises(AssertionError, match="walked"):  # the cap itself walks
            simulate_lindley(mm1(lam=0.9), int(simulate._MAX_ARRIVALS), 0, events())

    @pytest.mark.parametrize("steps", [5.9, -1, math.inf])
    def test_path_steps_checked(self, steps):
        with pytest.raises(PreconditionError, match="steps"):
            lindley_path(mm1(lam=0.9), steps, scripted_events([(1.0, 1.0)] * 9))

    def test_path_takes_integral_float_steps(self):
        pairs = [(1.0, 0.5)] * 9
        assert lindley_path(mm1(lam=0.9, u0=2.0), 4.0, scripted_events(pairs)) == [2.0, 1.5, 1.0, 0.5, 0.0]

    @given(pairs=pair_lists, u0=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60)
    def test_path_nonnegative_and_recursion_exact(self, pairs, u0):
        params = SystemParams(lam=0.5, packet=DET1, p=1.0, u0=u0)
        path = lindley_path(params, len(pairs), scripted_events(pairs))
        assert len(path) == len(pairs) + 1
        w = u0
        for (gap, packet), got in zip(pairs, path[1:]):
            w = max(0.0, w + packet - gap)
            assert got == w
        assert all(v >= 0.0 for v in path)

    @given(pairs=pair_lists, u0=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60)
    def test_empty_arrivals_are_the_zeros_of_the_path(self, pairs, u0):
        params = SystemParams(lam=0.5, packet=DET1, p=1.0, u0=u0)
        burn_in = len(pairs) // 2
        path = lindley_path(params, len(pairs), scripted_events(pairs))
        stats = simulate_lindley(params, len(pairs), burn_in, scripted_events(pairs))
        counted = path[burn_in + 1:]
        assert stats.arrival_empty_fraction == counted.count(0.0) / len(counted)

    @pytest.mark.parametrize("p", [0.3, 0.7, 1.1, 3.0, 10.0 / 3.0])
    def test_an_arrival_is_empty_exactly_when_its_interval_adds_idle_time(self, p):
        # one counted step from an empty store, its gap within a few ulps of
        # the emptying time packet / p: the level and the idle time are one
        # subtraction, so they agree on every draw.  Up to 0.6.0 they were
        # two roundings, packet - p * gap and gap - packet / p, which
        # disagreed in 27 347 of 2 000 000 such draws over these p
        params = SystemParams(0.5 * p, DET1, p)
        rng = np.random.default_rng(26)
        for packet in rng.exponential(1.0, 400).tolist():
            empties = packet / p
            for gap in (empties, math.nextafter(empties, 0.0), math.nextafter(empties, math.inf),
                        empties * (1.0 - 2**-52), empties * (1.0 + 2**-52)):
                stats = simulate_lindley(params, 1, 0, [(gap, packet)])
                empty = stats.arrival_empty_fraction == 1.0
                idle = stats.time_empty_fraction > 0.0
                # the store may also empty at the arrival itself, with no idle time
                assert empty == (idle or gap == empties), (packet, gap)

    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    @pytest.mark.parametrize("p", [0.3, 3.0, 10.0 / 3.0])
    def test_equals_the_energy_oracles_to_a_tolerance(self, packet, p):
        # lindley_loop and lindley_path recurse in energy, W = p v, which the
        # library does only at p = 1 (test_equals_the_loop_oracle, bit for
        # bit).  Elsewhere the two round apart: the time fraction within
        # 1e-12 relative, and the level at a few arrivals may be zero in one
        # and a rounding residue in the other
        params = SystemParams(0.8 * p, packet, p, u0=0.5)

        def events():
            return poisson_events(params.lam, packet, trial_rng(26, 1))

        got = simulate_lindley(params, 20_000, 1000, events())
        ref = kernel_oracle.lindley_loop(params, 20_000, 1000, events())
        zeros = lindley_path(params, 20_000, events())[1001:].count(0.0)
        assert got.steps == ref.steps == 20_000
        assert got.time_empty_fraction == pytest.approx(ref.time_empty_fraction, rel=1e-12, abs=0.0)
        assert abs(got.arrival_empty_fraction - ref.arrival_empty_fraction) <= 3 / 19_000
        assert abs(got.arrival_empty_fraction * 19_000 - zeros) <= 3

    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    def test_levels_scaled_by_2_1020_are_bit_identical(self, packet):
        # packet / p and u0 / p do not move when packets, p and u0 scale by a
        # power of two.  Up to 0.6.0 both fractions read 0.0 at 2**1020, with
        # no warning: p * gap overflowed, and so every level was zero
        def stats(scale):
            spec = replace(packet, mean=scale)
            events = poisson_events(0.8, spec, trial_rng(3, 0))
            return simulate_lindley(SystemParams(0.8, spec, scale), 20_000, 1000, events)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stats(2.0**1020) == stats(1.0)

    def test_packets_past_the_doubles_raise(self):
        # exp packets of mean 2**1023 overflow to +inf above twice the mean
        spec = DistributionSpec(Kind.EXPONENTIAL, 2.0**1023)
        with pytest.raises(DomainError, match="leaves the doubles"):
            simulate_lindley(SystemParams(0.8, spec, 2.0**1023), 20_000, 1000, poisson_events(0.8, spec, trial_rng(3, 0)))

    @pytest.mark.parametrize(
        "pairs, burn_in",
        [
            ([(1.0, 1.0), (math.inf, 1.0)], 0),  # the elapsed time is +inf
            ([(1.0, math.inf), (1.0, 1.0)], 1),  # a level of +inf from the burn-in
            ([(math.inf, math.inf), (1.0, 1.0)], 1),  # inf - inf in the burn-in
            ([(1.0, 1.0), (1.0, math.inf), (math.inf, 1.0)], 0),  # inf - inf, counted
        ],
    )
    def test_a_level_or_time_past_the_doubles_raises(self, pairs, burn_in):
        with pytest.raises(DomainError):
            simulate_lindley(mm1(lam=0.9), len(pairs), burn_in, scripted_events(pairs))


class TestLindleyLanes:
    """``simulate_lindley``'s lockstep lanes against the scalar loop in time
    units (``kernel_oracle.lindley_time_loop``), bit for bit."""

    @pytest.fixture
    def small_lanes(self, monkeypatch):
        # lanes of 4 steps in chunks of 12 pairs, so a few dozen pairs cross
        # every lane and chunk edge
        monkeypatch.setattr(simulate, "_LANE", 4)
        monkeypatch.setattr(simulate, "_LINDLEY_CHUNK", 12)

    @staticmethod
    def assert_equal(params, steps, burn_in, events):
        events = list(events)
        try:
            ref = kernel_oracle.lindley_time_loop(params, steps, burn_in, events)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                simulate_lindley(params, steps, burn_in, events)
        else:
            assert simulate_lindley(params, steps, burn_in, events) == ref

    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    @pytest.mark.parametrize("p", [1.0, 0.3, 10.0 / 3.0])
    @pytest.mark.parametrize("rho", [0.3, 0.8, 0.95, 0.999])
    def test_equals_the_time_loop_oracle(self, packet, p, rho):
        params = SystemParams(rho * p, packet, p, u0=0.5)
        for seed in (1, 2):
            got, ref = (
                f(params, 20_000, 700, poisson_events(params.lam, packet, trial_rng(seed, 3)))
                for f in (simulate_lindley, kernel_oracle.lindley_time_loop)
            )
            assert got == ref

    @pytest.mark.parametrize(
        "steps, burn_in",
        [(255, 0), (256, 0), (257, 0), (257, 256), (300, 255), (65_535, 0), (65_536, 0),
         (65_537, 0), (65_537, 65_536), (70_000, 65_537), (131_073, 65_535)],
    )
    def test_chunk_and_lane_edges(self, steps, burn_in):
        # the lanes are 256 steps and a chunk 65 536 pairs; at rho 0.999 a
        # walk started above 0 runs over many lanes before its first zero
        for rho in (0.6, 0.999):
            params = SystemParams(rho, UNIF1, 1.0, u0=2.0)
            got, ref = (
                f(params, steps, burn_in, poisson_events(rho, UNIF1, trial_rng(9, steps)))
                for f in (simulate_lindley, kernel_oracle.lindley_time_loop)
            )
            assert got == ref

    @pytest.mark.parametrize("rho", [0.5, 0.999])
    @pytest.mark.parametrize("size", [40, 23, 17])
    def test_every_burn_in_and_steps_in_small_lanes(self, small_lanes, rho, size):
        # burn-in ends at every place in a lane and a chunk; the stream of
        # size pairs runs dry at the end of the last chunk (40 of steps up to
        # 40), inside a lane (23, 17) or not at all
        rng = np.random.default_rng(5)
        pairs = list(zip(rng.exponential(1.0 / rho, 40).tolist(), rng.exponential(1.0, 40).tolist()))
        params = SystemParams(rho, EXP1, 1.0, u0=0.7)
        for steps in range(1, 41):
            for burn_in in range(steps):
                self.assert_equal(params, steps, burn_in, pairs[:size])

    @pytest.mark.parametrize("p", [0.3, 10.0 / 3.0])
    def test_long_busy_periods_in_small_lanes(self, monkeypatch, p):
        # at rho 0.999 a walk from a nonzero start spans many 16-step lanes,
        # in windows of 1, 2, 4, ... lanes, and chunks of 256 pairs end
        # inside it
        monkeypatch.setattr(simulate, "_LANE", 16)
        monkeypatch.setattr(simulate, "_LINDLEY_CHUNK", 256)
        params = SystemParams(0.999 * p, EXP1, p, u0=30.0)
        got, ref = (
            f(params, 5000, 1000, poisson_events(params.lam, EXP1, trial_rng(4, 0)))
            for f in (simulate_lindley, kernel_oracle.lindley_time_loop)
        )
        assert got == ref

    def test_levels_of_exactly_zero(self, small_lanes):
        # from u0 = 0 every third level is exactly 0 after a positive one,
        # and the others 0.5 then 0: empty arrivals with no idle time
        pairs = [(1.0, 1.0), (0.5, 1.0), (1.5, 1.0)] * 10
        params = SystemParams(0.5, DET1, 1.0)
        stats = simulate_lindley(params, 30, 0, pairs)
        assert stats == kernel_oracle.lindley_time_loop(params, 30, 0, pairs)
        assert stats.time_empty_fraction == 0.0
        assert stats.arrival_empty_fraction == 20 / 30
        for burn_in in range(30):
            self.assert_equal(params, 30, burn_in, pairs)

    @pytest.mark.parametrize(
        "pairs, params",
        [
            ([(1.0, 1.0)] * 5 + [(1.0, math.inf)] + [(1.0, 1.0)] * 6, mm1(lam=0.9)),  # +inf in the second lane
            ([(1.0, 1.0)] * 5 + [(1.0, math.inf), (math.inf, 1.0)] + [(1.0, 1.0)] * 5, mm1(lam=0.9)),  # then nan
            ([(1.0, 1.0)] * 9 + [(math.inf, 1.0)] + [(1.0, 1.0)] * 2, mm1(lam=0.9)),  # the elapsed time
            ([(1.0, 1.0)] * 12, SystemParams(0.5e-10, DET1, 1e-10, u0=1e308)),  # u0 / p is +inf
        ],
    )
    def test_inf_and_nan_levels_raise_without_a_warning(self, small_lanes, pairs, params):
        for burn_in in (0, 6):
            with pytest.raises(DomainError, match="leaves the doubles"):
                kernel_oracle.lindley_time_loop(params, len(pairs), burn_in, pairs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="leaves the doubles"):
                    simulate_lindley(params, len(pairs), burn_in, pairs)

    def test_zero_gaps_after_the_burn_in_are_not_a_dry_stream(self):
        # the stream did not end: no time passed after the burn-in
        for pairs, burn_in in (([(0.0, 1.0)] * 2, 0), ([(1.0, 0.5), (0.0, 1.0), (0.0, 2.0)], 1)):
            with pytest.raises(PreconditionError, match="no time passes"):
                simulate_lindley(mm1(lam=0.9), len(pairs), burn_in, pairs)
            with pytest.raises(PreconditionError, match="no time passes"):
                kernel_oracle.lindley_time_loop(mm1(lam=0.9), len(pairs), burn_in, pairs)

    @pytest.mark.parametrize("pairs", [
        [(1.0, -0.5)] * 4,  # read as time_empty_fraction 1.5
        [(1.0, 1.0), (1.0, -math.inf), (1.0, 1.0), (1.0, 1.0)],
        [(1.0, 1.0), (-0.5, 1.0), (1.0, 1.0), (1.0, 1.0)],
    ])
    def test_a_negative_gap_or_packet_is_refused(self, small_lanes, pairs):
        with pytest.raises(PreconditionError, match="negative"):
            simulate_lindley(mm1(lam=0.5), len(pairs), 1, pairs)

    def test_pairs_of_other_lengths_rejected(self):
        for pairs in ([(1.0, 1.0, 1.0)] * 4, [(1.0,)] * 4):
            with pytest.raises(ValueError, match="pair"):
                simulate_lindley(mm1(lam=0.9), 4, 1, pairs)

    @pytest.mark.parametrize("pairs", [
        [(1.0,), (0.5, 2.0, 0.7)] + [(1.0, 0.3)] * 10,  # 24 numbers, as 12 pairs hold
        [(1.0, 0.3, 0.2)] * 4,
    ])
    def test_ragged_pairs_rejected_as_the_loop_rejects_them(self, pairs):
        params = SystemParams(0.5, EXP1, 1.0)
        for walk in (simulate_lindley, kernel_oracle.lindley_time_loop):
            with pytest.raises(ValueError):
                walk(params, len(pairs), 0, pairs)


class TestEstimatorDeterminism:
    def test_same_seed_bit_identical(self):
        p = mm1(u0=5.0)
        a = estimate_eventual_outage(p, 300.0, 400, seed=21)
        b = estimate_eventual_outage(p, 300.0, 400, seed=21)
        assert a == b

    def test_worker_count_invariance(self):
        p = mm1(u0=5.0)
        serial = estimate_eventual_outage(p, 300.0, 600, seed=8, workers=1)
        parallel = estimate_eventual_outage(p, 300.0, 600, seed=8, workers=3)
        assert serial == parallel

    @pytest.mark.parametrize("seed", [-1, 2.5, 1.7])
    def test_seed_is_a_nonnegative_integer(self, seed):
        p = mm1(u0=5.0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            estimate_eventual_outage(p, 100.0, 200, seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            collect_ladder_samples(p, 3, 10, seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            trial_rng(seed, 0)

    def test_a_seed_past_the_float_range_is_accepted(self):
        seed = 10**400
        assert trial_rng(seed, 3).random() == next(_trial_rngs(seed, 3, 4)).random()
        assert run_simulate(mm1(u0=5.0), 4, 50.0, seed)["seed"] == seed

    def test_trial_streams_are_independent_and_stable(self):
        a0 = trial_rng(4, 0).random(6)
        a1 = trial_rng(4, 1).random(6)
        again = trial_rng(4, 0).random(6)
        assert np.array_equal(a0, again)
        assert not np.array_equal(a0, a1)
        with pytest.raises(ValueError):
            trial_rng(-1, 0)

    def test_kernel_agrees_with_scalar_simulator(self):
        p = mm1(u0=8.0)
        for i in range(30):
            a = _first_passage_kernel(p, 600.0, trial_rng(123, i))
            b = simulate_first_passage(
                p, 600.0, poisson_events(p.lam, p.packet, trial_rng(123, i))
            )
            assert a.outage == b.outage
            assert a.arrivals_observed == b.arrivals_observed
            if a.outage:
                assert a.tau == pytest.approx(b.tau, rel=1e-9)

    def test_single_trial_degenerate_ci(self):
        est = estimate_eventual_outage(mm1(), 100.0, 1, seed=3)
        assert est.estimate in (0.0, 1.0)
        assert est.stderr == 0.0
        # Wilson's interval for one trial: [0, z^2 / (1 + z^2)] or [1 / (1 + z^2), 1]
        z2 = simulate._Z95**2
        if est.estimate == 0.0:
            assert (est.ci95_lo, est.ci95_hi) == (0.0, pytest.approx(z2 / (1.0 + z2), rel=1e-12))
        else:
            assert (est.ci95_lo, est.ci95_hi) == (pytest.approx(1.0 / (1.0 + z2), rel=1e-12), 1.0)

    def test_estimate_monotone_in_horizon(self):
        p = mm1(u0=6.0)
        values = [
            estimate_eventual_outage(p, h, 500, seed=14).estimate
            for h in (100.0, 400.0, 1600.0)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_ci_contains_estimate_and_is_clamped(self):
        est = estimate_eventual_outage(mm1(u0=0.0), 500.0, 300, 5)
        assert 0.0 <= est.ci95_lo <= est.estimate <= est.ci95_hi <= 1.0

    def test_wilson_interval_is_informative_at_zero_count(self):
        est = estimate_eventual_outage(mm1(u0=200.0), 50.0, 40, seed=1)
        assert est.estimate == 0.0
        assert est.ci95_hi > 0.0

    @pytest.mark.parametrize("trials", [1, 3, 7, 20, 400, 50_000])
    def test_wilson_ends_are_exact(self, trials):
        # center -/+ half alone is a rounding error off here: 8.7e-19 at 0 of 400
        z2 = simulate._Z95**2
        ((none, every, *inner),) = simulate._estimates(np.array([[0, trials, 1, trials - 1]]), trials)
        assert none.ci95_lo == 0.0 and every.ci95_hi == 1.0
        assert none.ci95_hi == pytest.approx(z2 / (trials + z2), rel=1e-12)
        assert every.ci95_lo == pytest.approx(trials / (trials + z2), rel=1e-12)
        for est in inner:
            assert 0.0 <= est.ci95_lo <= est.estimate <= est.ci95_hi <= 1.0
            assert est.ci95_lo < est.ci95_hi

    def test_wilson_arrays_equal_the_scalar_formula(self):
        # the CSV writes str() of each field, so each must be the scalar's
        # float, bit for bit and of type float
        cases = [(n, [0, 1, n // 2, n - 1, n]) for n in (1, 2, 3, 7, 20, 400, 50_000, 10**6)]
        rng = np.random.default_rng(39)
        trials = np.floor(10.0 ** rng.uniform(0.0, 6.0, 2000)).astype(int).tolist()
        cases += [(n, [int(rng.integers(0, n, endpoint=True))]) for n in trials]
        for n, outages in cases:
            (curve,) = simulate._estimates(np.array([outages]), n)
            for k, got in zip(outages, curve, strict=True):
                expect = kernel_oracle.wilson_estimate(k, n)
                assert got == expect and list(map(str, got)) == list(map(str, expect)), (n, k)
                assert [type(x) for x in got] == [float] * 4 + [int], (n, k)

    def test_zero_count_interval_covers_the_exact_psi(self):
        # det at rho 1.3 far out in u0, where trials * psi_exact < 1: most
        # seeds see no outage there, and the interval must still hold psi_exact
        params = SystemParams(1.3, parse_distribution_spec("det:mean=1.0"), 1.0)
        r_star = solve_adjustment_coefficient(params).r_star
        trials = 2000
        psi = {
            u0: eventual_outage_poisson_exact(replace(params, u0=u0), r_star)
            for u0 in map(float, range(0, 42, 2))  # the figures' u0 grid
        }
        grid = [u0 for u0 in psi if trials * psi[u0] < 1.0]
        zeros = 0
        for seed in (1, 2, 3):
            (curve,) = estimate_outage_curves([params], 1000.0, trials, seed, grid)
            for u0, est in zip(grid, curve):
                if est.estimate == 0.0:
                    zeros += 1
                    assert est.ci95_hi >= psi[u0], (seed, u0, est)
        assert zeros > 0

    def test_trials_validation(self):
        with pytest.raises(PreconditionError):
            estimate_eventual_outage(mm1(), 10.0, 0, 0)
        with pytest.raises(PreconditionError):
            estimate_eventual_outage(mm1(), -5.0, 10, 0)

    def test_non_finite_horizon_rejected(self):
        # at rho > 1 a walk to an infinite horizon would never end
        for horizon in (math.inf, math.nan):
            with pytest.raises(PreconditionError):
                estimate_eventual_outage(mm1(lam=1.1), horizon, 10, 0)

    def test_scalar_simulators_reject_non_finite_horizon(self):
        # on an endless stream at rho > 1 neither would ever return
        params = mm1(u0=5.0, lam=1.1)
        first = next(poisson_events(params.lam, params.packet, trial_rng(0, 0)))
        for simulator in (simulate_first_passage, record_path):
            for horizon in (math.inf, math.nan):
                events = poisson_events(params.lam, params.packet, trial_rng(0, 0))
                with pytest.raises(PreconditionError):
                    simulator(params, horizon, events)
                assert next(events) == first  # no event was consumed

    def test_workers_below_one_rejected(self):
        for workers in (0, -3):
            with pytest.raises(ValueError):
                estimate_eventual_outage(mm1(), 10.0, 10, 0, workers=workers)

    def test_empty_column_list_rejected(self):
        # a ValueError as for the other arguments, named, before the lam * H cap
        with pytest.raises(ValueError, match="columns") as err:
            estimate_outage_curves([], 100.0, 5, 1, [1.0])
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("workers", [1.5, math.inf, math.nan])
    def test_non_integral_workers_rejected(self, workers):
        # the ValueError of workers < 1, which the CLI maps to exit code 2
        with pytest.raises(ValueError, match="workers must be an integer") as err:
            estimate_outage_curves([mm1()], 10.0, 5, 1, [1.0], workers=workers)
        assert type(err.value) is ValueError

    def test_integral_float_workers_accepted(self):
        curve = estimate_outage_curves([mm1()], 10.0, 5, 1, [1.0], workers=1.0)[0]
        assert curve == estimate_outage_curves([mm1()], 10.0, 5, 1, [1.0])[0]

    @pytest.mark.usefixtures("fresh_pool")
    def test_pool_size_is_capped_at_the_cpu_count(self, monkeypatch):
        # the trials still split into one chunk per worker asked for
        sizes, chunks = [], []
        count = simulate._count_range

        def recording_pool(workers):
            sizes.append(workers)
            return ThreadPoolExecutor(workers)

        def recording_count(columns, horizon, seed, u0_grid, lo, hi):
            chunks.append((lo, hi))
            return count(columns, horizon, seed, u0_grid, lo, hi)

        grid = [0.0, 2.0, 5.0]
        serial = estimate_outage_curves([mm1()], 200.0, 50, 7, grid)[0]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        monkeypatch.setattr(simulate, "_count_range", recording_count)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        assert estimate_outage_curves([mm1()], 200.0, 50, 7, grid, workers=1000)[0] == serial
        assert sizes == [2]
        assert sorted(chunks) == [(k, k + 1) for k in range(50)]

    @pytest.mark.parametrize("trials", [3.9, 0, -2])
    def test_trials_checked(self, trials):
        with pytest.raises(PreconditionError, match="trials must be an integer"):
            estimate_eventual_outage(mm1(u0=3.0), 10.0, trials, 1)


class TestOutageCurve:
    def test_one_walk_per_trial_matches_scalar_for_every_u0(self):
        grid = [0.0, 0.5, 3.0, 7.5, 15.0, 30.0]
        for packet in (EXP1, DET1, DistributionSpec(Kind.UNIFORM, 1.0)):
            for lam in (0.9, 1.1):
                params = SystemParams(lam=lam, packet=packet, p=1.0)
                curve = estimate_outage_curves([params], 400.0, 25, 6, grid)[0]
                for u0, est in zip(grid, curve):
                    scalar = sum(
                        simulate_first_passage(
                            replace(params, u0=u0),
                            400.0,
                            poisson_events(lam, packet, trial_rng(6, i)),
                        ).outage
                        for i in range(25)
                    )
                    assert round(est.estimate * 25) == scalar, (packet, lam, u0)

    def test_early_stop_keeps_every_count_up_to_the_ceiling(self):
        # a stopped walk must decide every grid u0 as the full walk does, and
        # a grid holding D_i itself keeps the walk going until it reaches D_i.
        # An empty grid stops after one block, at that block's maximum.
        for lam in (0.9, 1.0, 1.1):
            params = mm1(lam=lam)
            for i in range(20):
                full = max_deficit_full_blocks(params, 5000.0, trial_rng(2, i))
                (first,) = walk_trial([params], 5000.0, 2, i, [])
                assert walk_trial([params], 5000.0, 2, i, [full]) == [full]
                for grid in ([first + 0.5], [50.0], [120.0], sorted([0.0, first + 0.5, 50.0, 120.0])):
                    (stopped,) = walk_trial([params], 5000.0, 2, i, grid)
                    assert first <= stopped <= full
                    assert [u0 <= stopped for u0 in grid] == [u0 <= full for u0 in grid]

    def test_final_block_cut_keeps_the_deficit_bit_identical(self, monkeypatch):
        # a u0 one ulp above D_i is decided only when no later deficit can
        # reach it (then D_i is already the running maximum) or at the
        # horizon, where the walk's last block is cut short
        drawn = {simulate: [], kernel_oracle: []}
        watch_rows(monkeypatch, lambda spec, rng, n: drawn[simulate].append(n))
        monkeypatch.setattr(
            kernel_oracle, "sample_block",
            lambda spec, rng, n: drawn[kernel_oracle].append(n) or sample_block(spec, rng, n),
        )
        walked = 0
        for packet in (EXP1, DET1, DistributionSpec(Kind.UNIFORM, 1.0)):
            for lam, horizon in (
                (0.9, 1000.0), (0.9, 2500.0), (1.0, 2500.0), (1.1, 1000.0), (1.3, 2500.0), (1.0, 30.0)
            ):
                params = SystemParams(lam=lam, packet=packet, p=1.0)
                for i in range(15):
                    for n in drawn.values():
                        n.clear()
                    ref = max_deficit_full_blocks(params, horizon, trial_rng(9, i))
                    grid = [float(np.nextafter(ref, math.inf))]
                    (got,) = walk_trial([params], horizon, 9, i, grid)
                    assert got == ref, (packet, lam, i)
                    kernel, full = drawn[simulate], drawn[kernel_oracle]
                    if packet == DET1:  # constant packets: one summed row per call, no row drawn
                        assert kernel == [], (lam, i)
                        continue
                    assert kernel[:-1] == full[: len(kernel) - 1] and len(kernel) <= len(full)
                    if len(kernel) == len(full) > 1:
                        walked += 1
                        assert kernel[-1] <= full[-1] == EVENT_BLOCK
        assert walked >= 60  # multi-block walks that reached the horizon

    def test_horizon_at_a_block_end_arrival(self, monkeypatch):
        # H at T_1023 or T_1024 (the arrival after the first block's last gap),
        # and one ulp either side: the walk takes the steps up to the first
        # unit sum U_j reaching lam * H, so past U_1024 its second block is one
        # step (drawn only if the first block leaves a u0 undecided)
        drawn = []
        watch_rows(monkeypatch, lambda spec, rng, n: drawn.append(n))
        for packet in (EXP1, DET1):
            params = SystemParams(lam=1.1, packet=packet, p=1.0)
            for i in range(10):
                units = np.cumsum(trial_rng(6, i).standard_exponential(EVENT_BLOCK))
                ends = 1.0 / params.lam * units
                for j in (EVENT_BLOCK - 2, EVENT_BLOCK - 1):
                    arrival = float(ends[j])
                    for horizon in (float(np.nextafter(arrival, 0.0)), arrival,
                                    float(np.nextafter(arrival, math.inf))):
                        steps = int(units.searchsorted(params.lam * horizon)) + 1
                        sizes = [min(steps, EVENT_BLOCK)] + [1] * (steps > EVENT_BLOCK)
                        ref = max_deficit_full_blocks(params, horizon, trial_rng(6, i))
                        for grid in ([], [ref], [float(np.nextafter(ref, math.inf))]):
                            drawn.clear()
                            (got,) = walk_trial([params], horizon, 6, i, grid)
                            assert got == ref, (packet, i, j, horizon, grid)
                            if packet == DET1:  # no packet row drawn
                                assert drawn == [], (i, j, horizon)
                            else:
                                assert drawn == sizes[: len(drawn)] and drawn, (packet, i, j, horizon)

    def test_one_ulp_past_a_block_end_the_last_block_is_one_step(self, monkeypatch):
        # drifting up (rho 0.5), the first block often ends at its running
        # maximum, so a u0 one ulp above D_i stays undecided until the
        # horizon one ulp past T_1024; the walk then draws a single packet
        # (constant packets: none, their sums go on past it).  15 trials a
        # law give at least 15 such walks of the two drawn laws
        drawn, walked = [], 0
        watch_rows(monkeypatch, lambda spec, rng, n: drawn.append(n))
        for packet in (EXP1, DET1, UNIF1):
            params = SystemParams(lam=0.5, packet=packet, p=1.0)
            for i in range(15):
                units = trial_rng(6, i).standard_exponential(EVENT_BLOCK)
                horizon = float(np.nextafter(1.0 / params.lam * np.cumsum(units)[-1], math.inf))
                ref = max_deficit_full_blocks(params, horizon, trial_rng(6, i))
                drawn.clear()
                grid = [float(np.nextafter(ref, math.inf))]
                assert walk_trial([params], horizon, 6, i, grid) == [ref]
                assert drawn in (([],) if packet == DET1 else ([EVENT_BLOCK], [EVENT_BLOCK, 1])), (packet, i)
                walked += drawn == [EVENT_BLOCK, 1]
        assert walked >= 15

    def test_stopped_walk_counts_equal_the_full_walk_oracle(self):
        # horizons end mid-block; the grids are unsorted and repeat a value
        grids = ([12.5, 0.0, 5.0, 5.0, 60.0, 30.0], [40.0, 3.0, 3.0, 0.5])
        for packet in (EXP1, DET1, DistributionSpec(Kind.UNIFORM, 1.0)):
            for lam, horizon in ((0.9, 2000.0), (1.0, 1500.3), (1.1, 2500.0), (1.3, 3100.7)):
                params = SystemParams(lam=lam, packet=packet, p=1.0)
                for grid in grids:
                    expect = count_outages_full_walk(params, horizon, 4, grid, 0, 30)
                    assert _count_range([params], horizon, 4, grid, 0, 30) == [expect], (packet, lam)

    def test_u0_at_the_bound_keeps_the_walk_going(self, monkeypatch):
        # after the first block no later deficit exceeds p * H - A; a u0 at
        # that bound, or within the tie band above it, is not yet decided
        params = mm1(lam=1.1)
        horizon, p = 2500.0, params.p
        blocks, tried = [], 0
        watch_rows(monkeypatch, lambda *args: blocks.append(args))
        for i in range(10):
            rng = trial_rng(5, i)
            gaps = rng.exponential(1.0 / params.lam, EVENT_BLOCK)
            deficits = np.cumsum(p * gaps - sample_block(params.packet, rng, EVENT_BLOCK))
            bound = float(deficits[-1]) + p * (horizon - float(np.cumsum(gaps)[-1]))
            band = simulate._TIE_RTOL * (1.0 + abs(bound))
            if bound <= deficits.max():
                continue  # D_i already decided by the first block
            tried += 1
            for grid, walks_on in (([bound], True), ([bound + 0.5 * band], True), ([bound + 2 * band], False)):
                blocks.clear()
                walk_trial([params], horizon, 5, i, grid)
                assert (len(blocks) > 1) == walks_on, (i, grid)
                expect = count_outages_full_walk(params, horizon, 5, grid, i, i + 1)
                assert _count_range([params], horizon, 5, grid, i, i + 1) == [expect]
        assert tried == 10

    def test_walk_stops_once_every_u0_is_decided(self, monkeypatch):
        # rho 1.1, H = 1000: after one block p * H - A is mostly below u0 = 30
        calls = []
        watch_rows(monkeypatch, lambda *args: calls.append(args))
        _count_range([mm1(lam=1.1)], 1000.0, 7, [30.0], 0, 400)
        assert len(calls) / 400 <= 1.1

    def test_chunk_counts_match_scalar_across_row_blocks(self):
        # one u0 ties trial 1050 exactly, so the replay must find that trial
        params = mm1()
        tie = max_deficit_full_blocks(params, 30.0, trial_rng(3, 1050))
        grid = [0.0, 4.0, tie]
        expect = [
            sum(
                simulate_first_passage(
                    replace(params, u0=u0),
                    30.0,
                    poisson_events(params.lam, params.packet, trial_rng(3, i)),
                ).outage
                for i in range(1100)
            )
            for u0 in grid
        ]
        assert _count_range([params], 30.0, 3, grid, 0, 1100) == [expect]

    def test_replays_exactly_the_cells_in_the_tie_band(self, monkeypatch):
        # the scalar replays the (trial, u0) cells with |u0 - D_i| within the
        # band, no more and no fewer: trial a's band holds only u0 at or above
        # D_i (D_i itself, twice, and half a band above), trial b's only one
        # half a band below, and exp packets of mean 1e308 draw infinite first
        # packets, whose D_i of -inf replays every u0 of the trial
        columns = [mm1(lam=1.1), SystemParams(1.1, DET1, 1.0),
                   SystemParams(1.0, DistributionSpec(Kind.EXPONENTIAL, 1e308), 1.0)]
        horizon, seed, trials = 300.0, 3, 40

        def band(params, d):
            return simulate._TIE_RTOL * (params.p / params.lam + abs(d))

        full = [[max_deficit_full_blocks(c, horizon, trial_rng(seed, i)) for c in columns[:2]]
                for i in range(trials)]
        a = next(i for i in range(trials) if full[i][0] > 1.0)
        b = next(i for i in range(trials) if full[i][1] > 1.0 and i != a)
        da, db = full[a][0], full[b][1]
        grid = [30.0, da, da + 0.5 * band(columns[0], da), 0.0, db - 0.5 * band(columns[1], db), da, 5.0]
        deficits = _max_deficits(columns, horizon, seed, 0, trials, sorted(grid))
        assert (deficits[a, 0], deficits[b, 1]) == (da, db)
        assert np.isneginf(deficits[:, 2]).any()
        expect = collections.Counter(
            (k, t, u0)
            for k, params in enumerate(columns)
            for t, d in enumerate(deficits[:, k].tolist())
            for u0 in grid
            if abs(u0 - d) <= band(params, d)
        )
        assert {u0 for k, t, u0 in expect if (k, t) == (0, a)} == {da, grid[2]}
        assert {u0 for k, t, u0 in expect if (k, t) == (1, b)} == {grid[4]}

        replays, index = collections.Counter(), []
        rng, scalar = simulate.trial_rng, simulate.simulate_first_passage

        def trial_rng_(seed, i):
            index.append(int(i))
            return rng(seed, i)

        def replay(params, horizon, events):
            replays[columns.index(replace(params, u0=0.0)), index[-1], params.u0] += 1
            return scalar(params, horizon, events)

        monkeypatch.setattr(simulate, "trial_rng", trial_rng_)
        monkeypatch.setattr(simulate, "simulate_first_passage", replay)
        _count_range(columns, horizon, seed, grid, 0, trials)
        assert replays == expect

    @staticmethod
    def _counted_cells():
        # (grid, maxima) cases for three columns whose tie bands differ: about
        # 1e-8 (p / lam near 1) and 1e-6 (p / lam = 1000) at D_i near 10
        up, down = (lambda u: math.nextafter(u, math.inf)), (lambda u: math.nextafter(u, -math.inf))
        rng = np.random.default_rng(7)
        grid = rng.integers(0, 10, 12).astype(float).tolist()
        near = [u + f for u in grid for f in (0.0, 5e-7, -5e-7, 5e-9)]
        drawn = [*near, *map(up, grid), *map(down, grid), *rng.uniform(-1.0, 11.0, 40), math.inf, -math.inf]
        return {
            "infinite": ([30.0, 0.0, 12.5, 5.0], [math.inf, -math.inf, 0.0, 7.0, 30.0, 31.0, 13.5]),
            "at_and_beside": ([4.0, 0.0, 10.0, 2.5], [f(u) for u in (4.0, 0.0, 10.0, 2.5) for f in (float, up, down)]),
            "repeated": ([6.0, 2.0, 6.0, 0.0, 2.0, 6.0], [6.0, 2.0, 0.0, 4.0, 7.0, down(6.0), up(2.0), -1.0]),
            "column_rates": ([10.0, 3.0, 20.0], [10.0 + 1e-7, 3.0 - 1e-7, 20.0 + 1e-7, 15.0]),
            "wide_band": ([20.0, 20.0 + 3e-7, 20.0 - 4e-7, 20.0 + 2e-6, 19.0, 21.0], [20.0 + 1e-7, 19.0, 21.5]),
            "drawn": (grid, rng.permutation(drawn).tolist()),
        }

    @pytest.mark.parametrize("case", ["infinite", "at_and_beside", "repeated", "column_rates", "wide_band", "drawn"])
    def test_all_column_count_equals_the_per_column_count(self, monkeypatch, case):
        # every column counted by one search and one histogram, every tie
        # band by one pass, against the count one column at a time, on the
        # same (trial, column) maxima; each column sees each maximum
        grid, values = self._counted_cells()[case]
        columns = [mm1(), SystemParams(1e-3, DET1, 1.0), SystemParams(0.5, UNIF1, 1.0)]
        deficits = np.stack([np.roll(values, k) for k in range(len(columns))], axis=1)
        horizon, seed, lo = 100.0, 4, 3
        replays = []

        def decide(params, horizon, events):  # an outcome that disagrees with u0 <= D_i at some cells
            cell = (columns.index(replace(params, u0=0.0)), events, params.u0)
            replays.append(cell)
            return simulate.TrialOutcome(hash(cell) % 2 == 0, None, 0)

        monkeypatch.setattr(simulate, "_max_deficits", lambda cs, h, sd, a, b, grid: deficits[a - lo : b - lo].copy())
        monkeypatch.setattr(simulate, "trial_rng", lambda seed, i: int(i))
        monkeypatch.setattr(simulate, "poisson_events", lambda lam, packet, rng: rng)
        monkeypatch.setattr(simulate, "simulate_first_passage", decide)
        expect = kernel_oracle.count_per_column(columns, horizon, seed, grid, lo, deficits)
        expect_replays, replays[:] = collections.Counter(replays), []
        assert _count_range(columns, horizon, seed, grid, lo, lo + len(values)) == expect
        assert collections.Counter(replays) == expect_replays and expect_replays

    def test_counting_memory_does_not_grow_with_the_grid(self):
        # 1024 trials against 10 000 u0 took 175 MB when a block of 1024
        # trials met the whole grid at once
        grid = np.linspace(0.0, 10.0, 10_000).tolist()
        tracemalloc.start()
        try:
            estimate_outage_curves([mm1()], 5.0, 1024, 3, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    @pytest.mark.usefixtures("fresh_pool")
    def test_failed_column_cancels_the_queued_tasks(self, monkeypatch):
        # one worker: the first task fails, the second blocks until shutdown
        # and the third is cancelled
        ran, gate = [], threading.Event()

        def count(*args):
            ran.append(args)
            if len(ran) == 1:
                raise RuntimeError("boom")
            gate.wait(10.0)
            return [0]

        class OneThread(ThreadPoolExecutor):
            def __init__(self, workers):
                super().__init__(1)

            def shutdown(self, *args, **kwargs):
                gate.set()
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(simulate, "_count_range", count)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OneThread)
        # one task per trial chunk, each holding every column
        columns = [SystemParams(1.1, packet, 1.0) for packet in (EXP1, DET1, UNIF1)]
        with pytest.raises(RuntimeError):
            estimate_outage_curves(columns, 50.0, 10, 0, [0.0], 3)
        # the shutdown releases the blocked task and runs every task not cancelled
        simulate._shutdown_pool()
        assert len(ran) <= 2  # of three tasks

    @pytest.mark.usefixtures("fresh_pool")
    @pytest.mark.parametrize("workers", [None, 1])
    def test_one_chunk_builds_no_pool(self, monkeypatch, workers):
        def no_pool(*args):
            raise AssertionError("pool built")

        grid = [0.0, 3.0]
        columns = [mm1(), SystemParams(1.2, DET1, 1.0)]
        expect = [estimate_outage_curves([c], 100.0, 30, 2, grid)[0] for c in columns]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert estimate_outage_curves(columns, 100.0, 30, 2, grid, workers) == expect
        assert simulate._POOLS == {}

    def test_curve_arguments_are_checked_at_the_call(self):
        columns = [mm1()]
        with pytest.raises(PreconditionError):
            estimate_outage_curves(columns, math.inf, 10, 0, [0.0])
        with pytest.raises(ValueError):
            estimate_outage_curves(columns, 50.0, 10, 0, [-1.0])

    def test_u0_at_max_deficit_is_decided_by_scalar(self, monkeypatch):
        params = mm1()
        scalar = simulate.simulate_first_passage
        replays = []
        monkeypatch.setattr(
            simulate,
            "simulate_first_passage",
            lambda *args: replays.append(args) or scalar(*args),
        )
        tried = 0
        for i in range(10):
            deficit = max_deficit_full_blocks(params, 300.0, trial_rng(3, i))
            if deficit < 0.0:
                continue
            tried += 1
            events = poisson_events(params.lam, params.packet, trial_rng(3, i))
            expect = scalar(replace(params, u0=deficit), 300.0, events).outage
            assert _count_range([params], 300.0, 3, [deficit], i, i + 1) == [[int(expect)]]
        assert tried > 0 and len(replays) == tried

    def test_exact_tie_counts_as_an_outage(self):
        # det packets: trial 343 ends with a ramp capped at the horizon whose
        # deficit p * H - A_J = 80 - 46 is exactly 34.0, so the surplus
        # reaches zero at tau = (34 + 46) / 2 = 40.0 = H.  A running time
        # summed in floats rounds past H here and misses the outage.
        params = SystemParams(lam=1.0, packet=DET1, p=2.0, u0=34.0)
        assert walk_trial([params], 40.0, 8, 343, [34.0]) == [34.0]
        assert max_deficit_full_blocks(params, 40.0, trial_rng(8, 343)) == 34.0
        assert exact_max_deficit(params, 40.0, trial_rng(8, 343)) == 34
        out = simulate_first_passage(params, 40.0, poisson_events(1.0, DET1, trial_rng(8, 343)))
        assert out.outage is True
        assert out.tau == 40.0
        assert _count_range([params], 40.0, 8, [34.0], 343, 344) == [[1]]

    def test_outage_at_the_horizon_of_a_benchmark_trial_counts(self):
        # det, rho 1.02, seed 292, trial 11909: p * H - A_J = 1000 - 970 = 30 = u0
        params = SystemParams(lam=1.02, packet=DET1, p=1.0, u0=30.0)
        assert exact_max_deficit(params, 1000.0, trial_rng(292, 11909)) == 30
        out = simulate_first_passage(params, 1000.0, poisson_events(1.02, DET1, trial_rng(292, 11909)))
        assert out.outage is True
        assert out.tau == 1000.0
        assert _count_range([params], 1000.0, 292, [30.0], 11909, 11910) == [[1]]


@pytest.mark.skipif(not Path("/proc/self").is_dir(), reason="reads /proc")
class TestWorkerPool:
    """The process's one worker pool, each case in a fresh interpreter."""

    PRELUDE = (
        "import json, multiprocessing, os, signal, sys, time\n"
        "from hsc import DistributionSpec, Kind, SystemParams, estimate_outage_curves\n"
        "columns = [SystemParams(lam, DistributionSpec(kind, 1.0), 1.0)\n"
        "           for kind in (Kind.EXPONENTIAL, Kind.DETERMINISTIC) for lam in (1.1, 1.3)]\n"
        "def curves(workers=None):\n"
        "    return estimate_outage_curves(columns, 200.0, 40, 3, [0.0, 5.0], workers)\n"
        "def pids():\n"
        "    return sorted(p.pid for p in multiprocessing.active_children())\n"
        "serial = curves()\n"
    )

    def run(self, code):
        # the script asserts its counts against `serial` and prints its pids;
        # on a timeout its whole session goes, workers and forked children too
        src = str(Path(simulate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        with subprocess.Popen(
            [sys.executable, "-c", self.PRELUDE + code], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                raise
        assert proc.returncode == 0, err
        return json.loads(out)

    def test_one_pool_serves_every_call_and_ends_with_the_process(self):
        served = self.run(
            "seen = []\n"
            "for _ in range(2):\n"
            "    assert curves(2) == serial\n"
            "    seen.append(pids())\n"
            "print(json.dumps(seen))\n"
        )
        assert served[0] == served[1]
        assert len(served[0]) == min(2, os.cpu_count() or 1)
        assert not any(Path(f"/proc/{pid}").exists() for pid in served[0])

    def test_a_killed_worker_costs_one_new_pool(self):
        # the call after the kill gets the serial counts from a new pool, and
        # later calls reuse that pool rather than fail on the broken one
        served = self.run(
            "assert curves(2) == serial\n"
            "seen = [pids()]\n"
            "os.kill(seen[0][0], signal.SIGKILL)\n"
            # until it is reaped, the killed worker stays among the children
            "deadline = time.monotonic() + 30\n"
            "while seen[0][0] in pids() and time.monotonic() < deadline:\n"
            "    time.sleep(0.01)\n"
            # the broken pool's other workers end while its replacement serves:
            # until each is reaped it is listed beside the new pool's
            "def settled():\n"
            "    deadline = time.monotonic() + 30\n"
            "    while set(pids()) & set(seen[0]) and time.monotonic() < deadline:\n"
            "        time.sleep(0.01)\n"
            "    return pids()\n"
            "for _ in range(2):\n"
            "    assert curves(2) == serial\n"
            "    seen.append(settled())\n"
            "print(json.dumps(seen))\n"
        )
        killed, after, later = served
        assert after == later
        assert len(after) == len(killed)
        assert set(after).isdisjoint(killed)

    def test_a_forked_child_opens_its_own_pool(self):
        # the parent's pool threads do not exist in the child, so queueing
        # on that pool would wait forever; sys.exit lets the child join its own
        assert self.run(
            "assert curves(2) == serial\n"
            "child = os.fork()\n"
            "if child == 0:\n"
            "    sys.exit(0 if curves(2) == serial else 1)\n"
            "assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0\n"
            "assert curves(2) == serial\n"
            "print(json.dumps(pids()))\n"
        )

    def test_a_child_forked_while_another_thread_holds_the_lock_opens_its_pool(self):
        # the child's copy of a held lock stays held unless it gets a new one
        assert self.run(
            "import threading\n"
            "from hsc import simulate\n"
            "held, release = threading.Event(), threading.Event()\n"
            "def hold():\n"
            "    with simulate._POOL_LOCK:\n"
            "        held.set()\n"
            "        release.wait()\n"
            "holder = threading.Thread(target=hold)\n"
            "holder.start()\n"
            "held.wait()\n"
            "child = os.fork()\n"
            "if child == 0:\n"
            "    sys.exit(0 if curves(2) == serial else 1)\n"
            "release.set()\n"
            "holder.join()\n"
            "assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0\n"
            "assert curves(2) == serial\n"
            "print(json.dumps(pids()))\n"
        )


BITS = 200  # every draw here is a multiple of 2**-BITS


def exact_max_deficit(params, horizon, rng):
    """D_i of rng's stream (its gaps and packets as poisson_events yields
    them) in exact arithmetic: sums are kept as integers in units of
    2**-BITS, the deficits as fractions."""
    gaps, packets = [], []
    while sum(block.sum() for block in gaps) <= 1.001 * horizon:
        gaps.append(rng.exponential(1.0 / params.lam, EVENT_BLOCK))
        packets.append(sample_block(params.packet, rng, EVENT_BLOCK))

    def running_sum(blocks):
        scaled = np.ldexp(np.concatenate(blocks), BITS)
        assert (np.floor(scaled) == scaled).all()
        return list(itertools.accumulate(map(int, scaled.tolist())))

    ends, energy = running_sum(gaps), running_sum(packets)  # T_{j+1} and A_j
    last = bisect.bisect_left(ends, Fraction(horizon) * 2**BITS)  # first ramp reaching H
    pn, pd = params.p.as_integer_ratio()
    cut = Fraction(params.p) * Fraction(horizon) - Fraction(energy[last], 2**BITS)
    if last == 0:
        return cut
    top = max(pn * t - pd * a for t, a in zip(ends[:last], energy[:last]))
    return max(cut, Fraction(top, pd * 2**BITS))


class TestWalkRounding:
    def test_deficits_are_within_a_hundredth_of_the_tie_band(self):
        # the block sums (p / lam) * cumsum(units) - cumsum(packets) and the
        # carried offset against D_i in exact arithmetic
        worst = 0.0
        for packet in (EXP1, DET1, UNIF1):
            for rho in (0.9, 1.0, 1.02, 1.3):
                params = SystemParams(lam=rho, packet=packet, p=1.0)
                for horizon in (1e3, 1e4, 1e5):
                    exact = exact_max_deficit(params, horizon, trial_rng(21, 2))
                    (got,) = walk_trial([params], horizon, 21, 2, [float(exact)])
                    worst = max(worst, abs(Fraction(got) - exact) / (1 + abs(exact)))
        assert worst <= 1e-11 <= simulate._TIE_RTOL / 100

    @pytest.mark.parametrize("lam", [1e-8, 1e-12, 1e-20])
    def test_deficits_where_lam_h_is_small(self, lam):
        # the first ramp passes H = 5, so D_i = p * H - A_0; a ramp cut by
        # subtracting p * (T_1 - H) from p * T_1 loses the packet when lam * H
        # is small
        for packet in (EXP1, DET1, UNIF1):
            params = SystemParams(lam=lam, packet=packet, p=1.0)
            for i in range(20):
                exact = exact_max_deficit(params, 5.0, trial_rng(3, i))
                (got,) = walk_trial([params], 5.0, 3, i, [])
                assert abs(Fraction(got) - exact) <= simulate._TIE_RTOL / 100 * (1 + abs(exact))


class TestExactFirstPassage:
    def test_outage_iff_u0_is_at_most_the_exact_deficit(self):
        # u0 at D_i itself (rounded to a double) and on the integer lattice
        # next to it, where det packets put exact ties at p * H - A_J
        ties = outages = 0
        for packet in (EXP1, DET1, UNIF1):
            for p in (1.0, 2.0, 0.37):
                params = SystemParams(lam=0.9 * p, packet=packet, p=p)
                for horizon in (20.0, 200.0, 1000.0):
                    for i in range(6):
                        deficit = exact_max_deficit(params, horizon, trial_rng(5, i))
                        for u0 in {float(deficit), math.floor(deficit), math.floor(deficit) + 1.0}:
                            if u0 < 0.0:
                                continue
                            events = poisson_events(params.lam, packet, trial_rng(5, i))
                            out = simulate_first_passage(replace(params, u0=u0), horizon, events)
                            assert out.outage == (u0 <= deficit), (packet, p, horizon, i, u0)
                            ties += u0 == deficit
                            outages += out.outage
        assert ties > 0 and 0 < outages


class TestSharedWalk:
    """Columns of one packet law walk each trial's stream once, together."""

    RHOS = (0.9, 1.0, 1.02, 1.3)

    @staticmethod
    def group(packet, rhos=RHOS):
        return [SystemParams(lam=rho, packet=packet, p=1.0) for rho in rhos]

    @staticmethod
    def check_group_equals_single_columns(columns, horizon, seed, i):
        # for the empty grid and each column's D_i and the next double above it
        full = [max_deficit_full_blocks(c, horizon, trial_rng(seed, i)) for c in columns]
        grids = [[]] + [[d] for d in full] + [[float(np.nextafter(d, math.inf))] for d in full]
        for grid in grids:
            got = walk_trial(columns, horizon, seed, i, grid)
            single = [walk_trial([c], horizon, seed, i, grid)[0] for c in columns]
            assert got == single, (horizon, i, grid)
            for d, g in zip(full, got):
                assert [u0 <= g for u0 in grid] == [u0 <= d for u0 in grid]
        for k, d in enumerate(full):  # a u0 one ulp above D_i walks that column to the end
            assert walk_trial(columns, horizon, seed, i, grids[-len(full) + k])[k] == d

    def test_group_equals_single_column_walks(self):
        # H = 1e4 takes several blocks at every rho here
        for packet in (EXP1, DET1, UNIF1):
            columns = self.group(packet)
            for horizon in (37.5, 1000.0, 3000.0, 1e4):
                for i in range(6):
                    self.check_group_equals_single_columns(columns, horizon, 13, i)

    def test_group_equals_single_columns_with_h_at_a_block_end_arrival(self):
        # H at T_1023 or T_1024 of one column, and one ulp either side; the
        # other columns cut their blocks elsewhere
        for packet in (EXP1, DET1, UNIF1):
            columns = self.group(packet)
            for k, params in enumerate(columns):
                for i in range(2):
                    units = trial_rng(6, i).standard_exponential(EVENT_BLOCK)
                    ends = 1.0 / params.lam * np.cumsum(units)
                    for j in (EVENT_BLOCK - 2, EVENT_BLOCK - 1):
                        arrival = float(ends[j])
                        for horizon in (float(np.nextafter(arrival, 0.0)), arrival,
                                        float(np.nextafter(arrival, math.inf))):
                            self.check_group_equals_single_columns(columns, horizon, 6, i)

    def test_group_counts_equal_the_full_walk_oracle(self):
        grid = [12.5, 0.0, 5.0, 5.0, 60.0, 30.0]
        for packet in (EXP1, DET1, UNIF1):
            columns = self.group(packet)
            for horizon in (1500.3, 3100.7):
                expect = [count_outages_full_walk(c, horizon, 4, grid, 0, 30) for c in columns]
                assert _count_range(columns, horizon, 4, grid, 0, 30) == expect, (packet, horizon)

    def test_one_draw_per_block_serves_the_group(self, monkeypatch):
        # four columns at rho 1.1, all decided after about one block: one
        # column alone draws about 1.04 blocks per trial here
        calls = []
        watch_rows(monkeypatch, lambda *args: calls.append(args))
        columns = [SystemParams(lam=1.1 * p, packet=EXP1, p=p) for p in (0.25, 0.5, 0.75, 1.0)]
        counts = _count_range(columns, 1000.0, 7, [30.0], 0, 400)
        assert len(calls) / 400 <= 1.1
        monkeypatch.undo()
        assert counts == [_count_range([c], 1000.0, 7, [30.0], 0, 400)[0] for c in columns]

    @pytest.mark.usefixtures("fresh_pool")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_interleaved_families_yield_in_column_order(self, monkeypatch, workers):
        # exp, det, exp, unif: the two exp columns walk together, and every
        # law of a trial chunk is one task
        columns = [
            SystemParams(1.1, EXP1, 1.0),
            SystemParams(1.2, DET1, 1.0),
            SystemParams(1.3, EXP1, 1.0),
            SystemParams(1.05, UNIF1, 1.0),
        ]
        grid = [0.0, 4.0, 10.0]
        expect = [estimate_outage_curves([c], 300.0, 40, 5, grid)[0] for c in columns]
        tasks = []
        count = simulate._count_range
        monkeypatch.setattr(
            simulate, "_count_range", lambda cols, *args: tasks.append((cols, args[-2:])) or count(cols, *args)
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
        curves = list(estimate_outage_curves(columns, 300.0, 40, 5, grid, workers))
        assert curves == expect
        chunks = [(0, 40)] if workers == 1 else [(0, 20), (20, 40)]
        assert sorted(tasks) == [(columns, chunk) for chunk in chunks]  # one task per chunk


class TestSharedFirstBlock:
    """The packet laws of a call walk from each trial's one first unit block."""

    # interleaved laws, each at its own lam (rho 1.1 and 0.9 at means 0.5, 2
    # and 1.3); exp packets of mean 1e308 are infinite about a sixth of the time
    COLUMNS = [
        SystemParams(2.2, DistributionSpec(Kind.EXPONENTIAL, 0.5), 1.0),
        SystemParams(0.55, DistributionSpec(Kind.DETERMINISTIC, 2.0), 1.0),
        SystemParams(1.1e-308, DistributionSpec(Kind.EXPONENTIAL, 1e308), 1.0),
        SystemParams(1.8, DistributionSpec(Kind.EXPONENTIAL, 0.5), 1.0),
        SystemParams(1.1 / 1.3, DistributionSpec(Kind.UNIFORM, 1.3), 1.0),
        SystemParams(0.45, DistributionSpec(Kind.DETERMINISTIC, 2.0), 1.0),
    ]
    GRID = [0.0, 5.0, 30.0]

    @pytest.mark.parametrize("horizon", [20.0, 1000.0])
    def test_laws_equal_their_own_walks_bit_for_bit(self, horizon):
        # one trial; a range across batches; one across the first-block runs
        assert simulate._RUN == 64 and simulate._ROWS == 16
        for lo, hi in ((0, 1), (5, 40), (250, 530)):
            got = _max_deficits(self.COLUMNS, horizon, 3, lo, hi, self.GRID)
            expect = np.empty_like(got)
            for packet in {c.packet for c in self.COLUMNS}:
                ks = [k for k, c in enumerate(self.COLUMNS) if c.packet == packet]
                expect[:, ks] = _max_deficits([self.COLUMNS[k] for k in ks], horizon, 3, lo, hi, self.GRID)
            assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist(), (lo, hi)
        # D_i is -inf where the first packet is infinite
        assert np.isneginf(got[:, 2]).any() and np.isfinite(got[:, 2]).any()

    def test_walks_give_their_generators_back(self):
        _max_deficits(self.COLUMNS, 1000.0, 3, 0, 300, self.GRID)
        spare = len(simulate._SPARE_RNGS)
        _max_deficits(self.COLUMNS, 1000.0, 3, 0, 300, self.GRID)
        assert len(simulate._SPARE_RNGS) == spare

    @pytest.mark.usefixtures("fresh_pool")
    def test_pooled_curves_equal_the_serial_curves(self):
        serial = estimate_outage_curves(self.COLUMNS, 1000.0, 300, 4, self.GRID)
        assert estimate_outage_curves(self.COLUMNS, 1000.0, 300, 4, self.GRID, workers=2) == serial


class TestBatchedWalk:
    """The batched walk against the per-trial oracle, bit for bit."""

    COLUMN_SETS = ([1.1], [1.1, 1.2, 1.3], [0.9, 1.02, 1.1, 1.3])
    GRIDS = ([], [30.0], [float(u) for u in range(0, 41, 2)])

    @staticmethod
    def oracle(columns, horizon, seed, lo, hi, grid):
        return np.array(
            [kernel_oracle._max_deficit(columns, horizon, trial_rng(seed, i), grid) for i in range(lo, hi)]
        )

    @staticmethod
    def assert_bits_equal(got, expect):
        assert got.shape == expect.shape
        assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist()

    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    @pytest.mark.parametrize("horizon", [20.0, 1000.0])
    def test_rows_equal_the_per_trial_oracle(self, packet, horizon):
        # one trial; a range across two batch edges, where trials that walk
        # on share batches with new ones; a chunk starting past a batch
        rows = simulate._ROWS
        ranges = ((0, 1), (5, 5 + 2 * rows + 3), (3 * rows + 1, 4 * rows + 6))
        for rhos in self.COLUMN_SETS:
            columns = [SystemParams(lam=rho, packet=packet, p=1.0) for rho in rhos]
            for grid in self.GRIDS:
                for lo, hi in ranges:
                    got = _max_deficits(columns, horizon, 3, lo, hi, grid)
                    self.assert_bits_equal(got, self.oracle(columns, horizon, 3, lo, hi, grid))

    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    def test_runs_mix_first_block_ends_with_walks_that_go_on(self, monkeypatch, packet):
        # at H 3000 some walks end in their first block and some go on; 2 *
        # _RUN + 9 trials from trial 5 cross two run edges and end on a part
        # batch, so the walks that go on from one run share batches with
        # those of the next
        blocks, sample = [], kernel_oracle.sample_block
        monkeypatch.setattr(kernel_oracle, "sample_block", lambda *args: blocks.append(1) or sample(*args))
        columns = [SystemParams(lam=rho, packet=packet, p=1.0) for rho in (1.02, 1.3)]
        lo, hi = 5, 5 + 2 * simulate._RUN + 9
        for grid in ([0.0], [0.0, 5.0]):  # a walk whose maximum passes every u0 stops
            got = _max_deficits(columns, 3000.0, 3, lo, hi, grid)
            expect, walked = [], []
            for i in range(lo, hi):
                blocks.clear()
                expect.append(kernel_oracle._max_deficit(columns, 3000.0, trial_rng(3, i), grid))
                walked.append(len(blocks))
            assert 1 in walked and max(walked) > 1, walked
            self.assert_bits_equal(got, np.array(expect))

    @pytest.mark.usefixtures("fresh_pool")
    def test_threads_sharing_spare_generators_keep_every_count(self, monkeypatch):
        # more threads than cores, switching often: a generator handed to two
        # trials at once would move one trial's stream and change its count
        columns = [SystemParams(lam, packet, 1.0) for packet in (EXP1, UNIF1) for lam in (1.02, 1.1)]
        grid = [0.0, 5.0, 30.0]
        serial = estimate_outage_curves(columns, 3000.0, 96, 4, grid)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = estimate_outage_curves(columns, 3000.0, 96, 4, grid, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_horizon_at_a_unit_sum_cuts_the_walk_there(self, monkeypatch):
        # lam * H at a unit sum U_j of the first or second block, and one ulp
        # either side: the walk clamps the ramps from about U_j on, draws j + 1
        # or j + 2 of that block's packets, and gives D_i bit for bit as the
        # oracle does and within a hundredth of the tie band of exact D_i
        drawn = []
        watch_rows(monkeypatch, lambda spec, rng, n: drawn.append(n))
        rng = np.random.default_rng(0)
        cuts = [0, 0]  # walks that drew the cut block, by block
        for i in range(40):
            packet = (EXP1, DET1, UNIF1)[i % 3]
            lam = float(rng.choice([1.1, 0.3, 3.7, 1e-3, 1.02, 1.0 / 3.0]))
            params = SystemParams(lam, packet, 1.0)
            stream = trial_rng(7, i)
            first = np.cumsum(stream.standard_exponential(EVENT_BLOCK))
            sample_block(packet, stream, EVENT_BLOCK)
            second = float(first[-1]) + np.cumsum(stream.standard_exponential(EVENT_BLOCK))
            block = i % 2
            j = int(rng.integers(1, EVENT_BLOCK - 1))
            at = float((first, second)[block][j])
            for reach in (float(np.nextafter(at, 0.0)), at, float(np.nextafter(at, math.inf))):
                horizon = reach / lam
                while lam * horizon < reach:
                    horizon = float(np.nextafter(horizon, math.inf))
                while lam * horizon > reach:
                    horizon = float(np.nextafter(horizon, 0.0))
                if lam * horizon != reach:
                    continue  # no double H has fl(lam * H) == reach
                exact = exact_max_deficit(params, horizon, trial_rng(7, i))
                grid = [float(exact)]
                drawn.clear()
                (got,) = walk_trial([params], horizon, 7, i, grid)
                assert [got] == kernel_oracle._max_deficit([params], horizon, trial_rng(7, i), grid)
                assert abs(Fraction(got) - exact) <= simulate._TIE_RTOL / 100 * (1 + abs(exact))
                if len(drawn) == block + 1:
                    assert drawn[-1] in (j + 1, j + 2), (i, lam, j, reach, drawn)
                    cuts[block] += 1
        assert min(cuts) >= 15

    def test_tiny_rate_warns_nowhere_and_equals_the_oracle(self):
        # at lam = 1e-306, lam * H = 5e-306 lies below the first unit sum, so
        # the clamp holds every ramp at the horizon before the multiply by
        # p / lam = 1e306, and no cell overflows; once the column stops, its
        # room is the least double, whose product with p / lam is finite. The
        # second column walks its whole block beside it. The oracle, in the
        # same arithmetic, warns nowhere either
        grid = [0.0, 1.0]
        for columns in ([SystemParams(1e-306, EXP1, 1.0)],
                        [SystemParams(1e-306, UNIF1, 1.0), SystemParams(0.5, UNIF1, 1.0)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _max_deficits(columns, 5.0, 1, 0, 20, grid)
            self.assert_bits_equal(got, self.oracle(columns, 5.0, 1, 0, 20, grid))


    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    def test_rooms_are_at_least_the_least_double(self, packet):
        # at lam = 1e-300 and H = 1e-30, lam * H underflows to 0, so each
        # room is the least double, 5e-324 units, and every first ramp is
        # 5e-324 * p / lam, about 4.9e-24 at p = 1, far above packets of mean
        # 1e-30: each D_i is positive, as the oracle forms it.  A room of 0
        # would make every D_i minus the first packet
        packet = replace(packet, mean=1e-30)
        columns = [SystemParams(1e-300, packet, 1.0), SystemParams(1e-300, packet, 0.25)]
        assert columns[0].lam * 1e-30 == 0.0
        got = _max_deficits(columns, 1e-30, 1, 0, 20, [0.0])
        self.assert_bits_equal(got, self.oracle(columns, 1e-30, 1, 0, 20, [0.0]))
        assert (got > 1e-24).all()

def scalar_counts(params, horizon, seed, grid, trials):
    """Outages of trials ``[0, trials)`` for each u0, by the exact scalar."""
    return [
        sum(
            simulate_first_passage(
                replace(params, u0=u0),
                horizon,
                poisson_events(params.lam, params.packet, trial_rng(seed, i)),
            ).outage
            for i in range(trials)
        )
        for u0 in grid
    ]


class TestConstantPackets:
    """Deterministic packets: the deficit walk sums one row of them per
    call, draws and scales no packet row, and equals the per-trial oracle,
    which draws each block's packets and zeroes them past the horizon, bit
    for bit."""

    COLUMNS = [SystemParams(lam, DET1, 1.0) for lam in (0.9, 1.02, 1.1, 1.3)]

    @staticmethod
    def walk(columns, horizon, seed, lo, hi, grid):
        """The walk's ``D_i``, once it has drawn and scaled no packet row."""
        drawn, scaled = [], []
        scale = simulate.scale_block
        with pytest.MonkeyPatch.context() as mp:
            watch_rows(mp, lambda *args: drawn.append(args))
            mp.setattr(simulate, "scale_block", lambda *args: scaled.append(args) or scale(*args))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _max_deficits(columns, horizon, seed, lo, hi, grid)
        assert drawn == [] and scaled == []
        return got

    @staticmethod
    def oracle(columns, horizon, seed, lo, hi, grid):
        return np.array(
            [kernel_oracle._max_deficit(columns, horizon, trial_rng(seed, i), grid) for i in range(lo, hi)]
        )

    @pytest.mark.parametrize("horizon", [1000.0, 2500.0])
    def test_columns_of_one_law_across_run_and_batch_edges(self, horizon):
        # one trial, and 2 * _RUN + 9 trials from trial 5, which cross two
        # run edges and end on a part batch
        for lo, hi in ((0, 1), (5, 5 + 2 * simulate._RUN + 9)):
            for grid in ([], [30.0], [float(u) for u in range(0, 41, 2)]):
                got = self.walk(self.COLUMNS, horizon, 3, lo, hi, grid)
                expect = self.oracle(self.COLUMNS, horizon, 3, lo, hi, grid)
                assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist(), (lo, grid)

    def test_each_walk_draws_the_oracles_unit_blocks(self, monkeypatch):
        # constant packets take no draw, so a trial's generator, given back
        # when its walk ends, has drawn only its blocks of units: as many as
        # the oracle's walk of the same trial, whose generator has drawn them too
        blocks, sample = [], kernel_oracle.sample_block
        monkeypatch.setattr(kernel_oracle, "sample_block", lambda *args: blocks.append(1) or sample(*args))
        grid = [float(u) for u in range(0, 41, 2)]
        walked = set()
        for horizon in (1000.0, 2500.0):
            for i in range(30):
                blocks.clear()
                ref = trial_rng(3, i)
                kernel_oracle._max_deficit(self.COLUMNS, horizon, ref, grid)
                _max_deficits(self.COLUMNS, horizon, 3, i, i + 1, grid)
                assert simulate._SPARE_RNGS[-1].bit_generator.state == ref.bit_generator.state, (horizon, i)
                walked.add(len(blocks))
        assert 1 in walked and max(walked) >= 3, walked  # walks that end in their first block and that go on

    def test_a_final_block_cut_with_several_live_columns(self, monkeypatch):
        # rho 0.9, 0.92 and 0.94 drift up, so with a u0 at every unit each
        # column walks on to its horizon, 2250, 2300 and 2350 units in at H
        # 2500: all three reach their rooms at different steps of the third
        # block, and the row's packet sums go on past each of them
        columns = [SystemParams(lam, DET1, 1.0) for lam in (0.9, 0.92, 0.94)]
        grid = [float(u) for u in range(0, 2501)]
        blocks, sample = [], kernel_oracle.sample_block
        monkeypatch.setattr(
            kernel_oracle, "sample_block", lambda spec, rng, n: blocks.append(n) or sample(spec, rng, n)
        )
        for i in range(20):
            for params in columns:  # each column alone walks into the third block and stops in it
                blocks.clear()
                kernel_oracle._max_deficit([params], 2500.0, trial_rng(4, i), grid)
                assert len(blocks) == 3 and blocks[-1] < EVENT_BLOCK, (params.lam, i, blocks)
        got = self.walk(columns, 2500.0, 4, 0, 20, grid)
        assert got.view(np.uint64).tolist() == self.oracle(columns, 2500.0, 4, 0, 20, grid).view(np.uint64).tolist()

    def test_at_a_walk_scale_above_1(self):
        # packets of mean 2**1014 at p = 2**1013 (rho 2 lam): the walk counts
        # energy in units of 2**114, where its packet row is 2**900 a step,
        # and its D_i are the oracle's at the model scaled by 2**-114
        columns = [SystemParams(lam, DistributionSpec(Kind.DETERMINISTIC, 2.0**1014), 2.0**1013)
                   for lam in (0.5, 0.51, 0.55, 0.65)]
        assert {simulate._scales(params) for params in columns} == {(114, 0)}
        grid = [0.0, 2.0**1013, 2.0**1016]
        got = self.walk(columns, 2500.0, 1, 0, 40, grid)
        expect = self.oracle([_scaled(params, -114) for params in columns], 2500.0, 1, 0, 40,
                             [math.ldexp(u0, -114) for u0 in grid])
        assert np.isfinite(got).all()
        assert got.view(np.uint64).tolist() == np.ldexp(expect, 114).view(np.uint64).tolist()


class TestTinyRates:
    """Counts where lam * H is small or p / lam leaves the double range."""

    GRID = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 4.9]

    @pytest.mark.parametrize("lam", [1e-20, 1e-300])
    def test_counts_equal_the_scalar_where_lam_h_is_small(self, lam):
        for packet in (EXP1, DET1, UNIF1):
            params = SystemParams(lam=lam, packet=packet, p=1.0)
            (curve,) = estimate_outage_curves([params], 5.0, 200, 1, self.GRID)
            counts = [round(est.estimate * 200) for est in curve]
            assert counts == scalar_counts(params, 5.0, 1, self.GRID, 200), packet

    @pytest.mark.parametrize("lam", [1e-310, 5e-324])
    @pytest.mark.parametrize("horizon", [0.5, 5.0])
    def test_subnormal_rates_warn_nowhere_and_go_to_the_scalar(self, lam, horizon):
        # p / lam overflows, so D_i is +inf and every u0 goes to the scalar;
        # at lam = 5e-324 and H = 0.5, lam * H underflows to zero as well
        for packet in (EXP1, DET1, UNIF1):
            params = SystemParams(lam=lam, packet=packet, p=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                (counts,) = _count_range([params], horizon, 1, self.GRID, 0, 50)
            assert counts == scalar_counts(params, horizon, 1, self.GRID, 50), packet

    def test_a_column_stopped_beside_a_long_walk_warns_nowhere(self):
        # lam 1e-306 stops in the first block while lam 1.5 (drifting down,
        # below every u0) walks on for three; the stopped column's lam * H - U
        # falls to about -U, which times p / lam = 1e306 would overflow
        columns = [SystemParams(1e-306, EXP1, 1.0), SystemParams(1.5, EXP1, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _count_range(columns, 2000.0, 1, self.GRID, 0, 10)
        assert counts == [scalar_counts(c, 2000.0, 1, self.GRID, 10) for c in columns]

    def test_uniform_packets_past_the_doubles_warn_nowhere(self):
        # 2 * mean overflows, so the packets past the largest double are inf:
        # such a trial's D_i is -inf and the scalar decides, as for exp's
        params = SystemParams(1e-300, DistributionSpec(Kind.UNIFORM, 1e308), 1.0)
        grid = [0.0, 1.0, 4.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (curve,) = estimate_outage_curves([params], 5.0, 50, 1, grid)
            ladder = collect_ladder_samples(params, 20, 3000, 1)
            scalar = scalar_counts(params, 5.0, 1, grid, 50)
        assert [round(est.estimate * 50) for est in curve] == scalar
        assert all(0.0 <= a.max_shortfall < math.inf for a in ladder)

    def test_an_infinite_packet_where_p_h_leaves_the_doubles_raises(self, capsys):
        # up to 0.7.0 the scalar read no outage after an infinite packet, so
        # every u0 read 0.65 here, where the model scaled by 2**-1023 reads 1.0
        big = 2.0**1023
        params = SystemParams(0.5, DistributionSpec(Kind.EXPONENTIAL, big), big)
        grid = [0.0, 2.0**1022, 0.99 * big]
        with pytest.raises(DomainError, match="infinite packet"):
            estimate_outage_curves([params], 100.0, 20, 3, grid)
        (scaled,) = estimate_outage_curves([SystemParams(0.5, EXP1, 1.0)], 100.0, 20, 3, [0.0, 0.5, 0.99])
        assert [est.estimate for est in scaled] == [1.0, 1.0, 1.0]
        argv = ["simulate", "--lam", "0.5", "--packet", f"exp:mean={big!r}", "--p", repr(big),
                "--horizon", "100", "--trials", "20", "--seed", "3"]
        assert main(argv) == 3
        assert "infinite packet" in capsys.readouterr().err

    def test_an_overflowed_rate_beside_infinite_packet_sums_warns_nowhere(self):
        # p / lam is inf and a packet sum of means 1e308 overflows to inf, so
        # the walk's inf - inf would be a nan; every cell stays +inf instead
        # and the scalar decides
        params = SystemParams(1e-310, DistributionSpec(Kind.EXPONENTIAL, 1e308), 1.0)
        grid = [0.0, 1.0, 4.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _count_range([params], 5.0, 1, grid, 0, 200)
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle sums and subtracts infs
            expect = count_outages_full_walk(params, 5.0, 1, grid, 0, 200)
        assert counts == [expect] == [[0, 0, 0]]


@st.composite
def walk_cases(draw):
    """Columns of one packet law, a horizon, a seed and a u0 grid: means and
    ``p`` log-uniform in 1e+-300 (exp means up to 1.7e308, where packets and
    packet sums overflow), rho in [0.1, 10], ``lam * H`` at most 2e3 for the
    fastest column, and the grid {0, pH, pH/2, pH 1e-3, a fraction of pH}."""
    kind = draw(st.sampled_from(Kind))
    top = math.log10(1.7e308) if kind is Kind.EXPONENTIAL else 300.0
    mean = min(10.0 ** draw(st.floats(-300.0, top)), 1.7e308)
    p = 10.0 ** draw(st.floats(-300.0, 300.0))
    rhos = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3))
    lams = [rho * p / mean for rho in rhos]
    assume(all(0.0 < lam < math.inf for lam in lams))
    horizon = 10.0 ** draw(st.floats(-3.0, math.log10(2e3))) / max(lams)
    ph = p * horizon
    assume(0.0 < horizon < math.inf and ph < math.inf)
    grid = [0.0, ph, ph / 2.0, ph * 1e-3, ph * draw(st.floats(0.0, 1.0))]
    packet = DistributionSpec(kind, mean)
    columns = [SystemParams(lam, packet, p) for lam in lams]
    return columns, horizon, draw(st.integers(0, 2**64)), grid


class TestCountsEqualTheScalar:
    """Every count of the walk is the exact scalar's decision, summed over
    (trial, u0), with no tolerance, over the whole double range."""

    TRIALS = 4

    @given(walk_cases())
    # packet sums of mean 1e308 overflow in the first block, and u0 - D_i
    # overflows in the tie-band test: both warned under "error" up to 0.5.1
    @example(([SystemParams(1e-308, DistributionSpec(Kind.EXPONENTIAL, 1e308), 1.0)], 1e308, 0,
              [0.0, 1e308, 5e307, 1e305, 0.0]))
    @settings(max_examples=100, deadline=None)
    def test_counts_equal_the_scalar(self, case):
        columns, horizon, seed, grid = case
        counts = _count_range(columns, horizon, seed, grid, 0, self.TRIALS)
        assert counts == [scalar_counts(c, horizon, seed, grid, self.TRIALS) for c in columns]

    @given(walk_cases())
    @settings(max_examples=2, deadline=None)
    def test_pooled_counts_equal_the_scalar(self, case):
        columns, horizon, seed, grid = case
        curves = estimate_outage_curves(columns, horizon, self.TRIALS, seed, grid, workers=2)
        counts = [[round(est.estimate * self.TRIALS) for est in curve] for curve in curves]
        assert counts == [scalar_counts(c, horizon, seed, grid, self.TRIALS) for c in columns]


def _scaled(params, k):
    """``params`` with the packet mean, ``p`` and ``u0`` times ``2**k``."""
    packet = replace(params.packet, mean=math.ldexp(params.packet.mean, k))
    return replace(params, packet=packet, p=math.ldexp(params.p, k), u0=math.ldexp(params.u0, k))


# a packet law, k in [0, 1023], a mean and p in [1/4, 1], so that both scale
# to finite doubles, and a seed
scale_cases = st.tuples(
    st.sampled_from(Kind), st.integers(0, 1023), st.floats(0.25, 1.0), st.floats(0.25, 1.0), st.integers(0, 2**32)
)


class TestScaledPastTheDoubles:
    """Scaling every mean, ``p`` and ``u0`` by ``2**k`` scales each walk
    exactly, up to where a result leaves the doubles.  So each functional is
    unchanged up to that scaling, or raises :class:`DomainError`: the block
    walk runs at a power-of-two scale where no finite walk leaves the doubles,
    and its results are scaled back (a deficit walk's ``D_i`` past them is
    +inf, and the exact scalar decides; a ladder sample past them raises),
    and the battery recursion has its own check."""

    def test_the_deficit_walk_through_main_warns_nowhere(self, capsys):
        # p / lam = 1.5e308 times a unit sum overflows, and unif packets of
        # mean 8e307 are finite but their sums pass the largest double within
        # the horizon in every trial: up to 0.6.0 the walk warned of an
        # overflow in multiply, then of inf - inf.  (No packet is infinite,
        # which with p * H past the doubles raises DomainError.)
        argv = ["simulate", "--lam", "1", "--packet", "unif:mean=8e307", "--p", "1.5e308",
                "--horizon", "2", "--trials", "20"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        params = SystemParams(1.0, DistributionSpec(Kind.UNIFORM, 8e307), 1.5e308)
        expect = scalar_counts(params, 2.0, out["seed"], [out["params"]["u0"]], 20)
        assert [round(out["psi_mc"] * 20)] == expect

    @pytest.mark.parametrize("kind", [Kind.DETERMINISTIC, Kind.EXPONENTIAL])
    def test_a_deficit_walk_that_would_fall_below_the_doubles_scales_exactly(self, kind, monkeypatch):
        # at p = 2**1013 and packets of mean 2**1014 every step is a double,
        # but unscaled the walk falls past -2**1024 within 3000 arrivals (a
        # block's own packet sum reaches 2**1024 near its end).  The walk runs
        # in energy units of 2**114, where it stays a double, so each D_i is
        # that of the model scaled by 2**-114, scaled back, and no u0 is
        # replayed.  Where the unscaled walk's fall made D_i +inf (4 of the 4
        # det trials, 3 exp), the scalar decided each of their u0s
        params = SystemParams(1.0, DistributionSpec(kind, 2.0**1014), 2.0**1013)
        grid = [0.0, 2.0**1013, 2.0**1016]
        replays = []
        first_passage = simulate.simulate_first_passage
        monkeypatch.setattr(simulate, "simulate_first_passage", lambda *args: replays.append(args) or first_passage(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _max_deficits([params], 3000.0, 1, 0, 4, grid)
            counts = _count_range([params], 3000.0, 1, grid, 0, 4)
        scaled, scaled_grid = _scaled(params, -114), [math.ldexp(u0, -114) for u0 in grid]
        expect = [kernel_oracle._max_deficit([scaled], 3000.0, trial_rng(1, i), scaled_grid) for i in range(4)]
        assert np.isfinite(got).all() and not replays
        assert got.view(np.uint64).tolist() == np.ldexp(expect, 114).view(np.uint64).tolist()
        assert counts == [scalar_counts(params, 3000.0, 1, grid, 4)]

    def test_u0s_that_underflow_at_the_walk_scale_count_as_the_scalar(self):
        # at exp mean and p 2**1013 the walk counts energy in units of
        # 2**113, where u0 5e-324 and 2**-1000 are 0
        params = SystemParams(1.1, DistributionSpec(Kind.EXPONENTIAL, 2.0**1013), 2.0**1013)
        grid = [0.0, 5e-324, 2.0**-1000, 1.0, 2.0**1013]
        assert [math.ldexp(u0, -113) for u0 in grid[:3]] == [0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _count_range([params], 100.0, 1, grid, 0, 50)
        assert counts == [scalar_counts(params, 100.0, 1, grid, 50)]

    def test_columns_of_one_law_at_different_scales_walk_apart(self):
        # p / lam is 2**2074 in the first column (k = 1174) and 1 in the
        # second (k = 0): at one shared scale the second column's rates and
        # packets would be 0, and its counts read [26, 0, 0]
        columns = [SystemParams(5e-324, EXP1, 2.0**1000), SystemParams(1.0, EXP1, 1.0)]
        assert [simulate._scales(params) for params in columns] == [(1174, 1074 - 900), (0, 0)]
        grid = [0.0, 1.0, 3.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _count_range(columns, 100.0, 1, grid, 0, 30)
        assert counts == [scalar_counts(params, 100.0, 1, grid, 30) for params in columns]

    @pytest.mark.parametrize("mean", [2.0**1020, 2.0**1023])
    def test_infinite_packets_at_a_walk_scale_above_1_count_as_the_scalar(self, mean):
        # exp packets of mean 2**1020 are past the largest double above 16
        # means (one in 9e6), and of 2**1023 above 2: each is +inf, after
        # which the scalar finds no outage, as p * H is a double.  The walk
        # counts energy in units of 2**120 or 2**123, where an infinite packet
        # stays infinite and ends the walk
        params = SystemParams(1.1 * 2.0**1019 / mean, DistributionSpec(Kind.EXPONENTIAL, mean), 2.0**1019)
        grid = [0.0, 2.0**1015, 2.0**1019, 2.0**1022]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _count_range([params], 30.0, 5, grid, 0, 200)
        assert counts == [scalar_counts(params, 30.0, 5, grid, 200)]
        if mean == 2.0**1023:  # infinite first packets among the 200 trials
            firsts = [next(poisson_events(params.lam, params.packet, trial_rng(5, i)))[1] for i in range(200)]
            assert firsts.count(math.inf) > 20

    @given(scale_cases, st.floats(0.3, 3.0), st.floats(0.5, 2000.0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_outage_counts_are_unchanged(self, case, rho, arrivals, grid):
        kind, k, mean, p, seed = case
        # exp packets are below 45 means (sample_block), so below the largest
        # double up to k = 1018.  Past it a packet can be +inf, which makes
        # the scaled model another one: after it the scalar finds no outage
        # where p * H is below the largest double, and raises where it is not
        k = min(k, 1018) if kind is Kind.EXPONENTIAL else k
        params = SystemParams(rho * p / mean, DistributionSpec(kind, mean), p)
        horizon = arrivals / params.lam
        (plain,) = estimate_outage_curves([params], horizon, 4, seed, grid)
        (scaled,) = estimate_outage_curves([_scaled(params, k)], horizon, 4, seed, [math.ldexp(u0, k) for u0 in grid])
        assert [est.estimate for est in scaled] == [est.estimate for est in plain]

    @given(scale_cases, st.floats(0.3, 3.0), st.integers(1, 3000))
    @settings(max_examples=40, deadline=None)
    def test_ladder_maxima_scale_exactly(self, case, rho, max_steps):
        self.assert_ladder_samples_scale(case, rho, max_steps)

    @given(st.sampled_from(Kind), st.floats(0.95, 1.05), st.integers(2000, 6000), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_ladder_samples_scale_exactly_where_a_walk_falls_past_the_doubles(self, kind, rho, max_steps, seed):
        # scaled by the largest 2**k that keeps the walk's steps and maximum
        # doubles, about half these walks would fall past -2**1024 unscaled:
        # each reads its samples scaled, with no DomainError.  Of 200 such
        # examples, walked unscaled, 93 raised under the rise rule, 5 read a
        # maximum from before the fall when walked on unchecked at -inf, and 1
        # when stopped at the fall
        params = SystemParams(rho, DistributionSpec(kind, 1.0), 1.0)
        events = poisson_events(params.lam, params.packet, trial_rng(seed, 0))
        largest = max(max(pair) for pair in itertools.islice(events, max_steps))
        (plain,) = collect_ladder_samples(params, 1, max_steps, seed)
        k = math.floor(math.log2(sys.float_info.max / max(plain.max_shortfall, largest)))
        self.assert_ladder_samples_scale((kind, k, 1.0, 1.0, seed), rho, max_steps, walks=1, past=False)

    @staticmethod
    def assert_ladder_samples_scale(case, rho, max_steps, walks=4, past=True):
        # past: a sample may be past the doubles once scaled, and raise
        kind, k, mean, p, seed = case
        params = SystemParams(rho * p / mean, DistributionSpec(kind, mean), p)
        plain = collect_ladder_samples(params, walks, max_steps, seed)
        try:
            scaled = collect_ladder_samples(_scaled(params, k), walks, max_steps, seed)
        except DomainError:
            if past:
                return
            raise
        for a, b in zip(plain, scaled):
            assert b.max_shortfall == math.ldexp(a.max_shortfall, k)
            assert b.first_ladder_epoch == a.first_ladder_epoch
            if a.first_ladder_height is not None:
                assert b.first_ladder_height == math.ldexp(a.first_ladder_height, k)

    @given(scale_cases, st.floats(0.1, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_battery_statistics_are_unchanged(self, case, rho):
        kind, k, mean, p, seed = case
        params = SystemParams(rho * p / mean, DistributionSpec(kind, mean), p, u0=mean)
        scaled = _scaled(params, k)

        def stats(params):
            return simulate_lindley(params, 3000, 100, poisson_events(params.lam, params.packet, trial_rng(seed, 0)))

        try:
            got = stats(scaled)
        except DomainError:
            return
        assert got == stats(params)


class TestTrialStreams:
    SEEDS = (0, 1, 2**32, 2**64 + 3, 2**200)
    # run and chunk edges: _RUN is 64, and the last index below the bound
    INDICES = (0, 1, 63, 64, 2**32 - 1, 2**32, 2**64 - 1)

    @staticmethod
    def jumped(seed, i):
        return np.random.Generator(np.random.PCG64DXSM(seed).jumped(i))

    def test_one_jump_is_the_affine_step(self):
        # and the advance by _JUMP_STEP draws per jump
        for seed in self.SEEDS:
            words = np.random.PCG64DXSM(seed).state["state"]
            for i in (1, 2, 3):
                state = (simulate._JUMP_MUL * words["state"] + simulate._JUMP_INC * words["inc"]) % 2**128
                words = self.jumped(seed, i).bit_generator.state["state"]
                assert words["state"] == state
                advanced = np.random.PCG64DXSM(seed)
                advanced.advance(simulate._JUMP_STEP * i)
                assert advanced.state["state"] == words

    def test_trial_rng_draws_equal_the_jumped_dxsm(self):
        for seed, i in itertools.product(self.SEEDS, self.INDICES):
            got, ref = trial_rng(seed, i), self.jumped(seed, i)
            for draw in ("standard_exponential", "random", "standard_normal"):
                assert np.array_equal(getattr(got, draw)(3000), getattr(ref, draw)(3000))

    @pytest.mark.parametrize("index", [0, 63, 64, 2**32, 2**64 - 1])
    def test_trial_generators_equal_the_jumped_dxsm_at_run_and_chunk_edges(self, index):
        # a range starting there, and one ending there
        for seed in (3, 2**64 + 3):
            for lo in (index, max(0, index - 2)):
                for i, got in enumerate(_trial_rngs(seed, lo, index + 1), lo):
                    ref = self.jumped(seed, i)
                    assert got.bit_generator.state == ref.bit_generator.state
                    assert np.array_equal(got.standard_exponential(3000), ref.standard_exponential(3000))
                assert i == index

    def test_kernel_streams_draw_equal_the_jumped_dxsm(self):
        # the first three 1024-pair blocks of an event stream, trial by trial
        # as _trial_rngs hands them out (trial_rng is one such trial)
        pairs = 3 * EVENT_BLOCK
        for seed, lo in itertools.product(self.SEEDS, self.INDICES):
            lo = min(lo, 2**64 - 2)
            for packet in (EXP1, UNIF1):
                streams = _trial_rngs(seed, lo, lo + 2)
                for i, rng in enumerate(streams, lo):
                    got = itertools.islice(poisson_events(1.1, packet, rng), pairs)
                    ref = itertools.islice(poisson_events(1.1, packet, self.jumped(seed, i)), pairs)
                    assert list(got) == list(ref)
                assert i == lo + 1

    def test_later_packet_laws_draw_from_the_jumped_streams(self, monkeypatch):
        # a horizon inside the first block: each drawn law draws one packet
        # block per trial, in trial order, the later laws from restored
        # states, and the constant law none; 70 trials span two first-block
        # runs and end at the index bound
        drawn = []
        watch_rows(monkeypatch, lambda spec, rng, n: drawn.append((spec, rng.bit_generator.state)))
        columns = [SystemParams(1.1, packet, 1.0) for packet in (EXP1, DET1, UNIF1)]
        lo, hi = 2**64 - 70, 2**64
        _max_deficits(columns, 5.0, 7, lo, hi, [0.0])
        expect = []
        for i in range(lo, hi):
            ref = self.jumped(7, i)
            ref.standard_exponential(EVENT_BLOCK)
            expect.append(ref.bit_generator.state)
        for packet in (EXP1, UNIF1):
            assert [state for spec, state in drawn if spec == packet] == expect
        assert [spec for spec, _ in drawn if spec == DET1] == []

    def test_a_trial_leaves_nothing_buffered_for_the_next(self):
        # a 32-bit draw keeps half a word back; the next trial must not see it,
        # though it gets the same generator back from the spares
        rngs = _trial_rngs(7, 0, 2)
        first = next(rngs)
        first.integers(2**32, dtype=np.uint32)
        assert first.bit_generator.state["has_uint32"] == 1
        simulate._SPARE_RNGS.append(first)
        second = next(rngs)
        assert second is first
        assert np.array_equal(second.integers(2**32, size=3, dtype=np.uint32),
                              self.jumped(7, 1).integers(2**32, size=3, dtype=np.uint32))

    def test_a_spare_taken_after_a_check_is_no_error(self, monkeypatch):
        # another thread can take the last spare between a length check and
        # the pop; this list plays that thread whenever its length is read
        class Contended(list):
            def __len__(self):
                n = super().__len__()
                if n:
                    self.pop()
                return n

        monkeypatch.setattr(simulate, "_SPARE_RNGS", Contended([trial_rng(0, 0)]))
        assert np.array_equal(trial_rng(5, 2).random(4), self.jumped(5, 2).random(4))

    @pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (0, 2**64), (1.5, 0)])
    def test_bad_seed_or_index_raises(self, seed, index):
        with pytest.raises(ValueError):
            trial_rng(seed, index)
        with pytest.raises(ValueError):
            list(_trial_rngs(seed, index, index + 1))


class TestStatisticalSanity:
    def test_outage_fraction_from_empty_store(self):
        # from u0 = 0 the eventual-outage probability is 1/rho; at a long
        # horizon the truncated estimate sits within a few stderr of it
        est = estimate_eventual_outage(mm1(u0=0.0), 1000.0, 4000, seed=77)
        target = 1.0 / 1.1
        assert abs(est.estimate - target) <= 4.0 * max(est.stderr, 1e-3)

    def test_ladder_fraction_matches_defect(self):
        samples = collect_ladder_samples(mm1(), 3000, 50000, seed=9, stop_drawdown=300.0)
        frac = sum(1 for s in samples if s.first_ladder_epoch is not None) / 3000
        assert abs(frac - 1.0 / 1.1) <= 0.02
