"""Packet-law parsing, moments, MGF domain handling, and event streams."""
import gc
import hashlib
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsc import (
    EVENT_BLOCK,
    DistributionSpec,
    DomainError,
    Kind,
    ParseError,
    PreconditionError,
    log_laplace,
    parse_distribution_spec,
    poisson_events,
    SystemParams,
    sample_block,
    simulate_lindley,
    step_cgf,
)
from hsc.distributions import PHI_SERIES, EventStream, raw_block, scale_block
from kernel_oracle import lindley_time_loop, poisson_events_generator, scripted_events

means = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
kinds = st.sampled_from(list(Kind))


class TestParse:
    def test_exponential(self):
        spec = parse_distribution_spec("exp:mean=1.0")
        assert spec.kind is Kind.EXPONENTIAL
        assert spec.mean == 1.0

    def test_uniform_support_is_twice_mean(self):
        spec = parse_distribution_spec("unif:mean=2")
        assert spec.kind is Kind.UNIFORM
        assert spec.mean == 2.0
        rng = np.random.default_rng(0)
        draws = sample_block(spec, rng, 4000)
        assert draws.min() >= 0.0 and draws.max() <= 4.0
        assert draws.max() > 3.8  # support really extends to 2*mean

    def test_kind_case_insensitive_and_whitespace(self):
        assert parse_distribution_spec(" DET : mean = 3.5 ").kind is Kind.DETERMINISTIC

    def test_zero_mean_is_value_error_not_parse_error(self):
        with pytest.raises(ValueError) as err:
            parse_distribution_spec("det:mean=0")
        assert not isinstance(err.value, ParseError)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            parse_distribution_spec("exp:mean=-1")

    def test_missing_colon_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_distribution_spec("exp mean=1")
        assert "position" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(ParseError) as err:
            parse_distribution_spec("gamma:mean=1")
        assert "exp, det, unif" in str(err.value)

    @pytest.mark.parametrize("bad", ["exp:", "exp:mean", "exp:mean=", "exp:mean=abc"])
    def test_malformed_tail(self, bad):
        with pytest.raises(ParseError):
            parse_distribution_spec(bad)

    @given(kind=kinds, mean=means)
    def test_spec_string_round_trips(self, kind, mean):
        spec = DistributionSpec(kind, mean)
        again = parse_distribution_spec(spec.spec_string())
        assert again == spec


class TestMoments:
    def test_closed_forms(self):
        # PHI_SERIES[kind][0] is E[Y^2] / 2 for Y = X / mean, the
        # coefficient behind the solver's lower bound on r*
        assert PHI_SERIES[Kind.EXPONENTIAL][0] == 1.0
        assert PHI_SERIES[Kind.DETERMINISTIC][0] == 0.5
        assert PHI_SERIES[Kind.UNIFORM][0] == pytest.approx(2.0 / 3.0, abs=0, rel=1e-15)

    @given(kind=kinds, mean=means)
    @settings(max_examples=30, deadline=None)
    def test_sample_mean_matches(self, kind, mean):
        spec = DistributionSpec(kind, mean)
        rng = np.random.default_rng(1234)
        draws = sample_block(spec, rng, 20000)
        m2 = 2.0 * PHI_SERIES[kind][0] * mean**2  # E[X^2]
        tol = 4.0 * math.sqrt(max(m2 - mean * mean, 1e-30) / 20000) + 1e-12
        assert abs(float(draws.mean()) - mean) <= tol


def mgf(spec, r):
    """E[e^{rX}], the packet law's moment generating function."""
    return math.exp(log_laplace(spec, -r))


class TestMgf:
    @given(kind=kinds, mean=means)
    def test_at_zero_is_one(self, kind, mean):
        assert mgf(DistributionSpec(kind, mean), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_exponential_value_and_domain(self):
        spec = DistributionSpec(Kind.EXPONENTIAL, 2.0)
        assert mgf(spec, 0.25) == pytest.approx(2.0)
        with pytest.raises(DomainError):
            mgf(spec, 0.5)
        with pytest.raises(DomainError):
            mgf(spec, 0.7)

    def test_deterministic_is_plain_exponential(self):
        spec = DistributionSpec(Kind.DETERMINISTIC, 3.0)
        assert mgf(spec, 0.4) == pytest.approx(math.exp(1.2), rel=1e-15)

    def test_uniform_accurate_near_zero(self):
        # expm1 keeps the closed form exact where exp(a)-1 would cancel
        spec = DistributionSpec(Kind.UNIFORM, 1.0)
        for r in (1e-15, 1e-10, -1e-10, 1e-6):
            taylor = 1.0 + r + 2.0 * r * r / 3.0  # E[e^{rX}] to O(r^3), mean 1
            assert mgf(spec, r) == pytest.approx(taylor, rel=1e-13)
        assert mgf(spec, 0.0) == 1.0

    def test_uniform_against_quadrature(self):
        spec = DistributionSpec(Kind.UNIFORM, 1.5)
        for r in (-0.8, -0.1, 0.2, 0.6):
            x = np.linspace(0.0, 3.0, 20001)
            num = float(np.trapezoid(np.exp(r * x) / 3.0, x))
            assert mgf(spec, r) == pytest.approx(num, rel=1e-8)

    @given(kind=kinds, mean=means, r=st.floats(min_value=-2.0, max_value=-1e-3))
    def test_negative_r_always_finite_and_below_one_plus(self, kind, mean, r):
        # E[e^{rX}] for r < 0 lies in (0, 1) for any positive packet law
        value = mgf(DistributionSpec(kind, mean), r)
        assert 0.0 < value < 1.0

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("r", [math.nan, math.inf])
    @pytest.mark.parametrize("f", [log_laplace, lambda spec, r: step_cgf(SystemParams(1.1, spec, 1.0), r)],
                             ids=["log_laplace", "step_cgf"])
    def test_an_r_that_is_not_finite_is_refused(self, kind, r, f):
        # a nan r used to pass through both as a nan value
        with pytest.raises(DomainError):
            f(DistributionSpec(kind, 1.0), r)


class TestEventSources:
    def test_poisson_stream_positive_and_reproducible(self):
        spec = DistributionSpec(Kind.EXPONENTIAL, 1.0)
        a = list(itertools.islice(poisson_events(1.1, spec, np.random.default_rng(5)), 64))
        b = list(itertools.islice(poisson_events(1.1, spec, np.random.default_rng(5)), 64))
        assert a == b
        assert all(g > 0 and x > 0 for g, x in a)

    def test_block_draw_discipline(self):
        # The generator must draw one gaps block then one packets block of
        # EVENT_BLOCK each, so a vectorized consumer can replay the stream.
        spec = DistributionSpec(Kind.UNIFORM, 2.0)
        rng1 = np.random.default_rng(99)
        first = list(itertools.islice(poisson_events(0.7, spec, rng1), 3))
        rng2 = np.random.default_rng(99)
        gaps = rng2.exponential(1.0 / 0.7, EVENT_BLOCK)
        packets = sample_block(spec, rng2, EVENT_BLOCK)
        for i, (g, x) in enumerate(first):
            assert g == gaps[i]
            assert x == packets[i]

    def test_deterministic_packets_consume_no_randomness(self):
        spec = DistributionSpec(Kind.DETERMINISTIC, 2.5)
        rng = np.random.default_rng(3)
        assert sample_block(spec, rng, 3).tolist() == [2.5] * 3
        state_before = rng.bit_generator.state
        assert sample_block(spec, rng, 3).tolist() == [2.5] * 3
        assert rng.bit_generator.state == state_before

    def test_bad_rate_rejected(self):
        spec = DistributionSpec(Kind.EXPONENTIAL, 1.0)
        with pytest.raises(ValueError):
            next(poisson_events(0.0, spec, np.random.default_rng(0)))

    @pytest.mark.parametrize("lam", [0.0, math.nan, -1.0, math.inf])
    def test_a_stream_built_directly_checks_its_rate(self, lam):
        # a ZeroDivisionError, nan gaps and numpy's "scale < 0" before
        with pytest.raises(ValueError, match="arrival rate"):
            EventStream(lam, DistributionSpec(Kind.EXPONENTIAL, 1.0), np.random.default_rng(0))

    def test_scripted_validates(self):
        assert list(scripted_events([(1.0, 2.0)])) == [(1.0, 2.0)]
        with pytest.raises(ValueError):
            list(scripted_events([(0.0, 1.0)]))
        with pytest.raises(ValueError):
            list(scripted_events([(1.0, -2.0)]))


class TestSampleBlockInPlace:
    """Packets drawn into a given row, raw and then scaled in place as the
    block walk draws them, equal the allocating draw."""

    # a subnormal mean; the last mean scaled with no errstate and the first
    # scaled under one
    CASES = [
        (kind, mean)
        for kind in Kind
        for mean in (3e-320, 1e-300, 1.0, 1e300, math.nextafter(2.0**1018, 0.0), 2.0**1018)
    ] + [
        (Kind.EXPONENTIAL, 1e308)  # about a sixth of the packets pass the largest double
    ]

    @pytest.mark.parametrize("kind, mean", CASES)
    def test_out_equals_the_allocating_draw(self, kind, mean):
        spec = DistributionSpec(kind, mean)
        a, b = (np.random.Generator(np.random.PCG64DXSM(11)) for _ in range(2))
        expect = sample_block(spec, a, EVENT_BLOCK)
        row = np.full((2, EVENT_BLOCK + 5), np.nan)[1, 3:-2]  # a strided parent, a contiguous row
        got = scale_block(spec, raw_block(spec, b, row))
        assert got is row
        assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist()
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("kind, mean", CASES)
    def test_draws_equal_numpy_scaled_draws(self, kind, mean):
        spec = DistributionSpec(kind, mean)
        a, b = (np.random.Generator(np.random.PCG64DXSM(12)) for _ in range(2))
        got = sample_block(spec, a, 5000)
        with np.errstate(over="ignore"):  # numpy's scalar loop overflows to inf with no warning
            expect = {
                Kind.EXPONENTIAL: lambda: b.exponential(mean, 5000),
                Kind.UNIFORM: lambda: b.uniform(0.0, 2.0 * mean, 5000),
                Kind.DETERMINISTIC: lambda: np.full(5000, mean),
            }[kind]()
        assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist()
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("kind, mean", CASES)
    def test_rows_drawn_raw_and_scaled_as_one_batch_equal_the_row_draws(self, kind, mean):
        # the block walk's draw: each row's first n raw values from its own
        # generator, zeros past them, then one scale of the whole batch
        spec = DistributionSpec(kind, mean)
        cuts = (0, 1, EVENT_BLOCK - 1, EVENT_BLOCK)
        a, b = ([np.random.Generator(np.random.PCG64DXSM(20 + r)) for r in range(len(cuts))] for _ in range(2))
        batch = np.full((len(cuts), EVENT_BLOCK), np.nan)
        for rng, row, n in zip(b, batch, cuts):
            raw_block(spec, rng, row[:n])
            row[n:] = 0.0
        assert scale_block(spec, batch) is batch
        for rng, row, n in zip(a, batch, cuts):
            expect = sample_block(spec, rng, n)
            assert row[:n].view(np.uint64).tolist() == expect.view(np.uint64).tolist()
            assert row[n:].view(np.uint64).tolist() == [0] * (EVENT_BLOCK - n)  # +0.0
        assert [rng.bit_generator.state for rng in a] == [rng.bit_generator.state for rng in b]

    def test_uniform_packets_past_the_largest_double_are_infinite(self):
        # 2 * mean overflows, where numpy's uniform(0, 2 * mean) raises
        # OverflowError; the packets are (2 U) * mean, +inf past the doubles
        spec = DistributionSpec(Kind.UNIFORM, 1e308)
        a, b = (np.random.Generator(np.random.PCG64DXSM(13)) for _ in range(2))
        got = sample_block(spec, a, EVENT_BLOCK)
        twice = 2.0 * b.random(EVENT_BLOCK)
        with np.errstate(over="ignore"):
            expect = twice * 1e308
        assert got.view(np.uint64).tolist() == expect.view(np.uint64).tolist()
        assert 0 < np.isinf(got).sum() < EVENT_BLOCK
        assert np.all(got[twice < 1.7] < math.inf)


class TestNumpyStream:
    """numpy's own draws on the trial streams, pinned by digest.

    NEP 19 lets a Generator's distributions change between numpy releases.
    Every trial of hsc reads ``PCG64DXSM(seed).jumped(i)`` through
    ``standard_exponential`` (gaps and exp packets) and ``random`` (unif
    packets), so a change there moves every ``psi_mc``.  These digests were
    taken with numpy 2.4.6; where this test fails beside
    ``test_golden_csv_digests``, numpy's stream moved, not hsc.
    """

    # (seed, index): SHA-256 of standard_exponential(1024) and then of
    # random(1024), both drawn in that order from one generator, as
    # little-endian doubles
    DIGESTS = {
        (0, 0): (
            "607eb210883d833c041ec90854234e249ccdc5469086135592e74cb50dc19217",
            "257b45aa57ef510399dadd42d91a7739a810c2c4889a6f104c0019866779b180",
        ),
        (0, 2**32): (
            "7e0f50e54a485ab9f5e5fb90279952428563621d3e5193e08cebd60ed015c777",
            "4a2cf556c9e41cdb037ef8dd2cf8dd4bf6d3d46c933ee0dffa44e29eef20f85b",
        ),
        (0, 2**64 - 1): (
            "b300aa03d4bfc20f5c81e81db9c74830303c0a9958f14fbb1b8b9ca6fa25f491",
            "37a1cc7404f15c903ac8fdf27f8322687440409c89297e794d515edb151a8b6f",
        ),
        (42, 0): (
            "2c1deae53c8b6d605eda013fda633a50b8a2407b1d0d4334515ec52da2ece2fd",
            "f6a9a34afa8030f4f971a374bcc5abb2f9ebf5ed04bb2d060345753a0621bcdf",
        ),
        (42, 2**32): (
            "d09a84402bde61f7b3b5b5b91eed138fa78e3925af210c554f7d5e47856561a9",
            "28b2c290f969082d3105ab4528a0f0414a54305643358605125a1f083eb6fe24",
        ),
        (42, 2**64 - 1): (
            "4ad96f06f864908b1c02d55061f423dfb780c6f7d46dd55e2e6bc9d7bda5c1d4",
            "3370635252da0475f4df0c5dd193138df3e096b4c9f80c60de7231799109bc1d",
        ),
        (2**64 + 3, 0): (
            "ec44aaf6715942a1f3aabc026d93fac45d5dc5e0a2f39996704656f4eeead1ef",
            "b93147b4664470321923e4f401e4f15ecb735c8b7974f85d771b9205ad54de9a",
        ),
        (2**64 + 3, 2**32): (
            "f53769d3497b7885d699282b669f38c24a198adb24e07ecf37ca424253dbc0ca",
            "3cc417b3f2608fd0127cb6f0e0ccc4d0c7c70ee8e2c8e932595640ec8c0919f3",
        ),
        (2**64 + 3, 2**64 - 1): (
            "e45490148ca573161306abbe7b96b96ef216f97576a0fc33c5a20317a1901e8c",
            "ea84fbff96da5266b88ea3b0b2bc5986eb6b03771ab675b03f6837976f45860b",
        ),
    }

    @pytest.mark.parametrize("seed, index", list(DIGESTS))
    def test_jumped_dxsm_draws_are_pinned(self, seed, index):
        rng = np.random.Generator(np.random.PCG64DXSM(seed).jumped(index))
        digests = tuple(
            hashlib.sha256(draw(EVENT_BLOCK).astype("<f8").tobytes()).hexdigest()
            for draw in (rng.standard_exponential, rng.random)
        )
        assert digests == self.DIGESTS[seed, index]


class TestEventStream:
    """The stream ``poisson_events`` returns: the pairs of the generator it
    was up to 0.8.0, drawn alike, with pairs and arrays read from one
    position.  Run beside ``TestNumpyStream`` in CI, before tier-1."""

    SPECS = (
        DistributionSpec(Kind.EXPONENTIAL, 1.5),
        DistributionSpec(Kind.DETERMINISTIC, 2.5),
        DistributionSpec(Kind.UNIFORM, 0.3),
    )

    @staticmethod
    def reference(spec, n, seed=8):
        return list(itertools.islice(poisson_events_generator(0.7, spec, np.random.default_rng(seed)), n))

    @pytest.mark.parametrize("spec", SPECS)
    def test_pairs_equal_the_generator(self, spec):
        stream = poisson_events(0.7, spec, np.random.default_rng(8))
        assert isinstance(stream, EventStream)
        n = 3 * EVENT_BLOCK + 5
        assert list(itertools.islice(stream, n)) == self.reference(spec, n)

    @pytest.mark.parametrize("spec", SPECS)
    def test_take_and_next_share_one_position(self, spec):
        # takes before any pair, inside a block, up to its end, across
        # several blocks and of nothing, each followed by a few pairs
        stream = poisson_events(0.7, spec, np.random.default_rng(8))
        got = []
        for n, pairs in ((5, 2), (EVENT_BLOCK - 7, 0), (0, 1), (1, 0), (2 * EVENT_BLOCK + 3, 3),
                         (EVENT_BLOCK - 6, 0), (EVENT_BLOCK, 2), (3, 1)):
            gaps, packets = stream.take(n)
            assert gaps.shape == packets.shape == (n,)
            got += zip(gaps.tolist(), packets.tolist())
            got += (next(stream) for _ in range(pairs))
        assert got == self.reference(spec, len(got))

    @pytest.mark.parametrize("n", [0, 1, EVENT_BLOCK - 1, EVENT_BLOCK, EVENT_BLOCK + 1, 3 * EVENT_BLOCK])
    def test_a_block_is_drawn_when_its_first_pair_is_read(self, n):
        spec = self.SPECS[2]
        taken, read, ref = (np.random.default_rng(4) for _ in range(3))
        poisson_events(0.7, spec, taken).take(n)
        list(itertools.islice(poisson_events(0.7, spec, read), n))
        list(itertools.islice(poisson_events_generator(0.7, spec, ref), n))
        assert taken.bit_generator.state == read.bit_generator.state == ref.bit_generator.state

    def test_the_stream_is_its_own_iterator(self):
        stream = poisson_events(0.7, self.SPECS[0], np.random.default_rng(8))
        assert iter(stream) is stream

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("head", [0, 5, EVENT_BLOCK - 1])
    def test_next_after_a_take_that_ends_at_a_block_end(self, spec, head):
        stream = poisson_events(0.7, spec, np.random.default_rng(8))
        got = [next(stream) for _ in range(head)]
        for n in (EVENT_BLOCK - head, EVENT_BLOCK, 2 * EVENT_BLOCK):
            gaps, packets = stream.take(n)
            got += zip(gaps.tolist(), packets.tolist())
            got.append(next(stream))
            gaps, packets = stream.take(EVENT_BLOCK - 1)  # to the next block end
            got += zip(gaps.tolist(), packets.tolist())
        assert got == self.reference(spec, len(got))

    @pytest.mark.parametrize("head, n", [(0, 0), (0, 5), (3, 7), (3, EVENT_BLOCK + 5), (0, 2 * EVENT_BLOCK + 1)])
    def test_close_after_a_partial_take_ends_pairs_and_takes(self, head, n):
        stream = poisson_events(0.7, self.SPECS[2], np.random.default_rng(8))
        for _ in range(head):
            next(stream)
        stream.take(n)
        stream.close()
        assert list(stream) == []
        gaps, packets = stream.take(5)
        assert gaps.size == packets.size == 0

    @pytest.mark.parametrize("spec", SPECS)
    def test_a_for_loop_broken_mid_block_and_a_take_share_one_position(self, spec):
        stream = poisson_events(0.7, spec, np.random.default_rng(8))
        got = []
        for pair in stream:
            got.append(pair)
            if len(got) == 10:
                break
        gaps, packets = stream.take(EVENT_BLOCK)
        got += zip(gaps.tolist(), packets.tolist())
        for pair in stream:
            got.append(pair)
            if len(got) == EVENT_BLOCK + 20:
                break
        assert got == self.reference(spec, len(got))

    def test_a_dropped_stream_is_freed_at_once(self):
        # no reference cycle holds it, and its block, until a collection
        stream = poisson_events(0.7, self.SPECS[0], np.random.default_rng(8))
        stream.take(5)
        next(stream)
        ref = weakref.ref(stream)
        gc.disable()
        try:
            del stream
            assert ref() is None
        finally:
            gc.enable()

    def test_close_ends_the_stream(self):
        stream = poisson_events(0.7, self.SPECS[0], np.random.default_rng(8))
        next(stream)
        stream.close()
        assert list(stream) == []
        gaps, packets = stream.take(5)
        assert gaps.size == packets.size == 0

    @pytest.mark.parametrize("spec", SPECS)
    def test_take_accepts_any_integer(self, spec):
        stream = poisson_events(0.7, spec, np.random.default_rng(8))
        got = []
        for n in (np.int64(5), np.int64(EVENT_BLOCK)):
            gaps, packets = stream.take(n)
            got += zip(gaps.tolist(), packets.tolist())
        got.append(next(stream))
        assert got == self.reference(spec, len(got))

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("n", [-1, np.int64(-EVENT_BLOCK)])
    def test_take_of_a_negative_count_raises_naming_it(self, closed, n):
        # numpy's "negative dimensions are not allowed" named no n
        stream = poisson_events(0.7, self.SPECS[0], np.random.default_rng(8))
        head = stream.take(3)
        if closed:
            stream.close()
        with pytest.raises(ValueError, match=f"n = {int(n)}$"):
            stream.take(n)
        if not closed:  # the position did not move
            gaps, _ = stream.take(2)
            assert np.concatenate((head[0], gaps)).tolist() == [g for g, _ in self.reference(self.SPECS[0], 5)]

    def test_the_battery_recursion_on_a_closed_stream_reads_nothing(self):
        params = SystemParams(0.7, self.SPECS[0], 3.0)
        stream = poisson_events(0.7, self.SPECS[0], np.random.default_rng(8))
        next(stream)
        stream.close()
        with pytest.raises(PreconditionError, match="ended before"):
            simulate_lindley(params, 2000, 100, stream)

    @pytest.mark.parametrize("spec", SPECS)
    def test_the_battery_recursion_reads_the_pairs_after_next(self, spec):
        params = SystemParams(0.7, spec, 2.0 * spec.mean)
        stream = poisson_events(0.7, spec, np.random.default_rng(8))
        head = [next(stream) for _ in range(3)]
        stats = simulate_lindley(params, 2000, 100, stream)
        pairs = self.reference(spec, 2005)
        assert head == pairs[:3]
        assert stats == lindley_time_loop(params, 2000, 100, pairs[3:2003])
        assert [next(stream), next(stream)] == pairs[2003:]

    def test_any_iterable_loses_exactly_the_pairs_it_walks(self):
        # steps counts the burn-in: 3000 pairs are read, and the next one is
        # still there, from a list iterator, a generator and the stream alike
        spec = self.SPECS[0]
        params = SystemParams(0.4, spec, 1.0)
        pairs = self.reference(spec, 3001)
        for events in (iter(pairs), (pair for pair in pairs), scripted_events(pairs),
                       poisson_events(0.7, spec, np.random.default_rng(8))):
            simulate_lindley(params, 3000, 500, events)
            assert next(events) == pairs[3000]
