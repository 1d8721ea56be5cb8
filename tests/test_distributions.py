"""Packet-law parsing, moments, MGF domain handling, and event streams."""
import itertools
import math

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
    log_laplace,
    parse_distribution_spec,
    poisson_events,
    sample_block,
    scripted_events,
)
from hsc.distributions import PHI_SERIES

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

    def test_scripted_validates(self):
        assert list(scripted_events([(1.0, 2.0)])) == [(1.0, 2.0)]
        with pytest.raises(ValueError):
            list(scripted_events([(0.0, 1.0)]))
        with pytest.raises(ValueError):
            list(scripted_events([(1.0, -2.0)]))
