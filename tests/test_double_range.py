"""The scalar helpers over the whole range of finite doubles.

Each call returns a finite value in its documented range, or raises one of
the ``hsc.errors`` types; never a ``ZeroDivisionError``, an
``OverflowError``, a plain ``ValueError`` from ``math``, an inf or a nan.
Where a product leaves the double range the value is checked against a
60-digit mpmath evaluation that shares no code with hsc.
"""
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_reference import DPS, log_laplace as mp_log_laplace

from hsc import (
    DistributionSpec,
    DomainError,
    Kind,
    SystemParams,
    asymptotic_outage,
    errors,
    log_laplace,
    outage_bound,
    parse_distribution_spec,
    required_initial_energy,
    step_cgf,
)

HSC_ERRORS = tuple(getattr(errors, name) for name in errors.__all__)

finite = st.floats(allow_nan=False, allow_infinity=False)  # 5e-324 to 1.8e308, both signs
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# half the draws positive, so that the preconditions pass often enough
mostly_positive = st.one_of(positive, finite)
kinds = st.sampled_from(list(Kind))


def _value_or_typed_error(call, *args):
    """``call(*args)`` if it is finite, or None for an ``hsc.errors`` exception.

    Any other exception propagates and fails the test.
    """
    try:
        value = call(*args)
    except HSC_ERRORS:
        return None
    assert isinstance(value, float) and math.isfinite(value), (call.__name__, args, value)
    return value


@settings(max_examples=100, deadline=None)
@given(r_star=mostly_positive, u0=mostly_positive)
def test_outage_bound_is_a_probability(r_star, u0):
    value = _value_or_typed_error(outage_bound, r_star, u0)
    assert value is None or 0.0 <= value <= 1.0


@settings(max_examples=150, deadline=None)
@given(
    defect=st.one_of(st.floats(0.0, 1.0), finite),
    r_star=mostly_positive,
    mu_tilde=mostly_positive,
    u0=mostly_positive,
)
def test_asymptotic_outage_is_finite_and_nonnegative(defect, r_star, mu_tilde, u0):
    value = _value_or_typed_error(asymptotic_outage, defect, r_star, mu_tilde, u0)
    assert value is None or value >= 0.0


@settings(max_examples=100, deadline=None)
@given(r_star=mostly_positive, epsilon=st.one_of(st.floats(0.0, 1.0), finite))
def test_required_initial_energy_is_finite_and_nonnegative(r_star, epsilon):
    value = _value_or_typed_error(required_initial_energy, r_star, epsilon)
    assert value is None or value >= 0.0


@settings(max_examples=150, deadline=None)
@given(kind=kinds, mean=positive, r=finite)
def test_log_laplace_is_finite_with_the_sign_of_minus_r(kind, mean, r):
    value = _value_or_typed_error(log_laplace, DistributionSpec(kind, mean), r)
    if value is not None:
        assert value <= 0.0 if r >= 0.0 else value >= 0.0


@settings(max_examples=150, deadline=None)
@given(kind=kinds, mean=positive, lam=positive, p=positive, r=finite)
def test_step_cgf_is_finite(kind, mean, lam, p, r):
    _value_or_typed_error(step_cgf, SystemParams(lam, DistributionSpec(kind, mean), p), r)


def _close(value, reference):
    assert math.isclose(value, float(reference), rel_tol=1e-12), (value, reference)


class TestWhereAProductLeavesTheDoubleRange:
    """The inputs the property found, each at its 60-digit value."""

    def test_required_energy_at_the_smallest_epsilon(self):
        with mp.workdps(DPS):
            for r_star in (1.0, 0.1, 3e-300):
                _close(required_initial_energy(r_star, 5e-324), -mp.log(5e-324) / r_star)

    def test_required_energy_at_epsilon_one_is_plus_zero(self):
        assert math.copysign(1.0, required_initial_energy(0.1, 1.0)) == 1.0

    def test_asymptotic_outage_where_r_star_mu_tilde_underflows(self):
        # defect / (r* mu_tilde) * e^{-r* u0} with r* mu_tilde = 1e-400
        with mp.workdps(DPS):
            r, mu = mp.mpf(1e-200), mp.mpf(1e-200)
            expected = 1 / (r * mu) * mp.exp(-r * mp.mpf(1e203))
        _close(asymptotic_outage(1.0, 1e-200, 1e-200, 1e203), expected)

    def test_asymptotic_outage_where_the_exponential_underflows(self):
        # defect / (r* mu_tilde) = 1e300 is finite, e^{-r* u0} = e^{-920} is not
        with mp.workdps(DPS):
            expected = mp.mpf(1e300) * mp.exp(-mp.mpf(920.0))
        _close(asymptotic_outage(1.0, 1.0, 1e-300, 920.0), expected)

    def test_asymptotic_outage_where_the_exponential_is_subnormal(self):
        # e^{-740} = 4.2e-322 keeps 10 bits, which the factor 1e300 would
        # carry into a normal result: 4.1996e-22 where the value is 4.1887e-22
        with mp.workdps(DPS):
            expected = mp.mpf(1e300) * mp.exp(-mp.mpf(740.0))
        _close(asymptotic_outage(1.0, 1.0, 1e-300, 740.0), expected)

    def test_asymptotic_outage_beyond_the_largest_double_raises(self):
        # the value is 1e320
        with pytest.raises(DomainError):
            asymptotic_outage(1.0, 1e-200, 1e-120, 0.0)

    @pytest.mark.parametrize("kind", ["exp", "unif"])
    def test_log_laplace_where_r_mean_overflows(self, kind):
        spec = parse_distribution_spec(f"{kind}:mean=1e300")
        with mp.workdps(DPS):
            expected = mp_log_laplace(kind, mp.mpf(1e300), mp.mpf(1e10))
        _close(log_laplace(spec, 1e10), expected)

    def test_log_laplace_where_2_r_mean_overflows(self):
        spec = parse_distribution_spec("unif:mean=1e308")
        with mp.workdps(DPS):
            expected = mp_log_laplace("unif", mp.mpf(1e308), mp.mpf(1.5))
        _close(log_laplace(spec, 1.5), expected)
        assert log_laplace(parse_distribution_spec("det:mean=1e308"), 1.5) == -1.5e308

    @pytest.mark.parametrize(
        "kind, mean, r",
        [
            ("unif", 1e300, -1e10),
            ("det", 1e300, 1e10),
            ("det", 1e300, -1e10),
            ("unif", 1e308, -1.5),
        ],
    )
    def test_log_laplace_beyond_the_largest_double_raises(self, kind, mean, r):
        with pytest.raises(DomainError):
            log_laplace(parse_distribution_spec(f"{kind}:mean={mean}"), r)

    def test_step_cgf_where_p_r_over_lam_overflows(self):
        params = SystemParams(1e-300, parse_distribution_spec("det:mean=1"), 1.0)
        with mp.workdps(DPS):
            r = mp.mpf(-1e10)
            expected = -mp.log1p(-r / mp.mpf(1e-300)) - r
        _close(step_cgf(params, -1e10), expected)

    def test_step_cgf_raises_where_the_sum_would_be_inf_minus_inf(self):
        # -log(1 - p r/lam) is -inf in doubles and -r mean is +inf; the sum
        # 1e310 - 713.8 is beyond the largest double
        params = SystemParams(1e-300, parse_distribution_spec("det:mean=1e300"), 1.0)
        with pytest.raises(DomainError):
            step_cgf(params, -1e10)
