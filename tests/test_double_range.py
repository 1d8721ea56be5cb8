"""The scalar helpers and the closed-form solvers over the whole range of
finite doubles.

Each call returns a finite value in its documented range, or raises one of
the ``hsc.errors`` types; never a ``ZeroDivisionError``, an
``OverflowError``, a plain ``ValueError``, an inf or a nan (the tilted
ladder mean's documented inf aside), and never a warning, which tier-1
turns into an error.  Where a product leaves the double range the value is
checked against a 60-digit mpmath evaluation that shares no code with hsc.
"""
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from mp_reference import DPS, log_laplace as mp_log_laplace

from hsc import (
    DistributionSpec,
    DomainError,
    GridError,
    Kind,
    PreconditionError,
    SystemParams,
    asymptotic_outage,
    errors,
    eventual_outage_poisson_exact,
    ladder_height_density_poisson,
    log_laplace,
    outage_bound,
    parse_distribution_spec,
    required_initial_energy,
    solve_adjustment_coefficient,
    solve_renewal_equation,
    stationary_outage,
    step_cgf,
    tilted_ladder_mean_poisson,
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


def _typed(call, *args):
    """``call(*args)``, or None for an ``hsc.errors`` exception."""
    try:
        return call(*args)
    except HSC_ERRORS:
        return None


@st.composite
def systems(draw, supercritical=False):
    """Any positive finite mean, ``lam`` and ``p``; in half the draws, or
    all if ``supercritical``, ``lam`` is set from a ``rho`` in ``(1, 1e6]``,
    so that the solvers run."""
    kind, mean, p = draw(kinds), draw(positive), draw(positive)
    lam = draw(positive)
    if supercritical or draw(st.booleans()):
        lam = draw(st.floats(1.0, 1e6, exclude_min=True)) * p / mean
        assume(0.0 < lam < math.inf)
    return SystemParams(lam, DistributionSpec(kind, mean), p)


@settings(max_examples=150, deadline=None)
@given(params=systems(), r=finite)
def test_closed_form_outage_is_a_probability(params, r):
    result = _typed(solve_adjustment_coefficient, params)
    r_stars = [r] if result is None else [r, result.r_star]
    if result is not None:
        assert 0.0 < result.r_star < math.inf
    for r_star in r_stars:
        value = _value_or_typed_error(eventual_outage_poisson_exact, params, r_star)
        assert value is None or 0.0 <= value <= 1.0
        mean = _typed(tilted_ladder_mean_poisson, params, r_star)
        assert mean is None or mean > 0.0  # +inf where lam / p - r* rounds to 0
        density = _typed(ladder_height_density_poisson, params, r_star, np.array([0.0, 1.0, 1e300]))
        assert density is None or (np.all(density >= 0.0) and np.all(np.isfinite(density)))
    value = _value_or_typed_error(stationary_outage, params)
    assert value is None or 0.0 <= value <= 1.0


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(params=systems(supercritical=True), n=st.integers(1, 256), step=positive)
def test_renewal_solution_is_finite(params, n, step):
    # n grid steps at most: the solver has no cap of its own on the grid
    u_max = n * step
    assume(0.0 < u_max < math.inf)
    result = _typed(solve_adjustment_coefficient, params)
    theta = None if result is None else _typed(eventual_outage_poisson_exact, params, result.r_star)
    assume(theta is not None)

    def f_h(x):
        return ladder_height_density_poisson(params, result.r_star, x)

    phi = _typed(solve_renewal_equation, f_h, theta, step, u_max)
    assert phi is None or np.all(np.isfinite(phi))


class TestWhereTheSolversLeaveTheDoubleRange:
    """The inputs the properties above found, each fixed."""

    def test_density_where_lam_x_over_p_overflows_is_zero(self):
        # -beta x overflowed to -inf with a warning; its exp is the density's 0
        params = SystemParams(179769314.0, DistributionSpec(Kind.EXPONENTIAL, 1.0), 1.0)
        r_star = solve_adjustment_coefficient(params).r_star
        assert ladder_height_density_poisson(params, r_star, np.array([1e300])).tolist() == [0.0]

    def test_density_where_lam_over_p_overflows_raises(self):
        # beta = inf made inf * exp(-inf * 0), a nan, with a warning
        params = SystemParams(1.0, DistributionSpec(Kind.EXPONENTIAL, 1.0), 5e-324)
        with pytest.raises(DomainError):
            ladder_height_density_poisson(params, 1.0, 0.0)

    @pytest.mark.parametrize("step", [1.0, 4.49423283715579e307])
    def test_renewal_step_too_coarse_for_the_density_raises(self, step):
        # its discrete mass exceeds theta by more than the step: a plain
        # ValueError, and at the larger step an overflow warning first
        params = SystemParams(5.0, DistributionSpec(Kind.EXPONENTIAL, 0.25), 1.0)
        r_star = solve_adjustment_coefficient(params).r_star
        theta = eventual_outage_poisson_exact(params, r_star)
        with pytest.raises(GridError, match="discrete mass"):
            solve_renewal_equation(
                lambda x: ladder_height_density_poisson(params, r_star, x), theta, step, step
            )


    @pytest.mark.parametrize("n, step", [(129, 2.0), (64, 1.0), (400, 0.5)])
    def test_renewal_step_whose_rows_grow_raises(self, n, step):
        # near rho = 1 the trapezoid rows at these steps grow without bound:
        # phi (a probability) read up to 37 at step 1 and 5.7 at step 0.5,
        # and at step 2 the series overflowed with a warning
        params = SystemParams(1.0, DistributionSpec(Kind.EXPONENTIAL, 1.015625), 1.0)
        r_star = solve_adjustment_coefficient(params).r_star
        theta = eventual_outage_poisson_exact(params, r_star)
        with pytest.raises(GridError, match="leaves"):
            solve_renewal_equation(
                lambda x: ladder_height_density_poisson(params, r_star, x), theta, step, n * step
            )

    def test_renewal_grid_of_more_steps_than_the_doubles_raises(self):
        # u_max / step overflowed, and round(inf) raised OverflowError
        with pytest.raises(GridError, match="does not tile"):
            solve_renewal_equation(lambda x: 0.5 * np.exp(-x), 0.5, 5e-324, 1.0)

    def test_renewal_grid_past_the_cap_raises_before_f_h(self):
        # 1e12 grid steps were accepted, and f_h tabulated on all of them
        def f_h(x):
            raise AssertionError("f_h was called")

        for step, u_max in ((1e-3, 1e9), (1.0, 2.0**22 + 1)):
            with pytest.raises(GridError, match=r"2\*\*22"):
                solve_renewal_equation(f_h, 0.5, step, u_max)

    def test_tilted_mean_where_lam_over_p_overflows_raises(self):
        # theta * lam / p was inf, so the mean read 0.0
        params = SystemParams(8.98846567431158e307, DistributionSpec(Kind.EXPONENTIAL, 1.0), 0.5)
        with pytest.raises(DomainError):
            tilted_ladder_mean_poisson(params, 1.0)

    def test_root_that_underflows_raises(self):
        # (rho - 1) / mean underflowed: r* read 0.0 with a residual of 0.0
        params = SystemParams(2.225073858507202e-308, DistributionSpec(Kind.EXPONENTIAL, 8.98846567431158e307), 2.0)
        with pytest.raises(DomainError, match="underflows"):
            solve_adjustment_coefficient(params)

    def test_root_rounded_to_a_subnormal_raises(self):
        # (rho - 1) / mean rounded to 5e-324 with a residual of 0.0, a root
        # the exact formula then refused at a relative residual of 0.129
        params = SystemParams(1.9371740049442323e-308, DistributionSpec(Kind.EXPONENTIAL, 5.162158884270122e307), 1.0)
        with pytest.raises(DomainError, match="underflows"):
            solve_adjustment_coefficient(params)
        # a subnormal root of 1.0000012e-310 is kept, its rounding in the residual
        params = SystemParams(1.0000000001e-300, DistributionSpec(Kind.EXPONENTIAL, 1e300), 1.0)
        res = solve_adjustment_coefficient(params)
        assert res.r_star < 2.2250738585072014e-308
        assert math.ulp(res.r_star) / res.r_star <= res.residual <= 1e-12

    def test_exact_outage_at_a_subnormal_root_raises(self):
        # the Newton step's slope underflowed to 0: a ZeroDivisionError
        params = SystemParams(2.0, DistributionSpec(Kind.DETERMINISTIC, 1.0), 1.0)
        with pytest.raises(PreconditionError, match="not a CGF root"):
            eventual_outage_poisson_exact(params, 5e-324)

    def test_closed_form_root_is_at_most_lam_over_p(self):
        # (rho - 1) / mean rounded above lam / p, so the exact formula
        # rejected the solver's own root
        params = SystemParams(6.210902637293849e16, DistributionSpec(Kind.EXPONENTIAL, 95.0), 1.0)
        r_star = solve_adjustment_coefficient(params).r_star
        assert r_star <= params.lam / params.p
        assert 0.0 <= eventual_outage_poisson_exact(params, r_star) <= 1.0


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
