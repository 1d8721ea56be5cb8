"""Closed-form layer: sustainability, adjustment coefficient, outage formulas,
renewal solver, step density, and the rho < 1 stationary regime.

Expected constants were produced by an independent bisection script before
this module was written; they are frozen here, not recomputed from the code
under test.
"""
import math
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import renewal_march
from mp_reference import adjustment

from hsc import (
    ConvergenceError,
    DistributionSpec,
    DomainError,
    GridError,
    Kind,
    LadderSample,
    PreconditionError,
    SolveMethod,
    Sustainability,
    SystemParams,
    asymptotic_outage,
    estimate_phi_from_max,
    eventual_outage_poisson_exact,
    ladder_height_density_poisson,
    outage_bound,
    required_initial_energy,
    solve_adjustment_coefficient,
    solve_renewal_equation,
    stationary_outage,
    step_cgf,
    tilted_ladder_mean_poisson,
    utilization,
)
from hsc.distributions import PHI_SERIES

# frozen oracle outputs (independent bisection / direct evaluation)
R_DET = 0.19374755799499177
R_UNIF = 0.14649466972008687
PSI_EXP_10 = 0.3344358556104021
PSI_EXP_5 = 0.5513915088296667
PSI_EXP_0 = 0.9090909090909091
PSI_DET_10 = 0.11869202830703929
PSI_UNIF_10 = 0.20031440120101235

EXP1 = DistributionSpec(Kind.EXPONENTIAL, 1.0)
DET1 = DistributionSpec(Kind.DETERMINISTIC, 1.0)
UNIF1 = DistributionSpec(Kind.UNIFORM, 1.0)


def mm1(u0=0.0, lam=1.1):
    return SystemParams(lam=lam, packet=EXP1, p=1.0, u0=u0)


class AdjustmentApproximations(NamedTuple):
    quadratic_fixed_point: float
    mean_variance_guess: float


def approx_adjustment_coefficient(params: SystemParams) -> AdjustmentApproximations:
    """Two cheap surrogates for the adjustment coefficient.

    * ``quadratic_fixed_point``: ``2 p (rho - 1) / (lam E[X^2])``, from a
      second-order expansion of the packet MGF in the fixed-point form.
    * ``mean_variance_guess``: ``-2 mu / var`` of one walk step, from a
      quadratic expansion of the step CGF itself.
    """
    rho = params.rho
    if rho <= 1.0:
        raise PreconditionError(f"approximations require rho > 1, got rho = {rho}")
    mean_x = params.packet.mean
    m2_x = 2.0 * PHI_SERIES[params.packet.kind][0] * mean_x**2  # E[X^2]
    quad = 2.0 * params.p * (rho - 1.0) / (params.lam * m2_x)
    # step = p*gap - packet, gap ~ Exp(lam) independent of packet
    mu = params.p / params.lam - mean_x
    var = (params.p / params.lam) ** 2 + m2_x - mean_x * mean_x
    return AdjustmentApproximations(quad, -2.0 * mu / var)


def step_density(params: SystemParams, z: float) -> float:
    """Density of one walk step ``p*gap - packet`` at the point ``z``.

    Conditioning on the packet size gives
    ``f(z) = (lam/p) e^{-lam z / p} * E[e^{-lam X / p}; X >= -z]``, which
    closes for all three packet families.
    """
    beta = params.lam / params.p
    m = params.packet.mean
    kind = params.packet.kind
    if kind is Kind.EXPONENTIAL:
        denom = 1.0 + beta * m
        if z >= 0.0:
            return beta * math.exp(-beta * z) / denom
        return beta * math.exp(z / m) / denom
    if kind is Kind.DETERMINISTIC:
        if z < -m:
            return 0.0
        return beta * math.exp(-beta * (z + m))
    b = 2.0 * m
    if z >= 0.0:
        return math.exp(-beta * z) * (1.0 - math.exp(-beta * b)) / b
    if z >= -b:
        return (1.0 - math.exp(-beta * (z + b))) / b
    return 0.0


kinds = st.sampled_from(list(Kind))
means = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)
rhos_super = st.floats(min_value=1.02, max_value=3.0, allow_nan=False)


def params_from(kind, mean, rho, p=1.0, u0=0.0):
    packet = DistributionSpec(kind, mean)
    return SystemParams(lam=rho * p / mean, packet=packet, p=p, u0=u0)


class TestSustainability:
    @pytest.mark.parametrize(
        "lam,expected",
        [
            (0.5, Sustainability.UNSUSTAINABLE_CERTAIN),
            (1.0, Sustainability.UNSUSTAINABLE_CERTAIN),
            (1.0000001, Sustainability.SELF_SUSTAINABLE_POSSIBLE),
            (2.0, Sustainability.SELF_SUSTAINABLE_POSSIBLE),
        ],
    )
    def test_threshold(self, lam, expected):
        params = mm1(lam=lam)
        assert utilization(params) is expected
        assert params.rho == pytest.approx(lam)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SystemParams(lam=0.0, packet=EXP1, p=1.0)
        with pytest.raises(ValueError):
            SystemParams(lam=1.0, packet=EXP1, p=-1.0)
        with pytest.raises(ValueError):
            SystemParams(lam=1.0, packet=EXP1, p=1.0, u0=-0.1)
        with pytest.raises(ValueError):
            SystemParams(lam=1.0, packet="exp:mean=1.0", p=1.0)


class TestStepCgf:
    @given(kind=kinds, mean=means, rho=rhos_super)
    def test_zero_at_origin(self, kind, mean, rho):
        assert step_cgf(params_from(kind, mean, rho), 0.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_domain_edge(self):
        p = mm1()
        with pytest.raises(DomainError):
            step_cgf(p, 1.1)  # p*r == lam
        with pytest.raises(DomainError):
            step_cgf(p, 2.0)

    def test_slope_at_origin_is_mean_step(self):
        p = params_from(Kind.UNIFORM, 1.0, 1.3)
        h = 1e-6
        slope = (step_cgf(p, h) - step_cgf(p, -h)) / (2 * h)
        assert slope == pytest.approx(p.p / p.lam - 1.0, abs=1e-6)

    @given(
        kind=kinds,
        mean=means,
        rho=rhos_super,
        a=st.floats(min_value=0.01, max_value=0.9),
    )
    @settings(max_examples=60)
    def test_convexity(self, kind, mean, rho, a):
        # second difference of a convex function is nonnegative
        p = params_from(kind, mean, rho)
        hi = p.lam / p.p
        r = a * 0.9 * hi
        h = 0.02 * hi
        if r - h <= -0.5 / mean:  # keep exp-packet MGF in domain
            r = h
        second = step_cgf(p, r + h) - 2 * step_cgf(p, r) + step_cgf(p, r - h)
        assert second >= -1e-10

    def test_finite_where_the_laplace_transform_underflows(self):
        # E e^{-800 X} = e^{-800} underflows; its log does not
        p = SystemParams(1000.0, DET1, 1.0)
        assert step_cgf(p, 800.0) == pytest.approx(math.log(5.0) - 800.0, rel=1e-15)

    def test_frozen_roots_have_tiny_residual(self):
        assert abs(step_cgf(SystemParams(1.1, DET1, 1.0), R_DET)) < 1e-12
        assert abs(step_cgf(SystemParams(1.1, UNIF1, 1.0), R_UNIF)) < 1e-12


class TestAdjustmentSolver:
    def test_exponential_closed_form(self):
        res = solve_adjustment_coefficient(mm1())
        assert res.method is SolveMethod.CLOSED_FORM
        assert res.iterations == 0
        assert res.r_star == pytest.approx(0.1, abs=1e-15)

    def test_numeric_matches_closed_form(self):
        closed = solve_adjustment_coefficient(mm1()).r_star
        numeric = solve_adjustment_coefficient(mm1(), force_numeric=True)
        assert numeric.method is SolveMethod.NUMERIC
        assert numeric.iterations > 0
        assert abs(numeric.r_star - closed) < 1e-10

    def test_deterministic_root(self):
        res = solve_adjustment_coefficient(SystemParams(1.1, DET1, 1.0))
        assert res.r_star == pytest.approx(R_DET, abs=1e-12)
        assert res.residual <= 1e-12

    def test_uniform_root(self):
        res = solve_adjustment_coefficient(SystemParams(1.1, UNIF1, 1.0))
        assert res.r_star == pytest.approx(R_UNIF, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_subcritical_rejected(self, lam):
        with pytest.raises(PreconditionError):
            solve_adjustment_coefficient(mm1(lam=lam))

    @given(kind=kinds, mean=means, rho=rhos_super)
    @settings(max_examples=40, deadline=None)
    def test_root_properties_hold_generally(self, kind, mean, rho):
        p = params_from(kind, mean, rho)
        res = solve_adjustment_coefficient(p, force_numeric=True)
        assert 0.0 < res.r_star < p.lam / p.p
        assert res.residual <= 1e-12
        # root of a convex function rising through zero: negative just left
        assert step_cgf(p, res.r_star * 0.99) < 0.0

    def test_tight_tolerance_unmet_raises(self):
        with pytest.raises(ConvergenceError):
            solve_adjustment_coefficient(
                SystemParams(1.1, DET1, 1.0), tol=0.0, force_numeric=True
            )


RHO_GRID = (1 + 1e-12, 1 + 1e-10, 1 + 1e-8, 1 + 1e-4, 1.1, 3.0, 50.0, 700.0, 1e3, 1e4, 1e6)


class TestAgainstMpmath:
    """r* and theta against a 60-digit root computed in tests/mp_reference.py."""

    @pytest.mark.parametrize("mean,p", [(1.0, 1.0), (0.37, 2.5)])
    @pytest.mark.parametrize("rho", RHO_GRID)
    @pytest.mark.parametrize("kind", list(Kind))
    def test_root_and_theta_within_1e_10(self, kind, rho, mean, p):
        params = params_from(kind, mean, rho, p=p)
        r_ref, theta_ref = adjustment(kind.value, mean, params.lam, p)
        for force in {False, kind is Kind.EXPONENTIAL}:
            res = solve_adjustment_coefficient(params, force_numeric=force)
            assert abs(res.r_star - r_ref) <= 1e-10 * r_ref
            floor = 1e-300 if theta_ref < 1e-300 else 0.0
            # the checks on a caller's r* accept the solver's own; u0 = 0
            theta = eventual_outage_poisson_exact(params, res.r_star)
            assert abs(theta - theta_ref) <= 1e-10 * theta_ref + floor
            assert tilted_ladder_mean_poisson(params, res.r_star) > 0.0
            assert ladder_height_density_poisson(params, res.r_star, 0.0) >= 0.0

    @pytest.mark.parametrize("rho", [1.1, 50.0, 1e6])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_rates_near_the_top_of_the_double_range(self, kind, rho):
        # lam = rho * 5e299 overflows the exact product's split
        params = params_from(kind, 2.0, rho, p=1e300)
        r_ref, theta_ref = adjustment(kind.value, 2.0, params.lam, 1e300)
        res = solve_adjustment_coefficient(params, force_numeric=True)
        assert abs(res.r_star - r_ref) <= 1e-10 * r_ref
        theta = eventual_outage_poisson_exact(params, res.r_star)
        assert abs(theta - theta_ref) <= 1e-10 * theta_ref + 1e-300

    @pytest.mark.parametrize("kind", list(Kind))
    def test_caller_check_is_relative_near_rho_one(self, kind):
        params = params_from(kind, 0.37, 1 + 1e-12, p=2.5)
        r = solve_adjustment_coefficient(params).r_star
        for wrong in (r * (1 - 1e-4), r * (1 + 1e-4), 1e-3 * r):
            with pytest.raises(PreconditionError):
                eventual_outage_poisson_exact(params, wrong)

    def test_underflowed_theta_gives_zero_outage(self):
        params = SystemParams(1e3, DET1, 1.0, u0=3.0)
        res = solve_adjustment_coefficient(params)
        assert res.r_star == pytest.approx(params.lam / params.p, rel=1e-15)
        assert eventual_outage_poisson_exact(replace(params, u0=0.0), res.r_star) == 0.0
        assert eventual_outage_poisson_exact(params, res.r_star) == 0.0
        mu = tilted_ladder_mean_poisson(params, res.r_star)
        assert mu == math.inf
        defect = res.r_star * params.p / params.lam
        assert asymptotic_outage(defect, res.r_star, mu, params.u0) == 0.0


class TestApproximations:
    def test_frozen_values(self):
        quad, mv = approx_adjustment_coefficient(mm1())
        assert quad == pytest.approx(1.0 / 11.0, rel=1e-12)
        assert mv == pytest.approx(0.09954751131221723, rel=1e-12)
        quad_det, _ = approx_adjustment_coefficient(SystemParams(1.1, DET1, 1.0))
        assert quad_det == pytest.approx(2.0 / 11.0, rel=1e-12)

    def test_requires_supercritical(self):
        with pytest.raises(PreconditionError):
            approx_adjustment_coefficient(mm1(lam=0.9))

    @given(kind=kinds, mean=means, rho=st.floats(min_value=1.001, max_value=1.05))
    @settings(max_examples=30, deadline=None)
    def test_near_criticality_both_approach_true_root(self, kind, mean, rho):
        # both surrogates come from quadratic expansions around r = 0, so
        # they converge to the true root as rho -> 1+
        p = params_from(kind, mean, rho)
        true = solve_adjustment_coefficient(p, force_numeric=True).r_star
        quad, mv = approx_adjustment_coefficient(p)
        assert quad == pytest.approx(true, rel=0.2)
        assert mv == pytest.approx(true, rel=0.2)


class TestOutageFormulas:
    def test_exact_frozen_values(self):
        assert eventual_outage_poisson_exact(mm1(u0=10.0), 0.1) == pytest.approx(
            PSI_EXP_10, rel=1e-13
        )
        assert eventual_outage_poisson_exact(mm1(u0=5.0), 0.1) == pytest.approx(
            PSI_EXP_5, rel=1e-13
        )
        assert eventual_outage_poisson_exact(mm1(u0=0.0), 0.1) == pytest.approx(
            PSI_EXP_0, rel=1e-13
        )
        assert eventual_outage_poisson_exact(
            SystemParams(1.1, DET1, 1.0, 10.0), R_DET
        ) == pytest.approx(PSI_DET_10, rel=1e-13)
        assert eventual_outage_poisson_exact(
            SystemParams(1.1, UNIF1, 1.0, 10.0), R_UNIF
        ) == pytest.approx(PSI_UNIF_10, rel=1e-13)

    def test_bound_frozen_value(self):
        assert outage_bound(0.1, 10.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert outage_bound(0.5, 0.0) == 1.0

    def test_inconsistent_r_star_rejected(self):
        with pytest.raises(PreconditionError):
            eventual_outage_poisson_exact(mm1(u0=10.0), 0.25)
        with pytest.raises(PreconditionError):
            eventual_outage_poisson_exact(mm1(u0=10.0), -0.1)
        with pytest.raises(PreconditionError):
            eventual_outage_poisson_exact(mm1(lam=0.9, u0=10.0), 0.1)

    @given(kind=kinds, mean=means, rho=rhos_super, u0=st.floats(0.0, 40.0))
    @settings(max_examples=40, deadline=None)
    def test_exact_below_bound(self, kind, mean, rho, u0):
        p = params_from(kind, mean, rho, u0=u0)
        r = solve_adjustment_coefficient(p, force_numeric=True).r_star
        psi = eventual_outage_poisson_exact(p, r)
        assert 0.0 < psi < 1.0
        assert psi <= outage_bound(r, u0) + 1e-15

    def test_asymptotic_reduces_to_exact_for_poisson(self):
        for packet, r in ((EXP1, 0.1), (DET1, R_DET), (UNIF1, R_UNIF)):
            p = SystemParams(1.1, packet, 1.0, 7.0)
            asym = asymptotic_outage(
                r * p.p / p.lam, r, tilted_ladder_mean_poisson(p, r), p.u0
            )
            assert asym == pytest.approx(
                eventual_outage_poisson_exact(p, r), rel=1e-12
            )

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("rho", [1 + 1e-12, 1 + 1e-8, 1.1, 3.0, 1e3])
    def test_asymptotic_equals_exact_over_the_rho_range(self, kind, rho):
        # the defect r* p/lam keeps its digits where 1 - theta cancels
        for u0 in (0.0, 7.0):
            p = params_from(kind, 1.0, rho, u0=u0)
            res = solve_adjustment_coefficient(p)
            asym = asymptotic_outage(
                res.r_star * p.p / p.lam, res.r_star, tilted_ladder_mean_poisson(p, res.r_star), u0
            )
            exact = eventual_outage_poisson_exact(p, res.r_star)
            assert math.isclose(asym, exact, rel_tol=1e-12), (asym, exact)

    def test_asymptotic_rejects_a_defect_outside_0_1(self):
        for defect in (0.0, -0.1, 1.5, math.nan):
            with pytest.raises(PreconditionError):
                asymptotic_outage(defect, 0.1, 10.0, 1.0)

    @pytest.mark.parametrize("call", [
        lambda: outage_bound(0.1, math.nan),
        lambda: ladder_height_density_poisson(mm1(), 0.1, math.nan),
        lambda: ladder_height_density_poisson(mm1(), 0.1, np.array([1.0, math.nan])),
        lambda: estimate_phi_from_max([LadderSample(0.0, None, None)], math.nan),
        lambda: asymptotic_outage(0.1, 0.1, 1.0, math.nan),
    ], ids=["outage_bound", "ladder_density", "ladder_density_array", "phi_from_max", "asymptotic_outage"])
    def test_a_nan_argument_is_rejected(self, call):
        with pytest.raises(PreconditionError):
            call()

    # unchecked, inf * 0 makes the bound nan and log(2) / inf the energy 0.0
    @pytest.mark.parametrize("call", [
        lambda: outage_bound(math.inf, 0.0),
        lambda: outage_bound(math.inf, 1.0),
        lambda: required_initial_energy(math.inf, 0.5),
        lambda: asymptotic_outage(0.1, math.inf, 1.0, 0.0),
    ], ids=["outage_bound_u0_0", "outage_bound", "required_energy", "asymptotic_outage"])
    def test_an_infinite_r_star_is_rejected(self, call):
        with pytest.raises(PreconditionError):
            call()

    def test_required_energy(self):
        assert required_initial_energy(0.1, 0.01) == pytest.approx(
            46.05170185988092, rel=1e-14
        )
        # inverse property: plugging the answer back hits the target
        assert outage_bound(0.37, required_initial_energy(0.37, 1e-3)) == pytest.approx(
            1e-3, rel=1e-12
        )
        with pytest.raises(PreconditionError):
            required_initial_energy(0.1, 0.0)
        with pytest.raises(PreconditionError):
            required_initial_energy(-1.0, 0.5)
        # log(10) / 1e-312 overflows: a typed error, never an inf
        with pytest.raises(DomainError, match="overflows"):
            required_initial_energy(1e-312, 0.1)


class TestLadderAndRenewal:
    def test_ladder_density_mass_is_theta(self):
        p = mm1()
        x = np.linspace(0.0, 80.0, 200001)
        mass = float(np.trapezoid(ladder_height_density_poisson(p, 0.1, x), x))
        assert mass == pytest.approx(1.0 - 0.1 / 1.1, abs=1e-7)

    def test_tilted_mean(self):
        assert tilted_ladder_mean_poisson(mm1(), 0.1) == pytest.approx(1.0)

    def test_density_validation(self):
        with pytest.raises(PreconditionError):
            ladder_height_density_poisson(mm1(), 0.1, -1.0)
        with pytest.raises(PreconditionError):
            ladder_height_density_poisson(mm1(lam=0.9), 0.1, 1.0)

    def test_renewal_matches_closed_form(self):
        p = mm1()
        r, theta = 0.1, 1.0 - 0.1 / 1.1
        step = 0.01
        phi = solve_renewal_equation(
            lambda x: ladder_height_density_poisson(p, r, x), theta, step, u_max=8.0
        )
        u = np.arange(phi.size) * step
        assert np.max(np.abs(phi - (1.0 - theta * np.exp(-r * u)))) < 1e-4

    def test_renewal_monotone_and_bounded(self):
        p = mm1()
        theta = 1.0 - 0.1 / 1.1
        phi = solve_renewal_equation(
            lambda x: ladder_height_density_poisson(p, 0.1, x), theta, 0.02, u_max=6.0
        )
        assert phi[0] == pytest.approx(1.0 - theta)
        assert np.all(np.diff(phi) >= -1e-12)
        assert np.all((phi > 0.0) & (phi <= 1.0 + 1e-12))

    def test_renewal_grid_errors(self):
        with pytest.raises(GridError):
            solve_renewal_equation(lambda x: x * 0, 0.5, 0.3, u_max=1.0)
        with pytest.raises(GridError):
            solve_renewal_equation(lambda x: x * 0, 0.5, -0.1, u_max=1.0)
        for short in (lambda x: 0.1 + 0 * x[:5], lambda x: 0.1):  # not one value per grid point
            with pytest.raises(GridError, match="grid needs"):
                solve_renewal_equation(short, 0.5, 0.1, u_max=1.0)

    def test_renewal_kernel_validation(self):
        with pytest.raises(ValueError):
            solve_renewal_equation(lambda _: np.array([0.1, -0.2, 0.1]), 0.5, 0.1, u_max=0.2)
        with pytest.raises(ValueError):
            # mass way above theta
            solve_renewal_equation(lambda _: np.full(11, 2.0), 0.1, 0.5, u_max=5.0)
        with pytest.raises(PreconditionError):
            solve_renewal_equation(lambda _: np.zeros(3), 1.5, 0.1, u_max=0.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_renewal_rejects_non_finite_kernels(self, bad):
        f = np.array([0.1, 0.1, bad, 0.1])
        with pytest.raises(ValueError, match="not finite at index 2"):
            solve_renewal_equation(lambda _: f, 0.5, 0.1, u_max=0.3)
        with pytest.raises(ValueError, match="not finite at index 2"):
            solve_renewal_equation(lambda x: np.where(x == 0.2, bad, 0.1), 0.5, 0.1, u_max=0.3)

    @pytest.mark.parametrize("rho", [1.1, 1.0 + 1e-6, 1.0 + 1e-9])
    def test_renewal_equals_the_march_on_ladder_densities(self, rho):
        params = mm1(lam=rho)
        r_star = solve_adjustment_coefficient(params).r_star
        theta = eventual_outage_poisson_exact(params, r_star)
        for step, u_max in ((0.01, 10.0), (1e-3, 10.0)):  # the second is c04's grid
            f = ladder_height_density_poisson(params, r_star, np.arange(round(u_max / step) + 1) * step)
            phi = solve_renewal_equation(lambda _: f, theta, step, u_max)
            ref = renewal_march(f, theta, step)
            assert np.max(np.abs(phi - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 63, 64, 65, 1000, 4097])
    def test_renewal_equals_the_march_on_random_kernels(self, n):
        rng = np.random.default_rng(n)
        step = 0.01
        for mass in (0.3, 0.9, 1.0 - 1e-6):
            f = rng.random(n + 1)
            f *= mass / np.trapezoid(f, dx=step)
            phi = solve_renewal_equation(lambda _: f, mass, step, n * step)
            ref = renewal_march(f, mass, step)
            assert np.max(np.abs(phi - ref)) <= 1e-12 * np.max(np.abs(ref)), mass

    def test_renewal_large_grid_is_fast_and_accurate(self):
        params = mm1()
        r, theta = 0.1, 1.0 - 0.1 / 1.1
        n, step = 2**18, 1e-3
        t0 = time.perf_counter()
        phi = solve_renewal_equation(
            lambda x: ladder_height_density_poisson(params, r, x), theta, step, u_max=n * step
        )
        elapsed = time.perf_counter() - t0
        u = np.arange(n + 1) * step
        assert np.max(np.abs(phi - (1.0 - theta * np.exp(-r * u)))) <= 2e-6
        assert elapsed < 5.0


class TestStepDensity:
    # trapezoid tolerances allow for the jump of the deterministic-packet
    # density and the slow exponential left tail
    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    def test_integrates_to_one(self, packet):
        p = SystemParams(1.1, packet, 1.0)
        z = np.linspace(-16.0, 60.0, 400001)
        dens = np.array([step_density(p, float(v)) for v in z])
        assert float(np.trapezoid(dens, z)) == pytest.approx(1.0, abs=5e-4)
        assert np.all(dens >= 0.0)

    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    def test_mean_matches_step_moments(self, packet):
        p = SystemParams(1.1, packet, 1.0)
        z = np.linspace(-16.0, 60.0, 400001)
        dens = np.array([step_density(p, float(v)) for v in z])
        mean = float(np.trapezoid(dens * z, z))
        assert mean == pytest.approx(1.0 / 1.1 - 1.0, abs=5e-3)

    def test_frozen_value_at_zero(self):
        assert step_density(mm1(), 0.0) == pytest.approx(1.1 / 2.1, rel=1e-14)

    def test_supports(self):
        det = SystemParams(1.0, DET1, 1.0)
        assert step_density(det, -1.0 - 1e-9) == 0.0
        assert step_density(det, -1.0) == pytest.approx(1.0)
        unif = SystemParams(1.0, UNIF1, 1.0)
        assert step_density(unif, -2.0 - 1e-9) == 0.0
        assert step_density(unif, 5.0) > 0.0

    @pytest.mark.parametrize("packet", [EXP1, DET1, UNIF1])
    def test_step_cgf_matches_quadrature(self, packet):
        # K(r) = log E[e^{r Z}] for the step Z = p*gap - packet
        p = SystemParams(1.1, packet, 1.0)
        z = np.linspace(-16.0, 60.0, 40001)
        dens = np.array([step_density(p, float(v)) for v in z])
        for r in (-0.5, 0.1, 0.5):
            mgf = float(np.trapezoid(dens * np.exp(r * z), z))
            assert math.log(mgf) == pytest.approx(step_cgf(p, r), abs=2e-3)


class TestUnsustainableRegime:
    def test_stationary_fraction(self):
        assert stationary_outage(mm1(lam=0.9)) == pytest.approx(0.1, rel=1e-12)
        with pytest.raises(PreconditionError):
            stationary_outage(mm1(lam=1.0))
        with pytest.raises(PreconditionError):
            stationary_outage(mm1(lam=1.2))

