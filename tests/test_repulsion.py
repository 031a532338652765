import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy import special as sp

from dpp_repulsion.examples import example_spec
from dpp_repulsion.kernels import Family, KernelSpec, UnsupportedFamilyError, effective_alpha
from dpp_repulsion.repulsion import (
    MomentDivergesError,
    boolean_degree_ratio,
    build_eta_report,
    eta_ball_ratio,
    eta_total_log,
    log_boolean_degree_ratio,
    log_eta_ball_ratio,
    nn_bounds,
    pair_correlation,
    radial_moment,
    radial_moment_quadrature,
)
from dpp_repulsion.special import ln_gamma


def gauss_spec(n=10, rho=0.0, alpha=0.5):
    return KernelSpec(Family.LAGUERRE_GAUSS, n=n, rho=rho, m=1, alpha=alpha)


class TestEtaTotal:
    @pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_indicator_equals_c(self, c, n):
        spec = KernelSpec(Family.INDICATOR_SPECTRAL, n=n, rho=0.2, c=c)
        assert math.exp(eta_total_log(spec)) == approx(c, rel=1e-13)

    def test_gaussian_n2(self):
        assert eta_total_log(gauss_spec(n=2, alpha=0.5)) == approx(
            math.log(math.pi / 8.0), rel=1e-13)

    def test_powerexp_closed_form(self):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=12, rho=0.1, nu=1.5,
                          alpha=0.4, alpha_rule="scaled")
        a_n = effective_alpha(spec)
        want = (-8.0 * math.log(2.0) + 12 * math.log(a_n) + 12 * 0.1
                + ln_gamma(7.0) - 6.0 * math.log(math.pi) - ln_gamma(9.0))
        assert eta_total_log(spec) == approx(want, rel=1e-12)

    @pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [2, 25, 150, 400])
    def test_global_mass_at_most_one(self, fam, n):
        spec = example_spec(fam, n=n)
        assert math.exp(eta_total_log(spec)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n", [2, 25, 150, 400])
    def test_family_bounds(self, n):
        # Laguerre-Gauss: 2^{-n/2} f(n, m)
        from dpp_repulsion.kernels import _laguerre_double_sum_log, ln_binom
        lg = example_spec(Family.LAGUERRE_GAUSS, n=n)
        log_f = (_laguerre_double_sum_log(n, lg.m)
                 - ln_binom(lg.m - 1 + 0.5 * n, lg.m - 1))
        assert eta_total_log(lg) < -0.5 * n * math.log(2.0) + log_f
        # PowerExponential: 2^{-n/nu}
        pe = example_spec(Family.POWER_EXPONENTIAL, n=n)
        assert eta_total_log(pe) < -(n / pe.nu) * math.log(2.0)
        # WhittleMatern and Cauchy: 2^{-n/2}
        for fam in (Family.WHITTLE_MATERN, Family.CAUCHY):
            assert eta_total_log(example_spec(fam, n=n)) < -0.5 * n * math.log(2.0)
        # BesselType Gamma-ratio bound
        bt = example_spec(Family.BESSEL_TYPE, n=n)
        s = bt.sigma
        bound = (ln_gamma(s + 1.0) + ln_gamma(0.5 * s + 0.5 * n + 1.0)
                 - ln_gamma(0.5 * s + 1.0) - ln_gamma(s + 0.5 * n + 1.0))
        assert eta_total_log(bt) < bound


class TestBallRatio:
    def test_zero_radius(self):
        assert eta_ball_ratio(gauss_spec(), 0.0) == 0.0

    def test_huge_radius(self):
        assert eta_ball_ratio(gauss_spec(), 50.0) == approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_gaussian_matches_incomplete_gamma(self, n):
        spec = gauss_spec(n=n, alpha=0.5)
        for R in (0.05, 0.2, 0.35, 0.8):
            want = float(sp.gammainc(0.5 * n, 2.0 * n * R * R / 0.25))
            assert eta_ball_ratio(spec, R) == approx(want, abs=1e-9)

    def test_monotone_in_R(self):
        spec = example_spec(Family.CAUCHY, n=30)
        rs = np.linspace(0.01, 0.8, 24)
        vals = [eta_ball_ratio(spec, float(R)) for R in rs]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_powerexp_nu3_refused_with_moment_route(self):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=10, rho=0.0, nu=3.0,
                          alpha=0.5, alpha_rule="scaled")
        with pytest.raises(UnsupportedFamilyError, match="Chebyshev"):
            eta_ball_ratio(spec, 0.2)

    def test_bessel_large_n_refused(self):
        spec = example_spec(Family.BESSEL_TYPE, n=250)
        with pytest.raises(UnsupportedFamilyError):
            eta_ball_ratio(spec, 0.2)

    def test_bessel_moderate_n_sane(self):
        spec = example_spec(Family.BESSEL_TYPE, n=20)
        vals = [eta_ball_ratio(spec, R) for R in (0.05, 0.2, 0.5, 2.0)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_indicator_ratio_heavy_tail(self):
        spec = example_spec(Family.INDICATOR_SPECTRAL, n=12)
        v1, v2 = eta_ball_ratio(spec, 0.5), eta_ball_ratio(spec, 5.0)
        assert 0.0 < v1 < v2 < 1.0

    @pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
    def test_nan_radius_rejected(self, fam):
        spec = example_spec(fam, n=10)
        with pytest.raises(ValueError, match="NaN"):
            log_eta_ball_ratio(spec, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            eta_ball_ratio(spec, math.nan)

    @pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
    def test_infinite_radius_holds_all_mass(self, fam):
        spec = example_spec(fam, n=10)
        assert log_eta_ball_ratio(spec, math.inf) == 0.0
        assert eta_ball_ratio(spec, math.inf) == 1.0

    @pytest.mark.parametrize("fam", [Family.BESSEL_TYPE, Family.INDICATOR_SPECTRAL],
                             ids=lambda f: f.value)
    def test_oscillatory_ratio_in_one_dimension(self, fam):
        # at n = 1 the density J_mu(y)^2 y^{-2 mu} peaks at y = 0
        spec = example_spec(fam, n=1)
        vals = [eta_ball_ratio(spec, R) for R in (0.05, 0.3, 1.0, 3.0)]
        assert all(0.0 < a <= b < 1.0 for a, b in zip(vals, vals[1:]))


class TestMoments:
    def test_cauchy_second_moment_reference_value(self):
        # alpha_n = 1 with rho = -1 keeps the spec valid; moments ignore rho
        spec = KernelSpec(Family.CAUCHY, n=2, rho=-1.0, nu=1.0, alpha=1.0,
                          alpha_rule="fixed")
        assert radial_moment(spec, 2) == approx(0.5, rel=1e-13)
        assert radial_moment(spec, 4) == approx(1.0 * 2 * 4 / (2 * 4), rel=1e-13)

    def test_gaussian_second_moment(self):
        spec = gauss_spec(n=14, alpha=0.5)
        assert radial_moment(spec, 2) == approx(14 * 0.25 / 4.0, rel=1e-12)

    def test_powerexp_nu2_reduces_to_gaussian(self):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=20, rho=0.0, nu=2.0,
                          alpha=0.4, alpha_rule="scaled")
        a_n = effective_alpha(spec)
        assert radial_moment(spec, 2) == approx(20 * a_n**2 / (4 * math.pi**2), rel=1e-12)

    def test_whittle_matern_exact_line(self):
        spec = KernelSpec(Family.WHITTLE_MATERN, n=10, rho=0.0, nu=1.5, alpha=0.05)
        n, nu, a = 10, 1.5, 0.05
        want = ((2 * a) ** 2 * (0.5 * n + 2 * nu) * (0.5 * n + nu) ** 2 * (0.5 * n)
                / ((n + 1 + 2 * nu) * (n + 2 * nu)))
        assert radial_moment(spec, 2) == approx(want, rel=1e-12)

    @pytest.mark.parametrize("fam,k", [
        (Family.CAUCHY, 2), (Family.CAUCHY, 4),
        (Family.WHITTLE_MATERN, 2), (Family.WHITTLE_MATERN, 4),
        (Family.BESSEL_TYPE, 1), (Family.BESSEL_TYPE, 2),
        (Family.LAGUERRE_GAUSS, 2), (Family.LAGUERRE_GAUSS, 4),
        (Family.POWER_EXPONENTIAL, 2), (Family.POWER_EXPONENTIAL, 4),
    ], ids=lambda v: str(v))
    def test_closed_forms_vs_quadrature(self, fam, k):
        spec = example_spec(fam, n=10)
        got = radial_moment(spec, k)
        ref = radial_moment_quadrature(spec, k)
        assert got == approx(ref, rel=1e-6)

    def test_bessel_admissibility(self):
        spec = example_spec(Family.BESSEL_TYPE, n=10)  # sigma = 2
        with pytest.raises(MomentDivergesError):
            radial_moment(spec, 3)

    def test_indicator_no_moments(self):
        with pytest.raises(MomentDivergesError):
            radial_moment(example_spec(Family.INDICATOR_SPECTRAL, n=6), 2)

    def test_powerexp_only_k24(self):
        spec = example_spec(Family.POWER_EXPONENTIAL, n=10)
        with pytest.raises(MomentDivergesError):
            radial_moment(spec, 3)

    def test_k_zero_is_one(self):
        assert radial_moment(gauss_spec(), 0) == 1.0

    @pytest.mark.parametrize("fam", [Family.LAGUERRE_GAUSS, Family.CAUCHY,
                                     Family.WHITTLE_MATERN])
    def test_chebyshev_consistency(self, fam):
        # 1 - ratio(R) <= Var(|X|^2) / (n R^2 - E|X|^2)^2 whenever n R^2 > E|X|^2
        spec = example_spec(fam, n=40)
        m2 = radial_moment(spec, 2)
        var = radial_moment(spec, 4) - m2 * m2
        for R in (1.1 * math.sqrt(m2 / 40), 1.6 * math.sqrt(m2 / 40)):
            lhs = 1.0 - eta_ball_ratio(spec, R)
            rhs = var / (40 * R * R - m2) ** 2
            assert lhs <= rhs + 1e-12


class TestPairCorrelation:
    STANDARD = [Family.LAGUERRE_GAUSS, Family.POWER_EXPONENTIAL,
                Family.WHITTLE_MATERN, Family.CAUCHY]

    @pytest.mark.parametrize("fam", STANDARD, ids=lambda f: f.value)
    def test_zero_at_origin(self, fam):
        assert pair_correlation(example_spec(fam, n=9), 0.0) == 0.0

    def test_tends_to_one(self):
        spec = example_spec(Family.LAGUERRE_GAUSS, n=9)
        assert pair_correlation(spec, 60.0) == approx(1.0, abs=1e-12)

    def test_gaussian_closed_form(self):
        spec = gauss_spec(n=5, alpha=0.4)
        for r in (0.1, 0.3, 0.9):
            want = 1.0 - math.exp(-2.0 * r * r / 0.16)
            assert pair_correlation(spec, r) == approx(want, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_range(self, r):
        assert 0.0 <= pair_correlation(example_spec(Family.BESSEL_TYPE, n=7), r) <= 1.0


class TestNnBounds:
    def test_small_radius_limits(self):
        b = nn_bounds(gauss_spec(n=100), 0.05)
        assert b.e_hi < 1e-6
        assert b.p_hi == 1.0
        assert b.p_lo == approx(1.0 - b.e_hi, rel=1e-12)
        assert b.e_lo == 0.0

    def test_large_radius_limits(self):
        b = nn_bounds(gauss_spec(n=100), 1.0)
        assert b.e_hi > 1.0e6
        assert b.p_lo == 0.0
        assert b.p_hi == 0.0

    def test_near_threshold_exponent_small(self):
        # at R~ the volume exponent crosses zero: ln e_hi = o(n)
        r_tilde = 1.0 / math.sqrt(2.0 * math.pi * math.e)
        b = nn_bounds(gauss_spec(n=100, rho=0.0), r_tilde)
        assert abs(b.log_e_hi) < 0.1 * 100

    def test_ordering(self):
        for R in (0.1, 0.24, 0.4):
            b = nn_bounds(gauss_spec(n=60), R)
            assert 0.0 <= b.p_lo <= b.p_hi <= 1.0
            assert 0.0 <= b.e_lo <= b.e_hi


class TestBooleanDegree:
    def test_in_unit_interval(self):
        spec = example_spec(Family.LAGUERRE_GAUSS, n=30)
        for R in (0.05, 0.2, 0.5, 3.0):
            assert 0.0 <= boolean_degree_ratio(spec, R) <= 1.0

    def test_vanishes_for_large_R(self):
        spec = example_spec(Family.LAGUERRE_GAUSS, n=30)
        assert boolean_degree_ratio(spec, 8.0) < 1e-20

    def test_rate_against_limit_formula(self):
        # -(1/n) log ratio ~ 2 R^2/(alpha^2 m) below the reach
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=200, rho=0.0, m=1, alpha=0.4)
        got = -log_boolean_degree_ratio(spec, 0.1) / 200
        assert got == approx(2.0 * 0.01 / 0.16, abs=0.01)


class TestEtaReport:
    def test_monotone_curve_and_serializations(self):
        spec = example_spec(Family.LAGUERRE_GAUSS, n=12)
        report = build_eta_report(spec, np.linspace(0.05, 0.6, 8))
        ratios = [v for _, v in report.ratio_curve]
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
        data = json.loads(report.to_json())
        assert data["spec"]["family"] == "LaguerreGauss"
        assert len(data["ratio_curve"]) == 8
        lines = report.to_csv().strip().split("\n")
        assert lines[1] == "R,ratio"
        assert len(lines) == 10
        # 17-significant-digit rendering round-trips
        r_back = float(lines[2].split(",")[0])
        assert r_back == report.ratio_curve[0][0]
