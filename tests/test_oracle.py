import math

import numpy as np
import pytest
from pytest import approx
from scipy import special as sp

from dpp_repulsion.examples import example_spec
from dpp_repulsion.kernels import Family, KernelSpec, UnsupportedFamilyError, effective_alpha
from dpp_repulsion.oracle import (
    _gaussian_proposal_scale,
    cartesian_mc_integral,
    empirical_rate,
    mc_ball_ratio,
    sample_radius,
)
from dpp_repulsion.repulsion import (
    eta_ball_ratio,
    eta_total_log,
    log_eta_ball_ratio,
    radial_cdf,
    radial_moment,
)

KS_CRIT_1PCT = 1.6276  # one-sample Kolmogorov-Smirnov, alpha = 0.01


def gauss_spec(n=8, alpha=0.5):
    return KernelSpec(Family.LAGUERRE_GAUSS, n=n, rho=0.0, m=1, alpha=alpha)


class TestSampling:
    def test_same_seed_bitwise_identical(self):
        a = sample_radius(gauss_spec(), 2000, seed=99)
        b = sample_radius(gauss_spec(), 2000, seed=99)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = sample_radius(gauss_spec(), 2000, seed=99)
        b = sample_radius(gauss_spec(), 2000, seed=100)
        assert not np.array_equal(a, b)

    def test_gaussian_second_moment_within_4se(self):
        spec = gauss_spec()
        r = sample_radius(spec, 100000, seed=5)
        want = radial_moment(spec, 2)
        se = float(np.std(r**2, ddof=1)) / math.sqrt(r.size)
        assert abs(float(np.mean(r**2)) - want) <= 4.0 * se

    @pytest.mark.parametrize("fam", [Family.LAGUERRE_GAUSS, Family.POWER_EXPONENTIAL,
                                     Family.WHITTLE_MATERN, Family.CAUCHY],
                             ids=lambda f: f.value)
    def test_ks_against_cdf_at_1pct(self, fam):
        spec = example_spec(fam, n=6)
        r = np.sort(sample_radius(spec, 50000, seed=17))
        cdf = radial_cdf(spec)
        F = cdf.cdf(r)
        k = np.arange(1, r.size + 1)
        ks = max(float(np.max(k / r.size - F)), float(np.max(F - (k - 1) / r.size)))
        assert ks < KS_CRIT_1PCT / math.sqrt(r.size)

    def test_oscillatory_families_refused(self):
        for fam in (Family.BESSEL_TYPE, Family.INDICATOR_SPECTRAL):
            with pytest.raises(UnsupportedFamilyError):
                sample_radius(example_spec(fam, n=6), 10, seed=1)

    def test_count_domain(self):
        with pytest.raises(ValueError):
            sample_radius(gauss_spec(), 0, seed=1)


class TestMcBallRatio:
    def test_huge_radius(self):
        est = mc_ball_ratio(gauss_spec(), 40.0, 5000, seed=3)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_zero_radius(self):
        est = mc_ball_ratio(gauss_spec(), 0.0, 5000, seed=3)
        assert est.value == 0.0

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_matches_quadrature_within_3se(self, n):
        spec = gauss_spec(n=n)
        R = 0.3
        est = mc_ball_ratio(spec, R, 100000, seed=21)
        assert est.agrees_with(eta_ball_ratio(spec, R), n_sigma=3.0)

    def test_serializes(self):
        est = mc_ball_ratio(gauss_spec(), 0.3, 1000, seed=2)
        d = est.to_dict()
        assert d["samples"] == 1000 and d["seed"] == 2


class TestCartesianMc:
    def test_dimension_cap(self):
        with pytest.raises(UnsupportedFamilyError):
            cartesian_mc_integral(gauss_spec(n=9), 0.3, 1000, seed=1)

    @pytest.mark.parametrize("fam", [Family.POWER_EXPONENTIAL, Family.LAGUERRE_GAUSS,
                                     Family.CAUCHY], ids=lambda f: f.value)
    def test_dimension_one_refused(self, fam):
        # at n = 1 the radial density peaks at r = 0 and the proposal collapses
        with pytest.raises(UnsupportedFamilyError):
            cartesian_mc_integral(example_spec(fam, n=1), 0.5, 1000, seed=1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_proposal_scale_matches_gaussian_mode(self, n):
        # r^{n-1} exp(-2 pi^2 r^2 / a_n^2) peaks at sqrt(n - 1) a_n / (2 pi)
        spec = example_spec(Family.POWER_EXPONENTIAL, n=n)
        want = effective_alpha(spec) / (2.0 * math.pi)
        assert _gaussian_proposal_scale(spec) == approx(want, rel=1e-7)

    def test_indicator_refused(self):
        with pytest.raises(UnsupportedFamilyError):
            cartesian_mc_integral(example_spec(Family.INDICATOR_SPECTRAL, n=3),
                                  0.3, 1000, seed=1)

    def test_gaussian_n2_matches_closed_form(self):
        spec = gauss_spec(n=2)
        est = cartesian_mc_integral(spec, 0.4, 200000, seed=11)
        want = math.exp(eta_total_log(spec)) * float(sp.gammainc(1.0, 4.0 * 0.16 / 0.25))
        assert est.agrees_with(want, n_sigma=3.0)

    def test_cauchy_n3_matches_radial_quadrature(self):
        spec = KernelSpec(Family.CAUCHY, n=3, rho=0.0, nu=1.0, alpha=0.15,
                          alpha_rule="scaled")
        est = cartesian_mc_integral(spec, 0.2, 200000, seed=13)
        want = math.exp(eta_total_log(spec) + log_eta_ball_ratio(spec, 0.2))
        assert est.agrees_with(want, n_sigma=3.0)

    def test_deterministic(self):
        a = cartesian_mc_integral(gauss_spec(n=3), 0.3, 50000, seed=7)
        b = cartesian_mc_integral(gauss_spec(n=3), 0.3, 50000, seed=7)
        assert a.value == b.value and a.std_error == b.std_error


class TestEmpiricalRate:
    def test_single_row(self):
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=1, rho=0.0, m=1, alpha=0.3)
        rows = empirical_rate(spec, 0.075, [100])
        assert len(rows) == 1 and rows[0][0] == 100

    def test_decreasing_toward_limit_below_reach(self):
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=1, rho=0.0, m=1, alpha=0.3)
        R = 0.5 * 0.15
        rows = empirical_rate(spec, R, [100, 300, 600])
        vals = [v for _, v in rows]
        assert vals[0] > vals[1] > vals[2]
        from dpp_repulsion.asymptotics import laguerre_eta_rate
        assert vals[-1] == approx(laguerre_eta_rate(R, 1, 0.3, 0.0), abs=0.05)

    def test_normalized_ratio_rate_vanishes_above_reach(self):
        # above R* the normalized ball ratio tends to 1, so its rate tends to 0
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=1, rho=0.0, m=1, alpha=0.3)
        R = 1.3 * 0.15
        rates = [-log_eta_ball_ratio(spec.with_n(n), R) / n for n in (100, 400)]
        assert rates[0] < 5e-3 and rates[1] < rates[0]

    def test_boolean_quantity(self):
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=1, rho=0.0, m=2, alpha=0.3)
        rows = empirical_rate(spec, 0.1, [200], quantity="eta_boolean_ratio")
        from dpp_repulsion.asymptotics import boolean_rate
        assert rows[0][1] == approx(boolean_rate(0.1, 2, 0.3), abs=0.05)

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            empirical_rate(gauss_spec(), 0.1, [10], quantity="nope")
