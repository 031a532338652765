import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy import optimize

from dpp_repulsion.asymptotics import (
    boolean_rate,
    laguerre_eta_rate,
    laguerre_rate,
    nn_threshold,
    reach,
    reach_exceeds_nn,
    summary_table,
)
from dpp_repulsion.examples import example_spec, example_specs
from dpp_repulsion.kernels import (
    Family,
    KernelSpec,
    UnsupportedFamilyError,
    max_param,
    validate,
)
from dpp_repulsion.repulsion import log_eta_ball_ratio, radial_moment

NN_THRESHOLD_RHO0 = 0.2419707245191433497978302  # (2 pi e)^{-1/2}, 40-digit value


class TestReach:
    def test_laguerre(self):
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=5, rho=0.0, m=4, alpha=0.3)
        assert reach(spec) == approx(0.3, rel=1e-14)  # sqrt(4) * 0.3 / 2

    def test_cauchy_scaled(self):
        spec = KernelSpec(Family.CAUCHY, n=5, rho=0.0, nu=1.0, alpha=0.2,
                          alpha_rule="scaled")
        assert reach(spec) == approx(0.2, rel=1e-14)

    def test_powerexp_scaled(self):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=5, rho=0.0, nu=2.0,
                          alpha=0.4, alpha_rule="scaled")
        assert reach(spec) == approx(0.4 * 2.0 / (4.0 * math.pi), rel=1e-14)

    def test_whittle_matern(self):
        spec = KernelSpec(Family.WHITTLE_MATERN, n=5, rho=0.0, nu=1.0, alpha=0.02)
        assert reach(spec) == approx(0.01, rel=1e-14)

    def test_bessel_none(self):
        assert reach(example_spec(Family.BESSEL_TYPE, n=5)) is None

    def test_indicator_none(self):
        assert reach(example_spec(Family.INDICATOR_SPECTRAL, n=5)) is None

    @pytest.mark.parametrize("fam", [Family.POWER_EXPONENTIAL, Family.CAUCHY])
    def test_fixed_rule_rejected(self, fam):
        spec = KernelSpec(fam, n=5, rho=0.0, nu=2.0, alpha=0.1, alpha_rule="fixed")
        with pytest.raises(UnsupportedFamilyError):
            reach(spec)


class TestNnThreshold:
    def test_rho_zero(self):
        assert nn_threshold(0.0) == approx(NN_THRESHOLD_RHO0, abs=1e-15)

    def test_log2_halves(self):
        assert nn_threshold(math.log(2.0)) == approx(nn_threshold(0.0) / 2.0, rel=1e-14)

    def test_large_rho_vanishes(self):
        assert nn_threshold(50.0) < 1e-20


class TestLaguerreRate:
    def test_zero_exactly_at_reach(self):
        for m, alpha in ((1, 0.4), (3, 0.25)):
            assert laguerre_rate(math.sqrt(m) * alpha / 2.0, m, alpha) == approx(0.0, abs=1e-14)

    def test_nonnegative_with_unique_zero(self):
        m, alpha = 2, 0.3
        xs = np.linspace(1e-3, 2.0, 4000)
        vals = np.array([laguerre_rate(float(x), m, alpha) for x in xs])
        assert np.all(vals >= -1e-13)
        near_zero = xs[vals < 1e-4]
        assert near_zero.size > 0
        assert np.all(np.abs(near_zero - math.sqrt(m) * alpha / 2.0) < 0.02)

    def test_divergence_at_origin(self):
        vals = [laguerre_rate(x, 1, 0.4) for x in (1e-3, 1e-6, 1e-9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 15.0

    def test_against_numeric_legendre_transform(self):
        # rate = sup_s [x^2 s - Lambda(s)], Lambda(s) = -(1/2) log(1 - s a^2 m / 2)
        m, alpha = 1, 0.4
        a2m = alpha * alpha * m
        for x in (0.1, 0.17, 0.31):
            def neg_obj(s):
                return -(x * x * s + 0.5 * math.log(1.0 - s * a2m / 2.0))
            res = optimize.minimize_scalar(neg_obj, bounds=(-2e4, 2.0 / a2m - 1e-12),
                                           method="bounded",
                                           options={"xatol": 1e-12})
            assert laguerre_rate(x, m, alpha) == approx(-res.fun, rel=1e-7, abs=1e-9)

    def test_strict_convexity_in_x2(self):
        m, alpha = 2, 0.3
        ts = np.linspace(0.01, 1.0, 300)  # t = x^2
        vals = np.array([laguerre_rate(math.sqrt(t), m, alpha) for t in ts])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second > 0.0)


class TestPiecewiseRates:
    @pytest.mark.parametrize("m,alpha,rho", [(1, 0.4, 0.0), (3, 0.25, 0.1), (2, 0.3, -0.2)])
    def test_eta_rate_branch_continuity(self, m, alpha, rho):
        r_star = math.sqrt(m) * alpha / 2.0
        below = laguerre_eta_rate(r_star * (1.0 - 1e-13), m, alpha, rho)
        above = laguerre_eta_rate(r_star * (1.0 + 1e-13), m, alpha, rho)
        assert abs(below - above) < 1e-12
        assert laguerre_eta_rate(r_star, m, alpha, rho) == approx(above, abs=1e-12)

    def test_eta_rate_flat_above_reach(self):
        m, alpha, rho = 2, 0.3, 0.0
        r_star = math.sqrt(m) * alpha / 2.0
        v1 = laguerre_eta_rate(1.1 * r_star, m, alpha, rho)
        v2 = laguerre_eta_rate(7.0 * r_star, m, alpha, rho)
        assert v1 == v2

    @pytest.mark.parametrize("m,alpha", [(1, 0.4), (2, 0.3)])
    def test_boolean_rate_equals_half_at_reach(self, m, alpha):
        r_star = math.sqrt(m) * alpha / 2.0
        assert boolean_rate(r_star * (1 - 1e-14), m, alpha) == approx(0.5, abs=1e-12)
        assert boolean_rate(r_star * (1 + 1e-14), m, alpha) == approx(0.5, abs=1e-12)

    def test_boolean_rate_quadratic_below(self):
        assert boolean_rate(0.1, 2, 0.3) == approx(2.0 * 0.01 / (0.09 * 2), rel=1e-13)

    def test_boolean_second_branch_value(self):
        m, alpha, R = 2, 0.3, 0.5
        want = 0.5 + math.log(2.0) - math.log(alpha) - 0.5 * math.log(m) + math.log(R)
        assert boolean_rate(R, m, alpha) == approx(want, rel=1e-13)

    @given(st.floats(min_value=0.01, max_value=0.2), st.integers(min_value=1, max_value=4),
           st.floats(min_value=-0.3, max_value=0.3))
    @settings(max_examples=80, deadline=None)
    def test_eta_rate_is_boolean_rate_minus_poisson_exponent(self, R, m, rho):
        # below R*: eta rate = boolean rate + Poisson decay exponent
        alpha = 0.4
        if R >= math.sqrt(m) * alpha / 2.0:
            R = 0.9 * math.sqrt(m) * alpha / 2.0
        poisson_exponent = rho + 0.5 * math.log(2.0 * math.pi * math.e) + math.log(R)
        got = laguerre_eta_rate(R, m, alpha, rho)
        want = boolean_rate(R, m, alpha) - poisson_exponent
        assert got == approx(want, rel=1e-11, abs=1e-11)


class TestReachExceedsNn:
    def test_laguerre_true_case(self):
        # sqrt(2/e) = 0.8578 < sqrt(pi) * 0.5 = 0.8862 < 1
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=10, rho=0.0, m=1, alpha=0.5)
        cert = reach_exceeds_nn(spec)
        assert cert.exceeds
        lo, hi = cert.interval
        assert lo < 0.5 < hi

    def test_laguerre_false_case(self):
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=10, rho=0.0, m=1, alpha=0.4)
        assert not reach_exceeds_nn(spec).exceeds

    def test_cauchy_below_threshold_false(self):
        spec = KernelSpec(Family.CAUCHY, n=10, rho=0.0, nu=1.0, alpha=0.2,
                          alpha_rule="scaled")
        assert not reach_exceeds_nn(spec).exceeds

    def test_cauchy_true_case_at_low_n(self):
        # R* = alpha = 0.4514 passes the threshold 0.242 at n = 2, inside the
        # existence bound on alpha, 0.564
        spec = KernelSpec(Family.CAUCHY, n=2, rho=0.0, nu=2.0, alpha=0.4514,
                          alpha_rule="scaled")
        cert = reach_exceeds_nn(spec)
        assert cert.exceeds
        lo, hi = cert.interval
        assert lo == cert.threshold < 0.4514 < hi
        assert hi == approx(max_param(spec) / math.sqrt(2.0), rel=1e-15)

    def test_cauchy_window_closes_as_n_grows(self):
        his = []
        for n in (2, 10, 100, 1000, 10**4):
            spec = KernelSpec(Family.CAUCHY, n=n, rho=0.0, nu=1.0, alpha=0.2,
                              alpha_rule="scaled")
            lo, hi = reach_exceeds_nn(spec).interval
            his.append(hi)
            assert lo < hi
        assert np.all(np.diff(his) < 0) and his[-1] - nn_threshold(0.0) < 1e-3

    def test_whittle_always_false(self):
        # even pushing alpha to 99% of the existence bound cannot cross
        for n in (2, 30, 200):
            probe = KernelSpec(Family.WHITTLE_MATERN, n=n, rho=0.0, nu=1.0, alpha=1.0)
            spec = KernelSpec(Family.WHITTLE_MATERN, n=n, rho=0.0, nu=1.0,
                              alpha=0.99 * max_param(probe))
            cert = reach_exceeds_nn(spec)
            assert not cert.exceeds
            assert cert.r_star < cert.threshold

    @pytest.mark.parametrize("n,nu", [(1, 0.01), (2, 0.05)])
    def test_whittle_true_case_at_low_n(self, n, nu):
        # R* = alpha / 2 passes the threshold 0.242 once the existence bound
        # on alpha passes twice the threshold, as it does at small n and nu
        probe = KernelSpec(Family.WHITTLE_MATERN, n=n, rho=0.0, nu=nu, alpha=1.0)
        alpha = 0.9 * max_param(probe)
        cert = reach_exceeds_nn(KernelSpec(Family.WHITTLE_MATERN, n=n, rho=0.0, nu=nu,
                                           alpha=alpha))
        assert cert.exceeds and cert.r_star > cert.threshold
        lo, hi = cert.interval
        assert lo == 2.0 * cert.threshold < alpha < hi == max_param(probe)

    def test_whittle_window_empty_at_larger_n(self):
        spec = KernelSpec(Family.WHITTLE_MATERN, n=30, rho=0.0, nu=0.05, alpha=0.1)
        assert max_param(spec) < 2.0 * nn_threshold(0.0)
        assert reach_exceeds_nn(spec).interval is None

    def test_bessel_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            reach_exceeds_nn(example_spec(Family.BESSEL_TYPE, n=5))

    def test_powerexp_window_nonempty_iff_nu_above_one(self):
        lo, hi = reach_exceeds_nn(
            KernelSpec(Family.POWER_EXPONENTIAL, n=5, rho=0.0, nu=2.0, alpha=0.4,
                       alpha_rule="scaled")).interval
        assert lo < hi
        lo1, hi1 = reach_exceeds_nn(
            KernelSpec(Family.POWER_EXPONENTIAL, n=5, rho=0.0, nu=0.8, alpha=0.4,
                       alpha_rule="scaled")).interval
        assert lo1 >= hi1


class TestReachMomentConsistency:
    # lim sqrt(E|X_n|^2 / n) must equal R*; evaluated at n = 10^6 via the exact
    # Gamma-ratio formulas.  WhittleMatern is excluded: its exact second moment
    # grows like n^2 alpha^2, in conflict with the stated alpha/2 reach.
    CASES = [
        KernelSpec(Family.LAGUERRE_GAUSS, n=10**6, rho=0.0, m=1, alpha=0.4),
        KernelSpec(Family.LAGUERRE_GAUSS, n=10**6, rho=0.0, m=3, alpha=0.2),
        KernelSpec(Family.POWER_EXPONENTIAL, n=10**6, rho=0.0, nu=2.0, alpha=0.4,
                   alpha_rule="scaled"),
        KernelSpec(Family.POWER_EXPONENTIAL, n=10**6, rho=0.0, nu=1.5, alpha=0.5,
                   alpha_rule="scaled"),
        KernelSpec(Family.CAUCHY, n=10**6, rho=0.0, nu=1.0, alpha=0.2,
                   alpha_rule="scaled"),
    ]

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: f"{s.family.value}")
    def test_rms_radius_matches_reach(self, spec):
        r_star = reach(spec)
        rms = math.sqrt(radial_moment(spec, 2) / spec.n)
        assert rms == approx(r_star, rel=1e-3)

    def test_whittle_matern_discrepancy_is_real(self):
        # document the open question: the exact moment scales like (alpha/2 n)^2
        spec = KernelSpec(Family.WHITTLE_MATERN, n=10**6, rho=0.0, nu=1.0, alpha=5e-4)
        rms = math.sqrt(radial_moment(spec, 2) / spec.n)
        assert rms / reach(spec) > 100.0


class TestReachOfTheLaw:
    """The median of |X_n| / sqrt(n) under the library's own radial law
    tends to the closed-form reach R* (the paper's headline claim).

    WhittleMatern is left out: its law concentrates near alpha sqrt(n) / 2,
    not at its stated R* = alpha / 2 (see
    `TestReachMomentConsistency::test_whittle_matern_discrepancy_is_real`
    and ROADMAP item 1).
    """

    CASES = [
        dict(family=Family.LAGUERRE_GAUSS, m=2, alpha=0.3),
        dict(family=Family.POWER_EXPONENTIAL, nu=2.0, alpha=1.0, alpha_rule="scaled"),
        dict(family=Family.CAUCHY, nu=1.0, alpha=0.2, alpha_rule="scaled"),
    ]

    @staticmethod
    def median(spec) -> float:
        # bisection on the ball ratio P(|X_n| <= sqrt(n) R) = 1/2
        half = math.log(0.5)
        lo, hi = 0.0, 1.0
        while log_eta_ball_ratio(spec, hi) < half:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if log_eta_ball_ratio(spec, mid) < half else (lo, mid)
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("params", CASES, ids=lambda p: p["family"].value)
    def test_median_radius_tends_to_reach(self, params):
        dist = []
        for n in (100, 1000, 10000):
            spec = KernelSpec(n=n, rho=0.0, **params)
            assert validate(spec).ok
            dist.append(abs(self.median(spec) - reach(spec)))
        assert dist[0] > dist[1] > dist[2]
        assert dist[2] < 1e-3 * reach(spec)


class TestSummaryTable:
    def test_rows_and_renderings(self):
        table = summary_table(example_specs(n=10))
        assert len(table.rows) == 6
        by_family = {r[0]: r for r in table.rows}
        lg = by_family["LaguerreGauss"]
        assert lg[2] == "2^{-n/2} f(n,m)" and lg[5] == "LDP"
        bt = by_family["BesselType"]
        assert bt[4] == "N/A" and bt[5] == "N/A"
        wm = by_family["WhittleMatern"]
        assert wm[2] == "2^{-n/2}" and wm[5] == "Log-concave"
        assert float(wm[4]) == approx(0.01)
        md = table.to_markdown()
        assert md.startswith("| family |")
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0].startswith("family,")
        assert len(csv_text.strip().splitlines()) == 7

    def test_invalid_spec_rejected(self):
        bad = KernelSpec(Family.LAGUERRE_GAUSS, n=4, rho=0.0, m=1, alpha=5.0)
        with pytest.raises(ValueError):
            summary_table([bad])
