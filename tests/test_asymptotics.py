import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy import optimize

from dpp_repulsion.asymptotics import (
    limit_rate,
    nn_threshold,
    radius_rate,
    reach,
    reach_exceeds_nn,
    summary_table,
)
from dpp_repulsion.examples import example_spec, example_specs
from dpp_repulsion.kernels import (
    Family,
    InvalidSpecError,
    KernelSpec,
    NoPositionKernelError,
    UnsupportedFamilyError,
    max_param,
    validate,
)
from dpp_repulsion.oracle import empirical_rate
from dpp_repulsion.repulsion import eta_total_log, log_eta_ball_ratio, radial_moment

NN_THRESHOLD_RHO0 = 0.2419707245191433497978302  # (2 pi e)^{-1/2}, 40-digit value

# a spec past its existence bound: 5 >= 0.54 at n = 3
PAST_BOUND = KernelSpec(Family.LAGUERRE_GAUSS, n=3, rho=0.0, m=2, alpha=5.0)


def lg(m, alpha, rho=0.0):
    """A LaguerreGauss spec for the rates, which do not depend on n; n = 1
    has the widest existence bound."""
    return KernelSpec(Family.LAGUERRE_GAUSS, n=1, rho=rho, m=m, alpha=alpha)


# one spec per stated radius rate beside LaguerreGauss
POWER_EXP = KernelSpec(Family.POWER_EXPONENTIAL, n=1, rho=0.1, nu=2.0, alpha=0.8,
                       alpha_rule="scaled")
CAUCHY = KernelSpec(Family.CAUCHY, n=1, rho=0.1, nu=1.0, alpha=0.15, alpha_rule="scaled")


def spec_id(spec):
    return spec.family.value


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

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidSpecError):
            reach(PAST_BOUND)

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


class TestRadiusRate:
    @pytest.mark.parametrize("spec", [lg(1, 0.4), lg(3, 0.25), POWER_EXP, CAUCHY], ids=spec_id)
    def test_zero_exactly_at_reach(self, spec):
        assert radius_rate(spec, reach(spec)) == approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("spec", [lg(2, 0.3), POWER_EXP, CAUCHY], ids=spec_id)
    def test_nonnegative_with_unique_zero(self, spec):
        # x from 1e-3 to 2.0 for LaguerreGauss m = 2, alpha = 0.3, and the same
        # range of x / R* for the others; the zero lies within 0.05 R* of R*
        # (0.0106 for that LaguerreGauss spec)
        r_star, r_lg = reach(spec), reach(lg(2, 0.3))
        xs = r_star * np.linspace(1e-3 / r_lg, 2.0 / r_lg, 4000)
        vals = np.array([radius_rate(spec, float(x)) for x in xs])
        assert np.all(vals >= -1e-13)
        near_zero = xs[vals < 1e-4]
        assert near_zero.size > 0
        assert np.all(np.abs(near_zero / r_star - 1.0) < 0.05)

    def test_divergence_at_origin(self):
        vals = [radius_rate(lg(1, 0.4), x) for x in (1e-3, 1e-6, 1e-9)]
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
            assert radius_rate(lg(m, alpha), x) == approx(-res.fun, rel=1e-7, abs=1e-9)

    def test_strict_convexity_in_x2(self):
        ts = np.linspace(0.01, 1.0, 300)  # t = x^2
        vals = np.array([radius_rate(lg(2, 0.3), math.sqrt(t)) for t in ts])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second > 0.0)

    @pytest.mark.parametrize("spec,error", [
        (KernelSpec(Family.POWER_EXPONENTIAL, n=5, rho=0.0, nu=3.0, alpha=0.5,
                    alpha_rule="scaled"), NoPositionKernelError),
        (KernelSpec(Family.WHITTLE_MATERN, n=5, rho=0.0, nu=1.0, alpha=0.02),
         UnsupportedFamilyError),
        (KernelSpec(Family.CAUCHY, n=5, rho=0.0, nu=1.0, alpha=0.15), UnsupportedFamilyError),
        (example_spec(Family.BESSEL_TYPE, n=5), UnsupportedFamilyError),
        (example_spec(Family.INDICATOR_SPECTRAL, n=5), UnsupportedFamilyError),
    ], ids=["PowerExponential-nu3", "WhittleMatern", "Cauchy-fixed", "BesselType",
            "IndicatorSpectral"])
    def test_refused_families(self, spec, error):
        with pytest.raises(error):
            radius_rate(spec, 0.1)
        with pytest.raises(error):
            limit_rate(spec, 0.1, "eta_ball")

    @pytest.mark.parametrize("R", [0.0, -0.1, math.nan])
    def test_radius_must_be_positive(self, R):
        with pytest.raises(ValueError, match="x must be finite and > 0"):
            radius_rate(lg(1, 0.4), R)
        with pytest.raises(ValueError, match="R must be > 0"):
            limit_rate(lg(1, 0.4), R, "eta_ball")

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidSpecError):
            radius_rate(PAST_BOUND, 0.1)
        with pytest.raises(InvalidSpecError):
            limit_rate(PAST_BOUND, 0.1, "eta_ball")


class TestPiecewiseRates:
    @pytest.mark.parametrize("spec", [lg(1, 0.4), lg(3, 0.25, 0.1), lg(2, 0.3, -0.2),
                                      POWER_EXP, CAUCHY], ids=spec_id)
    def test_eta_rate_branch_continuity(self, spec):
        r_star = reach(spec)
        below = limit_rate(spec, r_star * (1.0 - 1e-13), "eta_ball")
        above = limit_rate(spec, r_star * (1.0 + 1e-13), "eta_ball")
        assert abs(below - above) < 1e-12
        assert limit_rate(spec, r_star, "eta_ball") == approx(above, abs=1e-12)

    def test_eta_rate_flat_above_reach(self):
        spec = lg(2, 0.3)
        r_star = reach(spec)
        v1 = limit_rate(spec, 1.1 * r_star, "eta_ball")
        v2 = limit_rate(spec, 7.0 * r_star, "eta_ball")
        assert v1 == v2

    @pytest.mark.parametrize("m,alpha", [(1, 0.4), (2, 0.3)])
    def test_boolean_rate_equals_half_at_reach(self, m, alpha):
        spec = lg(m, alpha)
        r_star = reach(spec)
        assert limit_rate(spec, r_star * (1 - 1e-14), "eta_boolean_ratio") == approx(
            0.5, abs=1e-12)
        assert limit_rate(spec, r_star * (1 + 1e-14), "eta_boolean_ratio") == approx(
            0.5, abs=1e-12)

    def test_boolean_rate_quadratic_below(self):
        assert limit_rate(lg(2, 0.3), 0.1, "eta_boolean_ratio") == approx(
            2.0 * 0.01 / (0.09 * 2), rel=1e-13)

    def test_boolean_second_branch_value(self):
        m, alpha, R = 2, 0.3, 0.5
        want = 0.5 + math.log(2.0) - math.log(alpha) - 0.5 * math.log(m) + math.log(R)
        assert limit_rate(lg(m, alpha), R, "eta_boolean_ratio") == approx(want, rel=1e-13)

    @given(st.floats(min_value=0.01, max_value=0.2), st.integers(min_value=1, max_value=4),
           st.floats(min_value=-0.3, max_value=0.3))
    @settings(max_examples=80, deadline=None)
    def test_eta_rate_is_boolean_rate_minus_poisson_exponent(self, R, m, rho):
        # below R*: eta rate = boolean rate + Poisson decay exponent
        alpha = 0.4
        if R >= math.sqrt(m) * alpha / 2.0:
            R = 0.9 * math.sqrt(m) * alpha / 2.0
        poisson_exponent = rho + 0.5 * math.log(2.0 * math.pi * math.e) + math.log(R)
        got = limit_rate(lg(m, alpha, rho), R, "eta_ball")
        want = limit_rate(lg(m, alpha, rho), R, "eta_boolean_ratio") - poisson_exponent
        assert got == approx(want, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("spec", [lg(3, 0.25, 0.1), POWER_EXP, CAUCHY], ids=spec_id)
    def test_boolean_rate_closed_form_below_reach(self, spec):
        # below R*, with t = (R / R*)^2, the Boolean rate is t / 2 for the
        # Gaussian shape and ln(1 + t) for Cauchy: rho and tau cancel
        # to the last digits, also far below R*
        r_star = reach(spec)
        for R in (1e-4 * r_star, 0.1 * r_star, 0.5 * r_star, 0.9 * r_star):
            t = (R / r_star) ** 2
            want = math.log1p(t) if spec.family == Family.CAUCHY else 0.5 * t
            assert limit_rate(spec, R, "eta_boolean_ratio") == approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("spec", [lg(3, 0.25, 0.1), POWER_EXP, CAUCHY], ids=spec_id)
    def test_tau_closed_form(self, spec):
        # tau = -rho - ln alpha - c, with c per family
        c = {Family.LAGUERRE_GAUSS: 0.5 * math.log(0.5 * 3 * math.pi),
             Family.POWER_EXPONENTIAL: -0.5 * math.log(2.0 * math.pi),
             Family.CAUCHY: 0.5 * math.log(0.5 * math.pi * math.e)}[spec.family]
        want = -spec.rho - math.log(spec.alpha) - c
        for R in (reach(spec), 3.0 * reach(spec)):
            assert limit_rate(spec, R, "eta_ball") == approx(want, rel=1e-14)

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            limit_rate(lg(1, 0.4), 0.1, "nope")


class TestLimitRateConvergence:
    """-(1/n) log of each quantity at finite n tends to `limit_rate`, on both
    sides of R*: R* = 0.15 (Cauchy) and 0.127 (PowerExponential)."""

    @pytest.mark.parametrize("spec,R", [(CAUCHY, 0.1), (CAUCHY, 0.3),
                                        (POWER_EXP, 0.1), (POWER_EXP, 0.2)],
                             ids=["Cauchy-below", "Cauchy-above",
                                  "PowerExponential-below", "PowerExponential-above"])
    @pytest.mark.parametrize("quantity", ["eta_ball", "eta_boolean_ratio"])
    def test_gap_shrinks_each_decade(self, spec, R, quantity):
        limit = limit_rate(spec, R, quantity)
        gaps = [abs(v - limit) for _, v in empirical_rate(spec, R, [100, 1000, 10000],
                                                           quantity=quantity)]
        # PowerExponential's eta_ball rate above R* is exact at every n
        assert all(b < a or a < 1e-12 for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 1e-3

    @pytest.mark.parametrize("spec", [lg(2, 0.3, 0.1), POWER_EXP, CAUCHY], ids=spec_id)
    def test_tau_against_the_exact_norm(self, spec):
        # at R = inf the ball is the whole space, whose rate is tau
        n = 10**5
        assert limit_rate(spec, math.inf, "eta_ball") == approx(
            -eta_total_log(spec.with_n(n)) / n, abs=1e-4)


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

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidSpecError):
            reach_exceeds_nn(PAST_BOUND)

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
    and ROADMAP item 5).
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

    def test_reach_cells_are_reach_exceeds_nn(self):
        specs = [spec for n in (2, 10, 57, 400) for spec in example_specs(n=n)]
        specs += [
            # R* = 0.4514 passes the threshold 0.242 here
            KernelSpec(Family.CAUCHY, n=2, rho=0.0, nu=2.0, alpha=0.4514, alpha_rule="scaled"),
            # fixed alpha rules state no R*
            KernelSpec(Family.POWER_EXPONENTIAL, n=10, rho=0.0, nu=2.0, alpha=0.3,
                       alpha_rule="fixed"),
            KernelSpec(Family.CAUCHY, n=10, rho=0.0, nu=1.0, alpha=0.15, alpha_rule="fixed"),
        ]
        cells = []
        for spec in specs:
            try:
                cert = reach_exceeds_nn(spec)
                cells.append((f"{cert.r_star:.6g}", str(cert.exceeds)))
            except UnsupportedFamilyError:
                cells.append(("N/A", "N/A"))
        assert [(row[4], row[6]) for row in summary_table(specs).rows] == cells
        assert {exceeds for _, exceeds in cells} == {"True", "False", "N/A"}
        assert cells[-3:] == [("0.4514", "True"), ("N/A", "N/A"), ("N/A", "N/A")]
        with pytest.raises(InvalidSpecError):
            summary_table(specs + [PAST_BOUND])

    def test_invalid_spec_rejected(self):
        bad = KernelSpec(Family.LAGUERRE_GAUSS, n=4, rho=0.0, m=1, alpha=5.0)
        with pytest.raises(ValueError):
            summary_table([bad])

    def test_invalid_spec_raises_the_spec_error(self):
        # the existence bound at n = 3, m = 2 is 0.54
        bad = KernelSpec(Family.LAGUERRE_GAUSS, n=3, rho=0.0, m=2, alpha=5.0)
        with pytest.raises(InvalidSpecError, match="existence bound"):
            summary_table([bad])
