import inspect
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy import special as sp

from conftest import bessel_sq_prefix_ref_log, bessel_sq_total_log
from dpp_repulsion import quadrature, repulsion
from dpp_repulsion.asymptotics import _eta_bound_log
from dpp_repulsion.examples import example_spec
from dpp_repulsion.kernels import (
    Family,
    InvalidSpecError,
    KernelSpec,
    NoPositionKernelError,
    UnsupportedFamilyError,
    effective_alpha,
    kernel_radial,
    log_kernel_radial_array,
    max_param,
    squared_norm_log,
)
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


def _reference_log_density(spec, r):
    """The radial log-density as first written: the public kernel function,
    log r clamped at 1e-300, and the NaN scrub.  Exact for r >= 1e-300."""
    logk, _ = log_kernel_radial_array(spec, r)
    log_r = np.where(r > 0, np.log(np.maximum(r, 1e-300)), -np.inf)
    out = 2.0 * logk if spec.n == 1 else (spec.n - 1) * log_r + 2.0 * logk
    return np.where(np.isnan(out), -np.inf, out)


class TestRadialDensity:
    @pytest.mark.parametrize("n", [1, 2, 10, 200])
    @pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
    def test_bound_density_equals_the_reference_formula(self, fam, n):
        # bit for bit, from r = 0 through the mode's scale to 1e300
        spec = example_spec(fam, n=n)
        r = np.concatenate([[0.0, 1e-300, 1e-250, 1e-20],
                            np.geomspace(1e-6, 1e6, 61) * math.sqrt(n), [1e300]])
        if fam not in (Family.BESSEL_TYPE, Family.INDICATOR_SPECTRAL):
            ps = repulsion._density_panels(spec, repulsion.PRODUCTION_REL_TOL)
            r = np.append(r, quadrature.r_of_u(ps.u_mode))
        with np.errstate(all="ignore"):  # r^2 overflows at 1e300
            got = repulsion.radial_density(spec)(r)
            want = _reference_log_density(spec, r)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fam", [Family.LAGUERRE_GAUSS, Family.CAUCHY,
                                     Family.WHITTLE_MATERN], ids=lambda f: f.value)
    def test_log_r_is_exact_below_1e_300(self, fam):
        # r^{n-1} keeps falling below r = 1e-300 instead of freezing there,
        # and r = 0 is -inf without a warning
        spec = example_spec(fam, n=2)
        f = repulsion.radial_density(spec)
        logk, _ = log_kernel_radial_array(spec, np.array([1e-310, 5e-324]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(np.array([1e-310, 5e-324, 0.0]))
            one = f(1e-310)
        assert got[0] == math.log(1e-310) + 2.0 * logk[0]
        assert got[1] == math.log(5e-324) + 2.0 * logk[1]
        assert got[2] == -math.inf
        assert one.tobytes() == got[:1].tobytes()
        assert got[0] < f(np.array([1e-300]))[0] - 20.0


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

    def test_missing_position_kernel_is_typed(self):
        # the CLI keys its "exact moments remain available" hint on this type
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=10, rho=0.0, nu=3.0,
                          alpha=0.5, alpha_rule="scaled")
        with pytest.raises(NoPositionKernelError):
            repulsion.radial_density(spec)
        with pytest.raises(NoPositionKernelError):
            kernel_radial(spec, 1.0)

    @pytest.mark.parametrize("n", [250, 1000])
    def test_bessel_large_n_ratios(self, n):
        spec = example_spec(Family.BESSEL_TYPE, n=n)
        mu, lam, s = repulsion._bessel_y_scale(spec)
        total = repulsion.bessel_sq_moment_log(mu, lam)
        # y = sqrt(n) R / s from 0.3 mu, where jv has not yet underflowed, to 4 mu
        Rs = [y * s / math.sqrt(n) for y in np.linspace(0.3 * mu, 4.0 * mu, 25)]
        logs = [log_eta_ball_ratio(spec, R) for R in Rs]
        vals = [eta_ball_ratio(spec, R) for R in Rs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a <= b for a, b in zip(logs, logs[1:]))
        for R, got in zip(Rs, logs):
            want = bessel_sq_prefix_ref_log(mu, lam, math.sqrt(n) * R / s) - total
            assert got == approx(want, abs=1e-9)

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
        # the kernel-level radii too: NaN fails every comparison, so only a
        # test of r >= 0 rejects it
        with pytest.raises(ValueError, match="NaN"):
            pair_correlation(spec, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            kernel_radial(spec, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            log_kernel_radial_array(spec, np.array([0.5, math.nan]))

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


SMOOTH_SHAPES = {
    Family.LAGUERRE_GAUSS: st.builds(dict, m=st.integers(1, 4)),
    Family.POWER_EXPONENTIAL: st.just({"nu": 2.0, "alpha_rule": "scaled"}),
    Family.WHITTLE_MATERN: st.builds(dict, nu=st.floats(0.5, 2.0)),
    Family.CAUCHY: st.builds(dict, nu=st.floats(0.5, 2.0), alpha_rule=st.just("scaled")),
}


@st.composite
def smooth_specs(draw):
    """A smooth-family spec at a fraction of its existence bound."""
    fam = draw(st.sampled_from(list(SMOOTH_SHAPES)))
    probe = KernelSpec(fam, n=draw(st.integers(1, 1000)), rho=draw(st.floats(-0.1, 0.1)),
                       alpha=1.0, **draw(SMOOTH_SHAPES[fam]))
    frac = draw(st.floats(0.3, 0.9))
    return replace(probe, alpha=frac * max_param(probe) / effective_alpha(probe))


class TestBatchedRatio:
    @given(smooth_specs(), st.lists(st.floats(0.0, 3.0), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_batched_curve_properties(self, spec, ts):
        # R in units of the root mean square radius / sqrt(n), where the mass sits
        scale = math.sqrt(radial_moment(spec, 2) / spec.n)
        Rs = np.array(sorted(ts) + [math.inf]) * scale
        logs = log_eta_ball_ratio(spec, Rs)
        assert logs.shape == Rs.shape and logs[-1] == 0.0
        ratios = np.exp(logs)
        assert np.all((ratios >= 0.0) & (ratios <= 1.0))
        lo, hi = logs[:-1], logs[1:]
        assert np.all((hi >= lo - repulsion.PRODUCTION_REL_TOL) | (lo == -math.inf))
        for R, got in zip(Rs, logs):
            one = log_eta_ball_ratio(spec, float(R))
            assert isinstance(one, float)
            assert got == approx(one, abs=1e-12)

    def test_curve_is_one_panel_set_and_one_prefix_pass(self, monkeypatch):
        builds, prefix_sizes = [], []
        build = repulsion.integrate_log_panels
        prefix = quadrature.PanelSet.log_prefix

        def counted_build(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        def counted_prefix(self, r_hi):
            prefix_sizes.append(np.size(r_hi))
            return prefix(self, r_hi)

        monkeypatch.setattr(repulsion, "integrate_log_panels", counted_build)
        monkeypatch.setattr(quadrature.PanelSet, "log_prefix", counted_prefix)
        repulsion._density_panels.cache_clear()
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=1000, m=4, alpha=0.1)
        report = build_eta_report(spec, np.linspace(0.05, 0.15, 50))
        assert len(report.ratio_curve) == 50
        assert builds == [1] and prefix_sizes == [50]

    def test_ratios_and_cdf_read_one_production_panel_set(self):
        # a ball ratio takes no tolerance of its own, so the spec's cached
        # panels serve its ratios, its CDF and its sampled radii alike
        assert list(inspect.signature(log_eta_ball_ratio).parameters) == ["spec", "R"]
        assert list(inspect.signature(build_eta_report).parameters) == ["spec", "R_grid"]
        repulsion._density_panels.cache_clear()
        spec = KernelSpec(Family.CAUCHY, n=7, nu=1.0, alpha=0.15, alpha_rule="scaled")
        build_eta_report(spec, [0.1, 0.2])
        log_eta_ball_ratio(spec, 0.3)
        repulsion.radial_cdf(spec)
        assert repulsion._density_panels.cache_info()[:2] == (2, 1)  # (hits, misses)


class TestOscillatoryRatio:
    # BesselType specs whose J^2 total once took log(0): its analytic tail
    # Y^{-lam}, lam = sigma + 1, underflowed to 0
    LARGE_SIGMA = [
        KernelSpec(Family.BESSEL_TYPE, n=21, sigma=180.8, alpha=0.289),
        KernelSpec(Family.BESSEL_TYPE, n=10, sigma=120.0, alpha=0.4),
        KernelSpec(Family.BESSEL_TYPE, n=10, sigma=200.0, alpha=0.4),
    ]

    @staticmethod
    def turning_radius(spec):
        """R at which sqrt(n) R reaches the J_mu turning point y = mu."""
        mu, _, s = repulsion._bessel_y_scale(spec)
        return mu * s / math.sqrt(spec.n)

    @pytest.mark.parametrize("spec", LARGE_SIGMA, ids=lambda s: f"n{s.n}-sigma{s.sigma}")
    def test_large_sigma_ratio_monotone(self, spec):
        r_turn = self.turning_radius(spec)
        vals = [log_eta_ball_ratio(spec, float(t) * r_turn) for t in np.linspace(0.02, 3.0, 20)]
        assert all(v <= 0.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] < -1.0 and vals[-1] > -1e-6

    @pytest.mark.parametrize("spec", LARGE_SIGMA, ids=lambda s: f"n{s.n}-sigma{s.sigma}")
    def test_large_sigma_moment(self, spec):
        assert radial_moment_quadrature(spec, 1) == approx(radial_moment(spec, 1), rel=1e-7)

    @given(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=0.02, max_value=0.9),
           st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=2, max_size=6))
    @settings(max_examples=10, deadline=None)
    def test_ratio_in_unit_interval_and_monotone(self, mu, frac, ts):
        # specs whose J_mu^2 y^{-lam} density has (mu, lam) near the drawn pair
        lam = frac * (2.0 * mu + 1.0)
        bessel = KernelSpec(Family.BESSEL_TYPE, n=max(1, round(2.0 * mu + 1.0 - lam)),
                            sigma=max(lam - 1.0, 0.0), alpha=1.0)
        bessel = replace(bessel, alpha=0.5 * max_param(bessel))
        indicator = KernelSpec(Family.INDICATOR_SPECTRAL, n=max(1, round(2.0 * mu)), c=0.5)
        for spec in (bessel, indicator):
            r_turn = self.turning_radius(spec)
            vals = [eta_ball_ratio(spec, t * r_turn) for t in sorted(ts)]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestMoments:
    @pytest.mark.parametrize("moment", [radial_moment, radial_moment_quadrature])
    @pytest.mark.parametrize("k", [-1, 1.5, math.nan, math.inf])
    def test_order_must_be_a_non_negative_integer(self, moment, k):
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=3, rho=0.0, m=2, alpha=0.1)
        with pytest.raises(ValueError, match="k must be a non-negative integer"):
            moment(spec, k)

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

    @pytest.mark.parametrize("n,m", [(10, 30), (10, 60), (10, 120), (2, 30), (2, 120)])
    def test_laguerre_gauss_large_m_quadrature(self, n, m):
        # at large m the Laguerre recurrence overflows in the density's tail,
        # where the kernel takes the rescaled recurrence instead
        probe = KernelSpec(Family.LAGUERRE_GAUSS, n=n, m=m, alpha=1.0)
        spec = replace(probe, alpha=0.5 * max_param(probe))
        assert radial_moment_quadrature(spec, 2) == approx(radial_moment(spec, 2), rel=1e-9)

    @pytest.mark.parametrize("sigma", [2.5, 4.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_bessel_moment_vs_quadrature_totals(self, k, sigma):
        # the closed-form totals against quadrature prefixes plus the
        # asymptotic tail (conftest), with lam - k >= 1.5
        spec = replace(example_spec(Family.BESSEL_TYPE, n=10), sigma=sigma)
        mu, lam = 0.5 * (sigma + spec.n), sigma + 1.0
        s = spec.alpha / math.sqrt(2.0 * (sigma + spec.n))
        ref = math.exp(k * math.log(s) + bessel_sq_total_log(mu, lam - k)
                       - bessel_sq_total_log(mu, lam))
        assert radial_moment_quadrature(spec, k) == approx(ref, rel=1e-6)

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


def _large_shape_spec(fam, shape):
    """A valid n = 5 spec whose shape parameter (nu or sigma) is `shape`."""
    if fam == Family.WHITTLE_MATERN:
        probe = KernelSpec(fam, n=5, nu=shape, alpha=1.0)
        return KernelSpec(fam, n=5, nu=shape, alpha=0.5 * max_param(probe))
    field = "sigma" if fam == Family.BESSEL_TYPE else "nu"
    return KernelSpec(fam, n=5, alpha=0.1, **{field: shape})


def _mp_closed_forms(spec, k):
    """(log squared norm, k-th radial moment) at 40 digits, each Gamma ratio
    a difference of mpmath log-gammas at the spec's exact doubles (rho = 0)."""
    G, mpf = mpmath.loggamma, mpmath.mpf
    n, h, kk = spec.n, mpf(spec.n) / 2, mpf(k) / 2
    if spec.family == Family.BESSEL_TYPE:
        s, a = mpf(spec.sigma), mpf(spec.alpha)
        norm = (h * mpmath.log(2 * mpmath.pi) + n * mpmath.log(a) - h * mpmath.log(s + n)
                + G(s + 1) + 2 * G(s / 2 + h + 1) - 2 * G(s / 2 + 1) - G(s + h + 1))
        moment = (k * mpmath.log(a) + kk * mpmath.log(2 / (s + n)) + G(h + kk) - G(h)
                  + G(s + 1 - k) - G(s + 1) + 2 * G(s / 2 + 1) - 2 * G((s - k) / 2 + 1)
                  + G(s + h + 1) - G(s + h + 1 - kk))
    elif spec.family == Family.WHITTLE_MATERN:
        nu, a = mpf(spec.nu), mpf(spec.alpha)
        norm = (n * mpmath.log(2) + h * mpmath.log(mpmath.pi) + n * mpmath.log(a)
                + G(h + 2 * nu) + 2 * G(h + nu) - 2 * G(nu) - G(n + 2 * nu))
        moment = (k * mpmath.log(2 * a) + G(n + 2 * nu) - G(n + 2 * nu + k)
                  + G(h + kk + 2 * nu) - G(h + 2 * nu) + 2 * G(h + kk + nu) - 2 * G(h + nu)
                  + G(h + kk) - G(h))
    else:
        nu, a = mpf(spec.nu), mpf(effective_alpha(spec))
        norm = (h * mpmath.log(mpmath.pi) + n * mpmath.log(a)
                + G(2 * nu + h) - G(2 * nu + n))
        moment = (k * mpmath.log(a) + G(h + kk) - G(h) + G(2 * nu + h - kk) - G(2 * nu + h))
    return norm, mpmath.exp(moment)


class TestLargeShapeParameters:
    # at nu = 1e12 the log-gamma differences lost 5.5e-3 of the Cauchy norm's
    # log and at 1e20 the whole moment; Gamma ratios keep the digits
    @pytest.mark.parametrize("fam,shape", [
        (Family.CAUCHY, 1e6), (Family.CAUCHY, 1e12), (Family.CAUCHY, 1e20),
        (Family.WHITTLE_MATERN, 1e6), (Family.WHITTLE_MATERN, 1e12),
        (Family.WHITTLE_MATERN, 1e20),
        # BesselType sigma = 1e20 is invalid (sigma + 1 == sigma + 6 as doubles)
        (Family.BESSEL_TYPE, 1e6), (Family.BESSEL_TYPE, 1e12),
    ], ids=str)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_norm_and_moment_vs_mpmath(self, fam, shape, k):
        spec = _large_shape_spec(fam, shape)
        with mpmath.workdps(40):
            norm, moment = _mp_closed_forms(spec, k)
            assert squared_norm_log(spec) == approx(float(norm), rel=1e-12)
            assert radial_moment(spec, k) == approx(float(moment), rel=1e-12)

    @pytest.mark.parametrize("sigma", [1e6, 1e12, 7e16])
    def test_bessel_eta_bound_vs_mpmath(self, sigma):
        spec = _large_shape_spec(Family.BESSEL_TYPE, sigma)
        G, s, h = mpmath.loggamma, mpmath.mpf(sigma), mpmath.mpf(spec.n) / 2
        with mpmath.workdps(40):
            want = float(G(s + 1) + G(s / 2 + h + 1) - G(s / 2 + 1) - G(s + h + 1))
        assert _eta_bound_log(spec)[1] == approx(want, rel=1e-12)

    # the Weber-Schafheitlin route formed mu + (1 - lam)/2 = n/2 by cancellation
    # and subtracted log-gammas near sigma ln sigma: -0.9 % at 1e12, 1.0 at 1e16
    @pytest.mark.parametrize("sigma", [1e8, 1e12, 1e16])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bessel_moment_quadrature_route_keeps_its_digits(self, sigma, k):
        spec = _large_shape_spec(Family.BESSEL_TYPE, sigma)
        assert radial_moment_quadrature(spec, k) == approx(radial_moment(spec, k), rel=1e-10)

    @pytest.mark.parametrize("mu,lam", [
        (0.5, 1.0), (2.5, 3.9), (60.0, 100.0), (100.0, 150.0), (1e6, 1.0),
        (1e12, 10.0),  # the log-gamma difference lost 1.4e-5 of this log
        (5e11 + 2.5, 1e12 + 1.0), (5e15 + 2.0, 1e16),
    ], ids=str)
    def test_bessel_total_vs_mpmath(self, mu, lam):
        G, m, a = mpmath.loggamma, mpmath.mpf(mu), mpmath.mpf(lam)
        with mpmath.workdps(40):
            want = float(G(a) + G(m + (1 - a) / 2) - a * mpmath.log(2)
                         - 2 * G((a + 1) / 2) - G(m + (a + 1) / 2))
        assert abs(quadrature.bessel_sq_moment_log(mu, lam) - want) <= 1e-14 * max(1.0, abs(want))


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

    @pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("r", [1e100, 1e200, math.inf])
    def test_one_far_out_without_warning(self, fam, r):
        assert pair_correlation(example_spec(fam, n=10), r) == 1.0

    @pytest.mark.parametrize("r", [1e77, 1e154, 1e300])
    def test_laguerre_gauss_one_past_overflow(self, r):
        # L_2 overflows from r ~ 1e77 at alpha = 0.3, r^2 from r ~ 1e154
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=10, m=3, alpha=0.3)
        assert pair_correlation(spec, r) == 1.0

    def test_invalid_spec_rejected(self):
        # alpha = 5 is past the existence bound 0.54 at n = 3
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=3, rho=0.0, m=2, alpha=5.0)
        with pytest.raises(InvalidSpecError):
            pair_correlation(spec, 0.5)


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

    @pytest.mark.parametrize("R", [0.0, -0.1, math.nan])
    def test_radius_must_be_positive(self, R):
        with pytest.raises(ValueError, match="R must be > 0"):
            nn_bounds(gauss_spec(n=10), R)
        with pytest.raises(ValueError, match="R must be > 0"):
            log_boolean_degree_ratio(gauss_spec(n=10), R)

    def test_ordering(self):
        for R in (0.1, 0.24, 0.4):
            b = nn_bounds(gauss_spec(n=60), R)
            assert 0.0 <= b.p_lo <= b.p_hi <= 1.0
            assert 0.0 <= b.e_lo <= b.e_hi

    def test_invalid_spec_rejected(self):
        # alpha = 5 is past the existence bound 0.54 at n = 3
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=3, rho=0.0, m=2, alpha=5.0)
        with pytest.raises(InvalidSpecError):
            nn_bounds(spec, 0.5)


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
        lines = report.to_csv().strip().split("\n")
        assert lines[1] == "R,ratio"
        assert len(lines) == 10
        # 17-significant-digit rendering round-trips
        r_back = float(lines[2].split(",")[0])
        assert r_back == report.ratio_curve[0][0]
