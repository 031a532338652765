import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy import special as sp

from conftest import laguerre_double_sum_log_exact, quadrature_norm_log, surface_log
from dpp_repulsion.kernels import (
    Family,
    InvalidSpecError,
    KernelSpec,
    UnsupportedFamilyError,
    _laguerre_double_sum_log,
    effective_alpha,
    indicator_radius,
    intensity_log,
    kernel_radial,
    log_kernel_radial_array,
    max_param,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spectral_radial,
    squared_norm_log,
    validate,
)
from dpp_repulsion.quadrature import LogIntegrand, integrate_log_panels
from dpp_repulsion.special import LN_GAMMA_MAX_ARG, ln_gamma


def gauss_spec(n=10, rho=0.0, alpha=0.5):
    return KernelSpec(Family.LAGUERRE_GAUSS, n=n, rho=rho, m=1, alpha=alpha)


class TestIntensity:
    @pytest.mark.parametrize("n,rho,want", [(10, 0.0, 0.0), (10, 0.5, 5.0), (100, -1.0, -100.0)])
    def test_values(self, n, rho, want):
        assert intensity_log(gauss_spec(n=n, rho=rho)) == want


class TestMaxParam:
    def test_laguerre_n_uniform(self):
        # e^{-rho} (m pi)^{-1/2} at rho = 0, m = 1
        got = max_param(gauss_spec(), n_uniform=True)
        assert got == approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_laguerre_exact_exceeds_uniform_and_decreases(self):
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=2, rho=0.0, m=3, alpha=0.1)
        uniform = max_param(spec, n_uniform=True)
        prev = math.inf
        for n in (2, 6, 20, 80, 320, 1280, 10**6):
            exact = max_param(spec.with_n(n))
            assert exact > uniform
            assert exact < prev + 1e-15
            prev = exact
        # binom^{1/n} -> 1 at the slow O(log n / n) pace
        assert prev == approx(uniform, rel=1e-4)

    def test_whittle_matern_closed_case(self):
        # nu=1, n=2, rho=0: Gamma(1)=Gamma(2)=1 so the bound is 1/(2 sqrt(pi))
        spec = KernelSpec(Family.WHITTLE_MATERN, n=2, rho=0.0, nu=1.0, alpha=0.1)
        assert max_param(spec) == approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12)

    def test_powerexp_bound_formula(self):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=6, rho=0.2, nu=3.0, alpha=0.1)
        want = math.exp((ln_gamma(3.0) - ln_gamma(4.0)) / 6.0) * math.sqrt(math.pi) * math.exp(-0.2)
        assert max_param(spec) == approx(want, rel=1e-12)


    @pytest.mark.parametrize("family,field,want", [
        (Family.CAUCHY, "nu", math.sqrt(1e307 / math.pi)),
        (Family.WHITTLE_MATERN, "nu", 1.0 / (2.0 * math.sqrt(math.pi * 1e307))),
        (Family.BESSEL_TYPE, "sigma", 1.0 / math.sqrt(math.pi)),
    ])
    def test_huge_shape_parameter_limit(self, family, field, want):
        # ln Gamma overflows at 1e307; the bound is its large-parameter limit
        spec = KernelSpec(family, n=5, rho=0.0, alpha=0.1, **{field: 1e307})
        assert max_param(spec) == approx(want, rel=1e-12)

    @pytest.mark.parametrize("nu", [1e3, 1e8, 1e20, 1e100])
    def test_large_nu_bounds_keep_their_digits(self, nu):
        # a difference of two ln Gamma near nu ln nu would cancel to noise
        n = 7
        with mpmath.workdps(200):
            log_ratio = float(mpmath.loggamma(mpmath.mpf(nu) + 0.5 * n) - mpmath.loggamma(nu))
        cauchy = KernelSpec(Family.CAUCHY, n=n, rho=0.0, nu=nu, alpha=0.1)
        matern = KernelSpec(Family.WHITTLE_MATERN, n=n, rho=0.0, nu=nu, alpha=1e-60)
        assert max_param(cauchy) == approx(math.exp(log_ratio / n) / math.sqrt(math.pi),
                                           rel=1e-13)
        assert max_param(matern) == approx(
            math.exp(-log_ratio / n) / (2.0 * math.sqrt(math.pi)), rel=1e-13)


class TestValidate:
    def test_gaussian_ok(self):
        assert validate(gauss_spec(alpha=0.5)).ok  # 0.5 < 0.5642

    @pytest.mark.parametrize("family,field", [
        (Family.CAUCHY, "nu"), (Family.WHITTLE_MATERN, "nu"), (Family.BESSEL_TYPE, "sigma")])
    def test_shape_parameter_where_ln_gamma_overflows(self, family, field):
        # n + 2 x must stay at or below LN_GAMMA_MAX_ARG; BesselType's sigma
        # stops far below, where sigma + 1 and sigma + n + 1 round together
        # (test_bessel_sigma_where_the_exponent_gap_rounds_away), so its largest
        # valid sigma at n = 5 is the double below 2^56
        n = 5
        top = 0.5 * (LN_GAMMA_MAX_ARG - n)
        if family == Family.BESSEL_TYPE:
            top = math.nextafter(2.0**56, 0.0)
        alpha = 1e-160 if family == Family.WHITTLE_MATERN else 0.1
        assert validate(KernelSpec(family, n=n, rho=0.0, alpha=alpha, **{field: top})).ok
        rep = validate(KernelSpec(family, n=n, rho=0.0, alpha=alpha, **{field: 1.01 * top}))
        assert not rep.ok
        assert [name for name, _ in rep.violations] == [field]

    @pytest.mark.parametrize("n", [1, 5, 1000])
    def test_bessel_sigma_where_the_exponent_gap_rounds_away(self, n):
        # the density J_mu^2 y^{-lam} needs lam = sigma + 1 < 2 mu + 1 = sigma + n + 1
        sigma = 1.0
        while sigma + 1.0 < sigma + n + 1.0:
            sigma *= 2.0
        ok = KernelSpec(Family.BESSEL_TYPE, n=n, sigma=math.nextafter(sigma / 2.0, 0.0),
                        alpha=0.1)
        assert validate(ok).ok
        rep = validate(KernelSpec(Family.BESSEL_TYPE, n=n, sigma=sigma, alpha=0.1))
        assert [name for name, _ in rep.violations] == ["sigma"]
        assert "round to the same double" in rep.violations[0][1]

    def test_gaussian_alpha_too_big(self):
        rep = validate(gauss_spec(alpha=0.6))
        assert not rep.ok
        assert rep.violations[0][0] == "alpha"

    def test_indicator_spectrum_touching_one(self):
        rep = validate(KernelSpec(Family.INDICATOR_SPECTRAL, n=4, rho=0.0, c=1.0))
        assert not rep.ok

    def test_bessel_sigma_zero_flagged(self):
        rep = validate(KernelSpec(Family.BESSEL_TYPE, n=4, rho=0.0, sigma=0.0, alpha=0.2))
        assert rep.ok and rep.notes

    def test_missing_field(self):
        rep = validate(KernelSpec(Family.WHITTLE_MATERN, n=4, rho=0.0, alpha=0.1))
        assert not rep.ok

    def test_scaled_rule_only_where_defined(self):
        rep = validate(KernelSpec(Family.WHITTLE_MATERN, n=4, rho=0.0, nu=1.0,
                                  alpha=0.05, alpha_rule="scaled"))
        assert not rep.ok

    @given(st.sampled_from([2, 3, 10, 77]), st.floats(min_value=-0.5, max_value=0.5),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_margin_below_bound_always_valid(self, n, rho, m):
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=n, rho=rho, m=m, alpha=1.0)
        bound = max_param(spec)
        assert validate(KernelSpec(Family.LAGUERRE_GAUSS, n=n, rho=rho, m=m,
                                   alpha=0.9 * bound)).ok


class TestInputBoundary:
    @pytest.mark.parametrize("kwargs", [
        dict(family=Family.LAGUERRE_GAUSS, n=10, m=2.5, alpha=0.3),
        dict(family=Family.LAGUERRE_GAUSS, n=10, m=True, alpha=0.3),
        dict(family=Family.LAGUERRE_GAUSS, n=2.5, m=2, alpha=0.3),
        dict(family=Family.LAGUERRE_GAUSS, n=True, m=2, alpha=0.3),
        dict(family=Family.LAGUERRE_GAUSS, n=None, m=2, alpha=0.3),
        dict(family=Family.LAGUERRE_GAUSS, n=10, m=2, alpha=math.nan),
        dict(family=Family.BESSEL_TYPE, n=10, sigma=math.nan, alpha=0.3),
        dict(family=Family.BESSEL_TYPE, n=10, sigma=math.inf, alpha=0.3),
        dict(family=Family.CAUCHY, n=10, rho=-math.inf, nu=1.0, alpha=0.1),
        dict(family=Family.CAUCHY, n=10, rho=math.nan, nu=1.0, alpha=0.1),
        dict(family=Family.CAUCHY, n=10, nu=math.inf, alpha=0.1),
        dict(family=Family.WHITTLE_MATERN, n=10, nu=1.0, alpha=-math.inf),
        dict(family=Family.INDICATOR_SPECTRAL, n=10, c=math.nan),
        dict(family=Family.INDICATOR_SPECTRAL, n=10, c="0.5"),
        dict(family="Ginibre", n=10),
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_input_rejected(self, kwargs):
        with pytest.raises(InvalidSpecError):
            KernelSpec(**kwargs)

    def test_integral_values_become_ints(self):
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=np.int64(10), m=2.0, alpha=0.3)
        assert spec == KernelSpec(Family.LAGUERRE_GAUSS, n=10, m=2, alpha=0.3)
        assert type(spec.n) is int and type(spec.m) is int
        assert json.loads(json.dumps(spec_to_dict(spec)))["n"] == 10


class TestEffectiveAlpha:
    def test_powerexp_scaled(self):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=16, rho=0.0, nu=2.0,
                          alpha=0.4, alpha_rule="scaled")
        assert effective_alpha(spec) == approx(0.4 * 16 ** 0.0, rel=1e-14)
        spec3 = KernelSpec(Family.POWER_EXPONENTIAL, n=64, rho=0.0, nu=1.0,
                           alpha=0.4, alpha_rule="scaled")
        assert effective_alpha(spec3) == approx(0.4 * 8.0, rel=1e-14)

    def test_cauchy_scaled(self):
        spec = KernelSpec(Family.CAUCHY, n=25, rho=0.0, nu=1.0, alpha=0.2,
                          alpha_rule="scaled")
        assert effective_alpha(spec) == approx(1.0, rel=1e-14)


class TestKernelRadial:
    STANDARD = [
        KernelSpec(Family.LAGUERRE_GAUSS, n=12, rho=0.2, m=2, alpha=0.3),
        KernelSpec(Family.POWER_EXPONENTIAL, n=12, rho=0.1, nu=2.0, alpha=0.4,
                   alpha_rule="scaled"),
        KernelSpec(Family.WHITTLE_MATERN, n=12, rho=-0.1, nu=1.5, alpha=0.03),
        KernelSpec(Family.CAUCHY, n=12, rho=0.0, nu=1.0, alpha=0.15, alpha_rule="scaled"),
        KernelSpec(Family.BESSEL_TYPE, n=12, rho=0.0, sigma=2.0, alpha=0.3),
    ]

    @pytest.mark.parametrize("spec", STANDARD, ids=lambda s: s.family.value)
    def test_value_at_zero_is_intensity(self, spec):
        log_k0, sign = kernel_radial(spec, 0.0)
        assert sign == 1
        assert log_k0 == approx(spec.n * spec.rho, abs=1e-12)

    @pytest.mark.parametrize("spec", STANDARD[2:], ids=lambda s: s.family.value)
    def test_limit_from_above(self, spec):
        # WhittleMatern and BesselType reach e^{n rho} only as a limit
        vals = [kernel_radial(spec, r)[0]
                for r in (1e-2, 1e-3, 1e-4, 1e-5)]
        errs = [abs(v - spec.n * spec.rho) for v in vals]
        assert all(a >= b - 1e-14 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-6

    def test_indicator_zero_value_carries_sqrt_c(self):
        spec = KernelSpec(Family.INDICATOR_SPECTRAL, n=6, rho=0.25, c=0.49)
        assert kernel_radial(spec, 0.0)[0] == approx(6 * 0.25 + 0.5 * math.log(0.49), rel=1e-10)

    def test_cauchy_at_alpha(self):
        spec = KernelSpec(Family.CAUCHY, n=9, rho=0.1, nu=2.0, alpha=0.8,
                          alpha_rule="fixed")
        want = 9 * 0.1 - (2.0 + 4.5) * math.log(2.0)
        assert kernel_radial(spec, 0.8)[0] == approx(want, rel=1e-12)

    def test_powerexp_nu3_unsupported(self):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=6, rho=0.0, nu=3.0,
                          alpha=0.5, alpha_rule="scaled")
        with pytest.raises(UnsupportedFamilyError):
            kernel_radial(spec, 1.0)

    def test_bessel_sign_changes_at_j_zeros(self):
        spec = KernelSpec(Family.BESSEL_TYPE, n=4, rho=0.0, sigma=1.0, alpha=0.3)
        mu = 0.5 * (1.0 + 4.0)
        scale = (2.0 / 0.3) * math.sqrt(mu)           # y = scale * r
        zeros = sp.jn_zeros(2, 3) if mu.is_integer() else None
        rs = np.linspace(1e-3, 3.0, 4000)
        logmag, sign = log_kernel_radial_array(spec, rs)
        flips = rs[np.where(np.diff(np.sign(sign)) != 0)[0]]
        for r_flip in flips[:4]:
            assert abs(sp.jv(mu, scale * r_flip)) < 1e-2

    def test_whittle_matern_far_tail(self):
        # scipy's kve is NaN past z ~ 1e9, where ln_bessel_k takes the asymptotic form
        import mpmath as mp

        nu, alpha = 1.5, 0.02
        spec = KernelSpec(Family.WHITTLE_MATERN, n=3, rho=0.0, nu=nu, alpha=alpha)
        rs = np.array([3e7, 1e10, 1e14])
        got, sign = log_kernel_radial_array(spec, rs)
        with mp.workdps(30):
            want = [float((1.0 - nu) * mp.log(2) - mp.loggamma(nu) + nu * mp.log(r / alpha)
                          + mp.log(mp.besselk(nu, r / alpha))) for r in rs]
        assert got == approx(want, rel=1e-14)
        assert np.all(sign == 1)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.0, 8.0, 300.0])
    def test_whittle_matern_below_smallest_normal(self, nu):
        # kve overflows at every order below z ~ 3e-308; the kernel still tends to
        # e^{n rho}, up to the rounding of nu ln z and ln K_nu(z), which cancel
        spec = KernelSpec(Family.WHITTLE_MATERN, n=3, rho=0.2, nu=nu, alpha=0.01)
        got, sign = log_kernel_radial_array(spec, np.array([1e-320, 1e-310, 1e-300]))
        assert np.all(np.isfinite(got)) and np.all(sign == 1)
        assert got == approx(np.full(3, 3 * 0.2), abs=1e-15 * max(100.0, 740.0 * nu))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            kernel_radial(gauss_spec(), -1.0)


class TestSpectralRadial:
    def test_powerexp_at_zero_below_one(self):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=8, rho=0.0, nu=1.5,
                          alpha=0.5, alpha_rule="scaled")
        a_n = effective_alpha(spec)
        want = math.exp(ln_gamma(5.0) + 8 * math.log(a_n)
                        - 4.0 * math.log(math.pi) - ln_gamma(8 / 1.5 + 1.0))
        got = spectral_radial(spec, 0.0)
        assert got == approx(want, rel=1e-12)
        assert got < 1.0

    def test_indicator_step(self):
        spec = KernelSpec(Family.INDICATOR_SPECTRAL, n=7, rho=0.1, c=0.36)
        r_n = indicator_radius(spec)
        assert spectral_radial(spec, 0.5 * r_n) == approx(0.6, rel=1e-12)
        assert spectral_radial(spec, 2.0 * r_n) == 0.0

    def test_gaussian_transform_pair(self):
        # forward transform of the m=1 kernel evaluated by quadrature:
        # K_hat(xi) = surface int r^{n-1} K(r) (J_{n/2-1} ring integral);
        # instead check the closed Gaussian pair at n=1 where the transform
        # is the classical 1-d integral 2 int_0^inf K(r) cos(2 pi xi r) dr
        spec = gauss_spec(n=1, alpha=0.5)
        xi = 0.7
        rs = np.linspace(0.0, 30.0, 400001)
        vals = np.exp(-(rs / 0.5) ** 2) * np.cos(2 * math.pi * xi * rs)
        want = 2.0 * np.trapezoid(vals, rs)
        assert spectral_radial(spec, xi) == approx(float(want), rel=1e-8)

    @given(st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_valid_spec_stays_below_one(self, xi):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=10, rho=0.1, nu=2.5,
                          alpha=0.9, alpha_rule="scaled")
        assert validate(spec).ok
        assert 0.0 <= spectral_radial(spec, xi) < 1.0

    def test_parseval_powerexp(self):
        # squared norm from the spectral side must match the closed form;
        # the log amplitude is anchored to spectral_radial at xi = 0 so this
        # also pins the Fourier convention
        for n in (2, 10, 50):
            spec = KernelSpec(Family.POWER_EXPONENTIAL, n=n, rho=0.05, nu=1.4,
                              alpha=0.3, alpha_rule="scaled")
            assert validate(spec).ok
            a_n = effective_alpha(spec)
            log_amp = math.log(spectral_radial(spec, 0.0))
            for xi in (0.3, 1.7):
                assert math.log(spectral_radial(spec, xi)) == approx(
                    log_amp - (a_n * xi) ** 1.4, rel=1e-12)

            def log_f(r, a_n=a_n, log_amp=log_amp, n=n):
                r = np.asarray(r, dtype=float)
                with np.errstate(divide="ignore"):
                    out = np.where(r > 0, (n - 1) * np.log(np.maximum(r, 1e-300)), -np.inf)
                return out + 2.0 * (log_amp - (a_n * r) ** 1.4)

            got = (surface_log(n)
                   + integrate_log_panels(LogIntegrand(log_f),
                                          rel_tol=1e-10).log_total)
            want = squared_norm_log(spec)
            assert got == approx(want, rel=1e-8, abs=1e-8)


class TestSquaredNorm:
    def test_indicator_exact(self):
        spec = KernelSpec(Family.INDICATOR_SPECTRAL, n=23, rho=0.4, c=0.7)
        assert squared_norm_log(spec) == approx(math.log(0.7) + 23 * 0.4, rel=1e-14)

    def test_gaussian_closed_form(self):
        spec = gauss_spec(n=6, rho=0.1, alpha=0.5)
        want = 2 * 6 * 0.1 + 3.0 * math.log(math.pi * 0.25 / 2.0)
        assert squared_norm_log(spec) == approx(want, rel=1e-13)

    def test_cauchy_beta_form(self):
        spec = KernelSpec(Family.CAUCHY, n=8, rho=0.05, nu=1.5, alpha=0.1,
                          alpha_rule="scaled")
        a_n = effective_alpha(spec)
        want = (2 * 8 * 0.05 + 4.0 * math.log(math.pi) + 8 * math.log(a_n)
                - ln_gamma(4.0)
                + ln_gamma(4.0) + ln_gamma(3.0 + 4.0) - ln_gamma(3.0 + 8.0))
        assert squared_norm_log(spec) == approx(want, rel=1e-12)

    NORM_SPECS = [
        KernelSpec(Family.LAGUERRE_GAUSS, rho=0.1, n=1, m=3, alpha=0.25),
        KernelSpec(Family.POWER_EXPONENTIAL, rho=0.0, n=1, nu=2.0, alpha=0.5,
                   alpha_rule="scaled"),
        KernelSpec(Family.WHITTLE_MATERN, rho=0.0, n=1, nu=1.5, alpha=0.01),
        KernelSpec(Family.CAUCHY, rho=0.0, n=1, nu=1.0, alpha=0.1, alpha_rule="scaled"),
        KernelSpec(Family.BESSEL_TYPE, rho=0.0, n=1, sigma=2.0, alpha=0.2),
        KernelSpec(Family.INDICATOR_SPECTRAL, rho=0.1, n=1, c=0.5),
    ]

    @pytest.mark.parametrize("template", NORM_SPECS, ids=lambda s: s.family.value)
    @pytest.mark.parametrize("n", [2, 5, 10, 50, 200])
    def test_closed_form_vs_quadrature(self, template, n):
        spec = template.with_n(n)
        want = squared_norm_log(spec)
        got = quadrature_norm_log(spec)
        assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 7, 24, 60])
    def test_laguerre_sum_signed_log_vs_naive_float(self, n, m):
        halfn = 0.5 * n
        naive = 0.0
        for k in range(m):
            for j in range(m):
                b_k = math.exp(ln_gamma(m + halfn) - ln_gamma(m - k) - ln_gamma(halfn + k + 1))
                b_j = math.exp(ln_gamma(m + halfn) - ln_gamma(m - j) - ln_gamma(halfn + j + 1))
                naive += (b_k * b_j * (-1.0) ** (k + j)
                          * math.exp(ln_gamma(halfn + k + j) - ln_gamma(halfn))
                          / (2.0 ** (k + j) * math.factorial(k) * math.factorial(j)))
        assert _laguerre_double_sum_log(n, m) == approx(math.log(naive), rel=1e-9)

    @pytest.mark.parametrize("n,m,shift", [
        *(pytest.param(n, m, Fraction(0), id=f"{n}-{m}")
          for n, m in [(600, 4), (999, 3), (60, 10), (1000, 8), (1, 30), (3, 60), (100, 60)]),
        *(pytest.param(n, m, shift, id=f"{n}-{m}-{shift}")
          for n, m in [(600, 4), (999, 3), (60, 10), (1000, 8), (1, 30)]
          for shift in (Fraction(1, 2), Fraction(3, 2), Fraction(2))),
        pytest.param(2, 3, Fraction(2), id="2-3-2"),  # c_1 = C(3, 2) - C(3, 1) = 0
        # shift near m-1+n/2, where the inner sums c_t cancel by many digits
        *(pytest.param(n, m, shift, id=f"{n}-{m}-{shift}")
          for n, m, shift in [(1, 30, Fraction(15)), (2, 10, Fraction(10)),
                              (1, 30, Fraction(30)), (10, 20, Fraction(20)),
                              (1, 100, Fraction(11, 2)), (100, 60, Fraction(80)),
                              (1, 60, Fraction(60))]),
    ])
    def test_laguerre_sum_vs_exact_rational(self, n, m, shift):
        want = laguerre_double_sum_log_exact(n, m, shift)
        got = _laguerre_double_sum_log(n, m, int(2 * shift))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=200, deadline=None)
    def test_laguerre_sum_finite(self, n, m, k):
        assert math.isfinite(_laguerre_double_sum_log(n, m, k))


class TestJsonWire:
    def test_roundtrip(self):
        spec = KernelSpec(Family.CAUCHY, n=14, rho=-0.2, nu=2.5, alpha=0.12,
                          alpha_rule="scaled")
        back = spec_from_json(json.dumps(spec_to_dict(spec)))
        assert back == spec

    def test_irrelevant_fields_omitted(self):
        d = spec_to_dict(gauss_spec())
        assert set(d) == {"family", "n", "rho", "m", "alpha"}

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidSpecError):
            spec_from_dict({"family": "Cauchy", "n": 3, "beta": 1.0})

    @pytest.mark.parametrize("fam", list(Family))
    def test_field_the_family_does_not_read_rejected(self, fam):
        from dpp_repulsion.examples import EXAMPLE_PARAMS
        d = spec_to_dict(KernelSpec(family=fam, n=4, **EXAMPLE_PARAMS[fam]))
        assert spec_from_dict(d) == KernelSpec(family=fam, n=4, **EXAMPLE_PARAMS[fam])
        for field in {"m", "alpha", "alpha_rule", "nu", "sigma", "c"} - set(d):
            with pytest.raises(InvalidSpecError, match=f"{fam.value} does not read "
                                                       f"fields \\['{field}'\\]"):
                spec_from_dict({**d, field: 1})

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidSpecError):
            spec_from_dict({"family": "Ginibre", "n": 3})

    @given(st.sampled_from(list(Family)), st.integers(min_value=1, max_value=500),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, fam, n, rho):
        from dpp_repulsion.examples import EXAMPLE_PARAMS
        params = dict(EXAMPLE_PARAMS[fam])
        params["rho"] = rho
        spec = KernelSpec(family=fam, n=n, **params)
        assert spec_from_dict(spec_to_dict(spec)) == spec
