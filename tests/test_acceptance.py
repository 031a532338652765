"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.  Every tolerance is pinned here, none deferred.
"""

import math
import time

import numpy as np
import pytest
from scipy import special as sp

from conftest import surface_log
from dpp_repulsion.asymptotics import (
    boolean_rate,
    laguerre_eta_rate,
    nn_threshold,
)
from dpp_repulsion.examples import example_spec, example_specs
from dpp_repulsion.kernels import (
    Family,
    KernelSpec,
    _laguerre_double_sum_log,
    effective_alpha,
    ln_binom,
    spectral_radial,
    squared_norm_log,
    validate,
)
from dpp_repulsion.oracle import cartesian_mc_integral, mc_ball_ratio, sample_radius
from dpp_repulsion.quadrature import LogIntegrand, integrate_log_panels
from dpp_repulsion.repulsion import (
    eta_ball_ratio,
    eta_total_log,
    log_boolean_degree_ratio,
    log_eta_ball_ratio,
    nn_bounds,
    radial_cdf,
    radial_moment,
    radial_moment_quadrature,
)
from dpp_repulsion.special import ln_gamma


def report(k: int, ok: bool, detail: str, budget_s: float, elapsed: float):
    line = (f"[criterion {k:2d}] {'PASS' if ok else 'FAIL'}"
            f" ({elapsed:.2f}s / budget {budget_s:.0f}s): {detail}")
    print(line)
    assert ok, line
    assert elapsed < budget_s, f"criterion {k} exceeded runtime budget: {line}"


def test_criterion_01_parseval_exactness_indicator():
    t0 = time.time()
    worst = 0.0
    for c in (0.1, 0.5, 0.9):
        for n in range(1, 51):
            spec = KernelSpec(Family.INDICATOR_SPECTRAL, n=n, rho=0.1, c=c)
            worst = max(worst, abs(math.exp(eta_total_log(spec)) - c) / c)
    report(1, worst < 1e-12,
           f"eta total equals c for the indicator-spectral family, worst rel err {worst:.2e}",
           1.0, time.time() - t0)


def test_criterion_02_gaussian_closed_form():
    t0 = time.time()
    alpha = 0.5
    worst = 0.0
    for n in (2, 10, 50, 200):
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=n, rho=0.0, m=1, alpha=alpha)
        for R in np.linspace(0.01, 0.75, 50):
            got = eta_ball_ratio(spec, float(R))
            want = float(sp.gammainc(0.5 * n, 2.0 * n * R * R / alpha**2))
            worst = max(worst, abs(got - want))
    report(2, worst < 1e-8,
           f"Gaussian ball ratio vs regularized incomplete gamma, worst abs err {worst:.2e}",
           10.0, time.time() - t0)


def test_criterion_03_moment_closed_forms_vs_quadrature():
    t0 = time.time()
    worst = 0.0
    cases = []
    for n in (2, 10, 50, 100):
        cases.append((example_spec(Family.CAUCHY, n=n), 2))
        cases.append((example_spec(Family.CAUCHY, n=n), 4))
        cases.append((example_spec(Family.WHITTLE_MATERN, n=n), 2))
        cases.append((example_spec(Family.BESSEL_TYPE, n=n), 1))
    for spec, k in cases:
        closed = radial_moment(spec, k)
        quad = radial_moment_quadrature(spec, k)
        worst = max(worst, abs(closed - quad) / abs(quad))
    report(3, worst < 1e-6,
           f"Cauchy/WhittleMatern/Bessel moment closed forms vs quadrature, "
           f"worst rel err {worst:.2e}", 30.0, time.time() - t0)


def test_criterion_04_power_exponential_consistency():
    t0 = time.time()
    ok = True
    details = []
    # exact second moment at nu = 2 equals n alpha_n^2 / (4 pi^2)
    worst_a = 0.0
    for n in (2, 10, 50, 500):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=n, rho=0.0, nu=2.0,
                          alpha=0.4, alpha_rule="scaled")
        a_n = effective_alpha(spec)
        want = n * a_n**2 / (4.0 * math.pi**2)
        worst_a = max(worst_a, abs(radial_moment(spec, 2) - want) / want)
    ok &= worst_a < 1e-12
    details.append(f"nu=2 moment rel err {worst_a:.2e}")
    # Parseval: closed squared norm vs spectral-side quadrature
    worst_b = 0.0
    for n in (2, 10, 50):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=n, rho=0.05, nu=1.5,
                          alpha=0.35, alpha_rule="scaled")
        assert validate(spec).ok
        a_n = effective_alpha(spec)
        log_amp = math.log(spectral_radial(spec, 0.0))

        def log_f(r, a_n=a_n, log_amp=log_amp, n=n):
            r = np.asarray(r, dtype=float)
            with np.errstate(divide="ignore"):
                lr = np.where(r > 0, (n - 1) * np.log(np.maximum(r, 1e-300)), -np.inf)
            return lr + 2.0 * (log_amp - (a_n * r) ** 1.5)

        got = (surface_log(n)
               + integrate_log_panels(LogIntegrand(log_f),
                                      rel_tol=1e-10).log_total)
        want = squared_norm_log(spec)
        worst_b = max(worst_b, abs(got - want) / max(abs(want), 1.0))
    ok &= worst_b < 1e-8
    details.append(f"Parseval rel err {worst_b:.2e}")
    # E|X_n|^2 / n -> alpha^2 (2 nu)^{2/nu} / (16 pi^2) within 1% by n = 2000
    worst_c = 0.0
    for nu, alpha in ((1.0, 0.3), (2.0, 0.4), (3.0, 0.6)):
        spec = KernelSpec(Family.POWER_EXPONENTIAL, n=2000, rho=0.0, nu=nu,
                          alpha=alpha, alpha_rule="scaled")
        limit = alpha**2 * (2.0 * nu) ** (2.0 / nu) / (16.0 * math.pi**2)
        got = radial_moment(spec, 2) / 2000.0
        worst_c = max(worst_c, abs(got - limit) / limit)
    ok &= worst_c < 0.01
    details.append(f"limit gap at n=2000 {worst_c:.2e}")
    report(4, ok, "power-exponential consistency: " + ", ".join(details),
           30.0, time.time() - t0)


def test_criterion_05_ldp_rate_convergence():
    t0 = time.time()
    ok = True
    details = []
    for m in (1, 3):
        alpha, rho = 0.3, 0.0
        r_star = math.sqrt(m) * alpha / 2.0
        R = 0.5 * r_star
        analytic = laguerre_eta_rate(R, m, alpha, rho)
        gaps = {}
        for n in (150, 600):
            spec = KernelSpec(Family.LAGUERRE_GAUSS, n=n, rho=rho, m=m, alpha=alpha)
            emp = -(eta_total_log(spec) + log_eta_ball_ratio(spec, R)) / n
            gaps[n] = abs(emp - analytic)
        ok &= gaps[600] < 0.05 and gaps[600] < gaps[150]
        details.append(f"m={m}: gap(600)={gaps[600]:.4f}, gap(150)={gaps[150]:.4f}")
    report(5, ok, "LDP rate convergence " + "; ".join(details), 120.0, time.time() - t0)


def test_criterion_06_threshold_behavior():
    t0 = time.time()
    n = 500
    ok = True
    details = []
    lg = example_spec(Family.LAGUERRE_GAUSS, n=n)
    r_star = math.sqrt(lg.m) * lg.alpha / 2.0
    lo, hi = eta_ball_ratio(lg, 0.8 * r_star), eta_ball_ratio(lg, 1.2 * r_star)
    ok &= lo < 0.01 and hi > 0.99
    details.append(f"LaguerreGauss {lo:.2e}/{hi:.6f}")
    cy = example_spec(Family.CAUCHY, n=n)
    lo, hi = eta_ball_ratio(cy, 0.8 * cy.alpha), eta_ball_ratio(cy, 1.2 * cy.alpha)
    ok &= lo < 0.01 and hi > 0.99
    details.append(f"Cauchy {lo:.2e}/{hi:.6f}")
    # thin-shell form for WhittleMatern: radii 0.8/1.2 sigma_n, sigma_n^2 = E|X|^2
    wm = example_spec(Family.WHITTLE_MATERN, n=n)
    sigma_n = math.sqrt(radial_moment(wm, 2))
    lo = eta_ball_ratio(wm, 0.8 * sigma_n / math.sqrt(n))
    hi = eta_ball_ratio(wm, 1.2 * sigma_n / math.sqrt(n))
    ok &= lo < 0.01 and hi > 0.99
    details.append(f"WhittleMatern(sigma_n) {lo:.2e}/{hi:.6f}")
    report(6, ok, "threshold at n=500: " + "; ".join(details), 60.0, time.time() - t0)


def test_criterion_07_global_mass_bounds():
    t0 = time.time()
    ok = True
    worst_gamma = 0.0
    for n in range(2, 401):
        for spec in example_specs(n=n):
            assert validate(spec).ok, (spec.family, n)
            log_total = eta_total_log(spec)
            worst_gamma = max(worst_gamma, math.exp(log_total))
            fam = spec.family
            if fam == Family.LAGUERRE_GAUSS:
                log_f = (_laguerre_double_sum_log(n, spec.m)
                         - ln_binom(spec.m - 1 + 0.5 * n, spec.m - 1))
                bound = -0.5 * n * math.log(2.0) + log_f
            elif fam == Family.POWER_EXPONENTIAL:
                bound = -(n / spec.nu) * math.log(2.0)
            elif fam in (Family.WHITTLE_MATERN, Family.CAUCHY):
                bound = -0.5 * n * math.log(2.0)
            elif fam == Family.BESSEL_TYPE:
                s = spec.sigma
                bound = (ln_gamma(s + 1.0) + ln_gamma(0.5 * s + 0.5 * n + 1.0)
                         - ln_gamma(0.5 * s + 1.0) - ln_gamma(s + 0.5 * n + 1.0))
            else:  # indicator: gamma = c exactly, bounded by 1
                bound = 0.0
            ok &= log_total <= bound + 1e-12
    ok &= worst_gamma <= 1.0 + 1e-12
    report(7, ok, f"family bounds hold for n in 2..400; max gamma {worst_gamma:.6f}",
           10.0, time.time() - t0)


def test_criterion_08_boolean_model_rate():
    t0 = time.time()
    ok = True
    details = []
    for m in (1, 2):
        alpha, n = 0.3, 600
        r_star = math.sqrt(m) * alpha / 2.0
        for mult in (0.5, 1.5):
            R = mult * r_star
            spec = KernelSpec(Family.LAGUERRE_GAUSS, n=n, rho=0.0, m=m, alpha=alpha)
            emp = -log_boolean_degree_ratio(spec, R) / n
            gap = abs(emp - boolean_rate(R, m, alpha))
            ok &= gap < 0.05
            details.append(f"m={m},R={mult}R*: gap {gap:.4f}")
        below = boolean_rate(r_star * (1 - 1e-13), m, alpha)
        above = boolean_rate(r_star * (1 + 1e-13), m, alpha)
        ok &= abs(below - above) < 1e-12
    report(8, ok, "Boolean degree rate at n=600: " + "; ".join(details),
           60.0, time.time() - t0)


def test_criterion_09_monte_carlo_concordance():
    t0 = time.time()
    ok = True
    details = []
    ks_crit = 1.6276  # alpha = 0.01
    for n in (2, 3, 5, 8):
        lg = KernelSpec(Family.LAGUERRE_GAUSS, n=n, rho=0.0, m=1, alpha=0.5)
        cy = example_spec(Family.CAUCHY, n=n)
        for spec, R in ((lg, 0.35), (cy, 0.2)):
            est = mc_ball_ratio(spec, R, 100000, seed=1234 + n)
            ref = eta_ball_ratio(spec, R)
            dev = abs(est.value - ref) / max(est.std_error, 1e-12)
            ok &= dev <= 3.0
            details.append(f"{spec.family.value[:6]} n={n} ball {dev:.2f}sig")
        est = cartesian_mc_integral(lg, 0.35, 400000, seed=77 + n)
        ref = math.exp(eta_total_log(lg) + log_eta_ball_ratio(lg, 0.35))
        dev = abs(est.value - ref) / max(est.std_error, 1e-12)
        ok &= dev <= 3.0
        details.append(f"cart n={n} {dev:.2f}sig")
        r = np.sort(sample_radius(lg, 100000, seed=4321 + n))
        F = radial_cdf(lg).cdf(r)
        k = np.arange(1, r.size + 1)
        ks = max(float(np.max(k / r.size - F)), float(np.max(F - (k - 1) / r.size)))
        ok &= ks < ks_crit / math.sqrt(r.size)
    report(9, ok, "Monte Carlo concordance: " + "; ".join(details[:6]) + " ...",
           120.0, time.time() - t0)


def test_criterion_10_nearest_neighbor_sandwich():
    t0 = time.time()
    n = 400
    spec = KernelSpec(Family.LAGUERRE_GAUSS, n=n, rho=0.0, m=1, alpha=0.5)
    r_tilde = nn_threshold(0.0)
    ok = abs(r_tilde - 0.241971) < 1e-6
    hi = nn_bounds(spec, 1.2 * r_tilde)
    lo = nn_bounds(spec, 0.8 * r_tilde)
    ok &= hi.p_hi < 1e-6 and lo.p_lo > 1.0 - 1e-6
    report(10, ok,
           f"R~(0)={r_tilde:.7f}; p_hi(1.2R~)={hi.p_hi:.2e}, p_lo(0.8R~)={lo.p_lo}",
           1.0, time.time() - t0)
