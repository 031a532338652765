import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as sp

from dpp_repulsion.kernels import (
    Family,
    KernelSpec,
    effective_alpha,
    indicator_radius,
    log_kernel_radial_array,
)
from dpp_repulsion.quadrature import LogIntegrand, integrate_log_panels
from dpp_repulsion.special import ln_gamma


def surface_log(n: int) -> float:
    """log of the (n-1)-sphere surface area 2 pi^{n/2} / Gamma(n/2)."""
    return math.log(2.0) + 0.5 * n * math.log(math.pi) - ln_gamma(0.5 * n)


def spectral_radial(spec: KernelSpec, xi: float) -> float:
    """Radial Fourier transform K_hat at frequency radius xi, in the unitary
    ordinary-frequency convention: the spectral side of the Parseval checks,
    for the three families whose spectrum is a closed form here."""
    fam, n = spec.family, spec.n
    if fam == Family.POWER_EXPONENTIAL:
        a_n = effective_alpha(spec)
        log_amp = (n * spec.rho + ln_gamma(0.5 * n + 1.0) + n * math.log(a_n)
                   - 0.5 * n * math.log(math.pi) - ln_gamma(n / spec.nu + 1.0))
        return math.exp(log_amp - (a_n * xi) ** spec.nu)
    if fam == Family.INDICATOR_SPECTRAL:
        return math.sqrt(spec.c) if xi <= indicator_radius(spec) else 0.0
    assert fam == Family.LAGUERRE_GAUSS and spec.m == 1, fam
    alpha = spec.alpha
    log_amp = n * spec.rho + 0.5 * n * math.log(math.pi * alpha * alpha)
    return math.exp(log_amp - (math.pi * alpha * xi) ** 2)


def bessel_sq_tail_log(mu: float, lam: float, Y: float) -> float:
    """log of the asymptotic tail int_Y^inf J_mu(y)^2 y^{-lam} dy, for Y >> mu.

    The smooth mean of J^2 (1/(pi y) with its 1/y^3 correction) and the
    leading oscillating terms, integrated by parts; the common factor
    Y^{-lam} / pi stays in logs, so large lam cannot underflow it.
    """
    mt = 4.0 * mu * mu
    omega = Y - mu * math.pi / 2.0 - math.pi / 4.0
    s2, c2 = math.sin(2.0 * omega), math.cos(2.0 * omega)
    series = (1.0 / lam + (mt - 1.0) / (8.0 * (lam + 2.0)) / (Y * Y) - 0.5 * s2 / Y
              + (0.25 * (lam + 1.0) - (mt - 1.0) / 8.0) * c2 / (Y * Y))
    return -lam * math.log(Y) - math.log(math.pi) + math.log(series)


def bessel_sq_prefix_ref_log(mu: float, lam: float, Y: float) -> float:
    """log of int_0^Y J_mu(y)^2 y^{-lam} dy from scipy's jv, not the library.

    20-point Gauss-Legendre on panels 3 wide (J^2 has period near pi), and
    geometric ones from 1e-8 up to 1 for a singular or steep start; every
    panel's nodes are summed in the log domain, shifted by their common
    maximum, so lam = 150 cannot underflow.  [0, 1e-8] is the leading power
    (y/2)^{2 mu} y^{-lam} / Gamma(mu + 1)^2, exact there to below 1e-16.
    Needs 2 mu - lam > -1 and Y > 1e-8.

    Where jv underflows (below about mu / 2 at large mu) the nodes see
    nothing.  By DLMF 10.14.4, |J_mu(t)| <= (t/2)^mu / Gamma(mu + 1), the
    same leading power integrated up to the last such node t_u bounds the
    mass they miss; raises FloatingPointError unless that bound is below
    1e-16 of the result.
    """
    p = 2.0 * mu - lam + 1.0

    def log_power_integral(t):
        # int_0^t (y/2)^{2 mu} y^{-lam} dy / Gamma(mu + 1)^2
        return p * math.log(t) - 2.0 * mu * math.log(2.0) - 2.0 * ln_gamma(mu + 1.0) - math.log(p)

    h = 1e-8
    edges = np.unique(np.concatenate([np.geomspace(h, min(1.0, Y), 60),
                                      np.arange(1.0, Y, 3.0), [Y]]))
    t, w = np.polynomial.legendre.leggauss(20)
    lo, hi = edges[:-1, None], edges[1:, None]
    y = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
    j = sp.jv(mu, y)
    with np.errstate(divide="ignore"):
        log_f = 2.0 * np.log(np.abs(j)) - lam * np.log(y)
        log_f += np.log(0.5 * (hi - lo) * w)
    m = np.max(log_f)
    out = float(np.logaddexp(log_power_integral(h), m + math.log(np.sum(np.exp(log_f - m)))))
    lost = y[np.abs(j) < np.finfo(float).tiny]
    if lost.size and log_power_integral(lost.max()) >= out + math.log(1e-16):
        raise FloatingPointError(
            f"jv({mu}, y) underflows up to y = {lost.max():.6g}, where the mass it "
            "hides may exceed 1e-16 of the result")
    return out


def bessel_sq_total_log(mu: float, lam: float) -> float:
    """log of int_0^inf J_mu(y)^2 y^{-lam} dy without the closed form.

    The reference prefix up to Y = mu + 4 mu^{1/3} + 6 + 4096 pi, far past
    the turning point, plus the asymptotic tail past Y.  The tail formula
    sets the error: at mu = 100 the sum is within 2e-8 of the exact log
    total for lam = 1 and 3e-7 for lam = 0.5; the error grows with mu,
    shrinks as lam grows, and falls about 160-fold each time Y grows
    fourfold.
    """
    Y = mu + 4.0 * mu ** (1.0 / 3.0) + 6.0 + 4096 * math.pi
    return float(np.logaddexp(bessel_sq_prefix_ref_log(mu, lam, Y),
                              bessel_sq_tail_log(mu, lam, Y)))


def laguerre_double_sum_log_exact(n: int, m: int, shift: Fraction = Fraction(0)) -> float:
    """log of the alternating Laguerre double sum, in exact rationals.

    S = sum_{k,j<m} (-1)^{k+j} b_k b_j G(h+k+j) / (2^{k+j} k! j! G(h)) with
    b_k = binom(m-1+n/2, m-1-k) and h = n/2 + shift, shift rational: the
    reference for the library's sum of squares.
    """
    halfn = Fraction(n, 2)
    base = halfn + Fraction(shift)

    def binom_frac(k):
        # C(m-1+n/2, m-1-k), a rational since n/2 is
        num, den = Fraction(1), Fraction(1)
        for i in range(m - 1 - k):
            num *= (m - 1 + halfn - i)
            den *= (i + 1)
        return num / den

    gamma_ratio = [Fraction(1)]  # G(base + s) / G(base)
    for i in range(2 * m - 2):
        gamma_ratio.append(gamma_ratio[-1] * (base + i))

    bs = [binom_frac(k) for k in range(m)]
    total = Fraction(0)
    for k in range(m):
        for j in range(m):
            s = k + j
            term = bs[k] * bs[j] * gamma_ratio[s]
            term /= Fraction(2 ** s) * math.factorial(k) * math.factorial(j)
            total += term if s % 2 == 0 else -term
    assert total > 0
    return math.log(total.numerator) - math.log(total.denominator)


def quadrature_norm_log(spec: KernelSpec, rel_tol: float = 1e-10) -> float:
    """||K||_2^2 by direct radial quadrature of the position kernel squared.

    The independent route used against the closed forms; Bessel-type and
    indicator-spectral kernels go through `bessel_sq_total_log`.
    """
    n = spec.n
    if spec.family == Family.BESSEL_TYPE:
        mu = 0.5 * (spec.sigma + n)
        s = spec.alpha / math.sqrt(2.0 * (spec.sigma + n))
        const = 2 * n * spec.rho + 2 * mu * math.log(2.0) + 2 * ln_gamma(mu + 1.0)
        return (surface_log(n) + const + n * math.log(s)
                + bessel_sq_total_log(mu, spec.sigma + 1.0))
    if spec.family == Family.INDICATOR_SPECTRAL:
        r_n = indicator_radius(spec)
        const = (math.log(spec.c) + n * math.log(2 * math.pi * r_n * r_n)
                 - n * math.log(2 * math.pi * r_n))
        return surface_log(n) + const + bessel_sq_total_log(0.5 * n, 1.0)

    def log_f(r):
        r = np.asarray(r, dtype=float)
        logk, _ = log_kernel_radial_array(spec, r)
        with np.errstate(divide="ignore"):
            logr = np.where(r > 0, np.log(np.maximum(r, 1e-300)), -np.inf)
        return (n - 1) * logr + 2.0 * logk

    ps = integrate_log_panels(LogIntegrand(log_f), rel_tol=rel_tol)
    return surface_log(n) + ps.log_total


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260811)
