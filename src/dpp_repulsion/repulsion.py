"""First-moment measure of the repulsion process eta at finite n.

Everything reduces to the radial density r^{n-1} K_n(r)^2: total mass
(gamma = ||K||^2 / intensity), ball ratios P(|X_n| <= sqrt(n) R), exact
radial moments with their quadrature cross-checks, pair correlation,
nearest-neighbor sandwich bounds, and Boolean-model degree ratios.

Ball ratios are differences of log-integrals over [0, sqrt(n) R] and
[0, inf) sharing one panel decomposition, so the common panel error
cancels and ratios near 0 or 1 keep relative accuracy.  (The normalized
ball measure is also Ripley's K-function difference rho*(K_Poi - K_DPP)
up to the rho Vol normalization; no separate alias is provided.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels as kn
from .kernels import (
    Family,
    KernelSpec,
    UnsupportedFamilyError,
    _bessel_y_scale,
    effective_alpha,
    intensity_log,
    kernel_radial,
    squared_norm_log,
)
from .quadrature import (
    LogIntegrand,
    PanelSet,
    bessel_sq_moment_log,
    bessel_sq_prefix_log,
    build_cdf,
    integrate_log_panels,
)
from .special import _fmt, ln_ball_volume, ln_gamma, ln_gamma_ratio

__all__ = [
    "EtaReport",
    "MomentDivergesError",
    "NnBounds",
    "eta_total_log",
    "eta_ball_ratio",
    "log_eta_ball_ratio",
    "radial_density",
    "radial_cdf",
    "radial_moment",
    "radial_moment_quadrature",
    "pair_correlation",
    "nn_bounds",
    "boolean_degree_ratio",
    "log_boolean_degree_ratio",
    "build_eta_report",
]

_NEG_INF = float("-inf")

PRODUCTION_REL_TOL = 1e-8   # curves
CHECK_REL_TOL = 1e-10       # closed-form cross-checks


class MomentDivergesError(ValueError):
    """E|X_n|^k is infinite for this family/k combination."""


def eta_total_log(spec: KernelSpec) -> float:
    """log E[eta_n(R^n)] = log ||K_n||^2 - n rho (the global repulsiveness)."""
    return squared_norm_log(spec) - intensity_log(spec)


# ---------------------------------------------------------------------------
# Radial density of |X_n| and its panel decomposition
# ---------------------------------------------------------------------------

def radial_density(spec: KernelSpec) -> LogIntegrand:
    """log of the unnormalized radial density r^{n-1} K_n(r)^2 at radii r >= 0
    (not checked; NaN gives -inf), with the kernel bound to the spec once."""
    n = spec.n
    log_k = kn._bind_log_kernel(spec)

    def log_f(r):  # under the LogIntegrand's errstate: log 0 = -inf
        r = np.atleast_1d(np.asarray(r, dtype=float))
        logk = log_k(r)[0]
        return 2.0 * logk if n == 1 else (n - 1) * np.log(r) + 2.0 * logk

    return LogIntegrand(log_f)


@lru_cache(maxsize=64)
def _density_panels(spec: KernelSpec, rel_tol: float) -> PanelSet:
    return integrate_log_panels(radial_density(spec), rel_tol=rel_tol)


def _radii(R) -> np.ndarray:
    """R as a float array; a NaN or negative radius raises ValueError."""
    R_arr = np.asarray(R, dtype=float)
    if not (R_arr >= 0).all():
        raise ValueError("R must not be NaN" if np.isnan(R_arr).any() else "R must be >= 0")
    return R_arr


def log_eta_ball_ratio(spec: KernelSpec, R):
    """log of E[eta_n(B_n(sqrt(n) R))] / E[eta_n(R^n)] = log P(|X_n| <= sqrt(n) R).

    R may be an array of radii, answered by one prefix pass over the spec's
    cached panels, held to PRODUCTION_REL_TOL (the ones `radial_cdf` reads;
    BesselType and IndicatorSpectral sum their series to rounding); a scalar
    R gives a float.  R = inf gives 0.0 (ratio 1); a NaN R raises ValueError.
    """
    r_cut = math.sqrt(spec.n) * _radii(R)
    kn._require_valid(spec)
    if spec.family in (Family.BESSEL_TYPE, Family.INDICATOR_SPECTRAL):
        mu, lam, s = _bessel_y_scale(spec)
        log_num = bessel_sq_prefix_log(mu, lam, r_cut / s)
        log_den = bessel_sq_moment_log(mu, lam)
    else:
        ps = _density_panels(spec, PRODUCTION_REL_TOL)
        log_num, log_den = ps.log_prefix(r_cut), ps.log_total
    out = np.minimum(log_num - log_den, 0.0)
    return float(out) if out.ndim == 0 else out


def _ratio(log_ratio: float) -> float:
    return math.exp(log_ratio) if log_ratio > _NEG_INF else 0.0  # log_ratio <= 0


def eta_ball_ratio(spec: KernelSpec, R: float) -> float:
    return _ratio(log_eta_ball_ratio(spec, R))


def radial_cdf(spec: KernelSpec):
    """RadialCdf of |X_n| on the spec's cached PanelSet (used by the sampling oracle)."""
    if spec.family in (Family.BESSEL_TYPE, Family.INDICATOR_SPECTRAL):
        raise UnsupportedFamilyError(
            f"{spec.family.value}: oscillatory radial density with an algebraic "
            "tail; no faithful CDF grid is offered")
    kn._require_valid(spec)
    return build_cdf(_density_panels(spec, PRODUCTION_REL_TOL))


# ---------------------------------------------------------------------------
# Exact radial moments and their quadrature cross-checks
# ---------------------------------------------------------------------------

def _laguerre_moment_log(n: int, m: int, k: int) -> float:
    """log of D(k)/D(0) with D(w) the Laguerre double sum at Gamma offset w/2."""
    num = kn._laguerre_double_sum_log(n, m, k)
    den = kn._laguerre_double_sum_log(n, m)
    return (num - den) + ln_gamma(0.5 * (n + k)) - ln_gamma(0.5 * n)


def _moment_order(k) -> int:
    if not (k >= 0 and float(k).is_integer()):
        raise ValueError("k must be a non-negative integer")
    return int(k)


def radial_moment(spec: KernelSpec, k: int) -> float:
    """E[|X_n|^k] via the family's exact finite-n closed form."""
    k = _moment_order(k)
    kn._require_valid(spec)
    if k == 0:
        return 1.0
    fam, n = spec.family, spec.n
    if fam == Family.LAGUERRE_GAUSS:
        m, alpha = spec.m, spec.alpha
        return math.exp(0.5 * k * math.log(0.5 * m * alpha * alpha)
                        + _laguerre_moment_log(n, m, k))
    if fam == Family.POWER_EXPONENTIAL:
        nu, a_n = spec.nu, effective_alpha(spec)
        if k == 2:
            if (n - 2.0) / nu + 1.0 <= 0:
                raise MomentDivergesError("second-moment formula needs n > 2 - nu")
            return math.exp(math.log(nu) + (2.0 / nu) * math.log(2.0)
                            + 2.0 * math.log(a_n) - math.log(16.0 * math.pi ** 2)
                            + math.log(n + nu - 2.0)
                            + ln_gamma((n - 2.0) / nu + 1.0) - ln_gamma(n / nu))
        if k == 4:
            q = (n - 4.0) / nu
            if q + 2.0 <= 0:
                raise MomentDivergesError("fourth-moment formula needs n > 4 - 2 nu")
            w = nu + n - 2.0
            factor = (nu * nu * (q + 3.0) * (q + 2.0) / 16.0
                      - nu * w * (q + 2.0) / 4.0 + w * w / 4.0)
            return math.exp(2.0 * math.log(nu) + (4.0 / nu) * math.log(2.0)
                            + 4.0 * math.log(a_n) - 4.0 * math.log(2.0 * math.pi)
                            + math.log(factor) + ln_gamma(q + 2.0) - ln_gamma(n / nu))
        raise MomentDivergesError(
            "PowerExponential exact moments are the Fourier-side Laplacian "
            "identities, available for k in {2, 4}")
    if fam == Family.BESSEL_TYPE:
        s, alpha = spec.sigma, spec.alpha
        if not k < s + 1.0:
            raise MomentDivergesError(
                f"BesselType moment E|X|^{k} diverges unless k < sigma + 1 = {s + 1}")
        return math.exp(k * math.log(alpha) + 0.5 * k * math.log(2.0 / (s + n))
                        + ln_gamma_ratio(0.5 * n, 0.5 * k) - ln_gamma_ratio(s + 1.0 - k, k)
                        + 2.0 * ln_gamma_ratio(0.5 * (s - k) + 1.0, 0.5 * k)
                        + ln_gamma_ratio(s + 0.5 * (n - k) + 1.0, 0.5 * k))
    if fam == Family.WHITTLE_MATERN:
        nu, alpha = spec.nu, spec.alpha
        return math.exp(k * math.log(2.0 * alpha) - ln_gamma_ratio(n + 2.0 * nu, k)
                        + ln_gamma_ratio(0.5 * n + 2.0 * nu, 0.5 * k)
                        + 2.0 * ln_gamma_ratio(0.5 * n + nu, 0.5 * k)
                        + ln_gamma_ratio(0.5 * n, 0.5 * k))
    if fam == Family.CAUCHY:
        nu, a_n = spec.nu, effective_alpha(spec)
        if not k < n + 4.0 * nu:
            raise MomentDivergesError(
                f"Cauchy moment E|X|^{k} diverges unless k < n + 4 nu = {n + 4 * nu}")
        return math.exp(k * math.log(a_n) + ln_gamma_ratio(0.5 * n, 0.5 * k)
                        - ln_gamma_ratio(2.0 * nu + 0.5 * (n - k), 0.5 * k))
    raise MomentDivergesError(
        "IndicatorSpectral |X_n| has no finite moments of order >= 1 "
        "(the J^2 tail integral does not converge)")


def radial_moment_quadrature(spec: KernelSpec, k: int) -> float:
    """E[|X_n|^k] by direct radial quadrature; the verification route.

    The oscillatory families (Bessel-type, indicator-spectral) have no
    quadrature here: their J^2 y^{-lam} totals are closed forms, and the
    tests check those against quadrature prefixes plus an asymptotic tail.
    """
    k = _moment_order(k)
    kn._require_valid(spec)
    if k == 0:
        return 1.0
    if spec.family in (Family.BESSEL_TYPE, Family.INDICATOR_SPECTRAL):
        mu, lam, s = _bessel_y_scale(spec)
        if not 0.0 < lam - k:
            raise MomentDivergesError(f"quadrature moment diverges for k={k}")
        # the ratio of two bessel_sq_moment_log closed forms, at lam - k and
        # lam, with its large Gamma pairs as ratios: the argument
        # g = mu + (1 - lam)/2 is n/2 for both families, taken exactly
        g, h = 0.5 * spec.n, 0.5 * k
        return math.exp(k * math.log(s) + ln_gamma_ratio(0.5 * lam, 0.5)
                        - ln_gamma_ratio(0.5 * (lam - k), 0.5)
                        + ln_gamma_ratio(g, h) + ln_gamma_ratio(g + lam - h, h))
    dens = radial_density(spec)
    num = integrate_log_panels(LogIntegrand(lambda r: dens.log_f(r) + k * np.log(r)),
                               rel_tol=CHECK_REL_TOL)
    den = _density_panels(spec, CHECK_REL_TOL)
    return math.exp(num.log_total - den.log_total)


# ---------------------------------------------------------------------------
# Pair correlation, nearest-neighbor bounds, Boolean degree
# ---------------------------------------------------------------------------

def pair_correlation(spec: KernelSpec, r: float) -> float:
    """g(r) = 1 - (K(r)/K(0))^2, in [0, 1]; g(0) = 0 when K(0) equals the intensity."""
    kn._require_valid(spec)
    log_k_r, _ = kernel_radial(spec, r)
    log_k_0, _ = kernel_radial(spec, 0.0)
    if log_k_r == _NEG_INF:
        return 1.0
    g = -math.expm1(2.0 * (log_k_r - log_k_0))
    return min(max(g, 0.0), 1.0)


@dataclass(frozen=True)
class NnBounds:
    """Sandwich bounds for the reduced-Palm count in B_n(sqrt(n) R).

    e_lo <= E[Phi^{0,!}(B)] <= e_hi with e_hi = e^{n rho} Vol(B) and
    e_lo = max(0, e_hi - 1); p_lo <= P(Phi^{0,!}(B) = 0) <= p_hi.
    e_hi overflows to inf for radii far above the threshold; log_e_hi is
    always finite and is what the probabilities are computed from.
    """

    p_lo: float
    p_hi: float
    e_lo: float
    e_hi: float
    log_e_hi: float


def nn_bounds(spec: KernelSpec, R: float) -> NnBounds:
    if not R > 0:
        raise ValueError("R must be > 0")
    kn._require_valid(spec)
    n = spec.n
    log_e_hi = intensity_log(spec) + ln_ball_volume(n, math.sqrt(n) * R)
    e_hi = math.exp(log_e_hi) if log_e_hi < 709.0 else math.inf
    if log_e_hi <= 0.0:
        e_lo = 0.0
        p_lo = max(0.0, -math.expm1(log_e_hi))
        p_hi = 1.0
    else:
        # e_lo = e_hi - 1 > 0, in log domain: log_e_hi + log1p(-exp(-log_e_hi))
        log_e_lo = log_e_hi + math.log1p(-math.exp(-log_e_hi))
        e_lo = math.exp(log_e_lo) if log_e_lo < 709.0 else math.inf
        p_lo = 0.0
        p_hi = math.exp(-e_lo) if e_lo < 745.0 else 0.0
    return NnBounds(p_lo=p_lo, p_hi=p_hi, e_lo=e_lo, e_hi=e_hi, log_e_hi=log_e_hi)


def log_boolean_degree_ratio(spec: KernelSpec, R: float) -> float:
    """log of E[eta_n(B_n(sqrt(n) R))] / E[Phi_n(B_n(sqrt(n) R))]."""
    if not R > 0:
        raise ValueError("R must be > 0")
    n = spec.n
    log_eta_ball = eta_total_log(spec) + log_eta_ball_ratio(spec, R)
    log_phi_ball = intensity_log(spec) + ln_ball_volume(n, math.sqrt(n) * R)
    return min(log_eta_ball - log_phi_ball, 0.0)


def boolean_degree_ratio(spec: KernelSpec, R: float) -> float:
    return math.exp(log_boolean_degree_ratio(spec, R))


# ---------------------------------------------------------------------------
# EtaReport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaReport:
    """Total eta mass (log) plus the ball-ratio curve R -> ratio."""

    spec: KernelSpec
    log_total: float
    ratio_curve: tuple

    def to_csv(self) -> str:
        lines = [f"# log_total = {_fmt(self.log_total)}", "R,ratio"]
        lines += [f"{_fmt(r)},{_fmt(v)}" for r, v in self.ratio_curve]
        return "\n".join(lines) + "\n"


def build_eta_report(spec: KernelSpec, R_grid) -> EtaReport:
    grid = [float(R) for R in R_grid]
    log_ratios = log_eta_ball_ratio(spec, np.array(grid))
    curve = tuple((R, _ratio(float(lr))) for R, lr in zip(grid, log_ratios))
    return EtaReport(spec=spec, log_total=eta_total_log(spec), ratio_curve=curve)
