"""Closed-form asymptotics: reach of repulsion, thresholds, and rates.

All quantities are exact expressions evaluated in double precision; no
series truncation.  Every limit rate composes two closed forms: the LDP
rate I of |X_n|/sqrt(n), a function of x / R* alone, and the total-mass
rate tau = lim -(1/n) log E[eta_n(R^n)].  The eta-ball rate is tau + I(R)
below R* and tau at or above it (I vanishes at R*); the Boolean degree
rate adds the Poisson ball exponent rho + ln(2 pi e)/2 + ln R.  A family
states one closed form, that Boolean rate B(t) below R*, t = (R / R*)^2.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .kernels import (Family, KernelSpec, NoPositionKernelError, UnsupportedFamilyError,
                      _laguerre_double_sum_log, _require_valid, max_param)
from .special import ln_binom, ln_gamma_ratio

__all__ = [
    "ReachCertificate",
    "SummaryTable",
    "reach",
    "nn_threshold",
    "RATE_QUANTITIES",
    "radius_rate",
    "limit_rate",
    "reach_exceeds_nn",
    "summary_table",
]

_RATE_TYPE = {
    Family.LAGUERRE_GAUSS: "LDP",
    Family.POWER_EXPONENTIAL: "Chebychev",
    Family.BESSEL_TYPE: "N/A",
    Family.WHITTLE_MATERN: "Log-concave",
    Family.CAUCHY: "Chebychev",
    Family.INDICATOR_SPECTRAL: "N/A",
}


def reach(spec: KernelSpec) -> Optional[float]:
    """Asymptotic reach of repulsion R* on the sqrt(n) scale, or None.

    None for BesselType (no concentration on this scale) and for
    IndicatorSpectral (no finite second moment).  PowerExponential and
    Cauchy state R* only under the scaled alpha rule.
    """
    _require_valid(spec)
    fam = spec.family
    if fam == Family.LAGUERRE_GAUSS:
        return math.sqrt(spec.m) * spec.alpha / 2.0
    if fam == Family.POWER_EXPONENTIAL:
        if spec.alpha_rule != "scaled":
            raise UnsupportedFamilyError(
                "PowerExponential R* is stated for alpha_n ~ alpha n^{1/nu-1/2}; "
                "set alpha_rule='scaled'")
        return spec.alpha * (2.0 * spec.nu) ** (1.0 / spec.nu) / (4.0 * math.pi)
    if fam == Family.WHITTLE_MATERN:
        return spec.alpha / 2.0
    if fam == Family.CAUCHY:
        if spec.alpha_rule != "scaled":
            raise UnsupportedFamilyError(
                "Cauchy R* is stated for alpha_n ~ alpha sqrt(n); "
                "set alpha_rule='scaled'")
        return spec.alpha
    return None  # BesselType, IndicatorSpectral


def nn_threshold(rho: float) -> float:
    """Nearest-neighbor threshold (2 pi e)^{-1/2} e^{-rho}."""
    return math.exp(-rho) / math.sqrt(2.0 * math.pi * math.e)


# the quantities a limit or empirical rate is stated for
RATE_QUANTITIES = ("eta_ball", "eta_boolean_ratio")


def _finite_reach(spec: KernelSpec) -> float:
    """R*, or UnsupportedFamilyError where the family has none on the sqrt(n) scale."""
    if (r_star := reach(spec)) is None:
        raise UnsupportedFamilyError(f"{spec.family.value} has no finite R* on the sqrt(n) scale")
    return r_star


def _rate_law(spec: KernelSpec):
    """(R*, B) of a spec with a stated rate: B(t) is its Boolean rate below R*."""
    r_star = _finite_reach(spec)
    fam = spec.family
    if fam == Family.POWER_EXPONENTIAL and spec.nu != 2.0:
        raise NoPositionKernelError(
            f"{fam.value} with nu={spec.nu} has no position kernel and no stated rate; "
            "its concentration is certified via exact moments plus Chebyshev")
    if fam == Family.WHITTLE_MATERN:
        raise UnsupportedFamilyError(
            "WhittleMatern has no stated rate: at fixed alpha its law does not "
            "concentrate at alpha / 2")
    if fam == Family.CAUCHY:  # |X|^2 / alpha_n^2 follows a beta-prime law
        return r_star, math.log1p
    return r_star, lambda t: 0.5 * t  # Gaussian radius: LaguerreGauss, PowerExponential


def radius_rate(spec: KernelSpec, x: float) -> float:
    """LDP rate of |X_n|/sqrt(n) at x > 0, zero exactly at R*.  With t = (x / R*)^2:
    (t - 1 - ln t) / 2 for LaguerreGauss and PowerExponential (nu = 2, scaled),
    ln((1 + t) / (2 sqrt t)) for Cauchy (scaled); other families raise."""
    if not 0 < x < math.inf:
        raise ValueError("x must be finite and > 0")
    r_star, boolean = _rate_law(spec)
    return boolean(t := (x / r_star) ** 2) - boolean(1.0) - 0.5 * math.log(t)


def limit_rate(spec: KernelSpec, R: float, quantity: str) -> float:
    """Limit of -(1/n) log of `quantity` at radius sqrt(n) R: E[eta_n(B_n)] for
    eta_ball, tau + radius_rate below R* and tau = -rho - ln alpha - c at or above,
    c = ln(m pi / 2)/2 (LaguerreGauss), -ln(2 pi)/2 (PowerExponential) or
    ln(pi e / 2)/2 (Cauchy); E[eta_n(B_n)] / E[Phi_n(B_n)] for eta_boolean_ratio,
    which adds rho + ln(2 pi e)/2 + ln R, and is B(t) (t / 2, Cauchy ln(1 + t)) below R*."""
    if quantity not in RATE_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if not R > 0:
        raise ValueError("R must be > 0")
    r_star, boolean = _rate_law(spec)
    poisson = spec.rho + 0.5 * math.log(2.0 * math.pi * math.e)  # Poisson exponent less ln R
    if R < r_star:
        rate = boolean((R / r_star) ** 2)
        return rate if quantity == "eta_boolean_ratio" else rate - poisson - math.log(R)
    if quantity == "eta_boolean_ratio":  # tau + the Poisson exponent
        return boolean(1.0) + math.log(R / r_star)
    return boolean(1.0) - poisson - math.log(r_star)  # tau


@dataclass(frozen=True)
class ReachCertificate:
    """Comparison of R* against the nearest-neighbor threshold."""

    exceeds: bool
    r_star: float
    threshold: float
    interval: Optional[tuple] = None   # admissible alpha interval, when one exists
    note: str = ""


def reach_exceeds_nn(spec: KernelSpec) -> ReachCertificate:
    """Whether R* > R~, with the family's admissible alpha window if any."""
    r_star = _finite_reach(spec)
    fam, rho = spec.family, spec.rho
    thresh = nn_threshold(rho)
    if fam == Family.LAGUERRE_GAUSS:
        scale = math.exp(rho) * math.sqrt(spec.m * math.pi)
        interval = (math.sqrt(2.0 / math.e) / scale, 1.0 / scale)
        note = "reach passes the threshold iff sqrt(2/e) < e^rho sqrt(m pi) alpha < 1"
    elif fam == Family.POWER_EXPONENTIAL:
        nu = spec.nu
        lo = 4.0 * math.pi / ((2.0 * nu) ** (1.0 / nu) * math.exp(rho)
                              * math.sqrt(2.0 * math.pi * math.e))
        hi = math.sqrt(2.0 * math.pi * math.e) / (math.exp(rho) * (nu * math.e) ** (1.0 / nu))
        interval = (lo, hi)
        note = f"admissible alpha window is {'non-empty' if nu > 1.0 else 'empty'} (needs nu > 1)"
    elif fam == Family.WHITTLE_MATERN:
        # R* = alpha / 2; max_param bounds alpha itself (fixed rule)
        lo, hi = 2.0 * thresh, max_param(spec)
        interval = (lo, hi) if lo < hi else None
        note = ("admissible alpha window (twice the threshold, existence bound at this n); "
                "at fixed nu it closes as n grows: the bound falls like n^{-1/2}")
    else:  # Cauchy: max_param bounds alpha_n = alpha sqrt(n); R* = alpha
        hi = max_param(spec) / math.sqrt(spec.n)
        interval = (thresh, hi) if thresh < hi else None
        note = ("admissible alpha window (threshold, existence bound at this n) "
                "closes as n grows: the bound tends to the threshold")
    return ReachCertificate(exceeds=r_star > thresh, r_star=r_star, threshold=thresh,
                            interval=interval, note=note)


# ---------------------------------------------------------------------------
# Table-1-style summary
# ---------------------------------------------------------------------------

def _eta_bound_log(spec: KernelSpec) -> tuple[str, float]:
    """(expression, log value at this n) of the family's eta-total bound."""
    fam, n = spec.family, spec.n
    if fam == Family.LAGUERRE_GAUSS:
        m = spec.m
        log_f = _laguerre_double_sum_log(n, m) - ln_binom(m - 1 + 0.5 * n, m - 1)
        return ("2^{-n/2} f(n,m)", -0.5 * n * math.log(2.0) + log_f)
    if fam == Family.POWER_EXPONENTIAL:
        return ("2^{-n/nu}", -(n / spec.nu) * math.log(2.0))
    if fam == Family.BESSEL_TYPE:
        s = spec.sigma
        val = ln_gamma_ratio(0.5 * s + 1.0, 0.5 * n) - ln_gamma_ratio(s + 1.0, 0.5 * n)
        return ("G(s+1)G(s/2+n/2+1)/(G(s/2+1)G(s+n/2+1))", val)
    if fam in (Family.WHITTLE_MATERN, Family.CAUCHY):
        return ("2^{-n/2}", -0.5 * n * math.log(2.0))
    return ("c (exact, all n)", math.log(spec.c))  # IndicatorSpectral


@dataclass(frozen=True)
class SummaryTable:
    columns: tuple
    rows: tuple

    def to_markdown(self) -> str:
        head = "| " + " | ".join(self.columns) + " |"
        sep = "|" + "|".join(" --- " for _ in self.columns) + "|"
        body = ["| " + " | ".join(str(c) for c in row) + " |" for row in self.rows]
        return "\n".join([head, sep] + body) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(self.columns)
        w.writerows(self.rows)
        return out.getvalue()


def summary_table(specs: Sequence[KernelSpec]) -> SummaryTable:
    """One row per spec: eta bound at its n, R*, rate type, reach-vs-threshold."""
    columns = ("family", "n", "eta_total_bound", "eta_total_bound_value",
               "R_star", "rate_type", "reach_exceeds_nn")
    rows = []
    for spec in specs:
        try:  # the spec's one validation, before any value of it is formed
            r_star = reach(spec)
        except UnsupportedFamilyError:
            r_star = None
        if r_star is None:
            reach_cell = exceed_cell = "N/A"
        else:  # reach_exceeds_nn's verdict, without its alpha window
            reach_cell, exceed_cell = f"{r_star:.6g}", str(r_star > nn_threshold(spec.rho))
        expr, log_bound = _eta_bound_log(spec)
        rows.append((spec.family.value, spec.n, expr,
                     f"{math.exp(log_bound):.6g}" if log_bound > -700 else f"exp({log_bound:.4g})",
                     reach_cell, _RATE_TYPE[spec.family], exceed_cell))
    return SummaryTable(columns=columns, rows=tuple(rows))
