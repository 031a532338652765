"""Closed-form asymptotics: reach of repulsion, thresholds, and rates.

All quantities are exact expressions evaluated in double precision; no
series truncation.  Piecewise rates return the shared two-branch limit at
the transition radius itself (the branches agree there algebraically).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .kernels import Family, KernelSpec, UnsupportedFamilyError, validate
from .kernels import _laguerre_double_sum_log  # exact f(n, m) for the table
from .special import _fmt, ln_gamma

__all__ = [
    "RateCurve",
    "ReachCertificate",
    "SummaryTable",
    "reach",
    "nn_threshold",
    "laguerre_rate",
    "laguerre_eta_rate",
    "boolean_rate",
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
    if fam in (Family.BESSEL_TYPE, Family.INDICATOR_SPECTRAL):
        return None
    raise UnsupportedFamilyError(fam.value)


def nn_threshold(rho: float) -> float:
    """Nearest-neighbor threshold (2 pi e)^{-1/2} e^{-rho}."""
    return math.exp(-rho) / math.sqrt(2.0 * math.pi * math.e)


def laguerre_rate(x: float, m: int, alpha: float) -> float:
    """LDP rate of |X_n|/sqrt(n) for the Laguerre-Gauss family.

    2 x^2 / (alpha^2 m) - 1/2 + (1/2) log(alpha^2 m / (4 x^2)); nonnegative,
    strictly convex in x^2, zero exactly at x = sqrt(m) alpha / 2.
    """
    if not x > 0:
        raise ValueError("x must be > 0")
    a2m = alpha * alpha * m
    return 2.0 * x * x / a2m - 0.5 + 0.5 * math.log(a2m / (4.0 * x * x))


def laguerre_eta_rate(R: float, m: int, alpha: float, rho: float) -> float:
    """Analytic limit of -(1/n) log E[eta_n(B_n(sqrt(n) R))], piecewise in R."""
    if not R > 0:
        raise ValueError("R must be > 0")
    r_star = math.sqrt(m) * alpha / 2.0
    if R < r_star:
        return (-rho - 0.5 * math.log(2.0 * math.pi * math.e)
                + 2.0 * R * R / (alpha * alpha * m) - math.log(R))
    return -rho - math.log(alpha) - 0.5 * math.log(0.5 * m * math.pi)


def boolean_rate(R: float, m: int, alpha: float) -> float:
    """Analytic limit of -(1/n) log of the Boolean degree ratio, piecewise in R."""
    if not R > 0:
        raise ValueError("R must be > 0")
    r_star = math.sqrt(m) * alpha / 2.0
    if R < r_star:
        return 2.0 * R * R / (alpha * alpha * m)
    return (0.5 + math.log(2.0) - math.log(alpha)
            - 0.5 * math.log(m) + math.log(R))


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
    fam, rho = spec.family, spec.rho
    r_star = reach(spec)
    if r_star is None:
        raise UnsupportedFamilyError(f"{fam.value} has no finite R* on the sqrt(n) scale")
    thresh = nn_threshold(rho)
    if fam == Family.LAGUERRE_GAUSS:
        scale = math.exp(rho) * math.sqrt(spec.m * math.pi)
        lo, hi = math.sqrt(2.0 / math.e) / scale, 1.0 / scale
        return ReachCertificate(
            exceeds=r_star > thresh, r_star=r_star, threshold=thresh,
            interval=(lo, hi),
            note="reach passes the threshold iff sqrt(2/e) < e^rho sqrt(m pi) alpha < 1")
    if fam == Family.POWER_EXPONENTIAL:
        nu = spec.nu
        lo = 4.0 * math.pi / ((2.0 * nu) ** (1.0 / nu) * math.exp(rho)
                              * math.sqrt(2.0 * math.pi * math.e))
        hi = math.sqrt(2.0 * math.pi * math.e) / (math.exp(rho) * (nu * math.e) ** (1.0 / nu))
        word = "non-empty" if nu > 1.0 else "empty"
        return ReachCertificate(
            exceeds=r_star > thresh, r_star=r_star, threshold=thresh,
            interval=(lo, hi),
            note=f"admissible alpha window is {word} (needs nu > 1)")
    if fam == Family.WHITTLE_MATERN:
        return ReachCertificate(
            exceeds=False, r_star=r_star, threshold=thresh,
            note="alpha/2 stays below the threshold for every valid alpha (4 > sqrt(2e))")
    if fam == Family.CAUCHY:
        return ReachCertificate(
            exceeds=False, r_star=r_star, threshold=thresh,
            note="the existence bound forces R* = alpha < threshold")
    raise UnsupportedFamilyError(fam.value)


@dataclass(frozen=True)
class RateCurve:
    """Analytic rate curve over an R grid, optionally with finite-n values."""

    quantity: str                      # "eta_ball" | "eta_boolean_ratio"
    grid: tuple                        # ((R, analytic_rate), ...)
    empirical: Optional[tuple] = None  # ((n, -(1/n) log value), ...) or None

    def to_csv(self) -> str:
        lines = ["R,analytic_rate"] + [f"{_fmt(R)},{_fmt(v)}" for R, v in self.grid]
        if self.empirical:
            lines += ["n,empirical_rate"] + [f"{n},{_fmt(v)}" for n, v in self.empirical]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Table-1-style summary
# ---------------------------------------------------------------------------

def _eta_bound_log(spec: KernelSpec) -> tuple[str, float]:
    """(expression, log value at this n) of the family's eta-total bound."""
    fam, n = spec.family, spec.n
    if fam == Family.LAGUERRE_GAUSS:
        m = spec.m
        log_f = (_laguerre_double_sum_log(n, m)
                 - (ln_gamma(m + 0.5 * n) - ln_gamma(float(m)) - ln_gamma(0.5 * n + 1.0)))
        return ("2^{-n/2} f(n,m)", -0.5 * n * math.log(2.0) + log_f)
    if fam == Family.POWER_EXPONENTIAL:
        return ("2^{-n/nu}", -(n / spec.nu) * math.log(2.0))
    if fam == Family.BESSEL_TYPE:
        s = spec.sigma
        val = (ln_gamma(s + 1.0) + ln_gamma(0.5 * s + 0.5 * n + 1.0)
               - ln_gamma(0.5 * s + 1.0) - ln_gamma(s + 0.5 * n + 1.0))
        return ("G(s+1)G(s/2+n/2+1)/(G(s/2+1)G(s+n/2+1))", val)
    if fam in (Family.WHITTLE_MATERN, Family.CAUCHY):
        return ("2^{-n/2}", -0.5 * n * math.log(2.0))
    if fam == Family.INDICATOR_SPECTRAL:
        return ("c (exact, all n)", math.log(spec.c))
    raise UnsupportedFamilyError(fam.value)


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
        rep = validate(spec)
        if not rep.ok:
            raise ValueError(f"invalid spec in summary: {rep.violations}")
        expr, log_bound = _eta_bound_log(spec)
        try:
            r_star = reach(spec)
        except UnsupportedFamilyError:
            r_star = None
        if r_star is None:
            reach_cell, exceed_cell = "N/A", "N/A"
        else:
            reach_cell = f"{r_star:.6g}"
            try:
                cert = reach_exceeds_nn(spec)
                exceed_cell = str(cert.exceeds)
            except UnsupportedFamilyError:
                exceed_cell = "N/A"
        rows.append((spec.family.value, spec.n, expr,
                     f"{math.exp(log_bound):.6g}" if log_bound > -700 else f"exp({log_bound:.4g})",
                     reach_cell, _RATE_TYPE[spec.family], exceed_cell))
    return SummaryTable(columns=columns, rows=tuple(rows))
