"""Stationary isotropic DPP kernel families in the Shannon regime.

A `KernelSpec` pins one family instance at one dimension n with intensity
e^{n rho}.  The module knows, per family: the existence bound on the scale
parameter, radial kernel values (signed log), and the closed-form squared
L2 norm that drives every repulsion quantity.

Fourier convention: ordinary frequency, unitary, i.e.
K_hat(xi) = int K(x) exp(-2 pi i x.xi) dx.  All family formulas are
normalized in this convention and the Parseval test in the suite asserts it.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .special import (
    LN_GAMMA_MAX_ARG,
    _ln_laguerre,
    laguerre,
    ln_ball_volume,
    ln_bessel_j_ratio,
    ln_bessel_k,
    ln_binom,
    ln_gamma,
    ln_gamma_ratio,
)

__all__ = [
    "Family",
    "KernelSpec",
    "InvalidSpecError",
    "UnsupportedFamilyError",
    "NoPositionKernelError",
    "ValidationReport",
    "intensity_log",
    "max_param",
    "validate",
    "effective_alpha",
    "indicator_radius",
    "kernel_radial",
    "log_kernel_radial_array",
    "squared_norm_log",
    "spec_to_dict",
    "spec_from_dict",
]


class Family(str, enum.Enum):
    LAGUERRE_GAUSS = "LaguerreGauss"
    POWER_EXPONENTIAL = "PowerExponential"
    BESSEL_TYPE = "BesselType"
    WHITTLE_MATERN = "WhittleMatern"
    CAUCHY = "Cauchy"
    INDICATOR_SPECTRAL = "IndicatorSpectral"


class InvalidSpecError(ValueError):
    """The spec fails validation (existence bound or parameter domain)."""


class UnsupportedFamilyError(ValueError):
    """The requested operation has no exact route for this family."""


class NoPositionKernelError(UnsupportedFamilyError):
    """The family has no closed-form position kernel; exact moments remain."""


_FIELDS_BY_FAMILY = {
    Family.LAGUERRE_GAUSS: ("m", "alpha"),
    Family.POWER_EXPONENTIAL: ("nu", "alpha", "alpha_rule"),
    Family.BESSEL_TYPE: ("sigma", "alpha"),
    Family.WHITTLE_MATERN: ("nu", "alpha"),
    Family.CAUCHY: ("nu", "alpha", "alpha_rule"),
    Family.INDICATOR_SPECTRAL: ("c",),
}


def _family(value) -> Family:
    try:
        return Family(value)
    except ValueError:
        raise InvalidSpecError(f"unknown family {value!r}") from None


@dataclass(frozen=True)
class KernelSpec:
    """One DPP family instance: family tag, dimension, intensity exponent,
    and exactly the parameters its family reads (`_FIELDS_BY_FAMILY`): a
    missing one, or any other set (not None; alpha_rule not "fixed"), raises,
    and so does a value outside its domain: m >= 1, alpha, nu, c > 0 and
    sigma >= 0.  Whether the DPP exists is `validate`'s question.
    """

    family: Family
    n: int
    rho: float = 0.0
    m: int = None
    alpha: float = None
    alpha_rule: str = "fixed"
    nu: float = None
    sigma: float = None
    c: float = None

    def __post_init__(self):
        object.__setattr__(self, "family", fam := _family(self.family))
        reads, params = _FIELDS_BY_FAMILY[fam], fields(self)[3:]  # after family, n, rho
        missing = [f"{fam.value} requires {p.name}" for p in params
                   if p.name in reads and getattr(self, p.name) is None]
        if missing:
            raise InvalidSpecError("; ".join(missing))
        unread = sorted(p.name for p in params
                        if p.name not in reads and getattr(self, p.name) != p.default)
        if unread:
            raise InvalidSpecError(f"{fam.value} does not read fields {unread}")
        for name in ("n", "m") if self.m is not None else ("n",):
            val = getattr(self, name)
            if isinstance(val, bool) or not (isinstance(val, numbers.Integral)
                                             or isinstance(val, float) and val.is_integer()):
                raise InvalidSpecError(f"{name} must be an integer, got {val!r}")
            object.__setattr__(self, name, int(val))
        for name in ("rho", "alpha", "nu", "sigma", "c"):
            val = getattr(self, name)
            if val is not None and (isinstance(val, bool) or not isinstance(val, numbers.Real)
                                    or not math.isfinite(val)):
                raise InvalidSpecError(f"{name} must be a finite number, got {val!r}")
        if self.n < 1:
            raise InvalidSpecError(f"dimension n must be >= 1, got {self.n}")
        for name, low, strict in (("m", 1, False), ("alpha", 0, True), ("nu", 0, True),
                                  ("sigma", 0, False), ("c", 0, True)):
            val = getattr(self, name)
            if val is not None and not (val > low if strict else val >= low):
                raise InvalidSpecError(f"{name} must be {'>' if strict else '>='} {low}, "
                                       f"got {val!r}")
        if self.alpha_rule not in ("fixed", "scaled"):
            raise InvalidSpecError(f"alpha_rule must be fixed|scaled, got {self.alpha_rule!r}")

    def with_n(self, n: int) -> "KernelSpec":
        return replace(self, n=n)


def intensity_log(spec: KernelSpec) -> float:
    """log intensity; the intensity is e^{n rho} by definition."""
    return spec.n * spec.rho


def effective_alpha(spec: KernelSpec) -> float:
    """Scale actually entering the kernel at this n (alpha_n under 'scaled').

    scaled fixes alpha_n = alpha n^{1/nu - 1/2} (PowerExponential) and
    alpha_n = alpha sqrt(n) (Cauchy) exactly, the canonical representative
    of the asymptotic scaling the limit statements assume.
    """
    fam = spec.family
    if fam == Family.INDICATOR_SPECTRAL:
        raise UnsupportedFamilyError("IndicatorSpectral has no alpha scale")
    if spec.alpha_rule == "fixed":
        return float(spec.alpha)
    if fam == Family.POWER_EXPONENTIAL:
        return spec.alpha * spec.n ** (1.0 / spec.nu - 0.5)
    return spec.alpha * math.sqrt(spec.n)  # Cauchy, the other scaled family


def indicator_radius(spec: KernelSpec) -> float:
    """Spectral ball radius r_n with Vol(B_n(r_n)) = e^{n rho}."""
    n = spec.n
    return math.exp((n * spec.rho - ln_ball_volume(n, 1.0)) / n)


def max_param(spec: KernelSpec, n_uniform: bool = False) -> float:
    """Strict upper existence bound on alpha (alpha_n) at this exact n.

    For LaguerreGauss, n_uniform=True returns the n-independent sufficient
    bound e^{-rho} (m pi)^{-1/2}; the exact bound exceeds it and decreases
    toward it as n grows.  For IndicatorSpectral the bounded parameter is c
    and the bound is 1.
    """
    fam, n, rho = spec.family, spec.n, spec.rho
    if fam == Family.LAGUERRE_GAUSS:
        if n_uniform:
            return math.exp(-rho) / math.sqrt(spec.m * math.pi)
        lb = ln_binom(spec.m - 1 + 0.5 * n, spec.m - 1)
        return math.exp(-rho + lb / n) / math.sqrt(spec.m * math.pi)
    if fam == Family.POWER_EXPONENTIAL:
        return math.exp((ln_gamma(n / spec.nu + 1.0) - ln_gamma(0.5 * n + 1.0)) / n
                        + 0.5 * math.log(math.pi) - rho)
    if fam == Family.BESSEL_TYPE:
        s = spec.sigma
        return math.exp(0.5 * math.log((s + n) / (2.0 * math.pi)) - rho
                        - ln_gamma_ratio(0.5 * s + 1.0, 0.5 * n) / n)
    if fam == Family.WHITTLE_MATERN:
        return math.exp(-ln_gamma_ratio(spec.nu, 0.5 * n) / n
                        - math.log(2.0 * math.sqrt(math.pi)) - rho)
    if fam == Family.CAUCHY:
        return math.exp(ln_gamma_ratio(spec.nu, 0.5 * n) / n
                        - 0.5 * math.log(math.pi) - rho)
    return 1.0  # IndicatorSpectral


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()
    notes: tuple = ()


_SHAPE_BY_FAMILY = {Family.WHITTLE_MATERN: "nu", Family.CAUCHY: "nu",
                    Family.BESSEL_TYPE: "sigma"}


def validate(spec: KernelSpec) -> ValidationReport:
    """Existence check: spectrum strictly inside [0, 1) (domains are the constructor's)."""
    fam = spec.family
    bad, notes = [], []
    if fam == Family.BESSEL_TYPE and spec.sigma == 0.0:
        notes.append("sigma = 0 accepted, but the no-reach statement assumes sigma > 0")
    # norms and moments take ln Gamma at up to n + 2 nu (n + 2 sigma bounds
    # BesselType's), which must stay a finite double
    shape = _SHAPE_BY_FAMILY.get(fam)
    if shape and 2.0 * getattr(spec, shape) + spec.n > LN_GAMMA_MAX_ARG:
        limit = 0.5 * (LN_GAMMA_MAX_ARG - spec.n)
        bad.append((shape, f"{shape} must be at most {limit:.6g} at n={spec.n}, "
                           f"got {getattr(spec, shape):.6g} (ln Gamma overflows a double)"))
    elif fam == Family.BESSEL_TYPE and spec.sigma + 1.0 == spec.sigma + spec.n + 1.0:
        # the density's exponent sigma + 1 must stay below 2 mu + 1 = sigma + n + 1
        bad.append(("sigma", f"sigma {spec.sigma:.6g} is too large at n={spec.n}: "
                             "sigma + 1 and sigma + n + 1 round to the same double"))
    if fam == Family.INDICATOR_SPECTRAL:
        if not spec.c < 1.0:
            bad.append(("c", f"need 0 < c < 1 (spectrum strictly below 1), got {spec.c}"))
        return ValidationReport(not bad, tuple(bad), tuple(notes))
    a_eff, bound = effective_alpha(spec), max_param(spec)
    if not a_eff < bound:
        bad.append(("alpha", f"effective scale {a_eff:.6g} >= existence bound "
                             f"{bound:.6g} at n={spec.n} (excess {a_eff - bound:.3g})"))
    return ValidationReport(not bad, tuple(bad), tuple(notes))


def _require_valid(spec: KernelSpec):
    rep = validate(spec)
    if not rep.ok:
        raise InvalidSpecError("; ".join(msg for _, msg in rep.violations))


# ---------------------------------------------------------------------------
# Radial kernel
# ---------------------------------------------------------------------------

def _bind_log_kernel(spec: KernelSpec):
    """log_k(r) -> (log|K_n|, s) on a 1-d radius array r >= 0 (not checked),
    with the spec's constants computed once; s carries the sign (1 for a
    positive kernel).  Each family's one formula: `log_kernel_radial_array`
    and the radial density both call it, under np.errstate(all="ignore"):
    LaguerreGauss takes log |L| = -inf at a zero of its Laguerre factor."""
    fam, n = spec.family, spec.n
    # of the PowerExponential spectra only the Gaussian one (nu = 2) has a
    # closed position kernel
    if fam == Family.POWER_EXPONENTIAL and spec.nu != 2.0:
        raise NoPositionKernelError(
            f"{fam.value} with nu={spec.nu} has no position kernel; "
            "its concentration is certified via exact moments plus Chebyshev")
    nrho = n * spec.rho
    if fam == Family.LAGUERRE_GAUSS:
        m, scale = spec.m, spec.m * spec.alpha * spec.alpha
        c = nrho - ln_binom(m - 1 + 0.5 * n, m - 1)

        def log_k(r):
            u = r * r / scale
            if m == 1:  # L_0 = 1, and c + log 1 - u reads c = -0.0 as 0.0
                return c + 0.0 - u, 1
            lag = laguerre(m - 1, 0.5 * n, u)
            log_lag = np.log(np.abs(lag))
            if not log_lag.max(initial=-math.inf) < math.inf:  # +inf or NaN: it overflowed
                big = ~(log_lag < math.inf)
                log_lag[big], lag[big] = _ln_laguerre(m - 1, 0.5 * n, u[big])
            return c + log_lag - u, lag
    elif fam == Family.POWER_EXPONENTIAL:  # nu == 2: Gaussian closed form
        a_n = effective_alpha(spec)

        def log_k(r):
            return nrho - (math.pi * r / a_n) ** 2, 1
    elif fam == Family.CAUCHY:
        a_n, p = effective_alpha(spec), spec.nu + 0.5 * n

        def log_k(r):
            return nrho - p * np.log1p((r / a_n) ** 2), 1
    elif fam == Family.WHITTLE_MATERN:
        nu, alpha = spec.nu, spec.alpha
        c = nrho + (1.0 - nu) * math.log(2.0) - ln_gamma(nu)

        def log_k(r):
            z = r / alpha
            if z.min(initial=math.inf) > 0:  # no r = 0, as at every integrand point
                return c + nu * np.log(z) + ln_bessel_k(nu, z), 1
            pos = z > 0
            logmag = np.full(r.shape, nrho)  # K(0) = e^{n rho}
            logmag[pos] = log_k(r[pos])[0]
            return logmag, 1
    else:
        mu, _, s = _bessel_y_scale(spec)
        if fam == Family.BESSEL_TYPE:
            c = nrho + mu * math.log(2.0) + ln_gamma(mu + 1.0)
        else:  # IndicatorSpectral: inverse transform of sqrt(c) 1_{B(r_n)}
            r_n = indicator_radius(spec)
            c = 0.5 * math.log(spec.c) + 0.5 * n * math.log(2.0 * math.pi * r_n * r_n)

        def log_k(r):
            log_ratio, sign = ln_bessel_j_ratio(mu, r / s)
            return c + log_ratio, sign
    return log_k


def _bessel_y_scale(spec: KernelSpec) -> tuple[float, float, float]:
    """(mu, lam, s) of a Bessel-type or indicator-spectral spec: its kernel
    is a function of J_mu(r / s) / (r / s)^mu, and r = s y reduces its
    radial density to J_mu(y)^2 y^{-lam}."""
    if spec.family == Family.BESSEL_TYPE:
        mu = 0.5 * (spec.sigma + spec.n)
        return mu, spec.sigma + 1.0, spec.alpha / math.sqrt(2.0 * (spec.sigma + spec.n))
    r_n = indicator_radius(spec)
    return 0.5 * spec.n, 1.0, 1.0 / (2.0 * math.pi * r_n)


def log_kernel_radial_array(spec: KernelSpec, r) -> tuple[np.ndarray, np.ndarray]:
    """(log|K_n|, sign) at radii r, vectorized, without a warning.  r = 0
    gives the exact limit.  Where K is 0 in doubles, log|K| is -inf with
    sign 0: at r = inf, at a zero of K, and where K underflows, also where
    the family's formula overflows on the way (a NaN or +inf log)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(r >= 0):
        raise ValueError("radius must be >= 0 and not NaN")
    with np.errstate(all="ignore"):
        logmag, s = _bind_log_kernel(spec)(r)
    zero = ~np.isfinite(logmag)
    return np.where(zero, -math.inf, logmag), np.where(zero, 0, np.sign(s)).astype(int)


def kernel_radial(spec: KernelSpec, r: float) -> tuple[float, int]:
    """(log|K_n|, sign) at |x| = r."""
    logmag, sign = log_kernel_radial_array(spec, np.array([float(r)]))
    return float(logmag[0]), int(sign[0])


# ---------------------------------------------------------------------------
# Squared L2 norms (closed forms)
# ---------------------------------------------------------------------------

def _laguerre_double_sum_log(n: int, m: int, k: int = 0) -> float:
    """log of S = sum_{i,j<m} (-1)^{i+j} b_i b_j G(h+i+j) / (2^{i+j} i! j! G(h)),
    b_i = binom(m-1+n/2, m-1-i), h = (n + k)/2 (k = 0 for the norm, the order
    k for the k-th radial moment), summed as a sum of squares.

    S = E[L_{m-1}^{(n/2)}(X/2)^2] for X ~ Gamma(h, 1).  The Laguerre
    multiplication theorem at lambda = 1/2 and the connection formula
    (DLMF 18.18) expand L_{m-1}^{(n/2)}(X/2) in the L_j^{(h-1)}(X), which are
    orthogonal under that law with squared norms binom(j+h-1, j):

        S = 4^{1-m} sum_{j<m} binom(j+h-1, j) c_{m-1-j}^2,
        c_t = [x^t] F(x),  F(x) = (1 - x)^{k/2-1} (1 + x)^{m-1+n/2}.

    The c_t cancel ever harder as k/2 nears m-1+n/2 (summed in floats, ln S
    came out 91.09 for the true 73.18 at (n, m, k) = (100, 60, 160)), so
    everything runs in integers.
    With p = 2m-2+n, I_t = 2^t t! c_t follows from (1 - x^2) F' =
    ((p - k + 2) - (p + k - 2) x) F / 2 as I_0 = 1, I_1 = p - k + 2,
    I_{t+1} = (p - k + 2) I_t - 2t (p + k - 2t) I_{t-1}; and
    binom(j+h-1, j) = A_j / (2^j j!) with A_j = prod_{i<j} (n + k + 2i).  So
    16^{m-1} (m-1)!^2 S = sum_j A_j I_{m-1-j}^2 2^j binom(m-1, j) (m-1)!/(m-1-j)!
    is an integer, and ln S is exact up to the rounding of one quotient, of
    its logarithm and of e ln 2 (e the quotient's binary exponent).
    """
    p = 2 * m - 2 + n
    c = [1, p - k + 2]
    for t in range(1, m - 1):
        c.append((p - k + 2) * c[t] - 2 * t * (p + k - 2 * t) * c[t - 1])
    total, a = 0, 1
    for j in range(m):
        total += (a * c[m - 1 - j] ** 2 * math.comb(m - 1, j) * math.perm(m - 1, j)) << j
        a *= n + k + 2 * j
    den = math.factorial(m - 1) ** 2 << 4 * (m - 1)
    e = total.bit_length() - den.bit_length()
    return math.log(total / (den << e) if e >= 0 else (total << -e) / den) + e * math.log(2.0)


def squared_norm_log(spec: KernelSpec) -> float:
    """log ||K_n||_2^2 via the family's closed form."""
    _require_valid(spec)
    fam, n, rho = spec.family, spec.n, spec.rho
    if fam == Family.LAGUERRE_GAUSS:
        m, alpha = spec.m, spec.alpha
        lb = ln_binom(m - 1 + 0.5 * n, m - 1)
        return (2.0 * n * rho + n * math.log(alpha)
                + 0.5 * n * math.log(0.5 * m * math.pi) - 2.0 * lb
                + _laguerre_double_sum_log(n, m))
    if fam == Family.POWER_EXPONENTIAL:
        a_n = effective_alpha(spec)
        return (2.0 * n * rho - (n / spec.nu) * math.log(2.0) + n * math.log(a_n)
                + ln_gamma(0.5 * n + 1.0) - 0.5 * n * math.log(math.pi)
                - ln_gamma(n / spec.nu + 1.0))
    if fam == Family.BESSEL_TYPE:
        s, alpha = spec.sigma, spec.alpha
        return (2.0 * n * rho + 0.5 * n * math.log(2.0 * math.pi) + n * math.log(alpha)
                - 0.5 * n * math.log(s + n) + 2.0 * ln_gamma_ratio(0.5 * s + 1.0, 0.5 * n)
                - ln_gamma_ratio(s + 1.0, 0.5 * n))
    if fam == Family.WHITTLE_MATERN:
        nu, alpha = spec.nu, spec.alpha
        return (2.0 * n * rho + n * math.log(2.0) + 0.5 * n * math.log(math.pi)
                + n * math.log(alpha) + 2.0 * ln_gamma_ratio(nu, 0.5 * n)
                - ln_gamma_ratio(2.0 * nu + 0.5 * n, 0.5 * n))
    if fam == Family.CAUCHY:
        a_n = effective_alpha(spec)
        return (2.0 * n * rho + 0.5 * n * math.log(math.pi) + n * math.log(a_n)
                - ln_gamma_ratio(2.0 * spec.nu + 0.5 * n, 0.5 * n))
    return math.log(spec.c) + n * rho  # IndicatorSpectral


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def spec_to_dict(spec: KernelSpec) -> dict:
    """Flat snake_case object; family-irrelevant fields omitted."""
    out = {"family": spec.family.value, "n": spec.n, "rho": spec.rho}
    for name in _FIELDS_BY_FAMILY[spec.family]:
        out[name] = getattr(spec, name)
    return out


def spec_from_dict(d: dict) -> KernelSpec:
    """The spec of a flat object; a field its family does not read is invalid."""
    if "family" not in d or "n" not in d:
        raise InvalidSpecError("KernelSpec JSON requires 'family' and 'n'")
    fam = _family(d["family"])
    unread = set(d) - {"family", "n", "rho", *_FIELDS_BY_FAMILY[fam]}
    if unread:
        raise InvalidSpecError(f"{fam.value} does not read fields {sorted(unread)}")
    return KernelSpec(**d)
