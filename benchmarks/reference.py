"""Reference values for the benchmark's checks, computed apart from dpp_repulsion.

Nothing here imports the package.  Kernels are re-derived from their
definitions (README family table) with numpy/scipy special functions, and
integrals use closed forms (regularized gamma/beta, Weber-Schafheitlin) or a
log-domain composite Gauss-Legendre rule.  Specs are plain dicts in the
package's JSON wire format.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import special as sp
from scipy.special import logsumexp

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_LOG_GL_W = np.log(_GL_W)
NN_THRESHOLD_RHO0 = 1.0 / math.sqrt(2.0 * math.pi * math.e)


def eff_alpha(spec: dict) -> float:
    """Scale entering the kernel at this n (alpha_n under the scaled rule)."""
    a, n = spec["alpha"], spec["n"]
    if spec.get("alpha_rule", "fixed") != "scaled":
        return a
    if spec["family"] == "PowerExponential":
        return a * n ** (1.0 / spec["nu"] - 0.5)
    return a * math.sqrt(n)  # Cauchy


def log_ball_volume(n: int, r: float) -> float:
    return 0.5 * n * math.log(math.pi) + n * math.log(r) - sp.gammaln(0.5 * n + 1.0)


def log_kernel(spec: dict, r) -> np.ndarray:
    """log|K_n(r)| for the smooth families (PowerExponential at nu = 2 only)."""
    fam, n, rho = spec["family"], spec["n"], spec["rho"]
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if fam == "LaguerreGauss":
            m, a = spec["m"], spec["alpha"]
            u = r * r / (m * a * a)
            lag = sp.eval_genlaguerre(m - 1, 0.5 * n, u)
            log_binom = sp.gammaln(m + 0.5 * n) - sp.gammaln(m) - sp.gammaln(0.5 * n + 1.0)
            return n * rho - log_binom + np.log(np.abs(lag)) - u
        if fam == "PowerExponential":
            return n * rho - (math.pi * r / eff_alpha(spec)) ** 2
        if fam == "Cauchy":
            return n * rho - (spec["nu"] + 0.5 * n) * np.log1p((r / eff_alpha(spec)) ** 2)
        if fam == "WhittleMatern":
            nu, z = spec["nu"], r / spec["alpha"]
            return (n * rho + (1.0 - nu) * math.log(2.0) - sp.gammaln(nu)
                    + nu * np.log(z) + np.log(sp.kve(nu, z)) - z)
    raise ValueError(f"no smooth position kernel for {fam}")


def _gl_log_masses(log_f, edges: np.ndarray) -> np.ndarray:
    """log of the integral of exp(log_f) over each [edges[i], edges[i+1]]."""
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = log_f(x) + _LOG_GL_W[None, :]
    vals = np.where(np.isnan(vals), -np.inf, vals)
    with np.errstate(divide="ignore"):
        return logsumexp(vals, axis=1) + np.log(half)


def _log_prefixes(log_f, edges: np.ndarray, radii: np.ndarray):
    """(log prefix integral at each radius, log total) over the given edges."""
    edges = np.unique(np.concatenate([edges, radii[(radii > edges[0]) & (radii < edges[-1])]]))
    cum = np.concatenate([[-np.inf], np.logaddexp.accumulate(_gl_log_masses(log_f, edges))])
    idx = np.clip(np.searchsorted(edges, radii), 0, len(edges) - 1)
    out = cum[idx]
    out[radii <= edges[0]] = -np.inf
    return out, float(cum[-1])


def radial_log_integrals(spec: dict, radii, k: int = 0):
    """log of int_0^r t^{n-1+k} K(t)^2 dt at each r in radii, and over [0, inf).

    Geometric panels from 1e-8 of the bulk radius out to 120 e-folds below
    the maximum, fine enough that the integrand changes by at most a few
    e-folds per 20-point panel.
    """
    n = spec["n"]
    power = n - 1 + k

    def log_f(r):
        with np.errstate(divide="ignore"):
            return power * np.log(r) + 2.0 * log_kernel(spec, r)

    scale = math.sqrt(n) * center_radius(spec)
    scan = scale * np.geomspace(1e-8, 1e7, 4001)
    g = log_f(scan)
    i_max = int(np.nanargmax(g))
    beyond = np.nonzero(g[i_max:] < g[i_max] - 120.0)[0]
    if beyond.size == 0:
        raise ArithmeticError("reference integrand does not decay inside the scan range")
    r_hi = scan[i_max + beyond[0]]
    step = min(0.01, 4.0 / max(power, 1))
    count = int(math.ceil(math.log(r_hi / scan[0]) / step)) + 1
    edges = np.concatenate([[0.0], np.geomspace(scan[0], r_hi, count)])
    radii = np.asarray(radii, dtype=float)
    return _log_prefixes(log_f, edges, radii)


def center_radius(spec: dict) -> float:
    """Where the mass of |X_n| / sqrt(n) sits.

    The reach R* for LaguerreGauss, PowerExponential and Cauchy.  For
    WhittleMatern the stated reach alpha/2 is not where the finite-n mass
    lies (E|X|^2 grows like (n alpha / 2)^2), so the mode of
    r^{n-2+2 nu} e^{-2 r / alpha}, divided by sqrt(n), is used instead.
    """
    fam = spec["family"]
    if fam == "LaguerreGauss":
        return math.sqrt(spec["m"]) * spec["alpha"] / 2.0
    if fam == "PowerExponential":
        return spec["alpha"] * (2.0 * spec["nu"]) ** (1.0 / spec["nu"]) / (4.0 * math.pi)
    if fam == "Cauchy":
        return spec["alpha"]
    if fam == "WhittleMatern":
        n = spec["n"]
        return (n - 2.0 + 2.0 * spec["nu"]) * spec["alpha"] / (2.0 * math.sqrt(n))
    mu, lam, s = bessel_y_scale(spec)
    return s * mu / math.sqrt(spec["n"])


def _gaussian_c(spec: dict):
    """c with K(r)^2 = K(0)^2 e^{-c r^2} for the Gaussian kernels
    (LaguerreGauss m = 1, PowerExponential nu = 2); None for the others."""
    if spec["family"] == "PowerExponential":
        return 2.0 * (math.pi / eff_alpha(spec)) ** 2
    if spec["family"] == "LaguerreGauss" and spec["m"] == 1:
        return 2.0 / spec["alpha"] ** 2
    return None


def _closed_cdf(spec: dict):
    """CDF of |X_n| by regularized gamma (Gaussian kernels) or beta (Cauchy),
    or None for a family without one."""
    n, c = spec["n"], _gaussian_c(spec)
    if c is not None:
        return lambda r: sp.gammainc(0.5 * n, c * np.asarray(r) ** 2)
    if spec["family"] != "Cauchy":
        return None
    a, b, scale = 0.5 * n, 2.0 * spec["nu"] + 0.5 * n, eff_alpha(spec)

    def cdf(r):
        x = (np.asarray(r) / scale) ** 2
        return sp.betainc(a, b, x / (1.0 + x))
    return cdf


def log_ball_ratios(spec: dict, R) -> np.ndarray:
    """log P(|X_n| <= sqrt(n) R) for the smooth families.

    The closed-form CDF where it has one and its value is a normal double;
    log-domain quadrature everywhere else.
    """
    r = math.sqrt(spec["n"]) * np.asarray(R, dtype=float)
    cdf = _closed_cdf(spec)
    if cdf is not None:
        with np.errstate(divide="ignore"):
            closed = np.log(cdf(r))
        if np.all(closed > -690.0):
            return closed
    log_pre, log_tot = radial_log_integrals(spec, r)
    out = log_pre - log_tot
    return out if cdf is None else np.where(closed > -690.0, closed, out)


def ball_radius(spec: dict, q: float) -> float:
    """An R near where the ball ratio P(|X_n| <= sqrt(n) R) equals q."""
    grid = center_radius(spec) * np.geomspace(1e-3, 10.0, 400)
    log_q = log_ball_ratios(spec, grid)
    return float(np.interp(math.log(q), log_q, grid))


def log_eta_total(spec: dict) -> float:
    """log ||K_n||^2 / e^{n rho} via the radial integral and the sphere area."""
    n = spec["n"]
    _, log_int = radial_log_integrals(spec, np.array([]))
    log_sphere = math.log(2.0) + 0.5 * n * math.log(math.pi) - sp.gammaln(0.5 * n)
    return log_sphere + log_int - n * spec["rho"]


def radial_moment(spec: dict, k: int) -> float:
    """E|X_n|^k by quadrature (Cauchy by its beta-prime closed form)."""
    if spec["family"] == "Cauchy":
        n, nu = spec["n"], spec["nu"]
        return math.exp(k * math.log(eff_alpha(spec))
                        + sp.betaln(0.5 * (n + k), 2.0 * nu + 0.5 * (n - k))
                        - sp.betaln(0.5 * n, 2.0 * nu + 0.5 * n))
    _, num = radial_log_integrals(spec, np.array([]), k=k)
    _, den = radial_log_integrals(spec, np.array([]))
    return math.exp(num - den)


def radial_cdf_fn(spec: dict):
    """Vectorized CDF of |X_n| (not of |X_n| / sqrt(n))."""
    cdf = _closed_cdf(spec)
    if cdf is not None:
        return cdf
    grid = math.sqrt(spec["n"]) * center_radius(spec) * np.concatenate(
        [[0.0], np.geomspace(1e-4, 50.0, 4000)])
    log_pre, log_tot = radial_log_integrals(spec, grid)
    values = np.exp(log_pre - log_tot)
    return lambda r: np.interp(r, grid, values, right=1.0)


def gaussian_ball_integral(spec: dict, R: float) -> float:
    """int_{B_n(sqrt(n) R)} K(x)^2 dx / e^{n rho} for the Gaussian kernels."""
    n, c = spec["n"], _gaussian_c(spec)
    return (math.exp(n * spec["rho"] + 0.5 * n * math.log(math.pi / c))
            * float(_closed_cdf(spec)(math.sqrt(n) * R)))


def log_phi_ball(spec: dict, R: float) -> float:
    """log of the mean point count e^{n rho} Vol(B_n(sqrt(n) R))."""
    n = spec["n"]
    return n * spec["rho"] + log_ball_volume(n, math.sqrt(n) * R)


# ---------------------------------------------------------------------------
# Oscillatory families: J_mu(y)^2 y^{-lam} after r = s y
# ---------------------------------------------------------------------------

def indicator_radius(n: int, rho: float) -> float:
    """Spectral ball radius with Vol(B_n(r)) = e^{n rho}."""
    return math.exp((n * rho - log_ball_volume(n, 1.0)) / n)


def bessel_y_scale(spec: dict):
    """(mu, lam, s): the radial density r^{n-1} K(r)^2 is proportional to
    J_mu(r / s)^2 (r / s)^{-lam}.

    BesselType: K ~ J_mu(y) / y^mu with mu = (sigma + n)/2 and
    y = (2 / alpha) sqrt(mu) r.  IndicatorSpectral: K ~ J_{n/2}(y) / y^{n/2}
    with y = 2 pi r_n r.
    """
    n = spec["n"]
    if spec["family"] == "BesselType":
        mu = 0.5 * (spec["sigma"] + n)
        return mu, spec["sigma"] + 1.0, spec["alpha"] / (2.0 * math.sqrt(mu))
    return 0.5 * n, 1.0, 1.0 / (2.0 * math.pi * indicator_radius(n, spec["rho"]))


def log_weber_schafheitlin(mu: float, lam: float) -> float:
    """log int_0^inf J_mu(y)^2 y^{-lam} dy, 0 < lam < 2 mu + 1."""
    return (sp.gammaln(lam) + sp.gammaln(mu + 0.5 * (1.0 - lam)) - lam * math.log(2.0)
            - 2.0 * sp.gammaln(0.5 * (1.0 + lam)) - sp.gammaln(mu + 0.5 * (1.0 + lam)))


def oscillatory_log_ratios(spec: dict, R) -> np.ndarray:
    """log P(|X_n| <= sqrt(n) R): Gauss-Legendre on unit-width panels for the
    prefix, Weber-Schafheitlin for the total."""
    mu, lam, s = bessel_y_scale(spec)
    y = math.sqrt(spec["n"]) * np.asarray(R, dtype=float) / s

    def log_f(t):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.abs(sp.jv(mu, t))) - lam * np.log(t)

    edges = np.linspace(0.0, float(np.max(y)), int(math.ceil(np.max(y))) + 1)
    log_pre, _ = _log_prefixes(log_f, edges, y)
    return log_pre - log_weber_schafheitlin(mu, lam)


def bessel_moment(spec: dict, k: int) -> float:
    """E|X_n|^k = s^k WS(mu, lam - k) / WS(mu, lam)."""
    mu, lam, s = bessel_y_scale(spec)
    return math.exp(k * math.log(s) + log_weber_schafheitlin(mu, lam - k)
                    - log_weber_schafheitlin(mu, lam))


# ---------------------------------------------------------------------------
# Summary-table cells
# ---------------------------------------------------------------------------

def _laguerre_norm_sum(n: int, m: int) -> Fraction:
    """int_0^inf u^{n/2-1} L_{m-1}^{n/2}(u)^2 e^{-2u} du * 2^{n/2} / Gamma(n/2),
    exact: expand L into monomials and use Gamma(n/2 + j) / Gamma(n/2) = (n/2)_j."""
    a = Fraction(n, 2)
    coef = []
    for j in range(m):
        c = Fraction(1)
        for i in range(m - 1 - j):  # binom(m-1+a, m-1-j)
            c = c * (m - 1 + a - i) / (i + 1)
        coef.append((-1) ** j * c / math.factorial(j))
    total = Fraction(0)
    for j in range(m):
        for l in range(m):
            poch = Fraction(1)
            for i in range(j + l):
                poch *= a + i
            total += coef[j] * coef[l] * poch / 2 ** (j + l)
    return total


def log_eta_bound(spec: dict) -> float:
    """log of the family's eta-total bound at the spec's n (Table 1 column)."""
    fam, n = spec["family"], spec["n"]
    if fam == "LaguerreGauss":
        m = spec["m"]
        total = _laguerre_norm_sum(n, m)
        log_binom = sp.gammaln(m + 0.5 * n) - sp.gammaln(m) - sp.gammaln(0.5 * n + 1.0)
        return (-0.5 * n * math.log(2.0) + math.log(total.numerator)
                - math.log(total.denominator) - log_binom)
    if fam == "PowerExponential":
        return -(n / spec["nu"]) * math.log(2.0)
    if fam in ("WhittleMatern", "Cauchy"):
        return -0.5 * n * math.log(2.0)
    if fam == "BesselType":
        s = spec["sigma"]
        return (sp.gammaln(s + 1.0) + sp.gammaln(0.5 * (s + n) + 1.0)
                - sp.gammaln(0.5 * s + 1.0) - sp.gammaln(s + 0.5 * n + 1.0))
    return math.log(spec["c"])


def reach(spec: dict):
    """R* on the sqrt(n) scale as the paper states it, or None."""
    fam = spec["family"]
    if fam in ("BesselType", "IndicatorSpectral"):
        return None
    if fam == "WhittleMatern":
        return spec["alpha"] / 2.0
    return center_radius(spec)
