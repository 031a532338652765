"""Scalar special functions, stable at arguments of order n ~ 1e3.

Everything here is pure and reentrant.  Values that can over/underflow a
double are returned as logs, signed ones as a (log magnitude, sign) pair of
arrays.  Gamma ratios are always formed as differences of log-gammas
(`math.lgamma`); a raw Gamma is never materialized above the float64 range.

Importing this module loads numpy only.  scipy is imported inside the two
functions that need it, at their first call: `jv` by the large-argument
branch of `ln_bessel_j_ratio`, `kve` by `ln_bessel_k`.  No function here
needs arbitrary precision: `ln_bessel_k` covers the corner where `kve`
overflows with a recurrence in logs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ln_gamma",
    "laguerre",
    "ln_bessel_k",
    "ln_bessel_j_ratio",
    "ln_ball_volume",
    "ln_binom",
]

_NEG_INF = float("-inf")


def _fmt(x: float) -> str:
    """x with 17 significant digits, enough to round-trip a double; the
    package's one number rendering for CSV and JSON output."""
    return format(float(x), ".17g")


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:  # x above ~2.6e305: log Gamma(x) exceeds a double
        return math.inf


def ln_binom(a: float, k: int) -> float:
    """log of the generalized binomial coefficient C(a, k), a real, k >= 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return ln_gamma(a + 1.0) - ln_gamma(k + 1.0) - ln_gamma(a - k + 1.0)


def laguerre(m: int, beta: float, x) -> float:
    """Generalized Laguerre polynomial L_m^beta(x), upward three-term recurrence.

    Vectorizes over x.  The defining alternating sum is kept in the test
    suite as an oracle only; it cancels catastrophically for large beta.
    """
    if m < 0:
        raise ValueError("degree m must be >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + beta - x
    for k in range(1, m):
        prev, cur = cur, ((2 * k + 1 + beta - x) * cur - (k + beta) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def _ln_bessel_k_small_x(order: float, ln_x: np.ndarray) -> np.ndarray:
    """log K_order(x) for 0 <= order <= 1 from its leading small-x terms in
    t = x/2 (DLMF 10.27.4 with 10.25.2); exact to rounding once x^2 is below
    the double epsilon, where the next terms no longer count."""
    ln_t = ln_x - math.log(2.0)
    if order == 0.0:
        return np.log(-ln_t - np.euler_gamma)
    out = ln_gamma(order) - math.log(2.0) - order * ln_t
    if order < 1.0:  # the Gamma(-v) t^v term; Gamma(-v)/Gamma(v) = -Gamma(1-v)/Gamma(1+v)
        ln_ratio = ln_gamma(1.0 - order) - ln_gamma(1.0 + order)
        out += np.log1p(-np.exp(ln_ratio + 2.0 * order * ln_t))
    return out


def ln_bessel_k(order: float, x) -> np.ndarray:
    """log K_order(x), vectorized over x > 0; finite at every such x.

    log kve(order, x) - x where scipy's `kve` is finite; the two-term
    large-x form (DLMF 10.40.2) where `kve` is NaN (x past ~1e9).  Where
    `kve` overflows (tiny x at large order), the upward recurrence
    K_{mu+1} = K_{mu-1} + (2 mu / x) K_mu (DLMF 10.29.1), stable for K, runs
    in logs over floor(order) steps from orders 1 - f and f, f the
    fractional part of the order; below x ~ 3e-308, where `kve` overflows at
    every order, the two seeds come from their small-x forms.
    """
    from scipy.special import kve

    nu = abs(float(order))
    if nu < 1e-150:  # kve is NaN at subnormal orders; K is even in the order, so K = K_0 here
        nu = 0.0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(x > 0):
        raise ValueError("ln_bessel_k requires x > 0")
    k = kve(nu, x)
    far = np.isnan(k) & (x > 1.0)
    xf = x[far]
    k[far] = np.sqrt(np.pi / (2.0 * xf)) * (1.0 + (4.0 * nu * nu - 1.0) / (8.0 * xf))
    out = np.log(k) - x
    over = ~np.isfinite(out)
    if np.any(over):
        xo = x[over]
        ln_x = np.log(xo)
        f = nu - math.floor(nu)
        seeds = []
        for seed_order in (1.0 - f, f):  # K_{f-1} = K_{1-f}, then K_f
            ln_k = np.log(kve(seed_order, xo)) - xo
            tiny = ~np.isfinite(ln_k)
            ln_k[tiny] = _ln_bessel_k_small_x(seed_order, ln_x[tiny])
            seeds.append(ln_k)
        prev, cur = seeds
        for step in range(math.floor(nu)):
            mu = f + step
            ln_2mu_x = math.log(2.0 * mu) - ln_x if mu else _NEG_INF  # K_1 = K_{-1}
            prev, cur = cur, np.logaddexp(prev, ln_2mu_x + cur)
        out[over] = cur
    return out


def ln_bessel_j_ratio(order: float, y) -> tuple[np.ndarray, np.ndarray]:
    """log|J_order(y) / y^order| and sign, vectorized over y >= 0.

    The ratio is finite and positive at y = 0 (value 2^-order / Gamma(order+1)),
    which is what radial kernels built from J need near the origin.  A direct
    jv(order, y) underflows there once order is large, so small y goes through
    the power series of J_order(y) * (y/2)^-order, summed with the Gamma-ratio
    damping that keeps it cancellation-free while y^2/4 <~ 9 (order+1).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y < 0):
        raise ValueError("y must be >= 0")
    log_out = np.full(y.shape, _NEG_INF)
    sign_out = np.zeros(y.shape, dtype=int)

    series_cut = 6.0 * math.sqrt(order + 1.0)
    small = y <= series_cut
    if np.any(small):
        ys = y[small]
        q = ys * ys / 4.0
        term = np.ones_like(ys)
        acc = np.ones_like(ys)
        k = 0
        while True:
            k += 1
            term = term * (-q) / (k * (order + k))
            acc += term
            if k > 4 and np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
                break
            if k > 400:  # unreachable for y within series_cut
                break
        base = -order * math.log(2.0) - ln_gamma(order + 1.0)
        with np.errstate(divide="ignore"):
            log_out[small] = base + np.log(np.abs(acc))
        sign_out[small] = np.sign(acc).astype(int)
    big = ~small
    if np.any(big):
        yb = y[big]
        from scipy.special import jv
        jb = jv(order, yb)
        with np.errstate(divide="ignore"):
            log_out[big] = np.log(np.abs(jb)) - order * np.log(yb)
        sign_out[big] = np.sign(jb).astype(int)
    return log_out, sign_out


def ln_ball_volume(n: int, r: float) -> float:
    """log volume of the n-ball of radius r."""
    if n < 1 or not r > 0:
        raise ValueError("ln_ball_volume requires n >= 1 and r > 0")
    return 0.5 * n * math.log(math.pi) + n * math.log(r) - ln_gamma(0.5 * n + 1.0)
