"""Scalar special functions, stable at arguments of order n ~ 1e3.

Everything here is pure and reentrant.  Values that can over/underflow a
double are carried as `LogValue` (signed log magnitude).  Gamma ratios are
always formed as differences of log-gammas; a raw Gamma is never
materialized above the float64 range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

__all__ = [
    "LogValue",
    "ln_gamma",
    "laguerre",
    "laguerre_log",
    "bessel_j",
    "bessel_k",
    "ln_bessel_j_ratio",
    "ln_ball_volume",
    "ln_binom",
    "log_sum_signed",
]

_NEG_INF = float("-inf")


def _fmt(x: float) -> str:
    """x with 17 significant digits, enough to round-trip a double; the
    package's one number rendering for CSV and JSON output."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class LogValue:
    """A real number v stored as (log|v|, sign(v)).

    sign == 0 iff v == 0, in which case log_magnitude is meaningless (kept
    at -inf by the constructors here).
    """

    log_magnitude: float
    sign: int

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(_NEG_INF, 0)

    @staticmethod
    def from_float(v: float) -> "LogValue":
        if v == 0.0:
            return LogValue.zero()
        return LogValue(math.log(abs(v)), 1 if v > 0 else -1)

    @staticmethod
    def from_log(log_magnitude: float, sign: int = 1) -> "LogValue":
        if sign == 0 or log_magnitude == _NEG_INF:
            return LogValue.zero()
        return LogValue(float(log_magnitude), 1 if sign > 0 else -1)

    def value(self) -> float:
        """The represented number as a float; may over/underflow."""
        if self.sign == 0:
            return 0.0
        v = math.exp(self.log_magnitude) if self.log_magnitude < 709.0 else math.inf
        return v if self.sign > 0 else -v

    def __float__(self) -> float:
        return self.value()

    def __mul__(self, other: "LogValue") -> "LogValue":
        s = self.sign * other.sign
        if s == 0:
            return LogValue.zero()
        return LogValue(self.log_magnitude + other.log_magnitude, s)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by LogValue zero")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(self.log_magnitude - other.log_magnitude, self.sign * other.sign)

    def __neg__(self) -> "LogValue":
        if self.sign == 0:
            return self
        return LogValue(self.log_magnitude, -self.sign)

    def __add__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        a, b = self, other
        if b.log_magnitude > a.log_magnitude:
            a, b = b, a
        d = b.log_magnitude - a.log_magnitude  # <= 0
        if a.sign == b.sign:
            return LogValue(a.log_magnitude + math.log1p(math.exp(d)), a.sign)
        if d == 0.0:
            return LogValue.zero()
        return LogValue(a.log_magnitude + math.log1p(-math.exp(d)), a.sign)

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)


def log_sum_signed(log_mags, signs) -> LogValue:
    """Sum of signed log-domain terms, shift-compensated.

    Shifts by the running maximum before exponentiating, accumulates the
    positive and negative parts separately and cancels once at the end.
    """
    log_mags = np.asarray(log_mags, dtype=float)
    signs = np.asarray(signs)
    live = signs != 0
    if not np.any(live):
        return LogValue.zero()
    log_mags = log_mags[live]
    signs = signs[live]
    m = float(np.max(log_mags))
    if m == _NEG_INF:
        return LogValue.zero()
    scaled = np.exp(log_mags - m)
    pos = float(math.fsum(scaled[signs > 0]))
    neg = float(math.fsum(scaled[signs < 0]))
    tot = pos - neg
    if tot == 0.0:
        return LogValue.zero()
    return LogValue(m + math.log(abs(tot)), 1 if tot > 0 else -1)


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return float(sp.gammaln(x))


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


def laguerre_log(m: int, beta: float, x: float) -> LogValue:
    """L_m^beta(x) as a LogValue; falls back to log-domain recurrence on overflow."""
    v = laguerre(m, beta, float(x))
    if math.isfinite(v):
        return LogValue.from_float(v)
    prev = LogValue.from_float(1.0)
    cur = LogValue.from_float(1.0 + beta - x)
    for k in range(1, m):
        a = LogValue.from_float((2 * k + 1 + beta - x) / (k + 1))
        b = LogValue.from_float((k + beta) / (k + 1))
        prev, cur = cur, a * cur - b * prev
    return cur if m > 0 else prev


def bessel_j(order: float, x: float) -> float:
    """Bessel J_order(x) for order >= 0, x >= 0."""
    if order < 0 or x < 0:
        raise ValueError("bessel_j requires order >= 0 and x >= 0")
    return float(sp.jv(order, x))


def bessel_k(order: float, x: float) -> LogValue:
    """Modified Bessel K_order(x) in log form (always positive, ~e^{-x} decay)."""
    if not x > 0:
        raise ValueError("bessel_k requires x > 0")
    kve = float(sp.kve(abs(order), x))
    if math.isfinite(kve) and kve > 0.0:
        return LogValue(math.log(kve) - x, 1)
    # kve overflows for tiny x at large order; mpmath covers the corner.
    import mpmath as mp

    with mp.workdps(30):
        return LogValue(float(mp.log(mp.besselk(abs(order), x))), 1)


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
        jb = sp.jv(order, yb)
        with np.errstate(divide="ignore"):
            log_out[big] = np.log(np.abs(jb)) - order * np.log(yb)
        sign_out[big] = np.sign(jb).astype(int)
    return log_out, sign_out


def ln_ball_volume(n: int, r: float) -> float:
    """log volume of the n-ball of radius r."""
    if n < 1 or not r > 0:
        raise ValueError("ln_ball_volume requires n >= 1 and r > 0")
    return 0.5 * n * math.log(math.pi) + n * math.log(r) - ln_gamma(0.5 * n + 1.0)
