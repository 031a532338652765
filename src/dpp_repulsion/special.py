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
    "LN_GAMMA_MAX_ARG",
    "ln_gamma",
    "ln_gamma_ratio",
    "laguerre",
    "ln_bessel_k",
    "ln_bessel_j_ratio",
    "ln_ball_volume",
    "ln_binom",
]

_NEG_INF = float("-inf")


def _fmt(x: float) -> str:
    """x with 17 significant digits, enough to round-trip a double; the
    package's one number rendering for CSV and JSON output (_fmt_join gives
    the same text, as bytes, for a whole array)."""
    return format(float(x), ".17g")


# values per pass of _fmt_join, so its work arrays stay under 1 MB at any length
_FMT_CHUNK = 1 << 14
# 10^p as a double, exact up to p = 22
_POW10 = np.array([float(10**p) for p in range(23)])
# "0000".."9999" as four bytes each, so a uint32 store writes four digits in order
_DIGIT_QUADS = np.ascontiguousarray(
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).view(np.uint32).ravel()
# row L keeps the first L bytes of a 24-byte cell
_KEEP = (np.arange(24) < np.arange(25)[:, None]).view(np.uint8)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v as high + low halves of 26 bits each (Veltkamp), so their products are exact."""
    c = v * 134217729.0  # 2^27 + 1
    high = c - (c - v)
    return high, v - high


def _fixed_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(where, digits, k): the entries of x that %.17g prints in fixed
    notation with no exact tie, their 17 significant digits as an integer,
    correctly rounded, and their decimal exponents.

    With k from log10, x * 10^(16-k) is formed exactly as hi + lo (Dekker's
    two-product; each step is its own ufunc, so nothing is fused).  Then
    hi >= 1e16 > 2^53 is an integer, and hi + floor(lo) + (frac(lo) > 1/2)
    rounds the product to the nearest integer.  An entry whose digits miss
    [1e16, 1e17) is left out: k was misjudged, or x rounds up to a power of
    ten.  (A k one too high cannot round up into the range: below each 10^j,
    -4 <= j <= 16, the nearest double is at least 8e-17 of 10^j away, more
    than the half unit 5e-17.)  So is a tie, frac(lo) = 1/2, which %.17g
    breaks to even.
    """
    where = np.flatnonzero((x >= 1e-4) & (x < 1e17))
    x = x[where]
    k = np.clip(np.floor(np.log10(x)), -4, 16).astype(np.int64)
    scale = _POW10[16 - k]
    hi = x * scale
    (xh, xl), (sh, sl) = _split(x), _split(scale)
    lo = ((xh * sh - hi) + xh * sl + xl * sh) + xl * sl
    lo_floor = np.floor(lo)
    frac = lo - lo_floor
    digits = hi.astype(np.int64) + lo_floor.astype(np.int64) + (frac > 0.5)
    ok = (frac != 0.5) & (digits >= 10**16) & (digits < 10**17)
    return where[ok], digits[ok], k[ok]


def _fmt_join(x, sep: str = "\n") -> bytes:
    """The values of x, each as _fmt renders it, joined by sep, as ASCII bytes.

    Values that %.17g prints in fixed notation (1e-4 <= x < 1e17) are
    rendered as arrays from their _fixed_digits; the rest (0, subnormals,
    negatives, non-finite, exponent notation, ties) go through _fmt one by
    one.
    """
    x = np.asarray(x, dtype=float)
    sep = sep.encode()
    blob = b"".join(_fmt_chunk(x[i:i + _FMT_CHUNK], sep)
                    for i in range(0, len(x), _FMT_CHUNK))
    return blob[:len(blob) - len(sep)]


def _fmt_chunk(x: np.ndarray, sep: bytes) -> bytes:
    """_fmt_join on one chunk, with a trailing sep."""
    where, digits, k = _fixed_digits(x)
    order = np.argsort(k.astype(np.int8), kind="stable")  # a radix sort
    digits, k = digits[order], k[order]
    # the 17 digits in bytes 3..19 of 20, four at a time
    quads = np.empty((len(k), 5), dtype=np.uint32)
    for col in range(4, 0, -1):  # digits >= 0, so // and a multiply-subtract give divmod
        high = digits // 10000
        quads[:, col] = _DIGIT_QUADS[digits - high * 10000]
        digits = high
    quads[:, 0] = _DIGIT_QUADS[digits]
    chars = quads.view(np.uint8)[:, 3:]

    # fixed notation in NUL-padded cells, one slice per exponent:
    # "d...d.d...d", "0.0...0d...d", or at e = 16 the 17 digits alone
    fixed = np.zeros((len(k), 24), dtype=np.uint8)
    bounds = np.searchsorted(k, np.arange(-4, 18))
    for e, a, b in zip(range(-4, 17), bounds[:-1], bounds[1:]):
        if e < 0:
            fixed[a:b, :1 - e] = ord("0")
            fixed[a:b, 1] = ord(".")
            fixed[a:b, 1 - e:18 - e] = chars[a:b]
        else:
            fixed[a:b, :e + 1] = chars[a:b, :e + 1]
            if e < 16:
                fixed[a:b, e + 1] = ord(".")
                fixed[a:b, e + 2:18] = chars[a:b, e + 1:]
    # the fraction's trailing zeros dropped, and a bare point with them; only
    # a value whose 17th digit is 0 has any
    tz = np.flatnonzero(chars[:, 16] == ord("0"))
    zeros = np.argmax(chars[tz, ::-1] != ord("0"), axis=1)
    kt = k[tz]
    kept = np.maximum(16 - kt - zeros, 0)
    fixed[tz] *= _KEEP[np.maximum(kt, 0) + 1 + kept + (kept > 0)]

    # each value's NUL-padded cell, then sep; dropping the NULs joins them
    text = np.zeros((len(x), 24 + len(sep)), dtype=np.uint8)
    text[:, 24:] = np.frombuffer(sep, dtype=np.uint8)
    cells = text[:, :24].view("S24")[:, 0]
    cells[where[order]] = fixed.view("S24")[:, 0]
    slow = np.ones(len(x), dtype=bool)
    slow[where] = False
    cells[slow] = [_fmt(v).encode() for v in x[slow]]
    return text[text != 0].tobytes()


# the largest x whose log Gamma(x) is a finite double; math.lgamma overflows above
LN_GAMMA_MAX_ARG = 2.5599833278516383e305


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0; inf above LN_GAMMA_MAX_ARG."""
    if not x > 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:  # log Gamma(x) exceeds a double
        return math.inf


def ln_gamma_ratio(x: float, h: float) -> float:
    """log Gamma(x + h) - log Gamma(x) for x > 0 and x + h > 0.

    Below 100 the difference of the two log-gammas.  From there on
    Stirling's series for the difference, h ln x + (x + h - 1/2) ln(1 + h/x)
    - h plus the 1/(12 z) - 1/(360 z^3) + 1/(1260 z^5) terms at z = x + h
    and x (truncation below 1e-17), so the two large log-gammas neither
    cancel nor overflow past LN_GAMMA_MAX_ARG.
    """
    y = x + h
    if x < 100.0 or y < 100.0:
        return ln_gamma(y) - ln_gamma(x)
    u, v = 1.0 / y, 1.0 / x
    return (h * math.log(x) + (y - 0.5) * math.log1p(h / x) - h
            + (u - v) / 12.0 - (u**3 - v**3) / 360.0 + (u**5 - v**5) / 1260.0)


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
    if m == 0:
        return np.ones_like(x) if x.ndim else 1.0
    prev, cur = 1.0, 1.0 + beta - x
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
    k = kve(nu, x)
    out = np.log(k) - x
    if np.isfinite(out).all():  # kve is inf at x = 0 and NaN below, so x > 0 here
        return out
    if not (x > 0).all():
        raise ValueError("ln_bessel_k requires x > 0")
    far = np.isnan(k) & (x > 1.0)
    xf = x[far]
    k[far] = np.sqrt(np.pi / (2.0 * xf)) * (1.0 + (4.0 * nu * nu - 1.0) / (8.0 * xf))
    out = np.log(k) - x
    over = ~np.isfinite(out)
    if over.any():
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
    if not np.all(y >= 0):  # NaN fails the test too
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
