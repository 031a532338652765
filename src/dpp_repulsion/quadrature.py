"""Log-domain one-dimensional adaptive integration and CDF construction.

Radial integrands of the form r^{n-1} f(r)^2 with n up to ~1e3 span
thousands of e-folds, so every integrand is a *log*-integrand: a callable
returning log of a non-negative value (-inf at zeros).  One vectorized
nested Gauss7/Kronrod15 evaluator, `_k15_log`, serves every panel of the
adaptive PanelSet and of its prefixes.  It takes arrays of panel edges,
evaluates the log-integrand once over all their nodes, shifts each panel by
its maximum, and returns one row per panel: (lo, hi, log K15 value,
log |K15 - G7| error).  Every integral runs over r in [0, inf), the one
domain of the radial densities, in the variable u = r/(1+r) on [0, 1].

One refinement loop, `_refine`, does all adaptive bisection: the
full-domain PanelSet (one group) and the prefixes (one group each).  Each
round, every group whose summed error is not within rel_tol of its sum
splits its panels with error at or above the group's mean, and the splits
of all groups are one K15 call.  It raises QuadratureError, with the
partial sum and its error, when the MAX_PANELS budget is spent or when a
panel to split can no longer be halved in doubles (its midpoint rounds to
an edge).  A PanelSet's panels never change once built, nor do the
running log sums of them made with it.  Prefixes come in batches: one
searchsorted finds every cut panel, one K15 call evaluates their left
parts, the stored panels below each cut are one lookup in the running
sums, and only the prefixes that miss their own tolerance refine.  A
RadialCdf is a view of a built PanelSet: its node masses are these
prefixes unrefined, each within rel_tol of the total.

Panels seed around the integrand's peak, located by `find_mode`: nested
grid scans, each a single vectorized call on interior points of the
current bracket, so the integrand is never probed one point at a time nor
outside its domain.  The Monte Carlo oracle uses the same finder for its
proposal scale.

The oscillatory J_mu(y)^2 y^{-lam} integrals of the Bessel-type kernels
need no quadrature.  Their total over [0, inf) is the Weber-Schafheitlin
closed form (DLMF 10.22.57).  A prefix is a positive series of squares of
J_{mu+k}(x), k >= 0; the cuts of a batch are the lanes of one backward
recurrence in the order, and one jv call scales them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .special import ln_gamma, ln_gamma_ratio

__all__ = [
    "LogIntegrand",
    "QuadratureError",
    "InfiniteMassError",
    "RadialCdf",
    "PanelSet",
    "integrate_log_panels",
    "find_mode",
    "r_of_u",
    "build_cdf",
    "inverse_cdf",
    "bessel_sq_moment_log",
    "bessel_sq_prefix_log",
]

_NEG_INF = float("-inf")
_MIN_LOG = -1.7976931348623157e308  # the least double: a finite shift for all -inf values
# The integrand wrapper's largest u, 1 - 2^-53, where r = u / (1 - u) is 2^53 - 1
_U_MAX = 1.0 - 1e-16

# Limits of the adaptive scheme, the mode scan and the CDF grid
MAX_PANELS = 60000
SCAN_POINTS = 257
_SCAN_FRAC = np.arange(1, SCAN_POINTS) / SCAN_POINTS
CDF_NODES = 4096
# Order steps of the Bessel-square recurrence held at once per cut
_ORDER_BLOCK = 256
# inverse_cdf's draw buckets: u in [k, k + 1) / 2^15, u = 1 alone in the last
_BUCKETS = float(1 << 15)

# Kronrod-15 nodes on [-1, 1] with the embedded Gauss-7 weights (zero at
# Kronrod-only nodes).  Standard tabulated values.
_KX = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KW = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GW = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
])


class QuadratureError(RuntimeError):
    """Non-convergence; carries the partial estimate and its error bound (logs)."""

    def __init__(self, message, log_partial=_NEG_INF, log_error_bound=math.inf):
        super().__init__(message)
        self.log_partial = log_partial
        self.log_error_bound = log_error_bound


class InfiniteMassError(QuadratureError):
    """The growth test says the integrand does not have finite total mass."""


@dataclass(frozen=True)
class LogIntegrand:
    """log of a non-negative integrand on r in [0, inf), vectorized over the
    radius array.

    Every evaluation of a radial integrand goes through `__call__`, the one
    hook where a profiler can count integrand points.  It runs log_f under
    one np.errstate(all="ignore") and reads NaN as -inf, so no call warns
    or returns NaN, which `_k15_log` relies on.
    """

    log_f: Callable[[np.ndarray], np.ndarray]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.fmax(self.log_f(r), _NEG_INF)  # NaN to -inf


def _k15_log(g, lo, hi):
    """Panel rows (lo, hi, log K15 value, log |K15 - G7| error) of g on each [lo_i, hi_i].

    The module's one Gauss7/Kronrod15 rule: g is called once on the nodes
    of all panels, and each panel is shifted by its own maximum before the
    weights apply.  g never returns NaN, so a panel where g is -inf
    everywhere needs no mask: its value and error come out as log 0 = -inf.
    A +inf value of g means the integral diverges.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    vals = g((mid[:, None] + half[:, None] * _KX).ravel()).reshape(len(lo), len(_KX))
    m = vals.max(axis=1)
    if m.max(initial=_NEG_INF) == math.inf:
        u = mid[np.argmax(m)]
        raise InfiniteMassError(f"log-integrand is +inf near u = {u:.6g}; integral diverges")
    vals -= np.maximum(m, _MIN_LOG)[:, None]  # a dead panel's shift stays finite
    e = np.exp(vals, out=vals)
    out = np.array([lo, hi, e @ _KW, e @ _GW])  # rows lo, hi, K15, G7
    np.abs(np.subtract(out[2], out[3], out=out[3]), out=out[3])
    with np.errstate(divide="ignore"):  # a dead or empty panel: log 0 = -inf
        out[2:] = m + np.log(out[2:] * half)
    return out.T  # column-major: each column is contiguous


def r_of_u(u):
    """The radius r = u / (1 - u) at the integration variable u in [0, 1)."""
    return u / (1.0 - u)


def _group_logsumexp(log_val, log_err, group, n_groups: int):
    """Per-group log-sum-exp of log_val and of log_err, each an array of n_groups values.

    Each group is shifted by its own maximum, so groups far apart in scale
    keep their digits; a group whose values are all -inf sums to -inf.
    """
    a = np.concatenate((log_val, log_err))
    both = np.concatenate((group, group + n_groups))
    m = np.full(2 * n_groups, _NEG_INF)
    np.maximum.at(m, both, a)
    # a live group's maximum adds exp(0) = 1, so only all -inf groups have s < 1
    s = np.bincount(both, np.exp(a - np.maximum(m, _MIN_LOG)[both]), 2 * n_groups)
    total = m + np.log(np.maximum(s, 1.0))
    return total[:n_groups], total[n_groups:]


def _refine(g, panels, rel_tol, group, n_groups: int):
    """Bisect panels until each group's summed error is within rel_tol of its sum.

    The module's one adaptive loop, on the panel rows of `_k15_log`;
    `group` gives each panel's group in range(n_groups).  The full-domain
    run is one group, a batch of prefixes one group per prefix.  Each
    round, every group that misses its tolerance splits each of its panels
    whose error is at or above the group's mean panel error (so its worst
    one always splits), just as it would refined alone; the splits of all
    groups are one K15 call.  The left half takes the panel's row, the
    right half is appended.  The input array is not modified.  Raises
    QuadratureError when the panel budget is spent or a panel to split has
    no double strictly between its edges.
    Returns (panels, log_total, log_err_total), the totals one per group.
    """
    log_tol = math.log(rel_tol)
    count = np.bincount(group, None, n_groups)
    while True:
        log_total, log_err_total = _group_logsumexp(panels[:, 2], panels[:, 3], group, n_groups)
        open_ = log_err_total > log_total + log_tol
        if not open_.any():
            return panels, log_total, log_err_total
        bar = np.where(open_, log_err_total - np.log(count), math.inf)
        i = np.flatnonzero(panels[:, 3] >= bar[group])
        split = group[i]
        count = count + np.bincount(split, None, n_groups)
        lo, hi = panels[i, :2].T
        mid = 0.5 * (lo + hi)
        left, right = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        stuck = left == right  # a half of no width: the midpoint rounds to an edge
        full = count.max() > MAX_PANELS
        if full or stuck.any():
            j = int(np.argmax(stuck.reshape(2, -1).any(axis=0)))
            b = int(np.argmax(count)) if full else split[j]
            raise QuadratureError(
                f"panel budget {MAX_PANELS} exhausted" if full
                else f"panel [{lo[j]}, {hi[j]}] cannot be halved",
                log_partial=float(log_total[b]), log_error_bound=float(log_err_total[b]))
        halves = _k15_log(g, left, right)
        panels = np.concatenate([panels, halves[len(i):]])
        panels[i] = halves[:len(i)]
        group = np.concatenate([group, split])


class PanelSet:
    """Adaptive decomposition of one radial integral, reusable for prefixes.

    The full-domain run fixes the panels in u as one array `panels` of
    rows (lo, hi, log K15 value, log |K15 - G7| error) sorted by lo;
    `lo`, `hi`, `log_vals` and `log_errs` are views of its columns.
    Running log sums go with it: row `cums[k]` sums the values and errors
    of the first k panels.  All of it is read-only, so a cached PanelSet is
    safe to share.  A prefix over [0, r] keeps the panels below the cut with their
    stored values (so the shared error cancels in ratios) and adds the
    left part of the panel holding the cut; a prefix whose error is not
    yet within `rel_tol` of the prefix itself, not of the total, refines
    those panels until it is.  The full run and a prefix's refinement
    raise QuadratureError at either stop of `_refine`: MAX_PANELS panels
    in one group, or a panel to split whose midpoint rounds to an edge.
    """

    def __init__(self, rel_tol, g, u_mode, g_mode, panels, log_total, log_err):
        self.rel_tol, self.g = rel_tol, g
        self.u_mode, self.g_mode = u_mode, g_mode
        self.panels = panels[np.argsort(panels[:, 0])]
        self.panels.flags.writeable = False
        self.lo, self.hi, self.log_vals, self.log_errs = self.panels.T
        self.log_total, self.log_err = log_total, log_err
        self.cums = np.logaddexp.accumulate(
            np.concatenate([[[_NEG_INF, _NEG_INF]], self.panels[:, 2:]]))
        self.cums.flags.writeable = False

    def log_prefix(self, cuts):
        """log integral over [0, r] for each cut r in cuts, accurate
        relative to each prefix; a float for a scalar cut.  r = inf gives
        the total; a NaN or negative cut raises ValueError."""
        r = np.asarray(cuts, dtype=float)
        if not (r >= 0).all():
            raise ValueError("cut must be >= 0 and not NaN")
        r_q = np.minimum(r.ravel(), 1e300)  # r = inf maps to 1, as every r above 1e16 does
        u_q = r_q / (1.0 + r_q)
        below = u_q < 1.0
        out = np.where(below, _NEG_INF, self.log_total)
        part = np.flatnonzero(below & (u_q > 0.0))
        if part.size:
            out[part] = self._cut_prefixes(u_q[part])
        return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)

    def _cut_sums(self, u_q: np.ndarray):
        """(panels below each cut, cut panels' left parts, log value, log error)
        of the unrefined prefixes up to the cuts u_q, each inside (0, 1): one
        searchsorted, one K15 call and one lookup in the running sums."""
        k = np.searchsorted(self.hi, u_q, side="right")  # panels below each cut
        # the left part of each cut panel; empty (value -inf) for a cut on an edge
        cut = _k15_log(self.g, self.lo[k], u_q)
        val, err = np.logaddexp(self.cums[k], cut[:, 2:]).T
        return k, cut, val, err

    def _cut_prefixes(self, u_q: np.ndarray) -> np.ndarray:
        """log prefixes up to the cuts u_q, each inside (0, 1), each within
        rel_tol of itself: the `_cut_sums` that miss it refine together in
        `_refine`, one group each, in batches of at most MAX_PANELS stored panels."""
        k, cut, val, err = self._cut_sums(u_q)
        miss = np.flatnonzero(err > val + math.log(self.rel_tol))
        step = max(1, MAX_PANELS // len(self.lo))  # a prefix holds at most len(lo) of them
        for s in range(0, miss.size, step):
            batch = miss[s:s + step]
            kb = k[batch]
            idx = np.arange(kb.sum()) - np.repeat(np.cumsum(kb) - kb, kb)
            panels = np.concatenate([self.panels[idx], cut[batch]])
            group = np.concatenate([np.repeat(np.arange(len(batch)), kb), np.arange(len(batch))])
            val[batch] = _refine(self.g, panels, self.rel_tol, group, len(batch))[1]
        return val


def find_mode(g):
    """Maximum of the vectorized function g on the open interval (0, 1).

    Nested grid scans: the first round evaluates g on SCAN_POINTS - 1
    interior points of (0, 1), each further round on as many interior
    points of the two cells around the previous round's best point, until
    that bracket is narrower than 1e-14.  g is never called on 0 or 1.
    Returns (x_mode, g_mode, g_scan_max); g_scan_max is the first round's
    maximum.
    """
    lo, hi = 0.0, 1.0
    x_mode, g_mode, g_scan_max = None, _NEG_INF, None
    while True:
        x = lo + (hi - lo) * _SCAN_FRAC
        vals = g(x)
        i = int(vals.argmax())
        if g_scan_max is None:
            x_mode, g_mode, g_scan_max = float(x[i]), float(vals[i]), float(vals[i])
        elif vals[i] > g_mode:
            x_mode, g_mode = float(x[i]), float(vals[i])
        lo = float(x[i - 1]) if i > 0 else lo
        hi = float(x[i + 1]) if i < len(x) - 1 else hi
        if hi - lo < 1e-14:
            return x_mode, g_mode, g_scan_max


def _scan_seed(g):
    """Locate the integrand maximum in u and seed boundaries clustered around it.

    Returns (boundaries, u_mode, g_mode).  One call of g takes the curvature
    stencil at the mode and the growth test: g climbing 5 e-folds past the
    first scan's maximum toward u = 1 (a refined search would happily climb
    a divergence there) means infinite mass and raises InfiniteMassError.
    """
    u_mode, g_mode, g_scan_max = find_mode(g)
    # local width from a second difference, its stencil kept inside [0, 1];
    # fall back to the scan spacing
    h = 1.0 / (8.0 * SCAN_POINTS)
    u_c = min(max(u_mode, h), 1.0 - h)
    gm, g0, gp, *far = g(np.array([u_c - h, u_c, u_c + h,
                                   1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12])).tolist()
    if max(far) > g_scan_max + 5.0:
        raise InfiniteMassError("integrand grows toward r = inf; total mass looks infinite")
    d2 = (gm - 2.0 * g0 + gp) / (h * h)
    width = 1.0 / math.sqrt(-d2) if (np.isfinite(d2) and d2 < 0) else 1.0 / SCAN_POINTS
    width = min(max(width, 1e-13), 1.0)
    bounds = {0.0, 1.0, u_mode}
    for j in range(14):
        w = width * (2.0 ** j)
        bounds.add(max(u_mode - w, 0.0))
        bounds.add(min(u_mode + w, 1.0))
    # a light uniform scaffold so no region is a single giant panel
    for k in range(17):
        bounds.add(k / 16)
    return sorted(bounds), u_mode, g_mode


def integrate_log_panels(f: LogIntegrand, rel_tol: float = 1e-8) -> PanelSet:
    """Adaptive run over r in [0, inf), in u; returns the PanelSet.

    The panels integrate g(u) = f(r(u)) + log r'(u), r'(u) = 1 / (1 - u)^2,
    with u clamped to _U_MAX, where r = 2^53 - 1.  f is a LogIntegrand, so
    its one errstate covers the call and it reads NaN as -inf; log r'(u) is
    finite, so g never returns NaN, as `_k15_log` needs for dropping masks.
    """
    if not (1e-14 < rel_tol < 1e-2):
        raise ValueError("rel_tol must lie in (1e-14, 1e-2)")

    def g(u):
        u = np.minimum(u, _U_MAX)
        return f(u / (1.0 - u)) - 2.0 * np.log1p(-u)

    bounds, u_mode, g_mode = _scan_seed(g)
    edges = np.array(bounds)
    panels, log_total, log_err = _refine(g, _k15_log(g, edges[:-1], edges[1:]), rel_tol,
                                         np.zeros(len(edges) - 1, int), 1)
    return PanelSet(rel_tol, g, u_mode, g_mode, panels, float(log_total[0]), float(log_err[0]))


# ---------------------------------------------------------------------------
# CDF construction / inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialCdf:
    """Cumulative log-mass on an increasing radius grid; immutable."""

    nodes: np.ndarray
    log_mass: np.ndarray
    log_total: float

    def levels(self) -> np.ndarray:
        """Normalized CDF at the nodes: monotone, exactly 1 at the last node."""
        F = np.maximum.accumulate(np.exp(np.minimum(self.log_mass - self.log_total, 0.0)))
        F[-1] = 1.0
        return F

    def cdf(self, r) -> np.ndarray:
        """Normalized CDF, linear interpolation between grid nodes."""
        return np.interp(r, self.nodes, self.levels())


def build_cdf(ps: PanelSet) -> RadialCdf:
    """CDF of the integrand of PanelSet ps: its unrefined prefixes at a node
    at r = 0, a linear band around the mode and two geometric tails.

    On each side of the mode one scan of SCAN_POINTS points closes
    geometrically on u = 0 or _U_MAX; its first point 40 e-folds below the
    mode is the band edge, its first 760 below the cut (else the end).  The
    band gets CDF_NODES // 2 linear nodes, each tail CDF_NODES // 4 closing
    on its cut; the grid ends at the first node at level 1.  Each node mass
    is held to ps.rel_tol of the total.  Raises QuadratureError for a
    zero-mass integrand or a node that misses its tolerance.
    """
    if ps.log_total == _NEG_INF:
        raise QuadratureError("total mass is zero; no CDF")
    tail = np.append(np.geomspace(1.0, 1e-6, CDF_NODES // 4), 0.0)  # band edge to cut
    band, tails = [], []
    for end in (0.0, _U_MAX):
        scan = end - (end - ps.u_mode) * np.geomspace(1.0, 1e-16, SCAN_POINTS)
        down = ps.g_mode - ps.g(scan)
        edge, cut = (scan[np.argmax(down >= d)] if (down >= d).any() else end
                     for d in (40.0, 760.0))
        band.append(edge)
        tails.append(cut + (edge - cut) * tail)
    u_nodes = np.unique(np.concatenate([[0.0], np.linspace(*band, CDF_NODES // 2), *tails]))
    _, _, log_mass, log_err = ps._cut_sums(u_nodes[1:])
    i = int(np.argmax(log_err))  # the worst node
    if log_err[i] > ps.log_total + math.log(ps.rel_tol):
        raise QuadratureError(
            f"CDF node at r = {r_of_u(u_nodes[i + 1]):.6g} misses rel_tol of the total",
            log_partial=float(log_mass[i]), log_error_bound=float(log_err[i]))
    cdf = RadialCdf(nodes=r_of_u(u_nodes), log_mass=np.append(_NEG_INF, log_mass),
                    log_total=ps.log_total)
    end = int(np.argmax(cdf.levels() == 1.0)) + 1  # levels() is 1 at the last node
    return RadialCdf(cdf.nodes[:end], cdf.log_mass[:end], cdf.log_total)


def inverse_cdf(c: RadialCdf, u) -> np.ndarray:
    """Smallest grid-interpolated radius with CDF >= u; monotone in u.  u = 1
    gives the first node at level 1, the grid's last; u = 0 the last at level 0."""
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0) & (u <= 1)):  # NaN fails the test too
        raise ValueError("u must lie in [0, 1]")
    # np.interp searches from its previous hit, so draws in bucket order (a
    # stable radix sort of a 16-bit key) each land near it; it works element
    # by element, so the radii are those of the unsorted draws
    flat = u.ravel()
    order = np.argsort((flat * _BUCKETS).astype(np.uint16), kind="stable")
    out = np.empty(flat.shape)
    out[order] = np.interp(flat[order], c.levels(), c.nodes)
    return out.reshape(u.shape) if u.ndim else float(out[0])


# ---------------------------------------------------------------------------
# Oscillatory Bessel-squared integrals
# ---------------------------------------------------------------------------

def _bessel_sq_log(mu: float, y: np.ndarray, lam: float) -> np.ndarray:
    """log of J_mu(y)^2 y^{-lam} from scipy's jv, for y > 0 where jv(mu, y)
    is a normal double (as at mu <= y + 2)."""
    from scipy.special import jv

    y = np.asarray(y, dtype=float)
    return 2.0 * np.log(np.abs(jv(mu, y))) - lam * np.log(y)


def bessel_sq_moment_log(mu: float, lam: float) -> float:
    """log of int_0^inf J_mu(y)^2 y^{-lam} dy for 0 < lam < 2 mu + 1.

    The Weber-Schafheitlin closed form (DLMF 10.22.57 with nu = mu) after
    the duplication formula, Gamma(lam/2) Gamma(g)
    / (2 sqrt(pi) Gamma((lam + 1)/2) Gamma(g + lam)), g = mu + (1 - lam)/2:
    two Gamma ratios, which cancel no digits at large lam or mu.
    """
    if not (0.0 < lam < 2.0 * mu + 1.0):
        raise ValueError(f"integral diverges for lam={lam}, mu={mu}")
    return (-math.log(2.0 * math.sqrt(math.pi)) - ln_gamma_ratio(0.5 * lam, 0.5)
            - ln_gamma_ratio(mu + 0.5 * (1.0 - lam), lam))


def bessel_sq_prefix_log(mu: float, lam: float, y_hi):
    """log of int_0^y J_mu(t)^2 t^{-lam} dt for each cut y in y_hi, lam < 2 mu + 1;
    a float for a scalar y_hi.

    At lam >= 2 mu + 1 the integrand grows at least like 1/t at t = 0 and
    every non-empty prefix diverges; an empty one (y <= 0) is -inf, a NaN
    cut raises.  y = inf gives the total, bessel_sq_moment_log, which also
    needs lam > 0.

    A finite prefix x = y is the series of squares (from DLMF 10.6.1 with
    a = lam - 1)
    x^{-a} sum_k w_k (J_{mu+k}(x)^2 + J_{mu+k+1}(x)^2) / (2 mu + 2 k - a),
    w_0 = 1, w_{k+1} = w_k (2 mu + 2 k + 2 + a) / (2 mu + 2 k - a), summed to
    rounding; its terms are >= 0 for lam >= -1.  At lam = 1 it is
    (J_mu^2 + 2 sum_{k>=1} J_{mu+k}^2) / (2 mu): the total 1 / (2 mu) times
    the analogue of Neumann's 1 = J_0^2 + 2 sum_k J_k^2 (DLMF 10.23.3).
    Each cut is one lane of a backward recurrence in the order on the
    orders mu + k, in ratio form, r_k = v_k / v_{k+1}
    = 2 (mu + k + 1) / x - 1 / r_{k+1}, so nothing overflows.  A lane starts
    12 x^{1/3} + 40 orders past its turning point and runs on below mu to
    an order nu0 in [x, x + 1), where jv cannot underflow; one jv call at
    each lane's nu0 or nu0 + 1 fixes the scales.  A lane whose last term is
    not 40 e-folds below its largest (the weights outgrow J^2 for lam near
    2 mu + 1) runs again from twice as high.  Memory is lanes x (terms +
    _ORDER_BLOCK); time is about max(x, mu) numpy calls, one cut or many.
    """
    y = np.asarray(y_hi, dtype=float)
    x = y.ravel()
    if np.isnan(x).any():
        raise ValueError("y_hi must not be NaN")
    out = np.full(x.shape, _NEG_INF)
    if (x > 0).any():
        if not lam < 2.0 * mu + 1.0:
            raise ValueError(f"integral diverges for lam={lam}, mu={mu}")
        a = lam - 1.0
        if (x == math.inf).any():
            out[x == math.inf] = bessel_sq_moment_log(mu, lam)
        # the first term and J_mu's first power; the rest add below x^2
        tiny = (x > 0) & (x <= 1e-8)
        # log x - log 2, not log(x / 2): halving the least subnormal gives 0
        log_x = np.log(x[tiny])
        out[tiny] = (2.0 * (mu * (log_x - math.log(2.0)) - ln_gamma(mu + 1.0))
                     - a * log_x - math.log(2.0 * mu - a))
        live = np.flatnonzero((x > 1e-8) & (x < math.inf))
        top = (np.maximum(x[live] - mu, 0.0) + 12.0 * x[live] ** (1.0 / 3.0) + 40.0).astype(int)
        while live.size:
            val, short = _bessel_sq_lanes(mu, a, x[live], top)
            out[live[~short]] = val[~short]
            live, top = live[short], 2 * top[short]
    return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)


def _bessel_sq_lanes(mu: float, a: float, x: np.ndarray, top: np.ndarray):
    """(log prefix, series ran short) per lane x, started from v = 1 at
    order mu + top (r = inf above).  Blocks end on multiples of
    _ORDER_BLOCK, so no lane's sums depend on the other lanes."""
    bot = -np.floor(np.maximum(mu - x, 0.0)).astype(int)  # nu0 = mu + bot
    lanes = np.arange(x.size)
    log_v = np.full((top.max() + 2, x.size), _NEG_INF)  # log |v_k| at orders mu + k >= mu
    r, run = np.full(x.size, math.inf), np.zeros(x.size)  # run ends at log |v| at nu0
    hi = int(top.max())
    with np.errstate(divide="ignore", invalid="ignore"):
        while hi >= bot.min():
            lo = max(hi // _ORDER_BLOCK * _ORDER_BLOCK, int(bot.min()))
            k = np.arange(hi, lo - 1, -1)[:, None]
            off = (k >= top) | (k < bot)
            rows = 2.0 * (mu + k + 1.0) / x
            rows[off] = math.inf
            for row in list(rows):
                row -= np.reciprocal(r)
                r = row
            r = r.copy()  # the rows turn into log |r_k|, then log |v_k|, in place
            s = np.log(np.abs(rows, out=rows), out=rows)
            s[off] = 0.0
            np.cumsum(s, axis=0, out=s)
            s += run
            run = s[-1].copy()
            s[k > top] = _NEG_INF
            up = np.count_nonzero(k >= 0)  # the first rows
            log_v[k[:up, 0]] = s[:up]
            hi = lo - 1
        # J_{nu0} > 0 for nu0 >= x; at nu0 = mu < x the larger of J_mu and
        # J_{mu+1}, which never vanish together, fixes the scale
        ref = (bot == 0) & (log_v[1] > log_v[0])
        log_scale = _bessel_sq_log(mu + bot + ref, x, a) - 2.0 * np.where(ref, log_v[1], run)
        den = 2.0 * mu + 2.0 * np.arange(len(log_v) - 1) - a
        ratio = (den[:-1] + 2.0 + 2.0 * a) / den[:-1]  # w_{k+1} / w_k, one array for all lanes
        log_w = np.concatenate([[0.0], np.cumsum(np.log(np.abs(ratio)))])
        sign_w = np.concatenate([[1.0], np.cumprod(np.sign(ratio))])
        log_v *= 2.0
        log_t = np.logaddexp(log_v[:-1], log_v[1:])
        log_t += (log_w - np.log(den))[:, None]
        m = log_t.max(axis=0)
        short = log_t[top, lanes] >= m - 40.0
        np.exp(np.subtract(log_t, m, out=log_t), out=log_t)
        return log_scale + m + np.log(sign_w @ log_t), short
