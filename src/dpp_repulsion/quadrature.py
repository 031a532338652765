"""Log-domain one-dimensional adaptive integration and CDF construction.

Radial integrands of the form r^{n-1} f(r)^2 with n up to ~1e3 span
thousands of e-folds, so every integrand is a *log*-integrand: a callable
returning log of a non-negative value (-inf at zeros).  One vectorized
nested Gauss7/Kronrod15 evaluator, `_k15_log`, serves every panel: the
adaptive PanelSet, the CDF cells and the oscillatory pi grid.  It takes
arrays of panel edges, evaluates the log-integrand once over all their
nodes, shifts each panel by its maximum, and returns the log value and the
log |K15 - G7| error per panel.  Infinite upper limits go through the
variable change u = r/(1+r).

One refinement loop, `_refine`, does all adaptive bisection: the
full-domain PanelSet, every prefix and the CDF cells.  Each round checks
that the summed error is within rel_tol of the total and otherwise splits,
in one K15 call, every panel whose error is at or above the mean.  A
PanelSet never changes once built; a prefix is a binary search for the cut
panel, one K15 call on its left part and a refinement of the panels below
the cut.

Panels seed around the integrand's peak, located by `find_mode`: nested
grid scans, each a single vectorized call on interior points of the
current bracket, so the integrand is never probed one point at a time nor
outside its domain.  The Monte Carlo oracle uses the same finder for its
proposal scale.

The oscillatory J_mu(y)^2 y^{-lam} integrals of the Bessel-type kernels get
a dedicated path.  Their total over [0, inf) is the Weber-Schafheitlin
closed form (DLMF 10.22.57), so only prefixes are integrated.  Region A,
[0, t0] through the turning point, is one adaptive PanelSet, built once per
(mu, lam, rel_tol).  Above t0 the panels form a fixed grid of pi-wide K15
panels anchored at t0: prefixes read its cumulative log-mass plus one
partial panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .special import ln_bessel_j_ratio, ln_gamma

__all__ = [
    "LogIntegrand",
    "QuadratureError",
    "InfiniteMassError",
    "RadialCdf",
    "PanelSet",
    "integrate_log_panels",
    "find_mode",
    "build_cdf",
    "inverse_cdf",
    "bessel_sq_moment_log",
    "bessel_sq_prefix_log",
]

_NEG_INF = float("-inf")

# Limits of the adaptive scheme, the mode scan and the CDF grid
MAX_DEPTH = 60
MAX_PANELS = 60000
SCAN_POINTS = 257
CDF_NODES = 4096

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
    """log of a non-negative integrand, vectorized over the radius array."""

    log_f: Callable[[np.ndarray], np.ndarray]
    r_lo: float = 0.0
    r_hi: float = math.inf

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.log_f(r)


def _logsumexp(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return _NEG_INF
    m = np.max(a)
    if m == _NEG_INF or not np.isfinite(m):
        return float(m) if a.size else _NEG_INF
    return float(m + math.log(np.sum(np.exp(a - m))))


def _k15_log(g, lo, hi):
    """log K15 value and log |K15 - G7| error of log-integrand g on each [lo_i, hi_i].

    The module's one Gauss7/Kronrod15 rule: g is called once on the nodes
    of all panels, and each panel is shifted by its own maximum before the
    weights apply.  A panel where g is -inf everywhere has value and error
    -inf; a +inf value of g means the integral diverges.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    vals = g((mid[:, None] + half[:, None] * _KX).ravel()).reshape(len(lo), len(_KX))
    m = np.max(vals, axis=1)
    if m.max(initial=_NEG_INF) == math.inf:
        u = mid[np.argmax(m)]
        raise InfiniteMassError(f"log-integrand is +inf near u = {u:.6g}; integral diverges")
    live = m > _NEG_INF
    e = np.exp(vals - np.where(live, m, 0.0)[:, None])
    k15 = e @ _KW
    with np.errstate(divide="ignore"):
        log_val = np.where(live, m + np.log(k15 * half), _NEG_INF)
        log_err = np.where(live, m + np.log(np.abs(k15 - e @ _GW) * half), _NEG_INF)
    return log_val, log_err


class _Transform:
    """Map between the integration variable u and the radius r."""

    def __init__(self, a: float, b: float):
        self.finite = math.isfinite(b)
        self.a = a
        self.b = b
        if self.finite:
            self.u_lo, self.u_hi = a, b
        else:
            self.u_lo, self.u_hi = a / (1.0 + a), 1.0

    def r_of_u(self, u: np.ndarray) -> np.ndarray:
        if self.finite:
            return u
        u = np.asarray(u, dtype=float)
        return u / (1.0 - u)

    def u_of_r(self, r: float) -> float:
        if self.finite:
            return float(r)
        if math.isinf(r):
            return 1.0
        return r / (1.0 + r)

    def log_jacobian(self, u: np.ndarray) -> np.ndarray:
        if self.finite:
            return np.zeros_like(np.asarray(u, dtype=float))
        return -2.0 * np.log1p(-np.asarray(u, dtype=float))


def _k15_panels(g, lo, hi, depth):
    """The panel arrays (lo, hi, log value, log error, depth) of K15 on each [lo_i, hi_i]."""
    return (lo, hi, *_k15_log(g, lo, hi), depth)


def _refine(g, panels, rel_tol):
    """Bisect panels until their summed error is within rel_tol of their sum.

    The module's one adaptive loop, on the panel arrays of `_k15_panels`.
    Each round that misses the tolerance splits every panel whose error is
    at or above the mean panel error (so the worst one always splits), all
    in one K15 call: the left half takes the panel's place, the right half
    is appended.  The input arrays are not modified.  Returns (panels,
    log_total, log_err_total).
    """
    log_tol = math.log(rel_tol)
    while True:
        lo, hi, log_val, log_err, depth = panels
        log_total, log_err_total = _logsumexp(log_val), _logsumexp(log_err)
        if log_err_total == _NEG_INF or (
                log_total > _NEG_INF and log_err_total - log_total <= log_tol):
            return panels, log_total, log_err_total
        i = np.flatnonzero(log_err >= log_err_total - math.log(len(log_err)))
        if len(log_err) + len(i) > MAX_PANELS:
            raise QuadratureError(f"panel budget {MAX_PANELS} exhausted",
                                  log_partial=log_total, log_error_bound=log_err_total)
        j = i[np.argmax(depth[i])]
        if depth[j] >= MAX_DEPTH:
            raise QuadratureError(f"max depth {MAX_DEPTH} reached on [{lo[j]}, {hi[j]}]",
                                  log_partial=log_total, log_error_bound=log_err_total)
        mid = 0.5 * (lo[i] + hi[i])
        halves = _k15_panels(g, np.concatenate([lo[i], mid]), np.concatenate([mid, hi[i]]),
                             np.tile(depth[i] + 1, 2))
        k = len(i)
        panels = tuple(np.concatenate([p, h[k:]]) for p, h in zip(panels, halves))
        for p, h in zip(panels, halves):
            p[i] = h[:k]


class PanelSet:
    """Adaptive decomposition of one radial integral, reusable for prefixes.

    The full-domain run fixes the panels in u as arrays sorted by `lo`:
    edges `lo` and `hi`, K15 log values `log_vals`, log errors `log_errs`
    and bisection depths `depths`.  They are read-only, so a cached PanelSet
    is safe to share.  A prefix over [r_lo, r] binary-searches the panel
    holding the cut, keeps the panels below it with their stored values (so
    the shared error cancels in ratios), adds the cut panel's left part and
    refines those panels to the prefix's *own* relative accuracy.
    """

    def __init__(self, transform, rel_tol, g, u_mode, g_mode, panels, log_total, log_err):
        self.transform, self.rel_tol, self.g = transform, rel_tol, g
        self.u_mode, self.g_mode = u_mode, g_mode
        order = np.argsort(panels[0])
        self.lo, self.hi, self.log_vals, self.log_errs, self.depths = (p[order] for p in panels)
        for p in (self.lo, self.hi, self.log_vals, self.log_errs, self.depths):
            p.flags.writeable = False
        self.log_total, self.log_err = log_total, log_err

    @property
    def panels(self) -> np.ndarray:
        """The panels as rows [lo, hi] in u."""
        return np.column_stack([self.lo, self.hi])

    def log_prefix(self, r_hi: float, rel_tol: Optional[float] = None) -> float:
        """log integral over [r_lo, r_hi], accurate relative to the prefix."""
        rel_tol = self.rel_tol if rel_tol is None else rel_tol
        u_q = self.transform.u_of_r(r_hi)
        if u_q <= self.transform.u_lo:
            return _NEG_INF
        u_q = min(u_q, self.transform.u_hi)
        k = int(np.searchsorted(self.hi, u_q, side="right"))  # panels below the cut
        panels = tuple(p[:k] for p in (self.lo, self.hi, self.log_vals, self.log_errs, self.depths))
        if k < len(self.lo) and self.lo[k] < u_q:
            cut = _k15_panels(self.g, self.lo[k:k + 1], np.array([u_q]), self.depths[k:k + 1])
            panels = tuple(np.concatenate(pc) for pc in zip(panels, cut))
        return _refine(self.g, panels, rel_tol)[1]


def find_mode(g, lo: float, hi: float):
    """Maximum of the vectorized function g on the open interval (lo, hi).

    Nested grid scans: the first round evaluates g on SCAN_POINTS - 1
    interior points of (lo, hi), each further round on as many interior
    points of the two cells around the previous round's best point, until
    that bracket is narrower than 1e-14 max(1, |hi|).  g is never called on
    lo or hi.  Returns (x_mode, g_mode, g_scan_max); g_scan_max is the first
    round's maximum.
    """
    frac = np.arange(1, SCAN_POINTS) / SCAN_POINTS
    x_mode, g_mode, g_scan_max = None, _NEG_INF, None
    while True:
        x = lo + (hi - lo) * frac
        vals = g(x)
        i = int(np.argmax(vals))
        if g_scan_max is None:
            x_mode, g_mode, g_scan_max = float(x[i]), float(vals[i]), float(vals[i])
        elif vals[i] > g_mode:
            x_mode, g_mode = float(x[i]), float(vals[i])
        lo = float(x[i - 1]) if i > 0 else lo
        hi = float(x[i + 1]) if i < len(x) - 1 else hi
        if hi - lo < 1e-14 * max(1.0, abs(hi)):
            return x_mode, g_mode, g_scan_max


def _scan_seed(g, transform):
    """Locate the integrand maximum and seed boundaries clustered around it.

    Returns (boundaries, u_mode, g_mode, g_scan_max); g_scan_max is the first
    scan's maximum, the yardstick of the growth test (a refined search would
    happily climb a divergence at u -> 1).
    """
    u_lo, u_hi = transform.u_lo, transform.u_hi
    span = u_hi - u_lo
    u_mode, g_mode, g_max = find_mode(g, u_lo, u_hi)
    # local width from a second difference, its stencil kept inside the
    # domain; fall back to the scan spacing
    h = max(span / (8.0 * SCAN_POINTS), 1e-13)
    u_c = min(max(u_mode, u_lo + h), u_hi - h)
    gm, g0, gp = g(np.array([u_c - h, u_c, u_c + h])).tolist()
    d2 = (gm - 2.0 * g0 + gp) / (h * h)
    width = 1.0 / math.sqrt(-d2) if (np.isfinite(d2) and d2 < 0) else span / SCAN_POINTS
    width = min(max(width, 1e-13), span)
    bounds = {u_lo, u_hi, u_mode}
    for j in range(14):
        w = width * (2.0 ** j)
        bounds.add(min(max(u_mode - w, u_lo), u_hi))
        bounds.add(min(max(u_mode + w, u_lo), u_hi))
    # a light uniform scaffold so no region is a single giant panel
    for frac in np.linspace(0.0, 1.0, 17):
        bounds.add(u_lo + span * frac)
    return sorted(bounds), u_mode, g_mode, g_max


def integrate_log_panels(f: LogIntegrand, rel_tol: float = 1e-8) -> PanelSet:
    """Adaptive run over the integrand's whole domain; returns the PanelSet."""
    if not (1e-14 < rel_tol < 1e-2):
        raise ValueError("rel_tol must lie in (1e-14, 1e-2)")
    if not f.r_lo < f.r_hi:
        raise ValueError(f"need r_lo < r_hi, got [{f.r_lo}, {f.r_hi}]")
    transform = _Transform(f.r_lo, f.r_hi)

    def g(u):
        u = np.asarray(u, dtype=float)
        safe_u = np.minimum(u, transform.u_hi - 1e-16) if not transform.finite else u
        r = transform.r_of_u(safe_u)
        with np.errstate(all="ignore"):
            vals = np.asarray(f(r), dtype=float) + transform.log_jacobian(safe_u)
        return np.where(np.isnan(vals), _NEG_INF, vals)

    bounds, u_mode, g_mode, g_scan_max = _scan_seed(g, transform)
    if not transform.finite:
        # growth test: a log-integrand climbing past the scan maximum toward
        # u = 1 means the r-integral diverges
        uk = np.array([1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12])
        uk = uk[uk > transform.u_lo]
        if uk.size and np.any(g(uk) > g_scan_max + 5.0):
            raise InfiniteMassError(
                "integrand grows toward r = inf; total mass looks infinite")
    edges = np.array(bounds)
    panels = _k15_panels(g, edges[:-1], edges[1:], np.zeros(len(edges) - 1, dtype=int))
    return PanelSet(transform, rel_tol, g, u_mode, g_mode, *_refine(g, panels, rel_tol))


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


def build_cdf(f: LogIntegrand, rel_tol: float = 1e-8) -> RadialCdf:
    """CDF of exp(f) on a geometric-plus-linear grid centered on the mode.

    The grid cells are refined together by `_refine`, so their summed error
    is within rel_tol of the mass and F is within rel_tol at every node.
    Raises InfiniteMassError when the growth test fails (integrand mass
    looks infinite) and QuadratureError for a zero-mass integrand or cells
    that do not converge.
    """
    ps = integrate_log_panels(f, rel_tol=rel_tol)
    if ps.log_total == _NEG_INF:
        raise QuadratureError("total mass is zero; no CDF")

    tr = ps.transform
    g = ps.g
    u_mode, g_mode = ps.u_mode, ps.g_mode
    u_max = tr.u_hi - 1e-16 if not tr.finite else tr.u_hi
    edges = np.append(ps.lo, ps.hi[-1])
    edge_vals = g(np.clip(edges, tr.u_lo + 1e-300, u_max))

    def outermost(side):
        # last edge (moving out from the mode) still within 750 e-folds
        if side < 0:
            sel = edges <= u_mode
            keep = edges[sel][edge_vals[sel] > g_mode - 750.0]
            return float(keep.min()) if keep.size else float(edges[0])
        sel = edges >= u_mode
        keep = edges[sel][edge_vals[sel] > g_mode - 750.0]
        return float(keep.max()) if keep.size else float(edges[-1])

    u_cut_lo, u_cut_hi = outermost(-1), min(outermost(+1), u_max)
    if u_cut_hi < u_max and edge_vals[np.searchsorted(edges, u_cut_hi)] > g_mode - 740.0:
        # heavy tail: move the cut out to the first point 760 e-folds down on
        # a grid closing geometrically on u_max
        u_tail = u_max - (u_max - u_cut_hi) * np.geomspace(1.0, 1e-16, SCAN_POINTS)
        down = np.flatnonzero(g(u_tail) <= g_mode - 760.0)
        u_cut_hi = float(u_tail[down[0]]) if down.size else u_max
    # linear band: within ~40 e-folds of the mode
    sel_band = edge_vals > g_mode - 40.0
    if np.any(sel_band):
        u_band_lo = float(edges[sel_band].min())
        u_band_hi = float(edges[sel_band].max())
    else:
        u_band_lo, u_band_hi = u_cut_lo, u_cut_hi
    n_nodes = CDF_NODES
    parts = [np.linspace(u_band_lo, u_band_hi, n_nodes // 2)]
    if u_cut_lo < u_band_lo:
        lo = max(u_cut_lo, tr.u_lo)
        parts.append(lo + (u_band_lo - lo) * np.geomspace(1e-6, 1.0, n_nodes // 4))
        parts.append(np.array([lo]))
    if u_cut_hi > u_band_hi:
        hi = min(u_cut_hi, tr.u_hi)
        parts.append(hi - (hi - u_band_hi) * np.geomspace(1e-6, 1.0, n_nodes // 4))
        parts.append(np.array([hi]))
    u_nodes = np.unique(np.concatenate(parts + [edges[(edges >= u_cut_lo) & (edges <= u_cut_hi)]]))

    # the cells refine as one set of panels; each leaf adds to its cell
    cells = _k15_panels(g, u_nodes[:-1], u_nodes[1:], np.zeros(len(u_nodes) - 1, dtype=int))
    (leaf_lo, _, leaf_vals, _, _), _, _ = _refine(g, cells, rel_tol)
    incs = np.full(len(u_nodes) - 1, _NEG_INF)
    np.logaddexp.at(incs, np.searchsorted(u_nodes, leaf_lo, side="right") - 1, leaf_vals)
    log_mass = np.logaddexp.accumulate(np.concatenate([[_NEG_INF], incs]))
    nodes_r = tr.r_of_u(u_nodes)
    return RadialCdf(nodes=np.asarray(nodes_r, dtype=float),
                     log_mass=log_mass, log_total=float(log_mass[-1]))


def inverse_cdf(c: RadialCdf, u) -> np.ndarray:
    """Smallest grid-interpolated radius with CDF >= u; monotone in u."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u > 1)):
        raise ValueError("u must lie in [0, 1]")
    out = np.interp(u, c.levels(), c.nodes)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Oscillatory Bessel-squared integrals
# ---------------------------------------------------------------------------

def _bessel_sq_log(mu: float, y: np.ndarray, lam: float) -> np.ndarray:
    """log of J_mu(y)^2 y^{-lam} for y >= 0, safe down to y = 0."""
    y = np.asarray(y, dtype=float)
    log_ratio, _ = ln_bessel_j_ratio(mu, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        logy = np.where(y > 0, np.log(y), _NEG_INF)
    out = 2.0 * log_ratio + (2.0 * mu - lam) * logy
    if 2.0 * mu - lam == 0.0:
        out = 2.0 * log_ratio
    return np.where(np.isnan(out), _NEG_INF, out)


class _BesselSquare:
    """Prefixes of int_0^inf J_mu(y)^2 y^{-lam} dy for one (mu, lam, rel_tol).

    Region A, [0, t0] through the turning point, is one adaptive PanelSet.
    Above t0 the panels form a fixed pi grid anchored at t0: past the turning
    point J^2 has period at least pi, so a pi-wide panel spans one
    oscillation.  `cum[k]` is the log mass of [t0, t0 + k pi].  `cum` grows
    on demand by rebinding a longer array, never in place, so a cached
    instance stays safe to share.  The total is bessel_sq_moment_log's
    closed form, not a sum of this grid.
    """

    def __init__(self, mu: float, lam: float, rel_tol: float):
        self.mu, self.lam = mu, lam
        self.t0 = mu + 4.0 * mu ** (1.0 / 3.0) + 6.0
        f = LogIntegrand(log_f=lambda y: _bessel_sq_log(mu, y, lam), r_lo=0.0, r_hi=self.t0)
        self.region_a = integrate_log_panels(f, rel_tol=rel_tol)
        self.cum = np.array([_NEG_INF])

    def edge(self, k):
        """Left edge of grid panel k (k may be an integer array)."""
        return self.t0 + math.pi * k

    def mass_log(self, lo, hi) -> np.ndarray:
        """log K15 mass of each panel [lo_i, hi_i].

        _bessel_sq_log is looked up at call time, so a rebound module global
        is what runs.
        """
        return _k15_log(lambda y: _bessel_sq_log(self.mu, y, self.lam), lo, hi)[0]

    def log_mass_to_edge(self, k: int) -> float:
        """log mass of [t0, t0 + k pi]; grows `cum` at least twofold when short."""
        cum = self.cum
        if k >= len(cum):
            edges = self.edge(np.arange(len(cum) - 1, max(k, 2 * (len(cum) - 1)) + 1))
            logs = self.mass_log(edges[:-1], edges[1:])
            cum = np.concatenate([cum, np.logaddexp.accumulate(np.append(cum[-1], logs))[1:]])
            self.cum = cum
        return float(cum[k])

    def log_prefix(self, y_hi: float, rel_tol: float) -> float:
        if y_hi <= self.t0:
            return self.region_a.log_prefix(y_hi, rel_tol=rel_tol)
        k = int((y_hi - self.t0) // math.pi)
        if self.edge(k) > y_hi:
            k -= 1
        elif self.edge(k + 1) <= y_hi:
            k += 1
        partial = self.mass_log([self.edge(k)], [y_hi])[0]
        return _logsumexp([self.region_a.log_total, self.log_mass_to_edge(k), partial])


@lru_cache(maxsize=64)
def _bessel_square(mu: float, lam: float, rel_tol: float) -> _BesselSquare:
    return _BesselSquare(mu, lam, rel_tol)


def bessel_sq_moment_log(mu: float, lam: float) -> float:
    """log of int_0^inf J_mu(y)^2 y^{-lam} dy for 0 < lam < 2 mu + 1.

    The Weber-Schafheitlin closed form (DLMF 10.22.57 with nu = mu):
    Gamma(lam) Gamma(mu + (1 - lam)/2)
    / (2^lam Gamma((lam + 1)/2)^2 Gamma(mu + (lam + 1)/2)).
    """
    if not (0.0 < lam < 2.0 * mu + 1.0):
        raise ValueError(f"integral diverges for lam={lam}, mu={mu}")
    return (ln_gamma(lam) + ln_gamma(mu + 0.5 * (1.0 - lam)) - lam * math.log(2.0)
            - 2.0 * ln_gamma(0.5 * (lam + 1.0)) - ln_gamma(mu + 0.5 * (lam + 1.0)))


def bessel_sq_prefix_log(mu: float, lam: float, y_hi: float,
                         rel_tol: float = 1e-9) -> float:
    """log of int_0^{y_hi} J_mu(y)^2 y^{-lam} dy (lam may be any real here).

    y_hi = inf gives the total, bessel_sq_moment_log, which needs
    0 < lam < 2 mu + 1.
    """
    if math.isnan(y_hi):
        raise ValueError("y_hi must not be NaN")
    if y_hi <= 0:
        return _NEG_INF
    if math.isinf(y_hi):
        return bessel_sq_moment_log(mu, lam)
    return _bessel_square(mu, lam, rel_tol).log_prefix(y_hi, rel_tol)
