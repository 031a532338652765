"""Brute-force verification: sampling, low-dimension Cartesian integrals,
and empirical rate sequences.

Randomness comes from the Philox counter-based 64-bit generator; streams
split deterministically by (seed, stream-index) as key = seed + (stream << 64),
so results are bit-reproducible from (spec, count, seed) no matter how the
work is chunked.  Reduction order is fixed.

The sampling and Cartesian estimates never consult the closed forms in
`kernels`/`repulsion`; they share only kernel evaluation, the numeric CDF
and the mode finder.  `empirical_rate` samples nothing: it reads the
closed-form total `eta_total_log` and the quadrature ball ratios, to set
finite-n rates against `asymptotics.limit_rate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (Family, KernelSpec, UnsupportedFamilyError, _require_valid,
                      log_kernel_radial_array)
from .asymptotics import RATE_QUANTITIES
from .quadrature import find_mode, inverse_cdf, r_of_u
from . import repulsion

__all__ = [
    "McEstimate",
    "sample_radius",
    "mc_ball_ratio",
    "cartesian_mc_integral",
    "empirical_rate",
]

_CHUNK = 1 << 17


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    samples: int
    seed: int

    def agrees_with(self, reference: float, n_sigma: float = 3.0) -> bool:
        return abs(self.value - reference) <= n_sigma * self.std_error


def _generator(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) & (2**64 - 1))
                                                + (int(stream) << 64)))


def _require_count(count) -> None:
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")


def sample_radius(spec: KernelSpec, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws of |X_n| by inverse transform on the numeric radial CDF."""
    _require_count(count)
    cdf = repulsion.radial_cdf(spec)
    u = _generator(seed, stream=0).random(count)
    return np.asarray(inverse_cdf(cdf, u))


def mc_ball_ratio(spec: KernelSpec, R: float, count: int, seed: int) -> McEstimate:
    """Fraction of sampled radii inside sqrt(n) R, with binomial standard error."""
    repulsion._radii(R)
    radii = sample_radius(spec, count, seed)
    hits = int(np.count_nonzero(radii <= math.sqrt(spec.n) * R))
    p = hits / count
    se = math.sqrt(p * (1.0 - p) / count)
    return McEstimate(value=p, std_error=se, samples=count, seed=seed)


def _gaussian_proposal_scale(spec: KernelSpec) -> float:
    """Proposal scale s with the |x|-mode of N(0, s^2 I_n) at the target mode.

    The mode of the radial log-density is found by the quadrature's mode
    finder on (0, 1) through the quadrature's map r_of_u, without a
    Jacobian, so it is the mode in r.  Sharing it costs the estimate no independence: importance
    sampling is unbiased for any proposal scale.
    """
    dens = repulsion.radial_density(spec)
    u_mode, _, _ = find_mode(lambda u: dens(r_of_u(u)))
    return r_of_u(u_mode) / math.sqrt(max(spec.n - 1, 1))


def cartesian_mc_integral(spec: KernelSpec, R: float, count: int,
                          seed: int) -> McEstimate:
    """Importance-sampled int_{B_n(sqrt(n) R)} K(x)^2 dx / e^{n rho}, 2 <= n <= 8.

    The proposal is an isotropic Gaussian whose mode radius matches the
    radial density mode; a direct n-dimensional check of the radial
    reduction, so it shares the quadrature's mode finder but none of its
    integration.
    """
    _require_valid(spec)
    n = spec.n
    if n > 8:
        raise UnsupportedFamilyError("cartesian_mc_integral is limited to n <= 8 (cost)")
    if n < 2:
        raise UnsupportedFamilyError(
            "cartesian_mc_integral needs n >= 2: at n = 1 the radial density peaks "
            "at r = 0 and the Gaussian proposal collapses")
    if spec.family == Family.INDICATOR_SPECTRAL:
        raise UnsupportedFamilyError(
            "IndicatorSpectral excluded: no tail control for the position-kernel "
            "Cartesian estimate")
    _require_count(count)
    r_cut = math.sqrt(n) * repulsion._radii(R)
    s = _gaussian_proposal_scale(spec)
    log_norm = -0.5 * n * math.log(2.0 * math.pi * s * s)
    nrho = n * spec.rho
    total = 0.0
    total_sq = 0.0
    done = 0
    stream = 1  # stream 0 is reserved for radius sampling
    while done < count:
        take = min(_CHUNK, count - done)
        x = _generator(seed, stream=stream).normal(0.0, s, size=(take, n))
        stream += 1
        r = np.sqrt(np.einsum("ij,ij->i", x, x))
        logk, _ = log_kernel_radial_array(spec, r)
        log_q = log_norm - r * r / (2.0 * s * s)
        log_w = 2.0 * logk - nrho - log_q
        w = np.where(r <= r_cut, np.exp(log_w), 0.0)
        total += float(np.sum(w))
        total_sq += float(np.sum(w * w))
        done += take
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return McEstimate(value=mean, std_error=math.sqrt(var / count),
                      samples=count, seed=seed)


def empirical_rate(spec: KernelSpec, R: float, n_list,
                   quantity: str = "eta_ball") -> list:
    """Rows (n, -(1/n) log value) for convergence plots against the limit rate.

    Quadrature only, no sampling.
    """
    if quantity not in RATE_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    rows = []
    for n in n_list:
        s = spec.with_n(int(n))
        if quantity == "eta_ball":
            log_v = repulsion.eta_total_log(s) + repulsion.log_eta_ball_ratio(s, R)
        else:
            log_v = repulsion.log_boolean_degree_ratio(s, R)
        rows.append((int(n), -log_v / n))
    return rows
