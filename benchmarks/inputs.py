"""Seeded input generator: kernel specs, R grids, n-lists and sample counts.

Each pass of a workload draws fresh inputs from
numpy.random.default_rng([seed, workload id, pass index]), so one seed always
gives the same inputs and no two passes share a spec.  A spec's scale is a
uniform fraction in [0.3, 0.9] of the family's existence bound
(dpp_repulsion.kernels.max_param) at every n the spec is used at; rho is
uniform in [-0.1, 0.1].  R grids are placed around the radius where the
family's mass sits (reference.center_radius).

The known-fault probes (workloads.KNOWN_FAULTS) are the exception: their
specs are fixed, not drawn from the seed, so a probe fails in every pass of
every run.  Only rho moves with the pass index; it keeps each probe spec
fresh for the package's caches and changes neither fault.
"""

from __future__ import annotations

import numpy as np

from dpp_repulsion import kernels

import reference

SMOOTH = ("LaguerreGauss", "PowerExponential", "WhittleMatern", "Cauchy")
GAUSSIAN = ("LaguerreGauss", "PowerExponential")  # with m = 1 resp. nu = 2

# build_cdf probes, one per smooth family.  At each, build_cdf drops the
# radial mass below its first grid node: 5.4 % (WhittleMatern), 1.1 %
# (LaguerreGauss), 1.2 % (PowerExponential), 6.6 % (Cauchy), measured as the
# independent CDF at that node for every rho in [-0.1, 0.1].  alpha is the
# given fraction of the bound at that n.
CDF_PROBES = [
    {"family": "WhittleMatern", "n": 3, "nu": 0.5, "alpha": 0.1536},                # 0.45
    {"family": "LaguerreGauss", "n": 4, "m": 1, "alpha": 0.2257},                   # 0.40
    {"family": "PowerExponential", "n": 5, "nu": 2.0, "alpha_rule": "scaled",
     "alpha": 0.5317},                                                              # 0.30
    {"family": "Cauchy", "n": 3, "nu": 0.5, "alpha_rule": "scaled", "alpha": 0.1346},  # 0.50
]
# alpha is 0.8 of the n = 2 bound: R* = 0.45 exceeds the nearest-neighbour
# threshold (at most 0.27 for rho >= -0.1), yet the table says it does not
REACH_PROBE = {"family": "Cauchy", "n": 2, "nu": 2.0, "alpha_rule": "scaled", "alpha": 0.4514}


def _shape(rng, family: str, m=None) -> dict:
    """Family parameters other than the scale."""
    if family == "LaguerreGauss":
        return {"m": int(m if m is not None else rng.integers(1, 5))}
    if family == "PowerExponential":
        return {"nu": 2.0, "alpha_rule": "scaled"}
    if family == "WhittleMatern":
        return {"nu": float(rng.uniform(0.5, 2.0))}
    if family == "Cauchy":
        return {"nu": float(rng.uniform(0.5, 2.0)), "alpha_rule": "scaled"}
    if family == "BesselType":
        return {"sigma": float(rng.uniform(0.5, 4.0))}
    return {}


def _max_alpha(spec: dict, n: int) -> float:
    """Largest alpha valid at dimension n (the bound on alpha_n, unscaled)."""
    probe = kernels.spec_from_dict({**spec, "n": n, "alpha": 1.0})
    return kernels.max_param(probe) / kernels.effective_alpha(probe)


def spec(rng, family: str, n: int, valid_at=None, m=None, **shape) -> dict:
    """A spec valid at n and at every dimension in valid_at."""
    out = {"family": family, "n": int(n), "rho": float(rng.uniform(-0.1, 0.1))}
    out.update(shape or _shape(rng, family, m))
    frac = float(rng.uniform(0.3, 0.9))
    if family == "IndicatorSpectral":
        out["c"] = frac
        return out
    dims = set(valid_at or ()) | {int(n)}
    out["alpha"] = frac * min(_max_alpha(out, d) for d in dims)
    return out


def probe(base: dict, index: int) -> dict:
    """A known-fault probe spec for pass index; rho in [-0.1, 0.1)."""
    return {**base, "rho": round(0.2 * ((index * 0.6180339887498949) % 1.0) - 0.1, 6)}


def r_grid(rng, spec: dict, points: int, lo=(0.4, 0.8), hi=(1.3, 2.0)) -> list:
    """points radii spanning [lo, hi] times the spec's center radius."""
    c = reference.center_radius(spec)
    return list(np.linspace(rng.uniform(*lo) * c, rng.uniform(*hi) * c, points))


def n_list(rng, rungs) -> list:
    """One dimension drawn from each (lo, hi) rung, increasing."""
    return [int(rng.integers(lo, hi + 1)) for lo, hi in rungs]


def cli_args(spec: dict) -> list:
    """The spec as `dpp-repulsion` flags."""
    flag = {"alpha_rule": "--alpha-rule"}
    args = []
    for key, val in spec.items():
        args += [flag.get(key, f"--{key}"), str(val)]
    return args
