"""Repulsion-measure analysis of stationary isotropic determinantal point
processes in the high-dimensional Shannon regime: exact first-moment
formulas for the repulsion process, concentration radii, rate functions,
and brute-force Monte Carlo verification."""

from .kernels import Family, KernelSpec, validate, max_param, kernel_radial
from .repulsion import (
    eta_total_log,
    eta_ball_ratio,
    radial_moment,
    pair_correlation,
    nn_bounds,
    boolean_degree_ratio,
)
from .asymptotics import reach, nn_threshold, radius_rate, limit_rate, summary_table
from .examples import example_spec, example_specs

__all__ = [
    "Family",
    "KernelSpec",
    "validate",
    "max_param",
    "kernel_radial",
    "eta_total_log",
    "eta_ball_ratio",
    "radial_moment",
    "pair_correlation",
    "nn_bounds",
    "boolean_degree_ratio",
    "reach",
    "nn_threshold",
    "radius_rate",
    "limit_rate",
    "summary_table",
    "example_spec",
    "example_specs",
]

__version__ = "0.1.0"
