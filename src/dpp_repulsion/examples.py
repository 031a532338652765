"""Shipped example specs, one per family, valid for every n in 2..400.

Scales sit safely below each family's existence bound across that whole
range (checked in the test suite), so the same template can be re-dimensioned
with `spec.with_n(n)` for convergence studies.
"""

from __future__ import annotations

from .kernels import Family, KernelSpec

__all__ = ["example_spec", "example_specs", "EXAMPLE_PARAMS"]

EXAMPLE_PARAMS = {
    Family.LAGUERRE_GAUSS: dict(rho=0.0, m=2, alpha=0.3),
    Family.POWER_EXPONENTIAL: dict(rho=0.0, nu=2.0, alpha=0.4, alpha_rule="scaled"),
    Family.BESSEL_TYPE: dict(rho=0.0, sigma=2.0, alpha=0.3),
    Family.WHITTLE_MATERN: dict(rho=0.0, nu=1.0, alpha=0.02),
    Family.CAUCHY: dict(rho=0.0, nu=1.0, alpha=0.15, alpha_rule="scaled"),
    Family.INDICATOR_SPECTRAL: dict(rho=0.0, c=0.5),
}


def example_spec(family, n: int = 10) -> KernelSpec:
    family = Family(family)
    return KernelSpec(family=family, n=n, **EXAMPLE_PARAMS[family])


def example_specs(n: int = 10) -> list:
    return [example_spec(f, n=n) for f in Family]
