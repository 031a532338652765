"""Command-line front end: validation, eta curves, rates, tables, moments,
and oracle sampling, with machine-readable CSV/JSON output.

Config comes from `--config file.json` with flag overrides; every emitted
file embeds the fully resolved config, so re-running on the embedded config
reproduces the bytes.  Exit codes: 0 success, 2 invalid spec, 3 unsupported
operation for the family, 4 numeric failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import asymptotics, oracle, repulsion
from .examples import example_specs
from .kernels import (
    Family,
    InvalidSpecError,
    KernelSpec,
    NoPositionKernelError,
    UnsupportedFamilyError,
    max_param,
    spec_from_dict,
    spec_to_dict,
    validate,
)
from .quadrature import QuadratureError
from .repulsion import MomentDivergesError
from .special import _fmt

EXIT_OK = 0
EXIT_INVALID_SPEC = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERIC = 4
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number may carry an exponent ("-5e-05", as the resolved
        # config renders a small rho) or be "-inf", so it is a flag value, not
        # an option; the spec then rejects a non-finite one
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# JSON rendering with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _render_json(obj, indent=0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_render_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return _fmt(obj)
        return json.dumps(str(obj))  # "inf"/"-inf" as strings
    if isinstance(obj, (int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj)!r}")


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Resolved run configuration; parses strictly (unknown keys rejected)."""

    spec: dict = None
    R: float = None
    R_grid: list = None          # [lo, hi, steps]
    n_list: list = None
    k_list: list = field(default_factory=lambda: [2])
    samples: int = 100000
    seed: int = 1
    rel_tol: float = repulsion.PRODUCTION_REL_TOL
    quantity: str = "eta_ball"
    format: str = "csv"
    out: str = None

    @classmethod
    def from_sources(cls, config_path, args) -> "ExperimentConfig":
        data = {}
        if config_path:
            try:
                with open(config_path) as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config {config_path}: {exc}")
            if not isinstance(data, dict):
                raise UsageError("config file must hold a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg._apply_flags(args)
        if cfg.format not in ("csv", "json"):
            raise UsageError(f"format must be csv|json, got {cfg.format!r}")
        if not cfg.samples >= 1:
            raise UsageError(f"samples must be >= 1, got {cfg.samples!r}")
        return cfg

    def _apply_flags(self, args):
        spec_d = dict(self.spec or {})
        for name in ("family", "n", "rho", "m", "alpha", "nu", "sigma", "c"):
            val = getattr(args, name, None)
            if val is not None:
                spec_d[name] = val
        if getattr(args, "alpha_rule", None) is not None:
            spec_d["alpha_rule"] = args.alpha_rule
        self.spec = spec_d or None
        if getattr(args, "R", None) is not None:
            self.R = args.R
        if getattr(args, "R_grid", None) is not None:
            lo, hi, steps = args.R_grid.split(":")
            self.R_grid = [float(lo), float(hi), int(steps)]
        if getattr(args, "n_list", None) is not None:
            self.n_list = [int(v) for v in args.n_list.split(",")]
        if getattr(args, "k_list", None) is not None:
            self.k_list = [int(v) for v in args.k_list.split(",")]
        for name in ("samples", "seed", "rel_tol", "quantity", "format", "out"):
            val = getattr(args, name, None)
            if val is not None:
                setattr(self, name, val)

    def resolved(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "out":
                continue  # destination is not part of the computation
            val = getattr(self, f.name)
            if val is not None:
                out[f.name] = val
        return out

    def kernel_spec(self) -> KernelSpec:
        if not self.spec:
            raise UsageError("no kernel spec given (use --family/--n or --config)")
        return spec_from_dict(self.spec)

    def r_values(self) -> list:
        if self.R_grid is not None:
            lo, hi, steps = self.R_grid
            return [float(x) for x in np.linspace(lo, hi, int(steps))]
        if self.R is not None:
            return [float(self.R)]
        raise UsageError("need --R or --R-grid")


def _emit(cfg: ExperimentConfig, payload: dict, csv_lines) -> None:
    """Write machine output (embedding the resolved config) and a stdout note."""
    if cfg.format == "json":
        text = _render_json({"config": cfg.resolved(), **payload}) + "\n"
    else:
        head = "# config = " + json.dumps(cfg.resolved(), sort_keys=True,
                                          separators=(",", ":"))
        text = "\n".join([head] + list(csv_lines)) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check(cfg: ExperimentConfig) -> int:
    spec = cfg.kernel_spec()
    report = validate(spec)
    print(f"spec: {spec_to_dict(spec)}")
    if spec.family != Family.INDICATOR_SPECTRAL:
        print(f"existence bound on the scale at n={spec.n}: {_fmt(max_param(spec))}")
        if spec.family == Family.LAGUERRE_GAUSS:
            print(f"n-uniform sufficient bound: {_fmt(max_param(spec, n_uniform=True))}")
    for note in report.notes:
        print(f"note: {note}")
    if report.ok:
        print("valid: spectrum strictly inside [0, 1)")
        return EXIT_OK
    for name, msg in report.violations:
        print(f"violation [{name}]: {msg}")
    return EXIT_INVALID_SPEC


def cmd_eta(cfg: ExperimentConfig) -> int:
    spec = cfg.kernel_spec()
    report = repulsion.build_eta_report(spec, cfg.r_values(), rel_tol=cfg.rel_tol)
    payload = {
        "log_total": report.log_total,
        "ratio_curve": [{"R": r, "ratio": v} for r, v in report.ratio_curve],
    }
    _emit(cfg, payload, report.to_csv().splitlines())
    print(f"eta total mass = {_fmt(math.exp(report.log_total))}")
    return EXIT_OK


def cmd_reach(cfg: ExperimentConfig) -> int:
    spec = cfg.kernel_spec()
    r_star = asymptotics.reach(spec)
    thresh = asymptotics.nn_threshold(spec.rho)
    payload = {"R_star": r_star, "nn_threshold": thresh}
    lines = ["quantity,value",
             f"R_star,{'N/A' if r_star is None else _fmt(r_star)}",
             f"nn_threshold,{_fmt(thresh)}"]
    if r_star is not None:
        cert = asymptotics.reach_exceeds_nn(spec)
        payload["reach_exceeds_nn"] = {
            "exceeds": cert.exceeds, "interval": cert.interval, "note": cert.note}
        lines.append(f"reach_exceeds_nn,{cert.exceeds}")
    _emit(cfg, payload, lines)
    print(f"R* = {'none (no concentration on the sqrt(n) scale)' if r_star is None else _fmt(r_star)}"
          f", nearest-neighbor threshold = {_fmt(thresh)}")
    return EXIT_OK


def cmd_rate(cfg: ExperimentConfig) -> int:
    spec = cfg.kernel_spec()
    if spec.family != Family.LAGUERRE_GAUSS:
        raise UnsupportedFamilyError(
            "closed-form rate curves are stated for the Laguerre-Gauss family only")
    rs = cfg.r_values()
    if cfg.quantity == "eta_ball":
        grid = tuple((r, asymptotics.laguerre_eta_rate(r, spec.m, spec.alpha, spec.rho))
                     for r in rs)
    else:
        grid = tuple((r, asymptotics.boolean_rate(r, spec.m, spec.alpha)) for r in rs)
    empirical = None
    if cfg.n_list:
        if len(rs) != 1:
            raise UsageError("empirical rates need a single --R, not a grid")
        empirical = tuple(oracle.empirical_rate(spec, rs[0], cfg.n_list,
                                                quantity=cfg.quantity))
    curve = asymptotics.RateCurve(quantity=cfg.quantity, grid=grid, empirical=empirical)
    payload = {"quantity": cfg.quantity,
               "grid": [{"R": r, "analytic_rate": v} for r, v in grid]}
    if empirical:
        payload["empirical"] = [{"n": n, "rate": v} for n, v in empirical]
    _emit(cfg, payload, curve.to_csv().splitlines())
    return EXIT_OK


def cmd_table(cfg: ExperimentConfig) -> int:
    if cfg.spec:
        specs = [cfg.kernel_spec()]
    else:
        n = cfg.n_list[0] if cfg.n_list else 10
        specs = example_specs(n=n)
    table = asymptotics.summary_table(specs)
    payload = {"columns": list(table.columns),
               "rows": [list(r) for r in table.rows]}
    _emit(cfg, payload, table.to_csv().splitlines())
    print(table.to_markdown())
    return EXIT_OK


def cmd_moments(cfg: ExperimentConfig) -> int:
    spec = cfg.kernel_spec()
    rows = [(k, repulsion.radial_moment(spec, k)) for k in cfg.k_list]
    payload = {"moments": [{"k": k, "value": v} for k, v in rows]}
    lines = ["k,moment"] + [f"{k},{_fmt(v)}" for k, v in rows]
    _emit(cfg, payload, lines)
    return EXIT_OK


def cmd_sample(cfg: ExperimentConfig) -> int:
    spec = cfg.kernel_spec()
    radii = oracle.sample_radius(spec, cfg.samples, cfg.seed)
    payload = {"seed": cfg.seed, "samples": int(cfg.samples)}
    if cfg.format == "json":
        payload["radii"] = radii.tolist()
        lines = []
    else:
        # one %-format renders every radius exactly as _fmt does
        lines = ["radius", "\n".join(["%.17g"] * len(radii)) % tuple(radii.tolist())]
    _emit(cfg, payload, lines)
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "eta": cmd_eta,
    "reach": cmd_reach,
    "rate": cmd_rate,
    "table": cmd_table,
    "moments": cmd_moments,
    "sample": cmd_sample,
}


def build_parser() -> _Parser:
    p = _Parser(prog="dpp-repulsion",
                description="Repulsion-measure analysis of stationary isotropic "
                            "DPP families in the high-dimensional Shannon regime.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("check", "validate a spec against its existence bound"),
        ("eta", "eta ball-ratio curve over an R grid (plus log total mass)"),
        ("reach", "reach of repulsion R* and the nearest-neighbor threshold"),
        ("rate", "analytic rate curves, optionally with finite-n empirical rates"),
        ("table", "summary table over specs (defaults to the shipped examples)"),
        ("moments", "exact radial moments E|X_n|^k"),
        ("sample", "draw radii |X_n| with the deterministic counter-based RNG"),
    ]:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", help="JSON config file (flags override it)")
        q.add_argument("--family", choices=[f.value for f in Family])
        q.add_argument("--n", type=int)
        q.add_argument("--rho", type=float)
        q.add_argument("--alpha", type=float)
        q.add_argument("--m", type=int)
        q.add_argument("--nu", type=float)
        q.add_argument("--sigma", type=float)
        q.add_argument("--c", type=float)
        q.add_argument("--alpha-rule", dest="alpha_rule", choices=["fixed", "scaled"])
        q.add_argument("--R", type=float)
        q.add_argument("--R-grid", dest="R_grid", metavar="lo:hi:steps")
        q.add_argument("--n-list", dest="n_list", metavar="n1,n2,...")
        q.add_argument("--k", dest="k_list", metavar="k1,k2,...")
        q.add_argument("--samples", type=int)
        q.add_argument("--seed", type=int)
        q.add_argument("--rel-tol", dest="rel_tol", type=float)
        q.add_argument("--quantity", choices=["eta_ball", "eta_boolean_ratio"])
        q.add_argument("--out")
        q.add_argument("--format", choices=["csv", "json"])
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = ExperimentConfig.from_sources(args.config, args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidSpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except (UnsupportedFamilyError, MomentDivergesError) as exc:
        print(f"unsupported for this family: {exc}", file=sys.stderr)
        if isinstance(exc, NoPositionKernelError):
            print("hint: exact moments remain available via the `moments` command "
                  "(concentration via Chebyshev)", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
