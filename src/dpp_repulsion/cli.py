"""Command-line front end: validation, eta curves, rates, tables, moments,
and oracle sampling, with machine-readable CSV/JSON output.

Config comes from `--config file.json` with flag overrides; a command takes
only the settings it reads, and every emitted file embeds the spec and those
settings, so re-running on the embedded config reproduces the bytes.  Exit
codes: 0 success, 2 invalid spec, 3 unsupported operation for the family,
4 numeric failure, 64 usage error (a malformed, out-of-range or unread
setting, from a flag or a config file, included), 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import asymptotics, oracle, repulsion
from .examples import example_specs
from .kernels import (
    Family,
    InvalidSpecError,
    KernelSpec,
    NoPositionKernelError,
    UnsupportedFamilyError,
    _require_valid,
    max_param,
    spec_from_dict,
    spec_to_dict,
    validate,
)
from .quadrature import QuadratureError
from .repulsion import MomentDivergesError
from .special import _fmt, _fmt_join

EXIT_OK = 0
EXIT_INVALID_SPEC = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERIC = 4
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that quit


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
    if isinstance(obj, np.ndarray):  # floats, rendered as one array when all are finite
        if obj.size and np.isfinite(obj).all():
            return f"[\n{pad}  " + _fmt_join(obj, f",\n{pad}  ").decode() + f"\n{pad}]"
        obj = obj.tolist()
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


def _strict_json(obj):
    """obj with every non-finite float as the string _render_json writes ("inf")."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


# ---------------------------------------------------------------------------
# Settings: one table for the flags, config files and the resolved config
# ---------------------------------------------------------------------------

def _scalar(kind):
    """A flag string through `kind`; a config-file value only as that JSON
    type (an int counts as a float), kept as written so it renders as read."""
    def convert(x):
        if isinstance(x, str):
            return kind(x)
        if type(x) in ((int, float) if kind is float else (kind,)):
            return x
        raise TypeError(x)
    return convert


_real, _int, _text = _scalar(float), _scalar(int), _scalar(str)


def _grid(x) -> list:
    """A flag's "lo:hi:steps" or a config file's [lo, hi, steps]."""
    lo, hi, steps = x.split(":") if isinstance(x, str) else x
    return [_real(lo), _real(hi), _int(steps)]


def _ints(x) -> list:
    """A flag's "k1,k2,..." or a config file's list of integers."""
    return [_int(v) for v in (x.split(",") if isinstance(x, str) else x)]


def _entry(key, flag, default, convert=_text, rule="", ok=lambda v: True, **options):
    """(key, flag, default, parse, argparse options) of one run setting.  The
    parse takes a flag string or a config-file value; one that `convert`
    rejects or that fails `ok` is a usage error.  A flag with `choices` keeps
    argparse's own check."""
    choices = options.get("choices")
    if choices:
        rule, ok = "|".join(choices), choices.__contains__

    def parse(value):
        try:
            v = convert(value)
            if ok(v):
                return v
        except (TypeError, ValueError):
            v = value
        raise UsageError(f"{key} must be {rule}, got {v!r}")
    return key, flag, default, parse, options if choices else {"type": parse, **options}


# Kernel-spec fields, in the order their flags overlay the config's "spec";
# spec_from_dict checks their values (exit 2).
_SPEC_FLAGS = [("family", "--family", {"choices": [f.value for f in Family]}),
               ("n", "--n", {"type": int}), ("rho", "--rho", {"type": float}),
               ("m", "--m", {"type": int}), ("alpha", "--alpha", {"type": float}),
               ("nu", "--nu", {"type": float}), ("sigma", "--sigma", {"type": float}),
               ("c", "--c", {"type": float}),
               ("alpha_rule", "--alpha-rule", {"choices": ["fixed", "scaled"]})]

# Run settings, in the order the resolved config lists them ("spec" has no
# flag of its own, and "out" is never embedded).
_SETTINGS = [
    _entry("spec", None, None, _scalar(dict), "a JSON object"),
    _entry("R", "--R", None, _real, ">= 0", lambda r: r >= 0),
    _entry("R_grid", "--R-grid", None, _grid, "lo:hi:steps, finite lo, hi >= 0, steps >= 1",
           lambda g: 0 <= g[0] < math.inf and 0 <= g[1] < math.inf and g[2] >= 1,
           metavar="lo:hi:steps"),
    _entry("n_list", "--n-list", None, _ints, "integers", metavar="n1,n2,..."),
    _entry("k_list", "--k", [2], _ints, "integers >= 0", lambda ks: all(k >= 0 for k in ks),
           metavar="k1,k2,..."),
    _entry("samples", "--samples", 100000, _int, ">= 1", lambda n: n >= 1),
    _entry("seed", "--seed", 1, _int, "an integer"),
    _entry("quantity", "--quantity", "eta_ball", choices=list(asymptotics.RATE_QUANTITIES)),
    _entry("format", "--format", "csv", choices=["csv", "json"]),
    _entry("out", "--out", None, rule="a file path"),
]


def _resolve(args) -> dict:
    """The spec and the command's settings: defaults, then the config file, then the flags."""
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
    reads = ("spec", *_COMMANDS[args.command][2])
    unread = set(data) - set(reads)
    if unread:
        raise UsageError(f"{args.command} does not read config keys {sorted(unread)}")
    cfg = {}
    for key, _, default, parse, _ in _SETTINGS:
        if key in reads:
            cfg[key] = default if data.get(key) is None else parse(data[key])
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
    spec = dict(cfg["spec"] or {})
    for key, *_ in _SPEC_FLAGS:
        if getattr(args, key) is not None:
            spec[key] = getattr(args, key)
    cfg["spec"] = spec or None
    return cfg


def _kernel_spec(cfg: dict) -> KernelSpec:
    if not cfg["spec"]:
        raise UsageError("no kernel spec given (use --family/--n or --config)")
    return spec_from_dict(cfg["spec"])


def _radii(cfg: dict) -> list:
    if cfg["R_grid"] is not None:
        return [float(x) for x in np.linspace(*cfg["R_grid"])]
    if cfg["R"] is not None:
        return [float(cfg["R"])]
    raise UsageError("need --R or --R-grid")


def _mass(log_total: float) -> str:
    """A mass given by its log: the number, or exp(<log>) below the normal
    doubles, where the number would print as 0 or lose digits."""
    total = math.exp(log_total)
    if total < sys.float_info.min and log_total > -math.inf:
        return f"exp({_fmt(log_total)})"
    return _fmt(total)


def _emit(cfg: dict, payload: dict, csv_lines) -> None:
    """Write machine output (embedding the resolved config) and a stdout note.

    A CSV line is a str, or bytes for a block rendered as bytes (_fmt_join's
    radii); the output is written as bytes, to the file or to stdout's buffer.
    """
    resolved = {k: v for k, v in cfg.items() if v is not None and k != "out"}
    if cfg["format"] == "json":
        data = (_render_json({"config": resolved, **payload}) + "\n").encode()
    else:
        head = "# config = " + json.dumps(_strict_json(resolved), sort_keys=True,
                                          separators=(",", ":"), allow_nan=False)
        data = b"\n".join(line if isinstance(line, bytes) else line.encode()
                          for line in [head, *csv_lines]) + b"\n"
    if cfg["out"]:
        try:
            with open(cfg["out"], "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise UsageError(f"cannot write {cfg['out']}: {exc.strerror}")
        print(f"wrote {cfg['out']}")
    else:
        sys.stdout.flush()  # text printed so far goes first
        sys.stdout.buffer.write(data)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check(cfg: dict) -> int:
    spec = _kernel_spec(cfg)
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


def cmd_eta(cfg: dict) -> int:
    spec = _kernel_spec(cfg)
    _require_valid(spec)  # a spec error outranks a radius one
    report = repulsion.build_eta_report(spec, _radii(cfg))
    payload = {
        "log_total": report.log_total,
        "ratio_curve": [{"R": r, "ratio": v} for r, v in report.ratio_curve],
    }
    _emit(cfg, payload, report.to_csv().splitlines())
    print(f"eta total mass = {_mass(report.log_total)}")
    return EXIT_OK


def cmd_reach(cfg: dict) -> int:
    spec = _kernel_spec(cfg)
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


def cmd_rate(cfg: dict) -> int:
    spec = _kernel_spec(cfg)
    _require_valid(spec)  # a spec error outranks a radius one
    rs = _radii(cfg)
    if not min(rs) > 0:
        raise UsageError("rates need R > 0")
    grid = [(r, asymptotics.limit_rate(spec, r, cfg["quantity"])) for r in rs]
    payload = {"quantity": cfg["quantity"],
               "grid": [{"R": r, "analytic_rate": v} for r, v in grid]}
    lines = ["R,analytic_rate"] + [f"{_fmt(r)},{_fmt(v)}" for r, v in grid]
    if cfg["n_list"]:
        if len(rs) != 1:
            raise UsageError("empirical rates need a single --R, not a grid")
        empirical = oracle.empirical_rate(spec, rs[0], cfg["n_list"],
                                          quantity=cfg["quantity"])
        payload["empirical"] = [{"n": n, "rate": v} for n, v in empirical]
        lines += ["n,empirical_rate"] + [f"{n},{_fmt(v)}" for n, v in empirical]
    _emit(cfg, payload, lines)
    return EXIT_OK


def cmd_table(cfg: dict) -> int:
    if cfg["spec"] and cfg["n_list"]:
        raise UsageError("table reads n_list only for the shipped examples, not with a spec")
    n_list = cfg["n_list"] or [10]
    if len(n_list) != 1:
        raise UsageError("table takes a single n")
    specs = [_kernel_spec(cfg)] if cfg["spec"] else example_specs(n=n_list[0])
    table = asymptotics.summary_table(specs)
    payload = {"columns": list(table.columns),
               "rows": [list(r) for r in table.rows]}
    _emit(cfg, payload, table.to_csv().splitlines())
    print(table.to_markdown())
    return EXIT_OK


def cmd_moments(cfg: dict) -> int:
    spec = _kernel_spec(cfg)
    rows = [(k, repulsion.radial_moment(spec, k)) for k in cfg["k_list"]]
    payload = {"moments": [{"k": k, "value": v} for k, v in rows]}
    lines = ["k,moment"] + [f"{k},{_fmt(v)}" for k, v in rows]
    _emit(cfg, payload, lines)
    return EXIT_OK


def cmd_sample(cfg: dict) -> int:
    spec = _kernel_spec(cfg)
    radii = oracle.sample_radius(spec, cfg["samples"], cfg["seed"])
    payload = {"seed": cfg["seed"], "samples": cfg["samples"], "radii": radii}
    _emit(cfg, payload, ["radius", _fmt_join(radii)] if cfg["format"] == "csv" else [])
    return EXIT_OK


# (run, help, the settings it reads besides the spec); any other is a usage error
_COMMANDS = {
    "check": (cmd_check, "validate a spec against its existence bound", ()),
    "eta": (cmd_eta, "eta ball-ratio curve over an R grid (plus log total mass)",
            ("R", "R_grid", "format", "out")),
    "reach": (cmd_reach, "reach of repulsion R* and the nearest-neighbor threshold",
              ("format", "out")),
    "rate": (cmd_rate, "analytic rate curves, optionally with finite-n empirical rates",
             ("R", "R_grid", "n_list", "quantity", "format", "out")),
    "table": (cmd_table, "summary table over specs (defaults to the shipped examples)",
              ("n_list", "format", "out")),
    "moments": (cmd_moments, "exact radial moments E|X_n|^k", ("k_list", "format", "out")),
    "sample": (cmd_sample, "draw radii |X_n| with the deterministic counter-based RNG",
               ("samples", "seed", "format", "out")),
}


@functools.cache  # one parser per process: main may run many times in-process
def build_parser() -> _Parser:
    p = _Parser(prog="dpp-repulsion",
                description="Repulsion-measure analysis of stationary isotropic "
                            "DPP families in the high-dimensional Shannon regime.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, reads) in _COMMANDS.items():
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", help="JSON config file (flags override it)")
        for key, flag, options in _SPEC_FLAGS:
            q.add_argument(flag, dest=key, **options)
        for key, flag, _, _, options in _SETTINGS:
            if key in reads:
                q.add_argument(flag, dest=key, **options)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = _COMMANDS[args.command][0](_resolve(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader quit; point stdout at devnull so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
