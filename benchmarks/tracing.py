"""Span tracing at the package's layer boundaries, from outside the package.

`install()` replaces each traced public function under every name a caller
looks it up by: a module-level function is rebound in every dpp_repulsion
module whose globals hold it (quadrature calls its own imported
ln_bessel_j_ratio, not special.ln_bessel_j_ratio), a method is rebound on
its class.  Spans are kept in memory as compact arrays and written as JSON
by `dump`; per-layer totals accumulate as spans close.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_id: dict = {}
        self.cols = {k: array("q") for k in ("id", "parent", "name", "op", "start_ns", "end_ns")}
        self._stack: list = []  # [span id, name, start_ns, child_ns]
        self._next_id = 0
        self.op = -1
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.in_integrand = 0
        self.active = False  # spans and counts are taken only while True

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        name_id = self._name_id.get(name)
        if name_id is None:
            name_id = self._name_id[name] = len(self.names)
            self.names.append(name)
        for key, val in (("id", span_id), ("parent", parent[0] if parent else -1),
                         ("name", name_id), ("op", self.op),
                         ("start_ns", start), ("end_ns", end)):
            self.cols[key].append(val)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": {k: v.tolist() for k, v in self.cols.items()}}, fh)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _out_bytes(args, kwargs, out):
    argv = list(_arg(args, kwargs, 0, "argv"))
    return os.path.getsize(argv[argv.index("--out") + 1]) if "--out" in argv else 0


# (layer, owner path, counters); a counter maps (args, kwargs, result) to an amount
TRACED = [
    ("special", "ln_bessel_j_ratio",
     {"points": lambda a, k, o: np.size(_arg(a, k, 1, "y"))}),
    ("special", "laguerre", {"points": lambda a, k, o: np.size(_arg(a, k, 2, "x"))}),
    ("kernels", "log_kernel_radial_array",
     {"points": lambda a, k, o: np.size(_arg(a, k, 1, "r"))}),
    ("quadrature", "integrate_log_panels",
     {"quadrature.panels": lambda a, k, o: len(o.panels)}),
    ("quadrature", "PanelSet.log_prefix", {}),
    ("quadrature", "build_cdf", {"quadrature.cdf_nodes": lambda a, k, o: len(o.nodes)}),
    ("quadrature", "inverse_cdf", {}),
    ("quadrature", "bessel_sq_prefix_log", {}),
    ("quadrature", "bessel_sq_moment_log", {}),
    ("repulsion", "log_eta_ball_ratio", {}),
    ("repulsion", "radial_moment_quadrature", {}),
    ("oracle", "sample_radius", {"oracle.radii": lambda a, k, o: _arg(a, k, 1, "count")}),
    ("oracle", "cartesian_mc_integral",
     {"oracle.cartesian_draws": lambda a, k, o: _arg(a, k, 2, "count")}),
    ("oracle", "empirical_rate", {}),
    ("asymptotics", "summary_table", {}),
    ("cli", "main", {"cli.bytes_out": _out_bytes}),
]


def _span_wrapper(tracer: Tracer, name: str, fn, counters: dict):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        for key, count in counters.items():
            tracer.counts[key if "." in key else f"{name}.{key}"] += count(args, kwargs, out)
        return out
    return wrapper


def _rebind(modules, orig, new) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every traced function; also count integrand evaluations."""
    import dpp_repulsion
    from dpp_repulsion import quadrature
    modules = [m for key, m in sys.modules.items()
               if key == "dpp_repulsion" or key.startswith("dpp_repulsion.")]
    for layer, path, counters in TRACED:
        owner = getattr(dpp_repulsion, layer)
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        orig = getattr(owner, attr)
        new = _span_wrapper(tracer, f"{layer}.{path}", orig, counters)
        if cls:
            setattr(owner, attr, new)
        else:
            _rebind(modules, orig, new)

    # quadrature.integrand_points: radii passed to any log-integrand.  The
    # oscillatory composite blocks call _bessel_sq_log directly; inside a
    # LogIntegrand call it is already counted.
    call = quadrature.LogIntegrand.__call__

    def integrand_call(self, r):
        if not tracer.active:
            return call(self, r)
        tracer.counts["quadrature.integrand_points"] += np.size(r)
        tracer.in_integrand += 1
        try:
            return call(self, r)
        finally:
            tracer.in_integrand -= 1

    quadrature.LogIntegrand.__call__ = integrand_call
    bessel_sq_log = quadrature._bessel_sq_log

    def bessel_sq_log_counted(mu, y, lam):
        if tracer.active and not tracer.in_integrand:
            tracer.counts["quadrature.integrand_points"] += np.size(y)
        return bessel_sq_log(mu, y, lam)

    quadrature._bessel_sq_log = bessel_sq_log_counted
