"""The benchmark tracer (`benchmarks/tracing.py`) finds the package's functions
by name and reads their arguments by position and name.  A rename in the
package would leave its per-layer numbers silently stale, so the names it
uses are checked here, reading the tracer without running it."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from dpp_repulsion import quadrature, repulsion

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(layer, path):
    # the benchmark has imported every layer before the tracer looks it up
    owner = importlib.import_module(f"dpp_repulsion.{layer}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def _arg_reads():
    """(layer, path, position, name) of every `_arg(..., position, name)` a
    TRACED counter makes, directly or through a named helper."""
    tree = ast.parse(TRACING.read_text())
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    reads = []
    for entry in traced.elts:
        layer, path, counters = entry.elts
        roots = [counters] + [helpers[n.id] for n in ast.walk(counters)
                              if isinstance(n, ast.Name) and n.id in helpers]
        for root in roots:
            for call in ast.walk(root):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                    pos, name = call.args[2].value, call.args[3].value
                    reads.append((layer.value, path.value, pos, name))
    return reads


@pytest.mark.parametrize("layer,path", [entry[:2] for entry in _tracing().TRACED])
def test_traced_path_resolves(layer, path):
    assert callable(_resolve(layer, path))


def test_patched_internals_resolve():
    assert callable(quadrature.LogIntegrand.__call__)
    assert callable(quadrature._bessel_sq_log)
    assert callable(repulsion._density_panels.cache_info)


def test_panel_counter_counts_panels():
    # the counter reads len(o.panels): one row per panel, not one per column
    counter = next(c for layer, path, c in _tracing().TRACED
                   if path == "integrate_log_panels")["quadrature.panels"]
    ps = quadrature.integrate_log_panels(quadrature.LogIntegrand(lambda r: -r))
    assert len(ps.lo) > 4
    assert len(ps.panels) == len(ps.lo) == counter((), {}, ps)


def test_counters_read_real_arguments():
    reads = _arg_reads()
    assert {name for *_, name in reads} == {"y", "x", "r", "count", "argv"}
    for layer, path, pos, name in reads:
        params = list(inspect.signature(_resolve(layer, path)).parameters)
        assert params[pos] == name, (layer, path)
