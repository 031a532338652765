"""The package and its CLI import without scipy or mpmath, and run without mpmath.

scipy is loaded only at the first `jv`/`kve` call (BesselType,
IndicatorSpectral, WhittleMatern kernel values); mpmath is never loaded.
Every check runs in a fresh interpreter, since this test session has long
since imported scipy and mpmath itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints the scipy/mpmath modules loaded after the import and after each
# command of argv[1] (a JSON list of argument lists) run through cli.main;
# the modules named in argv[2] are blocked, so importing one raises ImportError
_PROBE = r"""
import contextlib, io, json, sys
sys.modules.update(dict.fromkeys(json.loads(sys.argv[2])))
import dpp_repulsion
from dpp_repulsion import cli

def heavy():
    return sorted(m for m, mod in sys.modules.items()
                  if mod is not None and m.split(".")[0] in ("scipy", "mpmath"))

report = [["import", 0, heavy()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append([" ".join(argv[:3]), code, heavy()])
print(json.dumps(report))
"""


def probe(commands, blocked=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(commands),
                          json.dumps(list(blocked))], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


def test_import_loads_no_scipy_or_mpmath():
    assert probe([]) == [["import", 0, []]]


def test_commands_without_bessel_values_load_no_scipy(tmp_path):
    commands = [
        ["check", "--family", "LaguerreGauss", "--n", "100", "--m", "2", "--alpha", "0.3"],
        ["eta", "--family", "LaguerreGauss", "--n", "100", "--m", "2", "--alpha", "0.3",
         "--R-grid", "0.05:0.6:50", "--out", str(tmp_path / "eta.csv")],
        ["reach", "--family", "Cauchy", "--n", "100", "--nu", "1", "--alpha", "0.15",
         "--alpha-rule", "scaled"],
        ["rate", "--family", "LaguerreGauss", "--n", "1", "--m", "1", "--alpha", "0.3",
         "--R", "0.075", "--n-list", "100,300,600", "--out", str(tmp_path / "rate.csv")],
        ["table", "--out", str(tmp_path / "table.csv")],
        ["moments", "--family", "WhittleMatern", "--n", "50", "--nu", "1", "--alpha", "0.02",
         "--k", "2,4"],
        ["sample", "--family", "Cauchy", "--n", "5", "--nu", "1", "--alpha", "0.15",
         "--alpha-rule", "scaled", "--samples", "1000", "--seed", "7",
         "--out", str(tmp_path / "radii.csv")],
    ]
    report = probe(commands)
    assert [(name, code) for name, code, _ in report[1:]] == [
        (" ".join(c[:3]), 0) for c in commands]
    assert [loaded for *_, loaded in report] == [[]] * (len(commands) + 1)


def test_whittle_matern_runs_without_mpmath(tmp_path):
    # sample at nu = 1.5 evaluates K_nu at the CDF's clipped first edge, and the
    # ratios at nu = 300 evaluate it where kve overflows; both once needed mpmath
    commands = [
        ["sample", "--family", "WhittleMatern", "--n", "5", "--nu", "1.5", "--alpha", "0.02",
         "--samples", "1000", "--seed", "3", "--out", str(tmp_path / "radii.csv")],
        ["eta", "--family", "WhittleMatern", "--n", "10", "--nu", "300", "--alpha", "0.01",
         "--R-grid", "0.001:0.02:5", "--out", str(tmp_path / "eta.csv")],
    ]
    report = probe(commands, blocked=["mpmath"])
    assert [(name, code) for name, code, _ in report[1:]] == [
        (" ".join(c[:3]), 0) for c in commands]
    assert not [m for *_, loaded in report for m in loaded if m.split(".")[0] == "mpmath"]
