#!/usr/bin/env python3
"""End-to-end CPU time of the README command-line examples, plus `eta` on
both oscillatory families (a BesselType spec at sigma = 180.8, an
IndicatorSpectral spec and a BesselType spec at n = 1000), LaguerreGauss
`moments` at m = 60, a dense 200-point LaguerreGauss `eta` curve at
n = 1000 (one batch of prefixes over one panel decomposition), and both
shapes of Bessel-square prefix traffic: a 50-point BesselType curve at
sigma = 1e5, whose cuts run about 5e4 orders below mu side by side, and
a single IndicatorSpectral cut, which pays one numpy call per order alone;
`sample` at WhittleMatern n = 3, whose radial law holds about 5 % of
its mass below r = 0.065, so the CDF grid must start at r = 0; and the
README's Cauchy `sample` again with `--format json`, whose 1e5 radii render
through the same array renderer as the CSV; a WhittleMatern `eta` curve,
whose every integrand point is a `ln_bessel_k` call; and a LaguerreGauss
`sample` that writes its CSV to stdout.

Each command runs `--repeat` times, each time in a fresh interpreter with the
BLAS/OpenMP thread pools pinned to one thread, so that a pool starting its
threads late does not add CPU time to the commands that load scipy.  Prints
one JSON line per command: the median CPU seconds (user + system) of its
runs and its exit status.  Every `--out` file goes under `--out-dir`, which is
created if missing, and so does each command's stdout from its first run, as
`<label>.stdout` with the out-dir's path written as `{out}`; `diff -r` of two
out-dirs then compares every command's output.  Exits 1 when any command
exits non-zero.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (label, arguments); "{out}" stands for the --out-dir
COMMANDS = [
    ("check", "check --family LaguerreGauss --n 100 --m 2 --alpha 0.3"),
    ("eta LaguerreGauss", "eta --family LaguerreGauss --n 100 --m 2 --alpha 0.3"
                          " --R-grid 0.05:0.6:50 --out {out}/eta.csv"),
    ("reach", "reach --family Cauchy --n 100 --nu 1 --alpha 0.15 --alpha-rule scaled"),
    ("rate", "rate --family LaguerreGauss --n 1 --m 1 --alpha 0.3"
             " --R 0.075 --n-list 100,300,600 --out {out}/rate.csv"),
    ("rate Cauchy", "rate --family Cauchy --n 1 --nu 1 --alpha 0.15 --alpha-rule scaled"
                    " --R-grid 0.05:0.3:6 --quantity eta_boolean_ratio --format json"),
    ("table", "table --out {out}/table.csv"),
    ("moments", "moments --family WhittleMatern --n 50 --nu 1 --alpha 0.02 --k 2,4"),
    ("sample", "sample --family Cauchy --n 5 --nu 1 --alpha 0.15 --alpha-rule scaled"
               " --samples 100000 --seed 7 --out {out}/radii.csv"),
    ("eta BesselType", "eta --family BesselType --n 21 --sigma 180.8 --alpha 0.289"
                       " --R-grid 0.05:1.5:30 --out {out}/eta_bessel.csv"),
    ("eta IndicatorSpectral", "eta --family IndicatorSpectral --n 40 --c 0.5"
                              " --R-grid 0.05:3:30 --out {out}/eta_indicator.csv"),
    ("eta BesselType n=1000", "eta --family BesselType --n 1000 --sigma 2 --alpha 0.3"
                              " --R-grid 0.05:0.3:30 --out {out}/eta_bessel_1000.csv"),
    ("moments LaguerreGauss", "moments --family LaguerreGauss --n 100 --m 60 --alpha 0.065"
                              " --k 2,4"),
    ("eta LaguerreGauss n=1000", "eta --family LaguerreGauss --n 1000 --m 4 --alpha 0.1"
                                 " --R-grid 0.05:0.15:200 --out {out}/eta_laguerre_1000.csv"),
    ("eta BesselType sigma=1e5", "eta --family BesselType --n 5 --sigma 1e5 --alpha 0.1"
                                 " --R-grid 0.05:1:50"),
    ("eta IndicatorSpectral one cut", "eta --family IndicatorSpectral --n 40 --c 0.5 --R 1.0"),
    ("sample WhittleMatern n=3", "sample --family WhittleMatern --n 3 --nu 0.5 --alpha 0.1536"
                                 " --samples 100000 --seed 7 --out {out}/radii_low_n.csv"),
    ("sample json", "sample --family Cauchy --n 5 --nu 1 --alpha 0.15 --alpha-rule scaled"
                    " --samples 100000 --seed 7 --format json --out {out}/radii.json"),
    ("eta WhittleMatern", "eta --family WhittleMatern --n 200 --nu 1 --alpha 0.02"
                          " --R-grid 0.05:0.3:50 --out {out}/eta_whittle.csv"),
    ("sample stdout", "sample --family LaguerreGauss --n 20 --m 2 --alpha 0.2"
                      " --samples 1000 --seed 3"),
]

POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.update(dict.fromkeys(POOL_VARS, "1"))
    return env


def run_once(argv: list, env: dict) -> tuple:
    """(CPU seconds of the child, its exit status, its stderr, its stdout)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "dpp_repulsion.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu, proc.returncode, proc.stderr, proc.stdout


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out-dir", type=Path,
                    help="directory for the commands' --out files (default: a temporary one)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    env = child_env()
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = args.out_dir or Path(tmp)
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, command in COMMANDS:
            cmd = command.format(out=out_dir).split()
            runs = [run_once(cmd, env) for _ in range(args.repeat)]
            (out_dir / f"{label}.stdout").write_text(runs[0][3].replace(str(out_dir), "{out}"))
            status = next((code for _, code, *_ in runs if code != 0), 0)
            if status:
                failed = True
                sys.stderr.write(next(err for _, code, err, _ in runs if code != 0))
            print(json.dumps({"command": label,
                              "cpu_s": round(statistics.median(cpu for cpu, *_ in runs), 4),
                              "repeat": args.repeat, "status": status}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
