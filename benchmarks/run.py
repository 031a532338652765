"""Benchmark entry point for dpp_repulsion.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S]
                              [--trace 0|1] [--size full|tiny]

Run from the root of a source checkout.  Each workload runs in its own fresh
Python process (workloads.py) with BLAS/OpenMP pools pinned to one thread.
With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1, one untraced process
runs for S/2 seconds, a traced process repeats the same passes, and the
JSON holds every per-layer metric.  Lines before it give the same numbers,
and a few more, for a reader.  `failed` counts every operation that raised
or failed a check, the known-fault probes included; `correct` is false when
an operation other than such a probe fails a check.  Exit status 0 means
every workload ran.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from scipy.special import betainc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("smooth-curves", "oscillatory-curves", "sampling", "one-shot")
DEADLINE_S = 170.0  # a run must end within 180 s
P90_MIN_OPS = 100   # op_p90_ms needs 10 operations beyond it
CAL_REF_S = 0.020   # CPU seconds of one calibration loop on the reference host
SETUP_PROBES = 7    # setup_s is the median of this many fresh imports


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_probe(env: dict) -> float:
    """CPU seconds (user + system) a fresh interpreter spends importing
    dpp_repulsion and its CLI."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import dpp_repulsion, dpp_repulsion.cli"],
                   env=env, check=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def run_child(env: dict, workload: str, seed: int, budget: list, size: str,
              deadline: float) -> dict:
    """Run one workload process and return its result dict."""
    OUT.mkdir(parents=True, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=OUT)
    os.close(fd)
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--result", path, "--size", size, *budget]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"{workload} process exited with {proc.returncode}")
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


def p50(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the
    order statistics.  Where a pass mixes operations of unlike cost, the
    plain median of a run's few dozen operations jumps between them from
    run to run; this estimate moves smoothly."""
    x = sorted(values)
    a = (len(x) + 1) / 2
    w = betainc(a, a, [i / len(x) for i in range(len(x) + 1)])
    return sum((w[i + 1] - w[i]) * v for i, v in enumerate(x))


def ref_cpu(res: dict, cpu_s: float) -> float:
    """cpu_s, measured in the run res, rescaled to the reference host speed."""
    return cpu_s * CAL_REF_S / statistics.mean(res["cal_cpu_s"])


def end_to_end(res: dict, setup_s: float) -> dict:
    """(value, unit) of every end-to-end metric this result defines.

    The gated times are CPU times rescaled to the reference host speed:
    times CAL_REF_S over the mean CPU time of the calibration loop run
    between operations (workloads.calibration_loop).  On a shared VM the
    host's speed drifts by a third within minutes, and the loop follows that
    drift.  setup_s, whose probes run just before and after the workload
    process, is rescaled by that process's loop.  The raw CPU and
    wall-clock figures follow for a reader.
    """
    cpu, wall = res["op_cpu_s"], res["op_wall_s"]
    out = {
        "setup_s": (ref_cpu(res, setup_s), "s"),
        "pass_ref_s": (ref_cpu(res, statistics.mean(res["pass_cpu_s"])), "s"),
        "op_ref_p50_ms": (ref_cpu(res, 1e3 * p50(cpu)), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "pass_cpu_s": (statistics.mean(res["pass_cpu_s"]), "s"),
        "op_cpu_p50_ms": (1e3 * p50(cpu), "ms"),
        "wall_s": (statistics.mean(res["pass_wall_s"]), "s"),
        "op_p50_ms": (1e3 * p50(wall), "ms"),
        "setup_cpu_s": (setup_s, "s"),
        "calibration_ms": (1e3 * statistics.mean(res["cal_cpu_s"]), "ms"),
    }
    if len(wall) >= P90_MIN_OPS:
        out["op_p90_ms"] = (1e3 * statistics.quantiles(wall, n=10)[-1], "ms")
    if res["radii"]:
        out["radii_per_s"] = (res["radii"] / res["radii_wall_s"], "1/s")
    return out


def per_layer(res: dict, names, overhead_s: float) -> dict:
    """Per-pass value of every per-layer metric in names (0 where a layer is idle)."""
    trace, passes = res["trace"], len(res["pass_cpu_s"])
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            val, unit = overhead_s, "s"
        elif name == "repulsion.density_cache.hit_ratio":
            lookups = res["cache_hits"] + res["cache_misses"]
            val, unit = (res["cache_hits"] / lookups if lookups else 0.0), "ratio"
        elif name.endswith(".calls"):
            val, unit = trace["calls"].get(name[:-len(".calls")], 0) / passes, "count"
        elif name.endswith(".self_s"):
            val, unit = trace["self_s"].get(name[:-len(".self_s")], 0.0) / passes, "s"
        else:
            val, unit = trace["counts"].get(name, 0) / passes, "count"
        out[name] = (val, unit)
    return out


def report(workload: str, seed: int, res: dict, metrics: dict) -> None:
    passes = len(res["pass_cpu_s"])
    print(f"workload {workload}  seed {seed}  passes {passes} x "
          f"{res['attempted'] // passes} ops  attempted {res['attempted']}  "
          f"failed {res['failed']} (known faults {res['known_failed']})")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    for name, (val, unit) in metrics.items():
        print(f"  {name:44s} {val:14.6g} {unit}")


def budget(args, seconds: float) -> list:
    """workloads.py arguments for a run of the given length (one pass if tiny)."""
    return ["--passes", "1"] if args.size == "tiny" else ["--seconds", str(seconds)]


def run_workload(args, name: str, bench: dict, deadline: float) -> dict:
    env = child_env()
    if not args.trace:
        count = 1 if args.size == "tiny" else SETUP_PROBES
        probes = [setup_probe(env) for _ in range(count // 2)]
        res = run_child(env, name, args.seed, budget(args, args.seconds), args.size, deadline)
        probes += [setup_probe(env) for _ in range(count - count // 2)]
        metrics = end_to_end(res, statistics.median(probes))
        report(name, args.seed, res, metrics)
        wanted = [m["name"] for m in bench["end_to_end"]]
        counts = res
    else:
        plain = run_child(env, name, args.seed, budget(args, args.seconds / 2), args.size,
                          deadline)
        passes = len(plain["pass_cpu_s"])
        res = run_child(env, name, args.seed,
                        ["--passes", str(passes), "--trace"], args.size, deadline)
        overhead = (ref_cpu(res, sum(res["pass_cpu_s"]))
                    - ref_cpu(plain, sum(plain["pass_cpu_s"]))) / passes
        wanted = [m["name"] for m in bench["per_layer"]]
        metrics = per_layer(res, wanted, overhead)
        report(name, args.seed, res, metrics)
        with open(OUT / f"layers-{name}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": name, "seed": args.seed, "passes": passes,
                       "spans_file": res["trace"]["spans_file"],
                       "per_pass": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
        counts = {k: plain[k] + res[k]
                  for k in ("attempted", "failed", "incorrect", "known_failed")}
    return {"correct": counts["incorrect"] == 0, "attempted": counts["attempted"],
            "failed": counts["failed"],
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dpp_repulsion benchmark")
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: one small pass per workload, for the smoke test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dpp_repulsion" / "__init__.py").is_file():
        print(f"no dpp_repulsion source tree under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(args, name, bench, deadline)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
