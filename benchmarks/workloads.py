"""One workload in one process: seeded passes of timed, checked operations.

    python3 benchmarks/workloads.py --workload NAME --seed N --result PATH
            (--seconds S | --passes P) [--trace] [--size full|tiny]

A pass is the workload's fixed list of operations on fresh inputs (see
inputs.py).  Only the call into dpp_repulsion is timed; input generation
and checks run outside the timed region.  An operation fails when it raises
or when its output fails a check.  A failed check makes the run incorrect,
except on a known-fault probe: an operation on inputs that do not depend on
the seed, which fails in every pass because of a named fault of the package
(KNOWN_FAULTS).  With --seconds, passes repeat in whole rounds (ROUND) while
the next round is expected to end within S seconds (at least one round);
with --passes, exactly P run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from dpp_repulsion import asymptotics, cli, kernels, oracle, repulsion  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

OUT = BENCH / "out"
REL_TOL = 1e-6        # against references: 100x the package's production rel_tol
MONOTONE_TOL = 1e-7   # a ratio may dip this much (relative) as R grows
TINY = 1e-240         # below this a reference ratio only says "negligible"
KS_MIN_P = 1e-6       # Kolmogorov-Smirnov p-value floor for sampled radii
MC_SIGMAS = 5.0       # Monte Carlo estimates must lie within this many sigma
KNOWN_FAULTS = {
    "build_cdf": "quadrature.build_cdf drops the radial mass below its first grid node",
    "reach_exceeds_nn": "asymptotics.reach_exceeds_nn says exceeds=False for every Cauchy spec",
}
CAL_EVERY_S = 0.25    # CPU seconds of timed calls between two calibration loops
RATE_TYPE = {"LaguerreGauss": "LDP", "PowerExponential": "Chebychev",
             "BesselType": "N/A", "WhittleMatern": "Log-concave",
             "Cauchy": "Chebychev", "IndicatorSpectral": "N/A"}


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]  # problems found in the output; [] if correct
    radii: int = 0                   # radii written to a file by this call
    known_fault: str = ""            # KNOWN_FAULTS key this probe exposes


def _spec(d: dict):
    return kernels.spec_from_dict(d)


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _ratio_problems(values, ref_log) -> list:
    p = np.asarray(values, dtype=float)
    q = np.exp(ref_log)
    out = []
    if not np.all((p >= 0.0) & (p <= 1.0)):
        out.append(f"ratio outside [0, 1]: {p.min()}..{p.max()}")
    if np.any(np.diff(p) < -MONOTONE_TOL * p[1:]):
        out.append("ratio not monotone in R")
    big = q > TINY
    bad = np.nonzero(big & (np.abs(p - q) > REL_TOL * q))[0]
    if bad.size:
        i = bad[0]
        out.append(f"ratio {float(p[i])!r} vs reference {float(q[i])!r} at grid point {i}")
    if np.any(~big & (p > 1e3 * TINY)):
        out.append("ratio not negligible where the reference is")
    return out


def _log_problems(got: float, want: float, what: str) -> list:
    if abs(got - want) <= REL_TOL + 1e-9 * abs(want):
        return []
    return [f"{what}: log {float(got)!r} vs reference {float(want)!r}"]


def check_curve(spec: dict, grid, report) -> list:
    got_R = [R for R, _ in report.ratio_curve]
    if not np.array_equal(got_R, grid):
        return ["curve R grid differs from the request"]
    values = [v for _, v in report.ratio_curve]
    if spec["family"] in ("BesselType", "IndicatorSpectral"):
        out = _ratio_problems(values, reference.oscillatory_log_ratios(spec, grid))
        if spec["family"] == "IndicatorSpectral" and not _close(math.exp(report.log_total),
                                                                spec["c"], 1e-12):
            out.append(f"global mass {math.exp(report.log_total)!r} != c = {spec['c']!r}")
        return out
    return _ratio_problems(values, reference.log_ball_ratios(spec, grid))


def check_moment(spec: dict, k: int, got: float) -> list:
    if spec["family"] == "BesselType":
        want = reference.bessel_moment(spec, k)
    else:
        want = reference.radial_moment(spec, k)
    closed = repulsion.radial_moment(_spec(spec), k)
    out = [] if _close(got, want) else [f"E|X|^{k} {got!r} vs reference {want!r}"]
    if not _close(got, closed, 1e-7):
        out.append(f"E|X|^{k} quadrature {got!r} vs closed form {closed!r}")
    return out


def _log_eta_ball(spec: dict, R: float) -> float:
    return reference.log_eta_total(spec) + float(reference.log_ball_ratios(spec, [R])[0])


def check_rate(spec: dict, R: float, ns, quantity: str, rows) -> list:
    if [n for n, _ in rows] != list(ns):
        return ["rate rows do not follow the n-list"]
    out = []
    for n, rate in rows:
        s = {**spec, "n": n}
        want = _log_eta_ball(s, R)
        if quantity == "eta_boolean_ratio":
            want = min(want - reference.log_phi_ball(s, R), 0.0)
        out += _log_problems(-rate * n, want, f"{quantity} at n={n}")
    return out


def check_log_ratio(spec: dict, R: float, got: float) -> list:
    return _log_problems(got, float(reference.log_ball_ratios(spec, [R])[0]), "ball ratio")


def check_table(templates, ns, table) -> list:
    if len(table.rows) != len(templates) * len(ns):
        return [f"{len(table.rows)} table rows"]
    out = []
    rows = iter(table.rows)
    for n in ns:
        for t in templates:
            spec = {**t, "n": n}
            fam, n_cell, _, bound, r_cell, rate_type, exceeds = next(rows)
            want = reference.log_eta_bound(spec)
            if bound.startswith("exp("):
                ok = abs(float(bound[4:-1]) - want) <= 5e-4 * abs(want)
            else:
                ok = abs(math.log(float(bound)) - want) <= 1e-5
            r_star = reference.reach(spec)
            if r_star is None:
                ok &= r_cell == "N/A" and exceeds == "N/A"
            else:
                ok &= _close(float(r_cell), r_star, 1e-5)
                threshold = math.exp(-spec["rho"]) * reference.NN_THRESHOLD_RHO0
                ok &= exceeds == str(r_star > threshold)
            ok &= (fam, n_cell, rate_type) == (t["family"], n, RATE_TYPE[fam])
            if not ok:
                out.append(f"table row {fam} n={n} wrong")
    return out


def _read_radii(path: Path) -> np.ndarray:
    with path.open() as fh:
        if not fh.readline().startswith("# config = ") or fh.readline() != "radius\n":
            raise ValueError("unexpected sample file header")
        return np.loadtxt(fh, dtype=float, ndmin=1)


def ks_pvalue(x: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov p-value of the sample x against cdf
    (asymptotic law with Stephens' small-sample correction)."""
    n = x.size
    F = cdf(np.sort(x))
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - F)), float(np.max(F - (i - 1) / n)))
    return float(special.kolmogorov((math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d))


def check_sample(spec: dict, count: int, path: Path, argv, code) -> list:
    if code != 0:
        return [f"sample exited with {code}"]
    radii = _read_radii(path)
    out = []
    if radii.size != count or not np.all(np.isfinite(radii) & (radii >= 0.0)):
        out.append("sample file has the wrong count or bad radii")
    else:
        p = ks_pvalue(radii, reference.radial_cdf_fn(spec))
        if p < KS_MIN_P:
            out.append(f"KS p-value {p:.3g} for {spec}")
    if argv is not None:  # same seed, second file: bytes must match
        again = path.with_suffix(".again")
        argv = list(argv)
        argv[argv.index("--out") + 1] = str(again)
        cli.main(argv)
        if again.read_bytes() != path.read_bytes():
            out.append("same seed gave different sample output")
        again.unlink()
    path.unlink()
    return out


def check_mc_ratio(spec: dict, R: float, count: int, est) -> list:
    q = math.exp(float(reference.log_ball_ratios(spec, [R])[0]))
    if est.samples == count and abs(est.value - q) <= MC_SIGMAS * math.sqrt(q * (1 - q) / count):
        return []
    return [f"mc_ball_ratio {est.value} vs reference {q}"]


def check_cartesian(spec: dict, R: float, count: int, est) -> list:
    want = reference.gaussian_ball_integral(spec, R)
    if est.samples == count and 0 < est.std_error and \
            abs(est.value - want) <= MC_SIGMAS * est.std_error:
        return []
    return [f"cartesian_mc_integral {est.value} +- {est.std_error} vs reference {want}"]


# ---------------------------------------------------------------------------
# Workloads: each returns one pass's operations
# ---------------------------------------------------------------------------

def _curve_op(spec: dict, grid) -> Op:
    return Op("eta_curve", partial(repulsion.build_eta_report, _spec(spec), grid),
              partial(check_curve, spec, grid))


def smooth_curves(rng, index: int, tiny: bool, tmp: Path) -> list:
    """One curve for each of LaguerreGauss m = 1..4, PowerExponential (nu = 2,
    scaled), WhittleMatern and Cauchy (scaled) at each n in {10, 200, 1000}."""
    configs = [("LaguerreGauss", m) for m in (1, 2, 3, 4)]
    configs += [("PowerExponential", None), ("WhittleMatern", None), ("Cauchy", None)]
    ns, points = ((10,), 12) if tiny else ((10, 200, 1000), 50)
    ops = []
    for n in ns:
        for family, m in configs:
            spec = inputs.spec(rng, family, n, m=m)
            ops.append(_curve_op(spec, inputs.r_grid(rng, spec, points)))
    return ops


# (BesselType curve n, IndicatorSpectral curve n, BesselType moment n) of a
# pass, by pass index mod 3: every n once per operation kind in three passes,
# matched so the three pass kinds cost about the same.
OSCILLATORY_NS = [(10, 100, 10), (100, 200, 200), (200, 10, 100)]


def oscillatory_curves(rng, index: int, tiny: bool, tmp: Path) -> list:
    """A BesselType curve, an IndicatorSpectral curve and a BesselType
    radial_moment_quadrature, n from OSCILLATORY_NS."""
    n_bessel, n_indicator, n_moment = (10, 10, 10) if tiny else OSCILLATORY_NS[index % 3]
    points = 8 if tiny else 50
    ops = []
    for family, n in (("BesselType", n_bessel), ("IndicatorSpectral", n_indicator)):
        spec = inputs.spec(rng, family, n)
        ops.append(_curve_op(spec, inputs.r_grid(rng, spec, points, hi=(2.0, 4.0))))
    k = int(rng.integers(1, 3))
    spec = inputs.spec(rng, "BesselType", n_moment, sigma=float(rng.uniform(k + 1.2, 5.0)))
    ops.append(Op("moment_quadrature",
                  partial(repulsion.radial_moment_quadrature, _spec(spec), k),
                  partial(check_moment, spec, k)))
    return ops


SAMPLE_COUNT = 100000  # radii per `sample` call, draws per mc_ball_ratio call
PROBE_Q = 2e-3        # reference ball ratio at the mc_ball_ratio probe's R


def _sample_op(spec: dict, count: int, seed: int, path: Path, rerun: bool = False,
               known_fault: str = "") -> Op:
    argv = ["sample", *inputs.cli_args(spec), "--samples", str(count),
            "--seed", str(seed), "--out", str(path)]
    return Op("cli_sample", partial(cli.main, argv),
              partial(check_sample, spec, count, path, argv if rerun else None),
              radii=count, known_fault=known_fault)


def _mc_ratio_op(spec: dict, R: float, count: int, seed: int, known_fault: str = "") -> Op:
    return Op("mc_ball_ratio", partial(oracle.mc_ball_ratio, _spec(spec), R, count, seed),
              partial(check_mc_ratio, spec, R, count), known_fault=known_fault)


def sampling(rng, index: int, tiny: bool, tmp: Path) -> list:
    """Two seeded `dpp-repulsion sample` calls (the smooth families in turn,
    one at n = 2 and one at n in 12..200), one seeded
    mc_ball_ratio call at n = 2 (the smooth families in turn), one
    cartesian_mc_integral (LaguerreGauss m = 1 or PowerExponential in turn,
    n in 2..8), then two
    build_cdf probes: a `sample` call on the WhittleMatern probe spec and an
    mc_ball_ratio call on the probe spec of each smooth family in turn, at
    the R where the reference ratio is PROBE_Q.  A CDF build dominates every
    operation but the Cartesian one, so their costs are alike and
    op_ref_p50_ms does not jump between operation kinds."""
    count = 5000 if tiny else SAMPLE_COUNT
    ops = []
    for i, n in enumerate((2, int(rng.integers(12, 201)))):
        spec = inputs.spec(rng, inputs.SMOOTH[(index + 2 * i) % len(inputs.SMOOTH)], n)
        # the first call of every round is rerun to check byte identity
        ops.append(_sample_op(spec, count, int(rng.integers(2**31)), tmp / f"radii-{i}.csv",
                              rerun=i == 0 and index % ROUND["sampling"] == 0))
    mc_count = 20000 if tiny else SAMPLE_COUNT
    spec = inputs.spec(rng, inputs.SMOOTH[index % len(inputs.SMOOTH)], 2)
    R = reference.center_radius(spec) * rng.uniform(0.8, 1.25)
    ops.append(_mc_ratio_op(spec, R, mc_count, int(rng.integers(2**31))))
    spec = inputs.spec(rng, inputs.GAUSSIAN[index % 2], int(rng.integers(2, 9)), m=1)
    R = reference.center_radius(spec) * rng.uniform(0.8, 1.25)
    ops.append(Op("cartesian_mc", partial(oracle.cartesian_mc_integral, _spec(spec), R,
                                          mc_count, int(rng.integers(2**31))),
                  partial(check_cartesian, spec, R, mc_count)))
    probe = inputs.probe(inputs.CDF_PROBES[0], index)
    ops.append(_sample_op(probe, SAMPLE_COUNT, index, tmp / "radii-probe.csv",
                          known_fault="build_cdf"))
    probe = inputs.probe(inputs.CDF_PROBES[index % len(inputs.CDF_PROBES)], index)
    ops.append(_mc_ratio_op(probe, reference.ball_radius(probe, PROBE_Q), SAMPLE_COUNT, index,
                            known_fault="build_cdf"))
    return ops


def one_shot(rng, index: int, tiny: bool, tmp: Path) -> list:
    """Per smooth family: an empirical_rate row for each quantity over four
    n in 20..600, two radial_moment_quadrature and three log_eta_ball_ratio
    calls; then one summary_table over all six families at n = 2..400, and
    the reach_exceeds_nn probe: a one-row summary_table of Cauchy at n = 2."""
    rate_rungs = [(20, 40), (60, 100)] if tiny else [(20, 60), (61, 150), (151, 350), (351, 600)]
    single_rungs = [(10, 30)] if tiny else [(10, 60), (100, 300), (400, 600)]
    ops = []
    for family in inputs.SMOOTH:
        for quantity in ("eta_ball", "eta_boolean_ratio"):
            ns = inputs.n_list(rng, rate_rungs)
            spec = inputs.spec(rng, family, ns[0], valid_at=ns)
            R = reference.center_radius({**spec, "n": ns[len(ns) // 2]}) * rng.uniform(0.7, 1.4)
            ops.append(Op("empirical_rate",
                          partial(oracle.empirical_rate, _spec(spec), R, ns, quantity=quantity),
                          partial(check_rate, spec, R, ns, quantity)))
        for lo, hi in ((10, 60), (200, 600)):
            spec = inputs.spec(rng, family, int(rng.integers(lo, hi + 1)))
            k = int(rng.choice([2, 4])) if family == "PowerExponential" else int(rng.integers(1, 5))
            ops.append(Op("moment_quadrature",
                          partial(repulsion.radial_moment_quadrature, _spec(spec), k),
                          partial(check_moment, spec, k)))
        for lo, hi in single_rungs:
            spec = inputs.spec(rng, family, int(rng.integers(lo, hi + 1)))
            R = reference.center_radius(spec) * rng.uniform(0.7, 1.4)
            ops.append(Op("log_ball_ratio",
                          partial(repulsion.log_eta_ball_ratio, _spec(spec), R),
                          partial(check_log_ratio, spec, R)))
    ns = list(range(2, 41 if tiny else 401))
    templates = [inputs.spec(rng, f, ns[0], valid_at=ns)
                 for f in inputs.SMOOTH + ("BesselType", "IndicatorSpectral")]
    specs = [_spec({**t, "n": n}) for n in ns for t in templates]
    ops.append(Op("summary_table", partial(asymptotics.summary_table, specs),
                  partial(check_table, templates, ns)))
    probe = inputs.probe(inputs.REACH_PROBE, index)
    ops.append(Op("summary_table", partial(asymptotics.summary_table, [_spec(probe)]),
                  partial(check_table, [probe], [probe["n"]]), known_fault="reach_exceeds_nn"))
    return ops


# Passes per round where the pass inputs rotate (n in oscillatory-curves; the
# family of every operation in sampling).  A run ends
# only after a whole round, so every run has the same mix of operations and
# op_ref_p50_ms does not depend on how many passes fit in the time.
ROUND = {"oscillatory-curves": 3, "sampling": 4}

WORKLOADS = {
    "smooth-curves": smooth_curves,
    "oscillatory-curves": oscillatory_curves,
    "sampling": sampling,
    "one-shot": one_shot,
}


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

_CAL_X = np.random.default_rng(12345).random(1 << 16) + 0.5


def calibration_loop() -> float:
    """A fixed mix of interpreter, numpy, scipy.special and float-formatting
    work (15 to 25 ms), timed between operations to follow the host's speed."""
    s = 0.0
    for i in range(60000):
        s += (i % 7) * 0.5
    y = _CAL_X
    for _ in range(3):
        y = np.sort(np.exp(-0.5 * np.log(y)) + special.gammaln(y))
    return s + len(",".join(format(float(v), ".17g") for v in y[:5000]))


def run(workload: str, seed: int, seconds=None, passes=None, tracer=None,
        tiny: bool = False) -> dict:
    """Run passes; return per-operation and per-pass times (CPU and wall
    clock), failure counts, peak memory and the tracer's totals."""
    build = WORKLOADS[workload]
    workload_id = list(WORKLOADS).index(workload)
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    cache = repulsion._density_panels
    cache_before = cache.cache_info()
    res = {"workload": workload, "seed": seed,
           "op_cpu_s": [], "op_wall_s": [], "pass_cpu_s": [], "pass_wall_s": [],
           "attempted": 0, "failed": 0, "incorrect": 0, "known_failed": 0,
           "known_faults": [], "problems": [],
           "radii": 0, "radii_wall_s": 0.0, "cal_cpu_s": []}
    calibration_loop()  # warm-up, not recorded
    since_cal = 0.0
    per_round = ROUND.get(workload, 1)
    start = t_round = time.perf_counter()
    last = 0.0
    try:
        while True:
            index = len(res["pass_cpu_s"])
            if passes is not None and index >= passes:
                break
            if passes is None and index % per_round == 0 and index:
                now = time.perf_counter()
                last, t_round = now - t_round, now
                if now - start + last > seconds:
                    break
            rng = np.random.default_rng([seed, workload_id, index])
            cpu_sum = wall_sum = 0.0
            for op in build(rng, index, tiny, tmp):
                if tracer is not None:
                    tracer.op, tracer.active = len(res["op_cpu_s"]), True
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    out, problems = op.run(), None
                except Exception as exc:  # the operation failed; keep measuring
                    problems = [f"{op.kind} raised {type(exc).__name__}: {exc}"]
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                if tracer is not None:
                    tracer.active = False
                raised = problems is not None
                if not raised:
                    try:
                        problems = op.check(out)
                    except Exception as exc:
                        problems = [f"{op.kind} check raised {type(exc).__name__}: {exc}"]
                cpu_sum += cpu
                wall_sum += wall
                res["op_cpu_s"].append(cpu)
                res["op_wall_s"].append(wall)
                res["attempted"] += 1
                res["failed"] += bool(problems)
                if problems and op.known_fault and not raised:
                    res["known_failed"] += 1
                    if op.known_fault not in res["known_faults"]:
                        res["known_faults"].append(op.known_fault)
                        res["problems"].append(f"known fault {op.known_fault}: {problems[0]}")
                else:
                    res["incorrect"] += bool(problems) and not raised
                    res["problems"] += problems[:1]
                if op.radii:
                    res["radii"] += op.radii
                    res["radii_wall_s"] += wall
                since_cal += cpu
                if since_cal >= CAL_EVERY_S:
                    c0 = time.process_time()
                    calibration_loop()
                    res["cal_cpu_s"].append(time.process_time() - c0)
                    since_cal = 0.0
            res["pass_cpu_s"].append(cpu_sum)
            res["pass_wall_s"].append(wall_sum)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not res["cal_cpu_s"]:
        c0 = time.process_time()
        calibration_loop()
        res["cal_cpu_s"].append(time.process_time() - c0)
    after = cache.cache_info()
    res["cache_hits"] = after.hits - cache_before.hits
    res["cache_misses"] = after.misses - cache_before.misses
    res["problems"] = res["problems"][:10]
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        res["trace"] = {"calls": dict(tracer.calls),
                        "self_s": {k: v / 1e9 for k, v in tracer.self_ns.items()},
                        "counts": dict(tracer.counts)}
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--result", required=True, help="JSON file to write the results to")
    budget = p.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--passes", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    args = p.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    res = run(args.workload, args.seed, seconds=args.seconds, passes=args.passes,
              tracer=tracer, tiny=args.size == "tiny")
    if tracer is not None:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(spans))
        res["trace"]["spans_file"] = str(spans)
    with open(args.result, "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
