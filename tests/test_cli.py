import hashlib
import importlib.util
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

from dpp_repulsion import asymptotics, oracle, repulsion
from dpp_repulsion.cli import _COMMANDS, _SETTINGS, _mass, _render_json, build_parser, main
from dpp_repulsion.examples import EXAMPLE_PARAMS
from dpp_repulsion.kernels import Family, KernelSpec, max_param
from dpp_repulsion.oracle import sample_radius
from dpp_repulsion.quadrature import QuadratureError
from dpp_repulsion.special import _fmt

GAUSS = ["--family", "LaguerreGauss", "--n", "12", "--rho", "0", "--m", "1",
         "--alpha", "0.5"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_valid_spec_exit_zero(self, capsys):
        code, out, _ = run(["check", *GAUSS], capsys)
        assert code == 0
        assert "existence bound" in out

    def test_invalid_spec_exit_two(self, capsys):
        code, out, _ = run(["check", "--family", "LaguerreGauss", "--n", "12",
                            "--m", "1", "--alpha", "0.6"], capsys)
        assert code == 2
        assert "violation" in out

    @pytest.mark.parametrize("flag", [["--sigma", "nan"], ["--rho", "-inf"],
                                      ["--alpha", "-Infinity"]])
    def test_non_finite_parameter_exit_two(self, flag, capsys):
        code, _, err = run(["check", "--family", "BesselType", "--n", "10",
                            "--sigma", "1", "--alpha", "0.3", *flag], capsys)
        assert code == 2
        assert "must be a finite number" in err

    @pytest.mark.parametrize("family,flag", [
        ("Cauchy", "--nu"), ("WhittleMatern", "--nu"), ("BesselType", "--sigma")])
    def test_huge_shape_parameter_has_finite_bound(self, family, flag, capsys):
        # ln Gamma overflows at this shape: the bound stays finite and the
        # shape parameter is the violation
        code, out, _ = run(["check", "--family", family, "--n", "5", flag, "1e307",
                            "--alpha", "0.1"], capsys)
        assert code == 2
        bound = float(re.search(r"existence bound on the scale at n=5: (\S+)", out)[1])
        assert math.isfinite(bound) and bound > 0
        assert f"violation [{flag[2:]}]: {flag[2:]} must be at most 1.27999e+305" in out
        assert "nan" not in out

    def test_malformed_json_exit_64(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(["check", "--config", str(bad)], capsys)
        assert code == 64

    def test_unknown_config_key_exit_64(self, tmp_path, capsys):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({"spec": {"family": "LaguerreGauss", "n": 3,
                                             "m": 1, "alpha": 0.4}, "bogus": 1}))
        code, *_ = run(["check", "--config", str(cfgf)], capsys)
        assert code == 64

    def test_missing_subcommand_exit_64(self, capsys):
        assert run([], capsys)[0] == 64

    @pytest.mark.parametrize("rho", ["-5e-05", "-1e-3"])
    def test_negative_rho_in_scientific_notation(self, rho, capsys):
        base = ["check", "--family", "LaguerreGauss", "--n", "12", "--m", "1",
                "--alpha", "0.5"]
        code, out, _ = run([*base, "--rho", rho], capsys)
        code_eq, out_eq, _ = run([*base, f"--rho={rho}"], capsys)
        assert code == code_eq == 0
        assert out == out_eq
        assert f"'rho': {float(rho)!r}" in out


class TestEta:
    def test_monotone_csv(self, tmp_path, capsys):
        out = tmp_path / "eta.csv"
        code, *_ = run(["eta", *GAUSS, "--R-grid", "0.05:0.6:8",
                        "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# config = ")
        assert lines[2] == "R,ratio"
        ratios = [float(l.split(",")[1]) for l in lines[3:]]
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("n,m", [(10, 30), (10, 60), (10, 120), (2, 30), (2, 120)])
    def test_laguerre_gauss_large_m_exit_zero(self, n, m, tmp_path, capsys):
        # valid specs whose Laguerre factor overflows a double in the density's tail
        spec = ["--family", "LaguerreGauss", "--n", str(n), "--m", str(m), "--alpha",
                repr(0.5 * max_param(KernelSpec(Family.LAGUERRE_GAUSS, n=n, m=m, alpha=1.0)))]
        assert run(["eta", *spec, "--R", "0.5"], capsys)[0] == 0
        assert run(["sample", *spec, "--samples", "64", "--seed", "1",
                    "--out", str(tmp_path / "r.csv")], capsys)[0] == 0

    def test_powerexp_nu3_exit_three_with_hint(self, capsys):
        code, _, err = run(["eta", "--family", "PowerExponential", "--n", "10",
                            "--nu", "3", "--alpha", "0.5", "--alpha-rule", "scaled",
                            "--R", "0.2"], capsys)
        assert code == 3
        assert "moments" in err

    def test_indicator_log_total_is_log_c(self, tmp_path, capsys):
        out = tmp_path / "eta.json"
        code, *_ = run(["eta", "--family", "IndicatorSpectral", "--n", "9",
                        "--c", "0.37", "--R-grid", "0.1:2.0:4",
                        "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["log_total"] == approx(math.log(0.37), rel=1e-12)

    def test_missing_radius_exit_64(self, capsys):
        assert run(["eta", *GAUSS], capsys)[0] == 64

    def test_total_mass_note_keeps_an_underflowing_value(self, capsys):
        # the BesselType total is e^-1127.9, far below the smallest double
        code, out, _ = run(["eta", "--family", "BesselType", "--n", "1000", "--sigma", "2",
                            "--alpha", "0.3", "--R", "0.1"], capsys)
        assert code == 0
        assert re.fullmatch(r"eta total mass = exp\(-1127\.889300321\d*\)",
                            out.splitlines()[-1])

    @pytest.mark.parametrize("log_total,note", [
        (0.0, "1"),
        (-700.0, "9.8596765437597708e-305"),
        (-708.0, "3.3075530036384078e-308"),   # the last normal doubles
        (-708.4, "exp(-708.39999999999998)"),  # subnormal
        (-710.0, "exp(-710)"),
        (-1127.8893003215594, "exp(-1127.8893003215594)"),
        (-math.inf, "0"),
    ])
    def test_total_mass_note(self, log_total, note):
        assert _mass(log_total) == note

    @pytest.mark.parametrize("command", ["check", "eta"])
    def test_bessel_sigma_past_the_exponent_gap_exit_two(self, command, capsys):
        # sigma + 1 and sigma + 6 are one double: the density's exponent
        # reaches 2 mu + 1, and eta used to end in a ValueError traceback
        argv = [command, "--family", "BesselType", "--n", "5", "--sigma", "1e17",
                "--alpha", "0.1"] + (["--R", "0.5"] if command == "eta" else [])
        code, out, err = run(argv, capsys)
        assert code == 2 and "Traceback" not in err
        assert ("sigma 1e+17 is too large at n=5: sigma + 1 and sigma + n + 1 round to "
                "the same double") in out + err

    @pytest.mark.parametrize("argv", [
        ["--family", "Cauchy", "--nu", "1e307", "--alpha", "0.1"],
        ["--family", "WhittleMatern", "--nu", "1e307", "--alpha", "1e-160"],
        ["--family", "BesselType", "--sigma", "1e307", "--alpha", "0.1"],
    ])
    def test_huge_shape_parameter_is_rejected(self, argv, capsys):
        # the closed forms would subtract overflowed log-gammas (nan)
        code, out, err = run(["eta", "--n", "5", *argv, "--R", "0.5"], capsys)
        assert code == 2
        assert "must be at most" in err
        assert "nan" not in out + err


class TestSpecBoundary:
    # a missing field, a field the family does not read, and alpha = 5 past
    # the existence bound 0.54 at n = 3, m = 2
    BAD_SPECS = {"missing alpha": [],
                 "unread nu": ["--alpha", "0.1", "--nu", "2"],
                 "past the bound": ["--alpha", "5"]}

    @pytest.mark.parametrize("bad", list(BAD_SPECS))
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_invalid_spec_exit_2(self, command, bad, capsys):
        argv = [command, "--family", "LaguerreGauss", "--n", "3", "--m", "2",
                *self.BAD_SPECS[bad], *(["--R", "0.5"] if command in ("eta", "rate") else [])]
        code, out, err = run(argv, capsys)  # an escaping exception fails the test
        assert code == 2
        if command == "check" and bad == "past the bound":
            # check reports domain violations on stdout
            assert "violation [alpha]: effective scale 5 >= existence bound" in out
            assert err == ""
        else:
            assert err.startswith("invalid spec: ") and err.count("\n") == 1

    @pytest.mark.parametrize("radii", [["--R", "0"], []], ids=["R=0", "no R"])
    @pytest.mark.parametrize("bad", list(BAD_SPECS))
    def test_rate_spec_error_outranks_radius_error(self, bad, radii, capsys):
        code, _, err = run(["rate", "--family", "LaguerreGauss", "--n", "3", "--m", "2",
                            *self.BAD_SPECS[bad], *radii], capsys)
        assert code == 2
        assert err.startswith("invalid spec: ") and err.count("\n") == 1

    @pytest.mark.parametrize("radii", [["--R", "0"], []], ids=["R=0", "no R"])
    @pytest.mark.parametrize("bad", list(BAD_SPECS))
    def test_eta_spec_error_outranks_radius_error(self, bad, radii, capsys):
        code, _, err = run(["eta", "--family", "LaguerreGauss", "--n", "3", "--m", "2",
                            *self.BAD_SPECS[bad], *radii], capsys)
        assert code == 2
        assert err.startswith("invalid spec: ") and err.count("\n") == 1


class TestInputBoundary:
    # one out-of-domain value per family field, and the constructor's refusal
    OUT_OF_DOMAIN = {
        "m=0": (["--family", "LaguerreGauss", "--m", "0", "--alpha", "0.3"],
                "m must be >= 1, got 0"),
        "alpha=0": (["--family", "LaguerreGauss", "--m", "1", "--alpha", "0"],
                    "alpha must be > 0, got 0.0"),
        "alpha=-0.5": (["--family", "WhittleMatern", "--nu", "1", "--alpha", "-0.5"],
                       "alpha must be > 0, got -0.5"),
        "nu=0": (["--family", "Cauchy", "--nu", "0", "--alpha", "0.1"],
                 "nu must be > 0, got 0.0"),
        "sigma=-0.5": (["--family", "BesselType", "--sigma", "-0.5", "--alpha", "0.3"],
                       "sigma must be >= 0, got -0.5"),
        "c=0": (["--family", "IndicatorSpectral", "--c", "0"], "c must be > 0, got 0.0"),
    }

    @pytest.mark.parametrize("case", list(OUT_OF_DOMAIN))
    def test_check_out_of_domain_exit_2(self, case, capsys):
        # on stderr, as for every command: check's stdout violations are
        # only the existence bound and the ln Gamma range
        argv, message = self.OUT_OF_DOMAIN[case]
        code, out, err = run(["check", "--n", "3", *argv], capsys)
        assert code == 2 and out == ""
        assert err == f"invalid spec: {message}\n"

    def test_check_prints_the_sigma_zero_note(self, capsys):
        code, out, err = run(["check", "--family", "BesselType", "--n", "4", "--sigma", "0",
                              "--alpha", "0.2"], capsys)
        assert code == 0 and err == ""
        assert ("note: sigma = 0 accepted, but the no-reach statement assumes sigma > 0\n"
                "valid: spectrum strictly inside [0, 1)\n") in out

    def test_alpha_rule_from_a_config_spec_exit_2(self, tmp_path, capsys):
        # the flag's choices stop it at argparse; a config spec reaches the constructor
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"spec": {"family": "Cauchy", "n": 3, "nu": 1,
                                                 "alpha": 0.1, "alpha_rule": "halved"}}))
        code, out, err = run(["check", "--config", str(cfg_file)], capsys)
        assert code == 2 and out == ""
        assert err == "invalid spec: alpha_rule must be fixed|scaled, got 'halved'\n"

    @pytest.mark.parametrize("config", [None, [1, 2]], ids=["no spec", "config not an object"])
    def test_no_spec_exit_64(self, config, tmp_path, capsys):
        argv = ["eta", "--R", "0.1"]
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "c.json")]
        code, out, err = run(argv, capsys)
        assert code == 64 and out == ""
        assert err == ("usage error: no kernel spec given (use --family/--n or --config)\n"
                       if config is None else
                       "usage error: config file must hold a JSON object\n")

    def test_empirical_rates_on_a_grid_exit_64(self, capsys):
        code, out, err = run(["rate", *LAGUERRE_1, "--R-grid", "0.1:0.2:3", "--n-list", "50"],
                             capsys)
        assert code == 64 and out == ""
        assert err == "usage error: empirical rates need a single --R, not a grid\n"

    def test_quadrature_error_exit_4(self, monkeypatch, capsys):
        def fail(spec, R_grid):
            raise QuadratureError("prefix did not converge")
        monkeypatch.setattr(repulsion, "build_eta_report", fail)
        code, out, err = run(["eta", *GAUSS, "--R", "0.1"], capsys)
        assert code == 4 and out == ""
        assert err == "numeric failure: prefix did not converge\n"

    def test_eta_takes_no_tolerance(self, tmp_path, capsys):
        # neither as a flag nor as a config key: ball ratios hold one tolerance
        code, out, err = run(["eta", *GAUSS, "--R", "0.1", "--rel-tol", "1e-7"], capsys)
        assert code == 64 and out == ""
        assert err.startswith("usage error: unrecognized arguments: --rel-tol 1e-7")
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"spec": {"family": "LaguerreGauss", "n": 12, "m": 1,
                                                 "alpha": 0.5}, "R": 0.1, "rel_tol": 1e-8}))
        code, out, err = run(["eta", "--config", str(cfg_file)], capsys)
        assert code == 64 and out == ""
        assert err == "usage error: eta does not read config keys ['rel_tol']\n"


class TestReachCmd:
    def test_values(self, tmp_path, capsys):
        out = tmp_path / "reach.json"
        code, *_ = run(["reach", "--family", "LaguerreGauss", "--n", "4", "--m", "4",
                        "--alpha", "0.3", "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["R_star"] == approx(0.3)
        assert data["nn_threshold"] == approx(0.2419707245191433, abs=1e-12)

    def test_bessel_reports_na(self, capsys):
        code, out, _ = run(["reach", "--family", "BesselType", "--n", "4",
                            "--sigma", "2", "--alpha", "0.3"], capsys)
        assert code == 0
        assert "none" in out


class TestRateCmd:
    def test_analytic_plus_empirical(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        code, *_ = run(["rate", "--family", "LaguerreGauss", "--n", "1", "--m", "1",
                        "--alpha", "0.3", "--R", "0.075", "--n-list", "50,100",
                        "--out", str(out)], capsys)
        assert code == 0
        text = out.read_text()
        assert "analytic_rate" in text and "empirical_rate" in text

    def test_csv_layout(self, tmp_path, capsys):
        # the analytic block, then the empirical block, one row per R or n
        out = tmp_path / "rate.csv"
        assert run(["rate", "--family", "LaguerreGauss", "--n", "1", "--m", "1",
                    "--alpha", "0.3", "--R", "0.1", "--n-list", "20", "--out", str(out)],
                   capsys)[0] == 0
        spec = KernelSpec(Family.LAGUERRE_GAUSS, n=1, rho=0.0, m=1, alpha=0.3)
        (n, empirical), = oracle.empirical_rate(spec, 0.1, [20])
        analytic = asymptotics.limit_rate(spec, 0.1, "eta_ball")
        assert out.read_text().split("\n", 1)[1] == (
            f"R,analytic_rate\n0.10000000000000001,{_fmt(analytic)}\n"
            f"n,empirical_rate\n20,{_fmt(empirical)}\n")

    @pytest.mark.parametrize("family", [
        ["--family", "PowerExponential", "--nu", "2", "--alpha", "0.8", "--alpha-rule", "scaled"],
        ["--family", "Cauchy", "--nu", "1", "--alpha", "0.15", "--alpha-rule", "scaled"]],
        ids=["PowerExponential", "Cauchy"])
    def test_new_families_answer(self, family, capsys):
        code, out, _ = run(["rate", "--n", "5", *family, "--R", "0.1", "--n-list", "100",
                            "--quantity", "eta_boolean_ratio", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        spec = KernelSpec(**data["config"]["spec"])
        assert data["grid"][0]["analytic_rate"] == asymptotics.limit_rate(
            spec, 0.1, "eta_boolean_ratio")
        assert data["empirical"][0]["rate"] == approx(data["grid"][0]["analytic_rate"],
                                                      abs=0.05)

    @pytest.mark.parametrize("family", [
        ["--family", "BesselType", "--sigma", "2", "--alpha", "0.3"],
        ["--family", "IndicatorSpectral", "--c", "0.5"],
        ["--family", "WhittleMatern", "--nu", "1", "--alpha", "0.02"],
        ["--family", "PowerExponential", "--nu", "3", "--alpha", "0.5", "--alpha-rule", "scaled"],
        ["--family", "Cauchy", "--nu", "1", "--alpha", "0.15"]],
        ids=["BesselType", "IndicatorSpectral", "WhittleMatern", "PowerExponential-nu3",
             "Cauchy-fixed"])
    def test_refused_family_exit_three(self, family, capsys):
        code, out, err = run(["rate", "--n", "5", *family, "--R", "0.1"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("unsupported for this family: ")
        hint = family[1] == "PowerExponential"
        assert err.count("\n") == 1 + hint
        assert ("hint: exact moments remain available" in err) == hint


class TestTableCmd:
    def test_default_examples(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, stdout, _ = run(["table", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].startswith("family,")
        assert len(lines) == 8  # config + header + six families
        assert "| LaguerreGauss |" in stdout

    def test_line_endings_are_lf(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run(["table", "--out", str(out)], capsys)[0] == 0
        data = out.read_bytes()
        assert b"\r" not in data and data.count(b"\n") == 8


class TestMomentsCmd:
    def test_values(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, *_ = run(["moments", "--family", "Cauchy", "--n", "2", "--rho", "-1",
                        "--nu", "1", "--alpha", "1.0", "--k", "2,4",
                        "--format", "json", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert data["moments"][0]["value"] == approx(0.5, rel=1e-12)

    def test_divergent_moment_exit_three(self, capsys):
        code, *_ = run(["moments", "--family", "IndicatorSpectral", "--n", "5",
                        "--c", "0.5", "--k", "2"], capsys)
        assert code == 3


class TestSampleCmd:
    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_sample_count_below_one_exit_64(self, count, capsys):
        code, out, err = run(["sample", *GAUSS, "--samples", count], capsys)
        assert code == 64
        assert f"usage error: samples must be >= 1, got {count}" in err
        assert "Traceback" not in err and out == ""

    def test_fixed_seed_identical_files(self, tmp_path, capsys):
        # the CDF reads the spec's cached PanelSet: the first run builds it
        # (cold cache), the second reads it (warm), and both write the same bytes
        args = ["sample", *GAUSS, "--samples", "64", "--seed", "5"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        repulsion._density_panels.cache_clear()
        assert run([*args, "--out", str(f1)], capsys)[0] == 0
        assert repulsion._density_panels.cache_info()[:2] == (0, 1)  # (hits, misses)
        assert run([*args, "--out", str(f2)], capsys)[0] == 0
        assert repulsion._density_panels.cache_info()[:2] == (1, 1)
        assert f1.read_bytes() == f2.read_bytes()

    def test_csv_rows_and_json_radii(self, tmp_path, capsys):
        args = ["sample", *GAUSS, "--samples", "64", "--seed", "5"]
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        assert run([*args, "--out", str(csv_out)], capsys)[0] == 0
        assert run([*args, "--format", "json", "--out", str(json_out)], capsys)[0] == 0
        radii = sample_radius(KernelSpec(Family.LAGUERRE_GAUSS, n=12, rho=0.0, m=1,
                                         alpha=0.5), 64, 5)
        # one 17-significant-digit row per radius after the config line
        head, _ = csv_out.read_text().split("\n", 1)
        rows = "".join(f"{format(float(r), '.17g')}\n" for r in radii)
        assert csv_out.read_bytes() == f"{head}\nradius\n{rows}".encode()
        data = json.loads(json_out.read_text())
        assert (data["seed"], data["samples"]) == (5, 64)
        assert data["radii"] == [float(r) for r in radii]

    def test_csv_rendering_matches_fmt_per_radius(self, tmp_path, capsys, monkeypatch):
        # the one-format rendering against _fmt, radius by radius, on 0,
        # subnormals, 17-digit fractions and values at or above 1e16
        radii = np.array([0.0, 5e-324, 1.1e-308, 1e-5, 0.1, 1.0 / 3.0, 123456.0,
                          9007199254740993.0, 1e16, 12345678901234567.0,
                          1.7976931348623157e308])
        monkeypatch.setattr(oracle, "sample_radius", lambda spec, count, seed: radii)
        out = tmp_path / "r.csv"
        assert run(["sample", *GAUSS, "--samples", str(len(radii)), "--out", str(out)],
                   capsys)[0] == 0
        rows = out.read_text().split("\n")[2:]
        assert rows == [*map(_fmt, radii), ""]

    # SHA-256 of a seeded 1,000-radius CSV per smooth family, at n = 10 and
    # seed 2017: a change that moves one byte of seeded output fails here
    SEEDED_SHA256 = {
        Family.LAGUERRE_GAUSS: "a2cd75e2c4c56e970a5bf9673c7d25071636c5981582a6014b4f0efdb5272168",
        Family.POWER_EXPONENTIAL:
            "2e1abbefefcb54c7ba13806bdb0d6f17e273ea9eed6e0d45ce35020f4d0cb024",
        Family.WHITTLE_MATERN: "987bf17481f0efbdd72f4725ee4487066feb20f337880bee5a4c27d84569f8e5",
        Family.CAUCHY: "a3e303be601e9ef083fbbd9e5d1375afd0168d8a1d7d52de7a0bceb02c5c7041",
    }

    @pytest.mark.parametrize("family", list(SEEDED_SHA256), ids=lambda f: f.value)
    def test_seeded_csv_bytes_are_pinned(self, family, tmp_path, capsys):
        args = ["sample", "--family", family.value, "--n", "10"]
        for key, val in EXAMPLE_PARAMS[family].items():
            args += [f"--{key.replace('_', '-')}", str(val)]
        args += ["--samples", "1000", "--seed", "2017"]
        out = tmp_path / "r.csv"
        assert run([*args, "--out", str(out)], capsys)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SEEDED_SHA256[family]
        # stdout gets the same bytes
        assert run(args, capsys)[1].encode() == out.read_bytes()

    # SHA-256 of a 50-point eta CSV per smooth family (and LaguerreGauss at
    # m = 1, a Gaussian kernel) at n = 10 and n = 1000, on grids from 0.4 to
    # 1.6 times where the mass sits: R* (WhittleMatern: its finite-n centre
    # n alpha / (2 sqrt(n))).  At n = 1000 about half the prefixes refine.
    CURVE_SHA256 = {
        ("LaguerreGauss --m 1 --alpha 0.3", "0.06:0.24:50"): {
            10: "eeb371f46879c0eb22a8817bbd3eb6bd53a4ab0e4b875ebe818c31c4ebf7ca07",
            1000: "4d40bf9865d224a337a51a3a1c7a9caf1c14ddfa1d586f275acae36a5eba706e"},
        ("LaguerreGauss --m 2 --alpha 0.3", "0.085:0.34:50"): {
            10: "5477ee6a008f6a91635c2f57926e5a574b92278782c70dbcd4e6f05041a74497",
            1000: "f04da4830dd1cb64e2933edd5f47936a139562796f19b639d147008829a24788"},
        ("PowerExponential --nu 2 --alpha 0.4 --alpha-rule scaled", "0.025:0.1:50"): {
            10: "69dab44618829a795b5f6673ae2ac27d408cc2e64c08eeb297997ff44ea8b51f",
            1000: "5aa8c8cc74a1fbe95b68c3dc07ac075ef47130a22de4590bfa27df94905766f2"},
        ("Cauchy --nu 1 --alpha 0.15 --alpha-rule scaled", "0.06:0.24:50"): {
            10: "745af27e6fbbaec054178a59c89bd9ca104ebf48c2076e79eaf66e89ec28b145",
            1000: "e6c68b311c42736a9bd3efa5a7b9216142daee419fb3956dc51fd8548a84c0c9"},
        ("WhittleMatern --nu 1 --alpha 0.02", "0.013:0.05:50"): {
            10: "7386b262bb24301092ee1cb1db35e4e25b4ec102424bd6238dd5deafe519b500"},
        ("WhittleMatern --nu 1 --alpha 0.02", "0.13:0.5:50"): {
            1000: "6f29d3ff4959b3b33100abc92c60215ba3148d8f07d5c41cf5cbcdef99e1ef3c"},
    }

    @pytest.mark.parametrize("params, grid, n, digest", [
        pytest.param(params, grid, n, digest,
                     id=params.split(" --alpha")[0].replace(" --", "-").replace(" ", "")
                     + f"-n{n}")
        for (params, grid), pins in CURVE_SHA256.items() for n, digest in pins.items()])
    def test_curve_csv_bytes_are_pinned(self, params, grid, n, digest, tmp_path, capsys):
        out = tmp_path / "eta.csv"
        argv = ["eta", "--family", *params.split(), "--n", str(n), "--R-grid", grid,
                "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # radii past the fixed-notation range, and an infinite one, which renders as a string
    JSON_RADII = {"edges": [0.0, 5e-324, 1e-5, 0.1, 1.0 / 3.0, 1e16, 12345678901234567.0,
                            1e300],
                  "non-finite": [0.5, math.inf]}

    @pytest.mark.parametrize("case", ["sampled", *JSON_RADII])
    def test_json_rendering_matches_render_json_per_radius(self, case, tmp_path, capsys,
                                                            monkeypatch):
        # the array rendering against _render_json on a list of floats
        if case == "sampled":
            radii = sample_radius(KernelSpec(Family.LAGUERRE_GAUSS, n=12, rho=0.0, m=1,
                                             alpha=0.5), 20000, 9)
        else:
            radii = np.array(self.JSON_RADII[case])
        monkeypatch.setattr(oracle, "sample_radius", lambda spec, count, seed: radii)
        out = tmp_path / "r.json"
        assert run(["sample", *GAUSS, "--samples", str(len(radii)), "--format", "json",
                    "--out", str(out)], capsys)[0] == 0
        config = json.loads(out.read_text())["config"]
        want = _render_json({"config": config, "seed": 1, "samples": len(radii),
                             "radii": [float(r) for r in radii]}) + "\n"
        assert out.read_bytes() == want.encode()


LAGUERRE_1 = ["--family", "LaguerreGauss", "--n", "1", "--m", "1", "--alpha", "0.3"]


class TestSettings:
    # (argv, config file contents or None); "{tmp}" is the test's directory
    @pytest.mark.parametrize("argv, config", [
        (["eta", *GAUSS, "--R-grid", "0:1"], None),
        (["eta", *GAUSS, "--R-grid", "a:1:3"], None),
        (["eta", *GAUSS, "--R-grid", "0:1:0"], None),
        (["eta", *GAUSS, "--R-grid", "0:inf:3"], None),
        (["moments", *GAUSS, "--k", "x"], None),
        (["moments", *GAUSS, "--k", "-1"], None),
        (["rate", *LAGUERRE_1, "--R", "0.1", "--n-list", "1,x"], None),
        (["eta", *GAUSS, "--R", "-1"], None),
        (["eta", *GAUSS, "--R", "nan"], None),
        (["eta", *GAUSS, "--R", "0.1", "--rel-tol", "0.5"], None),
        (["eta", *GAUSS, "--R", "0.1", "--rel-tol", "nan"], None),
        (["rate", *LAGUERRE_1, "--R", "0"], None),
        (["sample", *GAUSS], {"samples": "abc"}),
        (["eta", *GAUSS], {"R_grid": [0, 1]}),
        (["moments", *GAUSS], {"k_list": 2}),
        (["eta", *GAUSS], {"R": "x"}),
        (["check"], {"spec": [1]}),
        (["eta", *GAUSS, "--R", "0.1", "--out", "{tmp}/missing/eta.csv"], None),
        (["sample", *GAUSS, "--samples", "8", "--rel-tol", "1e-3"], None),
        (["rate", *LAGUERRE_1, "--R", "0.075", "--n-list", "50", "--rel-tol", "1e-6"], None),
        (["moments", *GAUSS], {"rel_tol": 1e-6}),
        (["table", "--n-list", "5,10"], None),
    ])
    def test_bad_setting_exit_64(self, argv, config, tmp_path, capsys):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if "--out" not in argv and argv[0] != "check":  # check reads no --out
            argv += ["--out", str(tmp_path / "out")]
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "c.json")]
        code, out, err = run(argv, capsys)
        assert code == 64
        assert err.startswith("usage error: ") and "Traceback" not in err
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["c.json"])

    def test_resolved_config_key_order(self, tmp_path, capsys):
        # the JSON config lists the spec fields in flag-table order, whatever
        # the command-line order, then the run settings in table order
        out = tmp_path / "eta.json"
        assert run(["eta", "--alpha", "0.5", "--m", "1", "--rho", "0", "--n", "12",
                    "--family", "LaguerreGauss", "--format", "json",
                    "--R-grid", "0.1:0.2:2", "--R", "0.1", "--out", str(out)], capsys)[0] == 0
        config = json.loads(out.read_text())["config"]
        assert list(config) == ["spec", "R", "R_grid", "format"]
        assert list(config["spec"]) == ["family", "n", "rho", "m", "alpha"]


# the settings each command reads, besides the spec; every other is a usage error
READS = {
    "check": set(),
    "eta": {"R", "R_grid", "format", "out"},
    "reach": {"format", "out"},
    "rate": {"R", "R_grid", "n_list", "quantity", "format", "out"},
    "table": {"n_list", "format", "out"},
    "moments": {"k_list", "format", "out"},
    "sample": {"samples", "seed", "format", "out"},
}
# one accepted value of each setting: (flag arguments, config-file value);
# "{tmp}" is the test's directory
VALUES = {
    "R": (["--R", "0.075"], 0.075), "R_grid": (["--R-grid", "0.075:0.075:1"], [0.075, 0.075, 1]),
    "n_list": (["--n-list", "20"], [20]), "k_list": (["--k", "2,4"], [2, 4]),
    "samples": (["--samples", "16"], 16), "seed": (["--seed", "3"], 3),
    "quantity": (["--quantity", "eta_ball"], "eta_ball"),
    "format": (["--format", "csv"], "csv"), "out": (["--out", "{tmp}/o"], "{tmp}/o"),
}
SPEC_ARGS = {"rate": LAGUERRE_1, "table": []}  # the rest take GAUSS
UNREAD = [(command, key) for command in READS for key in VALUES if key not in READS[command]]


def _embedded(path: Path, fmt: str) -> dict:
    text = path.read_text()
    if fmt == "csv":
        return json.loads(text.splitlines()[0][len("# config = "):])
    return json.loads(text)["config"]


class TestReadLists:
    def test_declared_read_lists(self):
        assert {c: set(reads) for c, (_, _, reads) in _COMMANDS.items()} == READS
        assert sum(map(len, READS.values())) == 22 and len(UNREAD) == 41
        assert {key for key, *_ in _SETTINGS} == {"spec", *VALUES}

    def test_parser_registers_only_the_read_flags(self):
        sub = build_parser()._subparsers._group_actions[0]
        counts = {name: len(q._actions) for name, q in sub.choices.items()}
        # --help, --config and the nine spec flags, then the settings read
        assert counts == {c: 11 + len(READS[c]) for c in READS}
        assert sum(counts.values()) == 99

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", [c for c in READS if c != "check"])
    def test_embedded_config_is_the_read_list_and_reproduces_bytes(
            self, command, fmt, tmp_path, capsys):
        first = tmp_path / f"first.{fmt}"
        argv = [command, *SPEC_ARGS.get(command, GAUSS)]
        for key in sorted(READS[command] - {"format", "out"}):
            argv += VALUES[key][0]
        assert run([*argv, "--format", fmt, "--out", str(first)], capsys)[0] == 0
        embedded = _embedded(first, fmt)
        spec = set() if command == "table" else {"spec"}  # table runs on its examples here
        assert set(embedded) == spec | READS[command] - {"out"}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(embedded))
        second = tmp_path / f"second.{fmt}"
        assert run([command, "--config", str(cfg_file), "--out", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("command,key", UNREAD)
    def test_unread_flag_exit_64(self, command, key, tmp_path, capsys):
        flag = [a.replace("{tmp}", str(tmp_path)) for a in VALUES[key][0]]
        code, out, err = run([command, *SPEC_ARGS.get(command, GAUSS), *flag], capsys)
        assert code == 64
        assert err.startswith("usage error: unrecognized arguments: " + flag[0])
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,key", UNREAD)
    def test_unread_config_key_exit_64(self, command, key, tmp_path, capsys):
        value = VALUES[key][1]
        if isinstance(value, str):
            value = value.replace("{tmp}", str(tmp_path))
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({key: value}))
        code, out, err = run([command, *SPEC_ARGS.get(command, GAUSS), "--config",
                              str(cfg_file)], capsys)
        assert code == 64
        assert err == f"usage error: {command} does not read config keys ['{key}']\n"
        assert out == "" and [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_table_with_a_spec_takes_no_n_list(self, where, tmp_path, capsys):
        argv = ["table", *GAUSS, "--n-list", "12"]
        if where == "config":
            cfg_file = tmp_path / "c.json"
            cfg_file.write_text(json.dumps({"spec": {"family": "LaguerreGauss", "n": 12,
                                                     "m": 1, "alpha": 0.5}, "n_list": [12]}))
            argv = ["table", "--config", str(cfg_file)]
        code, out, err = run(argv, capsys)
        assert code == 64 and out == ""
        assert "table reads n_list only for the shipped examples" in err

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("command", list(READS))
    def test_spec_field_the_family_does_not_read_exit_2(self, command, where, tmp_path,
                                                        capsys):
        argv = [command, *GAUSS, "--nu", "5"]
        if where == "config":
            cfg_file = tmp_path / "c.json"
            cfg_file.write_text(json.dumps({"spec": {"family": "LaguerreGauss", "n": 12,
                                                     "m": 1, "alpha": 0.5, "sigma": 3}}))
            argv = [command, "--config", str(cfg_file)]
        code, out, err = run(argv, capsys)  # the spec is read before any setting
        field = "nu" if where == "flag" else "sigma"
        assert code == 2
        assert err == f"invalid spec: LaguerreGauss does not read fields ['{field}']\n"

    def test_readme_settings_table_matches_the_read_lists(self):
        # the README's "read by" column is the code's declaration, row by row
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        head = "| config key | flag | default | read by |\n| --- | --- | --- | --- |\n"
        table = readme.split(head, 1)[1].split("\n\n", 1)[0]
        rows = {}
        for line in table.splitlines():
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows[cells[0].strip("`")] = set(re.findall(r"`(\w+)`", cells[3]))
        assert list(rows) == [key for key, *_ in _SETTINGS]
        for key, readers in rows.items():
            assert readers == {c for c, (_, _, reads) in _COMMANDS.items()
                               if key in ("spec", *reads)}, key


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [["reach", *GAUSS], ["table"], ["check", *GAUSS]])
    @pytest.mark.parametrize("fails", ["write", "flush"])
    def test_broken_pipe_exit_141(self, argv, fails, tmp_path, monkeypatch, capsys):
        # a reader that quit: the write (or the flush of buffered text)
        # raises; main exits 141 and points stdout's descriptor at devnull
        class Closed:
            def __init__(self, fh):
                self.fileno = fh.fileno
                self.buffer = self  # machine output goes to stdout's buffer as bytes

            def write(self, text):
                if fails == "write":
                    raise BrokenPipeError(32, "Broken pipe")
                return len(text)

            def flush(self):
                if fails == "flush":
                    raise BrokenPipeError(32, "Broken pipe")

        with open(tmp_path / "stdout", "wb") as fh:
            monkeypatch.setattr(sys, "stdout", Closed(fh))
            assert main(argv) == 141
            os.write(fh.fileno(), b"exit flush")
        assert (tmp_path / "stdout").read_bytes() == b""
        assert capsys.readouterr().err == ""


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rereading_embedded_config_reproduces_bytes(self, fmt, tmp_path, capsys):
        first = tmp_path / f"first.{fmt}"
        code, *_ = run(["eta", *GAUSS, "--R-grid", "0.1:0.5:5",
                        "--format", fmt, "--out", str(first)], capsys)
        assert code == 0
        text = first.read_text()
        if fmt == "csv":
            embedded = json.loads(text.splitlines()[0][len("# config = "):])
        else:
            embedded = json.loads(text)["config"]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(embedded))
        second = tmp_path / f"second.{fmt}"
        code, *_ = run(["eta", "--config", str(cfg_file), "--out", str(second)], capsys)
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_infinite_setting_header_is_strict_json(self, tmp_path, capsys):
        first = tmp_path / "first.csv"
        assert run(["eta", *GAUSS, "--R", "inf", "--out", str(first)], capsys)[0] == 0
        text = first.read_text()

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")
        embedded = json.loads(text.splitlines()[0][len("# config = "):], parse_constant=reject)
        assert embedded["R"] == "inf"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(embedded))
        second = tmp_path / "second.csv"
        assert run(["eta", "--config", str(cfg_file), "--out", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seventeen_digit_rendering(self, tmp_path, capsys):
        out = tmp_path / "eta.csv"
        run(["eta", *GAUSS, "--R", "0.1", "--out", str(out)], capsys)
        row = out.read_text().strip().splitlines()[-1]
        val = row.split(",")[1]
        # round-trips exactly through text
        assert format(float(val), ".17g") == val


class TestReadmeCommands:
    def test_cli_cpu_script_runs_the_readme_commands(self):
        # the CI step times scripts/cli_cpu.py's commands, so they must stay
        # the README's command-line examples (then three oscillatory eta runs,
        # the last at n = 1000, LaguerreGauss moments at m = 60, a dense
        # LaguerreGauss eta curve at n = 1000, a BesselType curve at
        # sigma = 1e5, a single IndicatorSpectral cut, a WhittleMatern
        # sample at n = 3, the README's Cauchy sample as JSON, a WhittleMatern
        # eta curve and a LaguerreGauss sample to stdout)
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("cli_cpu", root / "scripts" / "cli_cpu.py")
        cli_cpu = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cli_cpu)
        block = (root / "README.md").read_text().split("```sh\ndpp-repulsion ", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        readme = [re.sub(r"--out (\S+)", r"--out {out}/\1", " ".join(line.split()[1:]))
                  for line in ("dpp-repulsion " + block).splitlines()]
        commands = [" ".join(command.split()) for _, command in cli_cpu.COMMANDS]
        assert commands[:len(readme)] == readme
        assert [c.split()[:3] for c in commands[len(readme):]] == [
            ["eta", "--family", "BesselType"], ["eta", "--family", "IndicatorSpectral"],
            ["eta", "--family", "BesselType"], ["moments", "--family", "LaguerreGauss"],
            ["eta", "--family", "LaguerreGauss"], ["eta", "--family", "BesselType"],
            ["eta", "--family", "IndicatorSpectral"], ["sample", "--family", "WhittleMatern"],
            ["sample", "--family", "Cauchy"], ["eta", "--family", "WhittleMatern"],
            ["sample", "--family", "LaguerreGauss"]]
