import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

from dpp_repulsion import oracle
from dpp_repulsion.cli import main
from dpp_repulsion.kernels import Family, KernelSpec
from dpp_repulsion.oracle import sample_radius
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

    def test_non_laguerre_exit_three(self, capsys):
        code, *_ = run(["rate", "--family", "Cauchy", "--n", "5", "--nu", "1",
                        "--alpha", "0.15", "--alpha-rule", "scaled", "--R", "0.1"],
                       capsys)
        assert code == 3


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
        args = ["sample", *GAUSS, "--samples", "64", "--seed", "5"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run([*args, "--out", str(f1)], capsys)[0] == 0
        assert run([*args, "--out", str(f2)], capsys)[0] == 0
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
        # the README's command-line examples (then two oscillatory eta runs)
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
            ["eta", "--family", "BesselType"], ["eta", "--family", "IndicatorSpectral"]]
