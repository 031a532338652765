import json
import math

import pytest
from pytest import approx

from dpp_repulsion.cli import main
from dpp_repulsion.kernels import Family, KernelSpec
from dpp_repulsion.oracle import sample_radius

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
