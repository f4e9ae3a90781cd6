import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import scarf.oracle
from scarf import NumericError, PotentialParams, run_verification
from scarf.cli import format_float, json_dumps, main


# Runs the CLI with scarf.verify's node-count probe replaced by one that
# raises NumericError, so the probe-error path has a trigger.
_FAILING_NODE_PROBE = """
import sys
import scarf.verify
from scarf.cli import main
from scarf.errors import NumericError

def count_nodes(wf):
    raise NumericError("node count not resolved")

scarf.verify.count_nodes = count_nodes
main(sys.argv[1:])
"""


def _raise_numeric_error(wf):
    raise NumericError("node count not resolved")


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestSerialization:
    def test_float_format_fixed_17_digits(self):
        assert format_float(30.842513753404244) == "30.842513753404244"
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(2.0) == "2"
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_json_round_trips(self):
        payload = {"a": 1, "b": [0.1, True, None], "c": {"d": "x"}, "e": [], "f": {}}
        text = json_dumps(payload)
        assert json.loads(text) == {"a": 1, "b": [0.1, True, None],
                                    "c": {"d": "x"}, "e": [], "f": {}}

    def test_only_python_scalars_serialize(self):
        # np.float64 is a float; other numpy scalars are not Python scalars
        assert json_dumps(np.float64(0.1)) == "0.10000000000000001"
        for obj in (object(), np.int64(1)):
            with pytest.raises(TypeError, match="cannot serialize"):
                json_dumps(obj)


class TestSpectrumCommand:
    def test_bound_json(self, runner):
        result = invoke(runner, ["spectrum", "--s", "2", "--n-max", "2",
                                 "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["regime"] == "bound_states"
        assert [lv["energy"] for lv in payload["levels"]] == pytest.approx(
            [30.8425138, 60.4513270, 99.9297446], abs=5e-7)
        assert all(lv["edge"] is None for lv in payload["levels"])

    def test_band_json_has_widths_and_gaps(self, runner):
        result = invoke(runner, ["spectrum", "--s", "0.4", "--n-max", "1"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        energies = sorted(lv["energy"] for lv in payload["levels"])
        assert energies == pytest.approx(
            [0.04934802, 3.99718978, 5.97111066, 17.81463594], abs=5e-7)
        assert len(payload["bands"]["widths"]) == 2
        assert len(payload["bands"]["gaps"]) == 1

    def test_free_particle_gap_is_zero(self, runner):
        result = invoke(runner, ["spectrum", "--s", "0.5", "--n-max", "1"])
        payload = json.loads(result.output)
        assert payload["regime"] == "free_particle"
        assert payload["bands"]["gaps"][0]["gap"] == 0.0

    def test_csv_format(self, runner):
        result = invoke(runner, ["spectrum", "--s", "2", "--n-max", "1",
                                 "--format", "csv"])
        lines = result.output.split("\n")
        assert lines[0] == "n,edge,lambda,energy,nu1,nu2"
        assert len(lines) == 4 and lines[3] == ""  # 2 rows + trailing LF
        assert lines[1].startswith("0,,2.5,30.842513753404244,")

    def test_parameters_outside_float_range_exit_2(self, runner):
        # at m = 1e-306 v0 and the energy unit are finite, E_12 is not
        for m in ("1e-320", "1e-306"):
            result = runner.invoke(main, ["spectrum", "--s", "2", "--m", m,
                                          "--n-max", "12", "--format", "csv"])
            assert result.exit_code == 2
            assert result.stdout == ""

    def test_invalid_s_exits_2(self, runner):
        for bad in ("-1", "0", "nan"):
            result = invoke(runner, ["spectrum", "--s", bad])
            assert result.exit_code == 2

    def test_missing_s_exits_2(self, runner):
        result = invoke(runner, ["spectrum"])
        assert result.exit_code == 2
        assert "Missing option '--s'" in result.stderr

    def test_unwritable_out_exits_3(self, runner):
        result = invoke(runner, ["spectrum", "--s", "2",
                                 "--out", "/nonexistent-dir/x.json"])
        assert result.exit_code == 3

    def test_bands_alias_requires_band_regime(self, runner):
        assert invoke(runner, ["bands", "--s", "2"]).exit_code == 2
        result = invoke(runner, ["bands", "--s", "0.4", "--n-max", "0"])
        assert result.exit_code == 0
        assert json.loads(result.output)["regime"] == "bands"

    def test_config_file_precedence(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"s": 2.0, "n_max": 2}))
        result = invoke(runner, ["spectrum", "--config", str(cfg)])
        assert len(json.loads(result.output)["levels"]) == 3
        # explicit flag beats the config file
        result = invoke(runner, ["spectrum", "--config", str(cfg), "--n-max", "0"])
        assert len(json.loads(result.output)["levels"]) == 1

    def test_malformed_config_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"s": 2.0,')
        result = runner.invoke(main, ["spectrum", "--config", str(cfg)])
        assert result.exit_code == 2 and "malformed config" in result.stderr

    def test_unknown_config_key_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"s": 2.0, "bogus": 1}))
        assert invoke(runner, ["spectrum", "--config", str(cfg)]).exit_code == 2

    def test_config_values_are_type_checked(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        for bad in ([2.0], {"s": "two"}, {"s": 2.0, "format": "xml"},
                    {"s": 2.0, "n_max": 2.5}):
            cfg.write_text(json.dumps(bad))
            assert invoke(runner, ["spectrum", "--config", str(cfg)]).exit_code == 2
        cfg.write_text(json.dumps({"s": "2"}))  # converted as the flag would be
        assert (invoke(runner, ["spectrum", "--config", str(cfg)]).output
                == invoke(runner, ["spectrum", "--s", "2"]).output)

    def test_config_precedence_for_renamed_params(self, runner, tmp_path):
        # --n maps to a renamed click parameter; the flag must still win
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"s": 2.0, "n": 0}))
        result = invoke(runner, ["wavefunction", "--config", str(cfg),
                                 "--n", "1", "--samples", "16"])
        assert json.loads(result.output)["levels"][0]["n"] == 1

    def test_config_keys_are_the_flag_names(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        out = tmp_path / "out.json"

        def run(command, values, *flags):
            cfg.write_text(json.dumps(values))
            return invoke(runner, [command, "--config", str(cfg), *flags])

        result = run("table1", {"s": 0.4, "lambda": 0.9})
        assert json.loads(result.output)["lambda"] == 0.9
        result = run("wavefunction", {"s": 0.4, "n": 1, "edge": "upper"}, "--samples", "16")
        level = json.loads(result.output)["levels"][0]
        assert (level["n"], level["edge"]) == (1, "upper")
        result = run("spectrum", {"s": 2.0, "out": str(out)})
        assert result.output == "" and json.loads(out.read_text())["regime"] == "bound_states"
        result = run("spectrum", {"s": 2.0, "format": "csv"})
        assert result.output.startswith("n,edge,lambda,energy,")

    def test_null_config_value_is_an_absent_key(self, runner, tmp_path):
        # tol and samples ended in a TypeError traceback (exit 1), and a
        # null format wrote CSV
        cfg = tmp_path / "run.json"

        def run(command, values):
            cfg.write_text(json.dumps(values))
            return invoke(runner, [command, "--config", str(cfg)])

        assert run("verify", {"s": 2, "n_max": 0, "tol": None}).exit_code == 0
        assert run("wavefunction", {"s": 0.4, "edge": "lower", "samples": None}).exit_code == 0
        json.loads(run("spectrum", {"s": 2, "format": None}).stdout)
        assert (run("spectrum", {"s": 2, "n_max": None}).stdout
                == invoke(runner, ["spectrum", "--s", "2"]).stdout)
        result = run("spectrum", {"s": None})
        assert result.exit_code == 2
        assert "Missing option '--s'" in result.stderr

    @pytest.mark.parametrize("key", ["config", "config_path", "out_path", "fmt",
                                     "level_n", "lam"])
    def test_parameter_names_other_than_flags_are_unknown_keys(self, runner, tmp_path, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"s": 0.4, "lambda": 0.9, key: 1}))
        result = runner.invoke(main, ["table1", "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"unknown config key {key!r}" in result.stderr
        assert result.stdout == ""


class TestWavefunctionCommand:
    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "psi.csv"
        result = invoke(runner, ["wavefunction", "--s", "2", "--n", "0",
                                 "--samples", "512", "--format", "csv",
                                 "--out", str(out)])
        assert result.exit_code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw  # LF only
        lines = raw.decode().splitlines()
        assert lines[0] == "x,V,psi,psi_squared"
        assert len(lines) == 513
        psis = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(p > 0 for p in psis)  # nodeless ground state
        assert max(psis) == pytest.approx(psis[255], rel=1e-3)

    def test_odd_state_changes_sign_at_midpoint(self, runner):
        result = invoke(runner, ["wavefunction", "--s", "0.4", "--n", "1",
                                 "--edge", "lower", "--samples", "64",
                                 "--format", "csv"])
        rows = result.output.splitlines()[1:]
        psis = [float(r.split(",")[2]) for r in rows]
        assert psis[0] * psis[-1] < 0

    def test_two_interior_sign_changes_for_n2(self, runner):
        result = invoke(runner, ["wavefunction", "--s", "2", "--n", "2",
                                 "--samples", "256", "--format", "csv"])
        psis = [float(r.split(",")[2]) for r in result.output.splitlines()[1:]]
        flips = sum(1 for p, q in zip(psis, psis[1:]) if p * q < 0)
        assert flips == 2

    def test_band_needs_edge(self, runner):
        assert invoke(runner, ["wavefunction", "--s", "0.4", "--n", "0"]).exit_code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_potential_exits_2(self, fmt):
        # V overflows near the walls at m = 1e-305: both formats write
        # nothing and exit 2 with one error line and no numpy warning
        cmd = [sys.executable, "-m", "scarf.cli", "wavefunction", "--s", "2",
               "--m", "1e-305", "--samples", "64", "--format", fmt]
        run = subprocess.run(cmd, capture_output=True)
        assert run.returncode == 2
        assert run.stdout == b""
        lines = run.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert "not finite" in lines[0]

    def test_json_samples(self, runner):
        result = invoke(runner, ["wavefunction", "--s", "0.4", "--n", "0",
                                 "--edge", "upper", "--samples", "16"])
        payload = json.loads(result.output)
        assert len(payload["samples"]["x"]) == 16
        assert payload["levels"][0]["edge"] == "upper"


class TestVerifyCommand:
    def test_bound_all_pass(self, runner):
        result = invoke(runner, ["verify", "--s", "2", "--n-max", "1",
                                 "--oracle", "both", "--tol", "1e-8"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["summary"]["all_pass"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "oracle_shooting_rel_err" in names
        assert "oracle_fd_rel_err" in names
        assert "residue_sum_rule_defect" in names

    def test_band_shooting(self, runner):
        result = invoke(runner, ["verify", "--s", "0.4", "--n-max", "0",
                                 "--oracle", "shooting"])
        assert result.exit_code == 0

    def test_unreachable_tolerance_exits_1(self, runner):
        result = invoke(runner, ["verify", "--s", "0.4", "--n-max", "1",
                                 "--oracle", "shooting", "--tol", "1e-15"])
        assert result.exit_code == 1
        payload = json.loads(result.stdout)  # report still written, data only
        failing = [c for c in payload["checks"] if not c["pass"]]
        assert failing and all("value" in c for c in failing)
        assert "FAILED" in result.stderr

    def test_underflowing_level_is_an_error_not_a_skip(self, runner):
        # the n = 0 lower edge has lambda = 1e-11 and E = 0.0: it was skipped
        # as the s = 1/2 fold, and the report passed on the other lines
        args = ["--s", "0.49999999999", "--a", "10389", "--m", "7.403817524776147e+299"]
        with pytest.raises(ValueError, match="leaves the float range"):
            run_verification(PotentialParams(*map(float, args[1::2])), 0)
        result = runner.invoke(main, ["verify", *args, "--n-max", "0"])
        assert result.exit_code == 2 and result.stdout == ""
        assert "level (n=0, lower)" in result.stderr

    def test_unknown_oracle_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown oracle kind 'x'"):
            run_verification(PotentialParams(s=2.0), 0, oracle="x")

    def test_non_finite_tol_exits_2(self, runner):
        for bad in ("inf", "nan"):
            for fmt in ("json", "csv"):
                result = runner.invoke(main, ["verify", "--s", "2", "--n-max", "0",
                                              "--tol", bad, "--format", fmt])
                assert result.exit_code == 2, (bad, fmt, result.output)
                assert result.stdout == ""
        with pytest.raises(ValueError):
            run_verification(PotentialParams(s=2.0), 0, tol=math.inf)

    def test_numpy_level_count(self):
        params = PotentialParams(s=2.0)
        assert run_verification(params, np.int64(1)) == run_verification(params, 1)

    @pytest.mark.parametrize("n_max", [-1, 2.5, True, None, "2"])
    def test_rejects_bad_n_max_as_spectrum_lines_does(self, n_max):
        with pytest.raises(ValueError, match="level index must be a non-negative integer"):
            run_verification(PotentialParams(s=2.0), n_max)

    def test_fd_oracle_runs_in_band_regime(self, runner):
        result = invoke(runner, ["verify", "--s", "0.4", "--oracle", "fd"])
        assert result.exit_code == 0
        checks = json.loads(result.output)["checks"]
        edges = {(c["n"], c["edge"]) for c in checks if c["name"] == "oracle_fd_rel_err"}
        assert edges == {(n, edge) for n in range(3) for edge in ("lower", "upper")}

    def test_free_particle_regime(self, runner):
        result = invoke(runner, ["verify", "--s", "0.5", "--n-max", "1",
                                 "--oracle", "shooting"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["summary"]["all_pass"] is True

    @pytest.mark.parametrize("s", ["0.499999999", "0.4999999999"])
    def test_lowest_edge_near_free_particle(self, runner, s):
        # the n = 0 lower edge, lambda^2 = (1/2 - s)^2, once failed
        # oracle_shooting_match_count here, when a blind scan from E = 0
        # never bracketed it; its certificate window straddles E = 0
        result = invoke(runner, ["verify", "--s", s, "--n-max", "0"])
        assert result.exit_code == 0, result.stderr
        checks = json.loads(result.stdout)["checks"]
        assert all(c["pass"] for c in checks)
        assert {(c["n"], c["edge"]) for c in checks
                if c["name"] == "oracle_shooting_rel_err"} == {(0, "lower"), (0, "upper")}

    @pytest.mark.parametrize("s", ["1e4", "1e5"])
    def test_boundary_exponent_at_large_coupling(self, runner, s):
        # boundary_exponent_defect read 0.002 and 0.02 against 1e-3 here
        result = invoke(runner, ["verify", "--s", s, "--n-max", "0", "--oracle", "fd"])
        assert result.exit_code == 0, result.stderr

    def test_probe_error_is_a_failing_check(self):
        # a probe that raises must not stop the report: it is written, with
        # the failure as a check entry
        cmd = [sys.executable, "-c", _FAILING_NODE_PROBE, "verify", "--s", "8",
               "--n-max", "0", "--oracle", "fd"]
        run = subprocess.run(cmd, capture_output=True)
        assert run.returncode == 1
        payload = json.loads(run.stdout)
        errors = [c for c in payload["checks"] if c["name"] == "probe_error"]
        assert len(errors) == 1
        assert errors[0]["pass"] is False and math.isfinite(errors[0]["value"])
        assert payload["summary"]["all_pass"] is False
        assert b"NumericError" in run.stderr
        assert b"Traceback" not in run.stderr

    def test_large_coupling_passes(self, runner):
        # the sin^(s+1/2) tails of s = 8 leave every probe resolvable
        result = invoke(runner, ["verify", "--s", "8", "--n-max", "2"])
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.stdout)["summary"]["all_pass"] is True

    @pytest.mark.parametrize("s, a, m", [
        ("2", "1e100", "1"), ("2", "1e-100", "1"), ("0.4", "1e-100", "1"),
        ("0.4", "1e100", "1e-30"),
    ])
    def test_extreme_scales_pass(self, runner, s, a, m):
        # the oracles solve for lambda^2, so a and m only set the unit
        result = invoke(runner, ["verify", "--s", s, "--a", a, "--m", m, "--n-max", "2"])
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.stdout)["summary"]["all_pass"] is True

    @pytest.mark.parametrize("scale", [
        ["--a", "1e-140"], ["--a", "1e140"], ["--a", "1e150", "--m", "1e-300"],
    ])
    def test_probes_see_only_s(self, scale):
        # the structure probes work in z = pi x / a; in x, psi'' ~ (pi / a)^2
        # overflowed, divided by zero or underflowed at these scales
        cmd = [sys.executable, "-m", "scarf.cli", "verify", "--s", "2", "--n-max", "1", *scale]
        run = subprocess.run(cmd, capture_output=True)
        assert (run.returncode, run.stderr) == (0, b"")

    def test_csv_report(self, runner):
        result = invoke(runner, ["verify", "--s", "2", "--n-max", "0",
                                 "--oracle", "shooting", "--format", "csv"])
        assert result.exit_code == 0
        header = result.output.splitlines()[0]
        assert header == "n,edge,name,value,threshold,pass,observed"

    def test_csv_floats_parse(self, runner):
        # every cell, the collocation entry's included, must read as a number
        result = invoke(runner, ["verify", "--s", "2", "--n-max", "0",
                                 "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert "oracle_fd_rel_err" in {row["name"] for row in rows}
        for row in rows:
            float(row["value"])
            float(row["threshold"])
            if row["observed"]:
                float(row["observed"])

    def test_report_carries_observed_quantities(self, runner):
        result = invoke(runner, ["verify", "--s", "2", "--n-max", "0",
                                 "--oracle", "both"])
        checks = {c["name"]: c for c in json.loads(result.output)["checks"]}
        assert checks["oracle_shooting_rel_err"]["observed"] == pytest.approx(
            30.8425138, abs=5e-8)
        assert checks["oracle_fd_rel_err"]["observed"] == pytest.approx(
            30.8425138, abs=5e-8)
        assert checks["node_count_defect"]["observed"] == 0.0
        assert checks["boundary_exponent_defect"]["observed"] == pytest.approx(
            2.5, abs=1e-3)
        assert checks["b1_vs_closed_form"]["observed"] == pytest.approx(-0.75)


class TestTable1Command:
    def test_lambda_09(self, runner):
        result = invoke(runner, ["table1", "--s", "0.4", "--lambda", "0.9"])
        payload = json.loads(result.output)
        sets = {row["set"]: row for row in payload["sets"]}
        assert len(sets) == 4
        assert sets[1]["valid"] is True and sets[1]["n"] == pytest.approx(0.0, abs=1e-12)
        assert sets[2]["valid"] is False and sets[2]["n"] == pytest.approx(0.8)
        assert sets[3]["valid"] is False and sets[4]["valid"] is False
        assert "not valid" in sets[3]["remark"]

    def test_lambda_01(self, runner):
        payload = json.loads(invoke(
            runner, ["table1", "--s", "0.4", "--lambda", "0.1"]).output)
        valid = [row for row in payload["sets"] if row["valid"]]
        assert len(valid) == 1 and valid[0]["set"] == 2

    def test_bound_two_rows(self, runner):
        payload = json.loads(invoke(
            runner, ["table1", "--s", "2", "--lambda", "2.5"]).output)
        assert len(payload["sets"]) == 2
        assert sum(row["valid"] for row in payload["sets"]) == 1

    def test_lambda_from_level(self, runner):
        payload = json.loads(invoke(
            runner, ["table1", "--s", "0.4", "--n", "1", "--edge", "upper"]).output)
        assert payload["lambda"] == pytest.approx(1.9)

    def test_degenerate_s_exits_2(self, runner):
        assert invoke(runner, ["table1", "--s", "0.5", "--lambda", "1"]).exit_code == 2

    def test_neither_lambda_nor_n_exits_2(self, runner):
        result = runner.invoke(main, ["table1", "--s", "0.4"])
        assert result.exit_code == 2 and "give --lambda or --n" in result.stderr


class TestLogging:
    def test_diagnostics_go_to_stderr_only(self):
        import os
        cmd = [sys.executable, "-m", "scarf.cli", "spectrum", "--s", "2",
               "--n-max", "1"]
        env = dict(os.environ, SCARF_LOG="info")
        run = subprocess.run(cmd, capture_output=True, check=True, env=env)
        json.loads(run.stdout)  # data stream stays clean
        assert b"spectrum: s=2" in run.stderr

    def test_each_invocation_logs_to_its_stderr(self, monkeypatch):
        monkeypatch.setattr("scarf.verify.count_nodes", _raise_numeric_error)
        args = ["verify", "--s", "8", "--n-max", "0", "--oracle", "fd"]
        for _ in range(2):
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 1
            assert "NumericError" in result.stderr

    def test_quiet_by_default(self, runner):
        result = invoke(runner, ["spectrum", "--s", "2", "--n-max", "0"])
        assert result.stderr == ""


class TestDeterminism:
    def test_spectrum_byte_identical(self, runner):
        args = ["spectrum", "--s", "0.4", "--n-max", "3", "--format", "json"]
        assert invoke(runner, args).output == invoke(runner, args).output

    def test_verify_byte_identical_subprocess(self):
        # full process isolation, the strongest reproducibility claim
        cmd = [sys.executable, "-m", "scarf.cli", "verify", "--s", "2",
               "--n-max", "1", "--oracle", "both", "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.strip()


class TestOutputBytes:
    """SHA-256 of stdout for commands whose output comes from Python float
    arithmetic alone, so the digests hold on any numpy build.  Any change to
    these bytes is a change to the CLI's reports."""

    DIGESTS = {
        "spectrum --s 2":
            "c58c6e966fd2fa4f078f1d3b6216da78205b2369431f0e611dfaf9eb69db0100",
        "spectrum --s 2 --format csv":
            "732662f68f53c03ef2527b88316e2c3f9f04442a8dc63ebe86a945c51baeb823",
        "spectrum --s 0.4":
            "6c6383f516e993207d4cc3c0d539bdd7ac50f610d2bca83cbe661143c9893555",
        "spectrum --s 0.4 --format csv":
            "caac4d5dd264ecde69b006a51e5d18915c3ce49200d872e67eadb8575246a363",
        "spectrum --s 0.5":
            "94662259a83ff6be08b28cd38d86c5f49cfec806c68915be7d2f8445a385e901",
        "spectrum --s 0.5 --format csv":
            "206b5aab2fbe70b14f56b01795b4528db7623e650f071e5fadbf9aabcb21829f",
        "bands --s 0.4 --format csv":
            "caac4d5dd264ecde69b006a51e5d18915c3ce49200d872e67eadb8575246a363",
        "table1 --s 0.4 --lambda 0.9":
            "08ddad0d66aea5a6863facfd8fd38c211aa5300d44a31997dc549d9794bf0028",
        "table1 --s 0.4 --lambda 0.9 --format csv":
            "2c50b50a922c4dcc450f86ab0a490eac18ac7575592c9ca4228f28842b5ba232",
    }

    @pytest.mark.parametrize("args", list(DIGESTS))
    def test_stdout_digest(self, runner, args):
        result = invoke(runner, args.split())
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == self.DIGESTS[args]


class TestNoTracebacks:
    """Every input ends in a report (exit 0, or 1 when verify finds failing
    checks) or a typed error (exit 2)."""

    COUPLINGS = st.one_of(
        st.sampled_from([0.5, 0.0, -1.0, float("nan"), float("inf"), 2.0, 0.4]),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=-1.0, max_value=1e300),
    )
    EDGES = st.sampled_from([None, "lower", "upper"])
    SCALES = st.one_of(
        st.sampled_from([1.0, 0.0, -1.0, float("nan"), float("inf"),
                         1e-320, 1e-306, 1e200]),
        st.floats(min_value=1e-320, max_value=1e300),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    LEVEL_COMMANDS = st.sampled_from(["spectrum", "bands", "wavefunction", "table1"])
    VALID_COUPLINGS = st.one_of(st.sampled_from([2.0, 0.4, 0.5]),
                                st.floats(0.05, 0.45), st.floats(0.55, 10.0))
    VALID_SCALES = st.floats(0.1, 10.0)

    @staticmethod
    def check(args, codes=(0, 2)):
        result = CliRunner().invoke(main, args)
        assert result.exit_code in codes, (args, result.output, result.exception)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        return result

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command=LEVEL_COMMANDS, s=COUPLINGS, n=st.integers(0, 12), edge=EDGES,
           fmt=st.sampled_from(["json", "csv"]))
    def test_level_commands(self, command, s, n, edge, fmt):
        args = [command, f"--s={s!r}", "--format", fmt]
        if command in ("spectrum", "bands"):
            args += ["--n-max", str(n)]
        else:
            args += ["--n", str(n)]
            if edge is not None:
                args += ["--edge", edge]
            if command == "wavefunction":
                args += ["--samples", "64"]
        self.check(args)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command=LEVEL_COMMANDS, s=st.sampled_from([2.0, 0.4, 0.5]),
           a=SCALES, m=SCALES, n=st.integers(0, 12), fmt=st.sampled_from(["json", "csv"]))
    def test_scales(self, command, s, a, m, n, fmt):
        scale = [f"--s={s!r}", f"--a={a!r}", f"--m={m!r}", "--format", fmt]
        args = [command, *scale]
        args += ["--n-max" if command in ("spectrum", "bands") else "--n", str(n)]
        if command in ("wavefunction", "table1") and s <= 0.5:
            args += ["--edge", "lower"]
        self.check(args)
        self.check(["verify", *scale, "--oracle", "fd", "--n-max", str(n % 3)], (0, 1, 2))

    CONFIG_KEYS = ["s", "a", "m", "format", "n_max", "n", "edge", "samples", "tol"]

    def check_config(self, command, cfg, nulls, codes=(0, 2)):
        cfg.update(dict.fromkeys(nulls & cfg.keys(), None))
        with CliRunner().isolated_filesystem():
            with open("cfg.json", "w") as fh:
                json.dump(cfg, fh)  # nan and inf as NaN and Infinity
            return self.check([command, "--config", "cfg.json"], codes)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command=LEVEL_COMMANDS, s=VALID_COUPLINGS, a=VALID_SCALES, m=VALID_SCALES,
           n=st.integers(0, 12), edge=EDGES, fmt=st.sampled_from(["json", "csv"]),
           nulls=st.sets(st.sampled_from(CONFIG_KEYS), max_size=2),
           wild=st.sampled_from([None, None, None, "s", "a", "m", "edge"]),
           wild_value=st.one_of(COUPLINGS, SCALES))
    def test_config_file(self, command, s, a, m, n, edge, fmt, nulls, wild, wild_value):
        # s, a, m and the edge are valid unless wild names one of them, which
        # then takes any value, so most examples run the command
        cfg = {"s": s, "a": a, "m": m, "format": fmt}
        if command in ("spectrum", "bands"):
            cfg["n_max"] = n
        else:
            cfg.update(n=n, edge="lower" if s <= 0.5 else None)
        if wild == "edge":
            cfg["edge"] = edge
        elif wild is not None:
            cfg[wild] = wild_value
        if command == "wavefunction":
            cfg["samples"] = 64
        event(f"exit {self.check_config(command, cfg, nulls).exit_code}")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(s=st.sampled_from([2.0, 0.4, 0.5]), a=SCALES, m=SCALES, n_max=st.integers(0, 1),
           tol=st.floats(allow_nan=True, allow_infinity=True),
           fmt=st.sampled_from(["json", "csv"]), nulls=st.sets(st.sampled_from(CONFIG_KEYS)))
    def test_verify_config_file(self, s, a, m, n_max, tol, fmt, nulls):
        cfg = {"s": s, "a": a, "m": m, "format": fmt, "n_max": n_max, "oracle": "fd",
               "tol": tol}
        self.check_config("verify", cfg, nulls, (0, 1, 2))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(s=st.one_of(st.floats(0.05, 10.0), st.sampled_from([0.499999999, 0.5])),
           n_max=st.integers(0, 1),
           tol=st.one_of(st.just(1e-300), st.floats(allow_nan=True, allow_infinity=True)),
           nan_shot=st.booleans())
    @example(s=2.0, n_max=0, tol=1e-8, nan_shot=True)
    def test_verify_shooting(self, s, n_max, tol, nan_shot):
        # shooting verify ends in a report or a typed error; a shot that
        # reads NaN certifies no level and fails its match count
        args = ["verify", f"--s={s!r}", "--n-max", str(n_max), "--oracle", "shooting",
                f"--tol={tol!r}"]
        nan = mock.patch.object(scarf.oracle, "shoot", lambda params, energy, cfg: math.nan)
        with nan if nan_shot else contextlib.nullcontext():
            result = self.check(args, (0, 1, 2))
        if nan_shot and result.exit_code != 2:
            names = {c["name"]: c["pass"] for c in json.loads(result.stdout)["checks"]
                     if c["name"].startswith("oracle")}
            assert names == {"oracle_shooting_match_count": False}

    @settings(max_examples=60, deadline=None)
    @given(s=COUPLINGS, lam=st.floats(allow_nan=True, allow_infinity=True))
    def test_table1_lambda(self, s, lam):
        self.check(["table1", f"--s={s!r}", f"--lambda={lam!r}"])

    @pytest.mark.parametrize("n_max", [0, 1])
    @pytest.mark.parametrize("s, a, m", [
        ("0.05", "1", "1"), ("0.23", "1", "1"), ("0.4999", "1", "1"),
        ("0.5", "1", "1"), ("0.5001", "1", "1"), ("8", "1", "1"), ("12", "1", "1"),
        ("2.37", "2.5", "0.7"),
    ])
    def test_verify(self, s, a, m, n_max):
        args = ["verify", "--s", s, "--a", a, "--m", m, "--n-max", str(n_max)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code in (0, 1, 2), (args, result.output, result.exception)
        assert result.exception is None or isinstance(result.exception, SystemExit)
