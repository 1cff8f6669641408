"""Tests for the command-line interface: formats, determinism, exit codes."""

import json
import math
import sys
from pathlib import Path

import pytest

from rydgate.cli import COMPARE_HEADER, SWEEP_HEADER, main, run
from rydgate.protocols import GeometricProtocolParams
from rydgate.robustness import NoiseModel, monte_carlo_fidelity

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_geometric_reference_point(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "protocol",
            "phases",
            "controlled_phase_wrapped",
            "controlled_phase_unwrapped",
            "leakage_max",
            "fidelity",
            "gate_time",
            "gate_time_omega_over_pi",
            "pulse_area",
            "rydberg_time",
        }
        assert abs(payload["controlled_phase_wrapped"]) == pytest.approx(math.pi, abs=0.05)
        assert payload["gate_time_omega_over_pi"] == pytest.approx(3.9549, abs=1e-3)
        assert set(payload["phases"]) == {"phi_00", "phi_01", "phi_10", "phi_11"}

    def test_blockade_gate_time(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--protocol", "blockade", "--omega", "1", "--v", "100"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gate_time"] == pytest.approx(4 * math.pi, rel=1e-12)
        assert payload["fidelity"] > 0.99998

    def test_zero_omega_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--protocol", "geometric", "--kappa", "1.65", "--omega", "0"
        )
        assert code == 2
        assert out == ""
        assert "omega" in err

    def test_missing_protocol_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--kappa", "1.65", "--omega", "1")
        assert code == 2
        assert "protocol" in err

    def test_geometric_accepts_v_instead_of_omega(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--protocol", "geometric", "--kappa", "1.65", "--v", "1"
        )
        assert code == 0
        assert json.loads(out)["gate_time"] > 0


class TestSweep:
    def test_csv_shape_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--kappa-min", "1.0", "--kappa-max", "2.0", "--n", "5"
        )
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == SWEEP_HEADER
        assert lines[-1] == ""
        assert len(lines) == 7  # header + 5 rows + trailing newline
        assert "\r" not in out

    def test_two_point_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--kappa-min", "0.5", "--kappa-max", "0.6", "--n", "2"
        )
        rows = [line for line in out.strip().split("\n")[1:]]
        assert len(rows) == 2

    def test_values_round_trip_at_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--kappa-min", "1.6", "--kappa-max", "1.7", "--n", "3"
        )
        for line in out.strip().split("\n")[1:]:
            for field in line.split(","):
                assert format(float(field), ".12g") == field

    def test_row_near_reference_point(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--kappa-min", "1.6", "--kappa-max", "1.7", "--n", "3"
        )
        row = out.strip().split("\n")[2].split(",")
        assert float(row[0]) == pytest.approx(1.65)
        assert float(row[2]) == pytest.approx(3.9549, abs=1e-3)
        assert abs(float(row[3])) == pytest.approx(math.pi, abs=0.05)

    def test_fast_point_row(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--kappa-min", "0.100", "--kappa-max", "0.188", "--n", "3"
        )
        row = out.strip().split("\n")[2].split(",")
        assert float(row[0]) == pytest.approx(0.144)
        assert float(row[2]) < 2.0

    def test_unallocatable_count_exits_two(self, capsys):
        # 10**15 points of 8 B is 7 PiB, beyond any address space: the allocation fails at once.
        code, out, err = run_cli(
            capsys, "sweep", "--kappa-min", "0.2", "--kappa-max", "2.5", "--n", "1000000000000000"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_invalid_range_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--kappa-min", "2.0", "--kappa-max", "1.0", "--n", "5"
        )
        assert code == 2
        assert err != ""


class TestCalibrate:
    def test_cz_calibration(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "calibrate",
            "--target-phi",
            "-3.14159265358979",
            "--bracket",
            "1.0",
            "2.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert 1.60 <= payload["kappa_star"] <= 1.70
        assert abs(payload["report"]["controlled_phase_wrapped"]) == pytest.approx(
            math.pi, abs=1e-6
        )

    def test_non_convergent_bracket_exits_three(self, capsys):
        code, out, err = run_cli(
            capsys,
            "calibrate",
            "--target-phi",
            "-3.14159265358979",
            "--bracket",
            "2.5",
            "3.0",
        )
        assert code == 3
        assert out == ""
        assert "kappa,phi_c_wrapped_rad" in err
        assert len(err.strip().split("\n")) > 100


class TestCompare:
    def test_table_contents(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--omega",
            "1",
            "--kappa",
            "1.65",
            "--blockade-v",
            "100",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == COMPARE_HEADER
        blockade = dict(zip(COMPARE_HEADER.split(","), lines[1].split(",")))
        geometric = dict(zip(COMPARE_HEADER.split(","), lines[2].split(",")))
        assert blockade["protocol"] == "blockade"
        assert geometric["protocol"] == "geometric"
        assert float(blockade["gate_time_omega_over_pi"]) == pytest.approx(4.0, rel=1e-11)
        assert float(geometric["gate_time_omega_over_pi"]) == pytest.approx(3.9549, abs=1e-3)
        assert float(blockade["pulse_area_rad"]) == pytest.approx(4 * math.pi, rel=1e-11)


class TestRobustnessCommand:
    def test_seed_echoed_and_deterministic(self, capsys):
        argv = (
            "robustness",
            "--protocol",
            "geometric",
            "--kappa",
            "1.65",
            "--omega",
            "1",
            "--sigma-omega-rel",
            "0.01",
            "--seed",
            "42",
            "--samples",
            "50",
        )
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        assert payload["seed"] == 42
        assert payload["n_samples"] == 50
        assert set(payload["percentiles"]) == {"p1", "p5", "p50", "p95", "p99"}

    def test_geometric_gate_from_kappa_and_v(self, capsys):
        code, out, err = run_cli(
            capsys, "robustness", "--protocol", "geometric", "--kappa", "1.65", "--v", "1",
            "--sigma-omega-rel", "0.01", "--seed", "1", "--samples", "3",
        )
        assert (code, err) == (0, "")
        protocol = GeometricProtocolParams(kappa=1.65, v=1.0)
        noise = NoiseModel.for_interaction(v=1.0, r0=1.0, sigma_omega_rel=0.01, sigma_r_rel=0.0, seed=1)
        stats = monte_carlo_fidelity(protocol, noise, 3)
        payload = json.loads(out)
        assert payload["n_samples"] == 3
        assert payload["mean_fidelity"] == stats.mean_fidelity
        assert payload["std_fidelity"] == stats.std_fidelity
        assert list(payload["percentiles"].values()) == list(stats.percentiles)
        assert payload["mean_abs_phase_error"] == stats.mean_abs_phase_error

    def test_blockade_gate_still_needs_omega(self, capsys):
        code, out, err = run_cli(
            capsys, "robustness", "--protocol", "blockade", "--v", "100", "--seed", "1", "--samples", "3"
        )
        assert (code, out, err) == (2, "", "error: missing required option: omega\n")

    def test_oversized_sample_count_is_config_error(self, capsys, monkeypatch):
        # Rejected before the nominal gate is built or a draw is allocated.
        def no_work(*args):
            raise AssertionError("work started before the sample count was checked")

        monkeypatch.setattr("rydgate.robustness.protocol_sequence", no_work)
        monkeypatch.setattr("rydgate.robustness._noise_draws", no_work)
        code, out, err = run_cli(
            capsys, "robustness", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1",
            "--seed", "1", "--samples", "4294967296",
        )
        assert (code, out) == (2, "")
        assert err == "error: n_samples must be in [1, 2**32), got 4294967296\n"

    @pytest.mark.parametrize("flag", ["--sigma-omega-rel", "--sigma-r-rel"])
    def test_overflowing_spread_is_one_error_line(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "robustness", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1",
            flag, "1e308", "--seed", "1", "--samples", "200",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_missing_seed_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "robustness",
            "--protocol",
            "geometric",
            "--kappa",
            "1.65",
            "--omega",
            "1",
        )
        assert code == 2
        assert "seed" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "--protocol", "blockade", "--omega", "1"), "blockade protocol needs v"),
        (("robustness", "--protocol", "blockade", "--omega", "1", "--seed", "1"),
         "blockade protocol needs v"),
        (("simulate", "--protocol", "geometric", "--kappa", "1.65"),
         "geometric protocol needs omega or v"),
        (("simulate", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1", "--v", "1"),
         "give either omega or v for the geometric protocol, not both"),
        (("robustness", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1", "--v", "1",
          "--seed", "1", "--samples", "2"),
         "give either omega or v for the geometric protocol, not both"),
    ],
    ids=[
        "simulate-blockade-no-v",
        "robustness-blockade-no-v",
        "simulate-geometric-no-omega-or-v",
        "simulate-geometric-omega-and-v",
        "robustness-geometric-omega-and-v",
    ],
)
def test_inconsistent_protocol_options_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1",
         "--target-phi", "nan"),
        ("compare", "--omega", "1", "--kappa", "1.65", "--blockade-v", "100",
         "--target-phi", "inf"),
        ("calibrate", "--target-phi", "nan", "--bracket", "1.0", "2.5"),
        ("simulate", "--protocol", "blockade", "--omega", "1", "--v", "nan"),
        ("robustness", "--protocol", "blockade", "--omega", "1", "--v", "inf",
         "--seed", "1", "--samples", "2"),
        ("robustness", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1",
         "--sigma-r-rel", "inf", "--seed", "1", "--samples", "3"),
        ("robustness", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1",
         "--sigma-omega-rel", "nan", "--seed", "1", "--samples", "3"),
        ("calibrate", "--target-phi", "-3.14159265358979", "--bracket", "1.0", "2.5",
         "--seed-kappa", "nan"),
        ("sweep", "--kappa-min", "0.2", "--kappa-max", "inf", "--n", "3"),
        ("calibrate", "--target-phi", "-3.14159265358979", "--bracket", "1.0", "inf"),
    ],
    ids=[
        "simulate-target-nan",
        "compare-target-inf",
        "calibrate-target-nan",
        "simulate-blockade-v-nan",
        "robustness-blockade-v-inf",
        "robustness-sigma-r-inf",
        "robustness-sigma-omega-nan",
        "calibrate-seed-kappa-nan",
        "sweep-kappa-max-inf",
        "calibrate-bracket-inf",
    ],
)
def test_non_finite_value_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--protocol", "geometric", "--kappa", "1e-310", "--omega", "1"),
        ("simulate", "--protocol", "geometric", "--kappa", "1.65", "--v", "1e308"),
        ("simulate", "--protocol", "blockade", "--omega", "1", "--v", "1e308"),
        ("compare", "--omega", "1", "--kappa", "1e-310", "--blockade-v", "100"),
        ("robustness", "--protocol", "geometric", "--kappa", "1e-310", "--omega", "1",
         "--seed", "1", "--samples", "2"),
        ("robustness", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1",
         "--sigma-r-rel", "1e60", "--seed", "1", "--samples", "2"),
        ("robustness", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1",
         "--sigma-omega-rel", "200", "--seed", "1", "--samples", "3"),
    ],
    ids=[
        "simulate-v-overflows",
        "simulate-duration-underflows",
        "simulate-phase-overflows",
        "compare-v-overflows",
        "robustness-v-overflows",
        "robustness-spacing-overflows",
        "robustness-negative-rabi-draw",
    ],
)
def test_out_of_range_value_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# reference run\n"
            "protocol = geometric\n"
            "kappa = 1.2\n"
            "omega = 1.0\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(config), "--kappa", "1.65"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gate_time_omega_over_pi"] == pytest.approx(3.9549, abs=1e-3)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("protocol = geometric\nkapa = 1.65\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert "kapa" in err

    def test_output_file_written_with_lf_endings(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--kappa-min",
            "1.0",
            "--kappa-max",
            "1.5",
            "--n",
            "2",
            "--output",
            str(out_path),
        )
        assert code == 0
        assert out == ""
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").split("\n")[0] == SWEEP_HEADER

    def test_malformed_bracket_names_its_key(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("target_phi = -3.14159265358979\nbracket = 1.0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "calibrate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: config key bracket: bracket needs two numbers, got '1.0'\n"

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            capsys, "compare", "--omega", "1", "--kappa", "1.65", "--blockade-v", "100",
            "--output", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write output file {out_path}: ")
        assert not out_path.parent.exists()

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--bogus", "1"])
        assert excinfo.value.code == 2


def test_help_lists_each_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    lines = capsys.readouterr().out.split("\n")
    commands = lines[lines.index("  {simulate,sweep,calibrate,compare,robustness}") + 1:][:5]
    assert commands == [
        "    simulate            simulate one gate protocol and print its report",
        "    sweep               characterize the geometric protocol over a kappa range",
        "    calibrate           find kappa giving a target controlled phase",
        "    compare             blockade vs geometric protocol at equal Rabi frequency",
        "    robustness          Monte-Carlo fidelity under parameter noise",
    ]


class TestRun:
    """``run`` is the ``rydgate`` console script: ``main`` on ``sys.argv``."""

    def test_success_exits_zero(self, capsys, monkeypatch):
        argv = ["rydgate", "compare", "--omega", "1", "--kappa", "1.65", "--blockade-v", "100"]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == (GOLDEN / "compare.csv").read_text(encoding="utf-8")

    def test_rejected_value_exits_two(self, capsys, monkeypatch):
        argv = ["rydgate", "sweep", "--kappa-min", "0.2", "--kappa-max", "inf", "--n", "3"]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
