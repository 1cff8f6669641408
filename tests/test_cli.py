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


#: The geometric gate near phi_c = 1.2397, and the comparison that includes it.
_FAR_TARGET_COMMANDS = {
    "simulate": ("simulate", "--protocol", "geometric", "--kappa", "1.0385", "--omega", "1"),
    "compare": ("compare", "--omega", "1", "--kappa", "1.0385", "--blockade-v", "100"),
}


class TestFarTarget:
    """simulate and compare score against the target reduced mod 2*pi, as calibrate does."""

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_far_target_scores_as_its_reduction(self, capsys, command):
        reduced = math.remainder(1e17, 2 * math.pi)
        assert repr(reduced) == "1.2396830954246951"
        argv = _FAR_TARGET_COMMANDS[command]
        far = run_cli(capsys, *argv, "--target-phi", "1e17")
        assert far == run_cli(capsys, *argv, "--target-phi", repr(reduced)) and far[0] == 0
        if command == "simulate":
            assert json.loads(far[1])["fidelity"] == 0.9913008176922581
        else:
            assert far[1].splitlines()[2].split(",")[3] == "0.991300817692"

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_target_exits_two(self, capsys, command, value):
        code, out, err = run_cli(capsys, *_FAR_TARGET_COMMANDS[command], f"--target-phi={value}")
        assert (code, out, err) == (2, "", f"error: target_phi must be finite, got {value}\n")


class TestNegativeValues:
    """A negative number is a value in every form ``float`` reads, not only ``--flag=value``."""

    @pytest.mark.parametrize(
        "argv",
        [
            (*_FAR_TARGET_COMMANDS["simulate"], "--target-phi", "-1e17"),
            (*_FAR_TARGET_COMMANDS["compare"], "--target-phi", "-1E-3"),
            (*_FAR_TARGET_COMMANDS["simulate"], "--target-phi", "-inf"),
            (*_FAR_TARGET_COMMANDS["compare"], "--target-phi", "-nan"),
            (*_FAR_TARGET_COMMANDS["simulate"], "--target-phi", "-.5"),
            ("simulate", "--protocol", "blockade", "--omega", "1", "--v", "-1e5"),
        ],
        ids=["exponent", "capital-exponent", "minus-inf", "minus-nan", "fraction", "v"],
    )
    def test_separate_argument_reads_as_the_joined_form(self, capsys, argv):
        separate = run_cli(capsys, *argv)
        assert separate == run_cli(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
        assert separate[0] == (2 if argv[-1] in ("-inf", "-nan") else 0)

    def test_negative_bracket_end_is_a_value(self, capsys):
        argv = ("calibrate", "--target-phi", "-1e-1", "--bracket", "-1e3", "2.5")
        assert run_cli(capsys, *argv) == (2, "", "error: need finite 0 < k_lo < k_hi, got (-1000.0, 2.5)\n")


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

    def test_count_past_intp_exits_two(self, capsys):
        # np.linspace raises IndexError for 2**63 points, which no exit code maps.
        code, out, err = run_cli(capsys, "sweep", "--kappa-min", "0.2", "--kappa-max", "2.5", "--n", str(2**63))
        assert (code, out, err) == (2, "", "error: n must be in [2, 2**63), got 9223372036854775808\n")

    def test_invalid_range_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--kappa-min", "2.0", "--kappa-max", "1.0", "--n", "5"
        )
        assert code == 2
        assert err != ""

    def test_takes_no_omega_flag(self, capsys):
        # Every column depends on kappa alone, so a sweep has no Omega to set.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--kappa-min", "0.2", "--kappa-max", "2.5", "--n", "3", "--omega", "2"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_takes_no_omega_config_key(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("kappa_min = 0.2\nkappa_max = 2.5\nn = 3\nomega = 2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert (code, out, err) == (2, "", "error: unknown config keys: omega\n")


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

    def test_far_target_is_reduced_and_echoed_as_given(self, capsys):
        # 1e17 reduces to 1.2397 mod 2*pi; unreduced, phi - 1e17 leaves no sign change.
        code, out, _ = run_cli(capsys, "calibrate", "--target-phi", "1e17", "--bracket", "1.0", "2.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["target_phi"] == 1e17
        assert payload["kappa_star"] == pytest.approx(1.0385, abs=1e-4)

    def test_non_convergence_stderr_bytes(self, capsys):
        # The message, then the scanned table at 12 significant digits, LF endings.
        code, out, err = run_cli(capsys, "calibrate", "--target-phi", "10", "--bracket", "2.0", "2.5")
        assert (code, out) == (3, "")
        assert err == (GOLDEN / "calibrate_no_sign_change.stderr").read_text(encoding="utf-8")

    def test_other_runtime_errors_are_not_mapped(self, capsys, monkeypatch):
        # main maps CalibrationError, a RuntimeError, to 3 and re-raises any other one.
        def stalls(*args, **kwargs):
            raise RuntimeError("not a calibration failure")

        monkeypatch.setattr("rydgate.calibration.calibrate_kappa", stalls)
        with pytest.raises(RuntimeError, match="^not a calibration failure$"):
            main(["calibrate", "--target-phi", "1", "--bracket", "1.0", "2.5"])
        assert capsys.readouterr() == ("", "")

    def test_negative_omega_is_checked_like_every_command(self, capsys):
        code, out, err = run_cli(capsys, "calibrate", "--target-phi", "1", "--bracket", "1.0", "2.5", "--omega", "-1")
        assert (code, out, err) == (2, "", "error: omega must be positive, got -1.0\n")


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

    def test_blockade_v_takes_any_finite_value_as_simulate_does(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--omega", "1", "--kappa", "1.65", "--blockade-v", "-100")
        assert (code, err) == (0, "")
        blockade = dict(zip(COMPARE_HEADER.split(","), out.split("\n")[1].split(",")))
        code, out, err = run_cli(capsys, "simulate", "--protocol", "blockade", "--omega", "1", "--v", "-100")
        assert (code, err) == (0, "")
        assert float(blockade["fidelity_cz"]) == pytest.approx(json.loads(out)["fidelity"], rel=1e-11)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_blockade_v_names_its_flag(self, capsys, value):
        code, out, err = run_cli(capsys, "compare", "--omega", "1", "--kappa", "1.65", "--blockade-v", value)
        assert (code, out, err) == (2, "", f"error: blockade-v must be finite, got {value}\n")


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
        (("simulate", "--protocol", "blockade", "--omega", "1", "--v", "100", "--kappa", "5"),
         "blockade protocol takes no kappa"),
        (("robustness", "--protocol", "blockade", "--omega", "1", "--v", "100", "--kappa", "5",
          "--seed", "1", "--samples", "2"),
         "blockade protocol takes no kappa"),
    ],
    ids=[
        "simulate-blockade-no-v",
        "robustness-blockade-no-v",
        "simulate-geometric-no-omega-or-v",
        "simulate-geometric-omega-and-v",
        "robustness-geometric-omega-and-v",
        "simulate-blockade-kappa",
        "robustness-blockade-kappa",
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
        # Every segment is finite, but the gate time or the Rydberg time is not.
        ("simulate", "--protocol", "geometric", "--kappa", "1.65", "--omega", "3.1e-308"),
        ("simulate", "--protocol", "geometric", "--kappa", "1.65", "--omega", "7e-308"),
        ("simulate", "--protocol", "blockade", "--omega", "4.5e-308", "--v", "4.5e-306"),
        ("compare", "--omega", "7e-308", "--kappa", "1.65", "--blockade-v", "7e-306"),
        ("calibrate", "--target-phi", "3.14159", "--bracket", "1.0", "2.5", "--omega", "3.1e-308"),
        # Each segment lasts pi/hypot(Omega, V/4) = 3.1e-308, but the eigenvalue spread overflows.
        ("calibrate", "--target-phi", "3.14159", "--bracket", "1.0", "2.5", "--omega", "1e308"),
    ],
    ids=[
        "simulate-v-overflows",
        "simulate-duration-underflows",
        "simulate-phase-overflows",
        "compare-v-overflows",
        "robustness-v-overflows",
        "robustness-spacing-overflows",
        "robustness-negative-rabi-draw",
        "simulate-geometric-gate-time-overflows",
        "simulate-geometric-rydberg-time-overflows",
        "simulate-blockade-gate-time-overflows",
        "compare-rydberg-time-overflows",
        "calibrate-gate-time-overflows",
        "calibrate-eigenvalue-spread-overflows",
    ],
)
def test_out_of_range_value_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("calibrate", "--target-phi", "3.14159", "--bracket", "1.0", "2.5", "--omega", "3.1e-308"),
         "total duration must be finite, got inf"),
        (("calibrate", "--target-phi", "3.14159", "--bracket", "1.0", "2.5", "--omega", "1e308"),
         "a population integral overflows: the eigenvalue spread or the durations are out of range"),
        (("simulate", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1e308"),
         "a population integral overflows: the eigenvalue spread or the durations are out of range"),
        (("simulate", "--protocol", "blockade", "--omega", "1", "--v", "1e300"),
         "an eigenphase w*t overflows 2**32 in magnitude, past which eigh cannot resolve the gate: "
         "the interaction strength times the duration is out of range"),
    ],
    ids=["calibrate-omega-3.1e-308", "calibrate-omega-1e308", "simulate-omega-1e308", "simulate-blockade-v-1e300"],
)
def test_overflow_error_names_its_cause(capsys, argv, message):
    # At Omega = 1e308 the gate is finite; w_j - w_k overflows in the Rydberg-time integral.
    # At V/Omega = 1e300 the blockade gate's eigenphases lie far past what eigh resolves.
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


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

    def test_blockade_kappa_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("protocol = blockade\nomega = 1\nv = 100\nkappa = 5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out, err) == (2, "", "error: blockade protocol takes no kappa\n")

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("protocol = geometric\nkapa = 1.65\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert "kapa" in err

    def test_byte_order_mark_is_not_part_of_the_first_key(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("protocol = geometric\nkappa = 1.65\nomega = 1\n", encoding="utf-8-sig")
        assert config.read_bytes().startswith(b"\xef\xbb\xbf")
        argv = ("simulate", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1")
        assert run_cli(capsys, "simulate", "--config", str(config)) == run_cli(capsys, *argv)

    def test_repeated_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("protocol = geometric\nkappa = 1.65\nomega = 1\nkappa = 2.0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: {config}:4: config key kappa already given on line 2\n"

    @pytest.mark.parametrize("line", ["= 1.65", " =", "kappa 1.65"])
    def test_line_without_a_key_rejected(self, capsys, tmp_path, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"protocol = geometric\n{line}\nomega = 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: {config}:2: expected 'key = value', got {line.strip()!r}\n"

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
