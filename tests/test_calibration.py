"""Tests for kappa sweeps, calibration and the blockade invariance scan."""

import math
from unittest import mock

import numpy as np
import pytest
from oracles import bisect_root

from rydgate import calibration
from rydgate.calibration import (
    CalibrationError,
    blockade_invariance_scan,
    calibrate_kappa,
    sweep_kappa,
)
from rydgate.propagation import PulseSequence
from rydgate.protocols import gate_time_geometric
from rydgate.statespace import wrap_angle


@pytest.fixture
def sequences_built(monkeypatch):
    """Count of PulseSequence objects built while the test runs."""
    built = []
    check = PulseSequence.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(PulseSequence, "__post_init__", counting)
    return built


class TestSweepKappa:
    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_kappa(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            sweep_kappa(0.5, 1.0, 1)

    @pytest.mark.parametrize("k_max", [math.inf, math.nan])
    def test_bounds_must_be_finite(self, k_max):
        with pytest.raises(ValueError, match=r"^need finite 0 < k_min < k_max, got \(0\.2, "):
            sweep_kappa(0.2, k_max, 3)

    def test_point_count_must_be_an_integer(self):
        with pytest.raises(TypeError):
            sweep_kappa(0.2, 2.5, 2.7)
        with pytest.raises(TypeError):
            sweep_kappa(0.2, 2.5, 3.0)

    def test_point_count_accepts_numpy_integers(self):
        assert sweep_kappa(0.2, 2.5, np.int64(3)) == sweep_kappa(0.2, 2.5, 3)
        assert len(sweep_kappa(0.2, 2.5, np.int32(4))) == 4

    def test_overflowing_gate_time_raises_before_propagating(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("propagated a gate whose total duration overflows")

        monkeypatch.setattr(calibration, "batch_unitaries", no_work)
        with pytest.raises(ValueError, match="^total duration must be finite"):
            calibrate_kappa(math.pi, (1.0, 2.5), omega=3.1e-308)

    def test_builds_no_pulse_sequence(self, sequences_built):
        assert len(sweep_kappa(0.2, 2.5, 50)) == 50
        assert sequences_built == []

    def test_deterministic(self):
        a = sweep_kappa(1.2, 2.0, 9)
        b = sweep_kappa(1.2, 2.0, 9)
        assert a == b

    def test_gate_time_matches_closed_form(self):
        for record in sweep_kappa(0.2, 2.4, 12):
            expected = gate_time_geometric(record.kappa, 1.0) / math.pi
            assert abs(record.gate_time_omega_over_pi - expected) < 1e-12

    def test_reference_point_is_near_pi_controlled_phase(self):
        records = sweep_kappa(1.6, 1.7, 3)  # midpoint is exactly 1.65
        record = records[1]
        assert record.kappa == pytest.approx(1.65)
        assert abs(record.phi_c_wrapped) == pytest.approx(math.pi, abs=0.05)

    def test_fast_point_beats_two_pi(self):
        records = sweep_kappa(0.1, 0.188, 3)  # midpoint is exactly 0.144
        record = records[1]
        assert record.kappa == pytest.approx(0.144)
        assert record.gate_time_omega_over_pi < 2.0

    def test_v_over_omega_column(self):
        for record in sweep_kappa(0.5, 2.0, 7):
            assert record.v_over_omega == pytest.approx(1.0 / record.kappa, rel=1e-12)

    def test_gate_time_monotone_decreasing_as_interaction_grows(self):
        records = sweep_kappa(1 / math.sqrt(48), 3.0, 100)
        by_growing_v = sorted(records, key=lambda r: r.v_over_omega)
        times = [r.gate_time_omega_over_pi for r in by_growing_v]
        assert all(t2 < t1 for t1, t2 in zip(times, times[1:]))
        assert all(t >= 2.0 - 1e-12 for t in times)


class TestCalibrateKappa:
    def test_cz_target_lands_in_expected_window(self):
        result = calibrate_kappa(-math.pi, (1.0, 2.5))
        assert 1.60 <= result.kappa_star <= 1.70
        assert abs(result.report.controlled_phase) == pytest.approx(math.pi, abs=1e-6)

    def test_fixed_point_self_consistency(self):
        records = sweep_kappa(2.0, 2.0001, 2)
        target = records[0].phi_c_wrapped
        result = calibrate_kappa(target, (1.5, 2.5), seed_kappa=2.0)
        assert result.kappa_star == pytest.approx(2.0, abs=1e-4)

    def test_half_pi_target_converges(self):
        result = calibrate_kappa(-math.pi / 2, (1.8, 4.0), seed_kappa=2.5)
        phi = result.report.controlled_phase
        assert phi == pytest.approx(-math.pi / 2, abs=1e-6)

    def test_idempotent_at_calibrated_point(self):
        first = calibrate_kappa(-math.pi, (1.0, 2.5))
        again = calibrate_kappa(
            -math.pi,
            (first.kappa_star - 0.05, first.kappa_star + 0.05),
            seed_kappa=first.kappa_star,
        )
        assert again.kappa_star == pytest.approx(first.kappa_star, abs=1e-6)

    @pytest.mark.parametrize("bracket", [(1.0, math.inf), (1.0, math.nan)])
    def test_bracket_must_be_finite(self, bracket):
        with pytest.raises(ValueError, match=r"^need finite 0 < k_lo < k_hi, got \(1\.0, "):
            calibrate_kappa(-math.pi, bracket)

    def test_scan_builds_no_pulse_sequence_per_kappa(self, sequences_built):
        calibrate_kappa(-math.pi, (1.0, 2.5))
        # The root solver takes 4 steps from the 1/199-wide interval here
        # (bisection took 27); with the report, whose phase is the residual,
        # that is 5 sequences, none for the 200 scan points or the scanned
        # interval ends.
        assert len(sequences_built) <= 5

    def test_residual_above_tolerance_is_reported(self, monkeypatch):
        monkeypatch.setattr(calibration, "CALIBRATION_TOLERANCE", -1.0)
        with pytest.raises(CalibrationError, match="^bisection stalled") as excinfo:
            calibrate_kappa(-math.pi, (1.0, 2.5))
        assert len(excinfo.value.scan) == calibration.CALIBRATION_SCAN_POINTS

    def test_failure_attaches_scan_table(self):
        with pytest.raises(CalibrationError) as excinfo:
            calibrate_kappa(-math.pi, (2.5, 3.0))
        scan = excinfo.value.scan
        assert len(scan) == 200
        kappas = [k for k, _ in scan]
        assert kappas[0] == pytest.approx(2.5)
        assert kappas[-1] == pytest.approx(3.0)
        assert all(math.isfinite(phi) for _, phi in scan)

    @pytest.mark.parametrize("target", [10.0, 1e4])
    def test_failure_scan_is_the_swept_phase(self, target):
        # The table is the scanned phi_c itself, not rebuilt from the errors,
        # so it equals the sweep's wrapped column on the same grid bit for bit.
        with pytest.raises(CalibrationError) as excinfo:
            calibrate_kappa(target, (2.0, 2.5))
        records = sweep_kappa(2.0, 2.5, calibration.CALIBRATION_SCAN_POINTS)
        assert excinfo.value.scan == tuple((r.kappa, r.phi_c_wrapped) for r in records)

    @pytest.mark.parametrize("target", [1e17, 123456789.0, -1e4])
    def test_target_is_reduced_mod_two_pi(self, target):
        # phi - 1e17 rounds every phase away; the reduced target keeps them.
        reduced = math.remainder(target, 2 * math.pi)
        got, want = calibrate_kappa(target, (1.0, 2.5)), calibrate_kappa(reduced, (1.0, 2.5))
        assert got.kappa_star == want.kappa_star
        assert got.report == want.report


def _calibration(target_phi, bracket, omega=1.0, **kwargs):
    try:
        return calibrate_kappa(target_phi, bracket, omega, **kwargs)
    except CalibrationError as exc:
        return exc


def _bisection_calibration(target_phi, bracket, omega=1.0, **kwargs):
    """The calibration with its root solver replaced by the oracle's bisection, as
    it ran before the solver, and the oracle's final (lo, hi) brackets."""
    brackets = []

    def bisection(f, a, b, f_a, f_b):
        lo, hi = bisect_root(f, a, b, f_a)
        brackets.append((lo, hi))
        return 0.5 * (lo + hi)

    with mock.patch.object(calibration, "_anderson_bjorck", bisection):
        return _calibration(target_phi, bracket, omega, **kwargs), brackets


#: 25 targets over the circle; the bracket (1.0, 2.5) reaches 14 of them.
ORACLE_TARGETS = np.linspace(-math.pi, math.pi, 25).tolist()


class TestRootSolverAgainstBisection:
    @pytest.mark.parametrize("omega", [1.0, 2.3])
    @pytest.mark.parametrize(
        "bracket, failures", [((1.0, 2.5), 11), ((0.2, 2.5), 0), ((0.5, 3.0), 0)]
    )
    def test_same_outcomes_and_kappa_inside_the_final_bracket(self, bracket, failures, omega):
        failed = 0
        for target in ORACLE_TARGETS:
            new = _calibration(target, bracket, omega)
            old, brackets = _bisection_calibration(target, bracket, omega)
            assert type(new) is type(old), target
            if isinstance(old, CalibrationError):
                assert str(new) == str(old) and new.scan == old.scan
                failed += 1
                continue
            ((lo, hi),) = brackets
            assert lo <= new.kappa_star <= hi, target
            assert abs(wrap_angle(new.report.controlled_phase - target)) <= 1e-13, target
        assert failed == failures

    def test_target_on_a_scan_point_takes_no_solver_step(self, sequences_built):
        record = sweep_kappa(1.0, 2.5, calibration.CALIBRATION_SCAN_POINTS)[80]
        args = (record.phi_c_wrapped, (1.0, 2.5))
        result = calibrate_kappa(*args, seed_kappa=record.kappa)
        assert result.kappa_star == record.kappa
        assert len(sequences_built) == 1  # the report
        old, brackets = _bisection_calibration(*args, seed_kappa=record.kappa)
        assert old.kappa_star == result.kappa_star and brackets == []

    def test_midpoint_when_the_chord_leaves_the_bracket(self):
        # Against f(0) = -1e300 the chord crosses zero at b in floating point,
        # so the first two steps take midpoints until a point left of the root
        # replaces it.
        points = []

        def f(x):
            points.append(x)
            return x - 0.3

        x = calibration._anderson_bjorck(f, 0.0, 1.0, -1e300, 0.7)
        assert points[:2] == [0.5, 0.25]
        assert abs(f(x)) <= calibration.ROOT_ERROR_STOP
        lo, hi = bisect_root(f, 0.0, 1.0, -1e300)
        assert lo <= x <= hi


class TestBlockadeInvarianceScan:
    def test_floor_on_interaction(self):
        with pytest.raises(ValueError, match="10"):
            blockade_invariance_scan(1.0, [5.0])

    def test_gate_time_constant_and_infidelity_scaling(self):
        records = blockade_invariance_scan(1.0, [50.0, 100.0, 200.0])
        times = {r.report.gate_time for r in records}
        assert len(times) == 1
        assert times.pop() == pytest.approx(4 * math.pi)
        infidelities = [1 - r.report.fidelity for r in records]
        for big, small in zip(infidelities, infidelities[1:]):
            assert 0.15 <= small / big <= 0.35

    def test_truth_table_phases_at_strong_blockade(self):
        (record,) = blockade_invariance_scan(1.0, [100.0])
        phases = record.report.phases
        assert phases[0] == pytest.approx(0.0, abs=1e-12)
        for phi in phases[1:]:
            assert abs(abs(phi) - math.pi) < 0.2
        assert max(record.report.leakage) <= 0.01
