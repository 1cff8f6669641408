"""Tests for kappa sweeps and calibration."""

import dataclasses
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from oracles import bisect_root, full_scan_calibration, per_stack_scan_phases, per_stack_sweep

from rydgate import calibration, robustness
from rydgate.calibration import (
    CalibrationError,
    calibrate_kappa,
    sweep_kappa,
)
from rydgate.propagation import CHUNK, PulseSequence
from rydgate.protocols import GeometricProtocolParams, gate_time_geometric
from rydgate.statespace import wrap_angle


@pytest.fixture
def scanned_gates(monkeypatch):
    """Sizes of the propagator stacks ``calibration.batch_unitaries`` yields while
    the test runs: one entry per kernel call, summing to the gates scanned."""
    sizes = []
    batch = calibration.batch_unitaries

    def counting(controls, durations):
        for u in batch(controls, durations):
            sizes.append(len(u))
            yield u

    monkeypatch.setattr(calibration, "batch_unitaries", counting)
    return sizes


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


def _bits(records):
    """The records' fields as uint64 bit patterns, one row per record."""
    return np.array([dataclasses.astuple(r) for r in records], dtype=float).view(np.uint64).tolist()


class TestBatchScoring:
    """Sweeps and scans keep each stack's raw terms and score the whole batch at once (a
    sweep on the full local-Z grid), with the bits of scoring each propagator stack as it comes."""

    @pytest.mark.parametrize(
        "args",
        [(0.2, 2.5, n) for n in (2, CHUNK - 1, CHUNK + 1, 200, robustness.SAMPLE_BLOCK + 1)]
        + [(0.05, 3.0, 1000), (0.3, 0.31, 50), (0.01, 10.0, 333)],
    )
    def test_records_match_the_per_stack_oracle(self, args):
        assert _bits(sweep_kappa(*args)) == _bits(per_stack_sweep(*args))

    @pytest.mark.parametrize("omega", [1.0, 2.3])
    @pytest.mark.parametrize("target, bracket", [(10.0, (2.0, 2.5)), (-math.pi, (1.0, 2.5)), (0.5, (0.05, 3.0))])
    def test_scan_phases_match_the_per_stack_oracle(self, monkeypatch, target, bracket, omega):
        # Every calibration fails, so its table holds the phase of every scan point.
        monkeypatch.setattr(calibration, "CALIBRATION_TOLERANCE", -1.0)
        with pytest.raises(CalibrationError) as excinfo:
            calibrate_kappa(target, bracket, omega)
        kappas, phases = np.array(excinfo.value.scan).T
        assert np.array_equal(kappas, np.linspace(*bracket, calibration.CALIBRATION_SCAN_POINTS))
        assert phases.view(np.uint64).tolist() == per_stack_scan_phases(kappas, omega).view(np.uint64).tolist()

    def test_only_monte_carlo_blocks_enter_the_window(self, monkeypatch):
        # The README sweep's two pairs peak a median 37 grid cells apart, so 168 of its 200
        # gates would fail the window's certificate: sweeps search the full grid.
        entered = []

        def window(big_a, z):
            entered.append(len(z))
            raise AssertionError("entered the local-Z window")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rydgate" and hasattr(module, "_windowed_grid_index"):
                monkeypatch.setattr(module, "_windowed_grid_index", window)
        sweep_kappa(0.2, 2.5, 200)
        assert entered == []
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        noise = robustness.NoiseModel.for_interaction(protocol.v, 1.0, 0.01, 0.005, 42)
        with pytest.raises(AssertionError, match="window"):
            robustness.monte_carlo_fidelity(protocol, noise, 20)
        assert entered == [20]


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

    def test_residual_above_tolerance_is_reported(self, monkeypatch, scanned_gates):
        monkeypatch.setattr(calibration, "CALIBRATION_TOLERANCE", -1.0)
        with pytest.raises(CalibrationError, match="^root solver stalled") as excinfo:
            calibrate_kappa(-math.pi, (1.0, 2.5))
        # The probe settled the scan; the failure scans the rest for its table.
        assert len(excinfo.value.scan) == calibration.CALIBRATION_SCAN_POINTS
        assert sum(scanned_gates) == calibration.CALIBRATION_SCAN_POINTS
        assert all(math.isfinite(phi) for _, phi in excinfo.value.scan)

    def test_failure_attaches_scan_table(self, scanned_gates):
        with pytest.raises(CalibrationError) as excinfo:
            calibrate_kappa(-math.pi, (2.5, 3.0))
        scan = excinfo.value.scan
        assert len(scan) == 200
        assert sum(scanned_gates) == 200
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


def _outcome(calibrate, *args, **kwargs):
    """kappa* as uint64 and the report, or the error's message and its scan as uint64."""
    try:
        result = calibrate(*args, **kwargs)
    except CalibrationError as exc:
        return str(exc), np.array(exc.scan, dtype=float).view(np.uint64).tolist()
    return np.float64(result.kappa_star).view(np.uint64), result.report


def _nearest_first_cases(count, rng):
    """(target, bracket, omega, seed_kappa) of random calibrations: targets over the
    circle and, for one case in four, a scanned phase itself (an exact zero of the
    error at Omega = 1); seeds inside, below and above the bracket."""
    for _ in range(count):
        lo = float(rng.uniform(0.05, 3.0))
        hi = lo + float(rng.choice([0.01, 0.5, 1.5, 3.0]) * rng.uniform(0.5, 1.0))
        omega = float(rng.choice([1.0, 2.3, 10 ** rng.uniform(-1, 1)]))
        inside = rng.uniform(lo, hi)
        seed = float(rng.choice([inside, inside, rng.uniform(0.0, lo), rng.uniform(hi, hi + 3.0), 1.65]))
        target = float(rng.uniform(-math.pi, math.pi))
        if rng.uniform() < 0.25:
            omega = 1.0
            grid = sweep_kappa(lo, hi, calibration.CALIBRATION_SCAN_POINTS)
            target = grid[int(rng.integers(len(grid)))].phi_c_wrapped
        yield target, (lo, hi), omega, seed


class TestNearestFirstScan:
    """The scan settles at the seed or scans the whole grid, and changes no result:
    ``full_scan_calibration`` propagates every scan point, as the scan once did."""

    def test_same_results_and_errors_as_a_full_scan(self):
        outcomes = []
        for target, bracket, omega, seed in _nearest_first_cases(300, np.random.default_rng(19)):
            got = _outcome(calibrate_kappa, target, bracket, omega, seed_kappa=seed)
            want = _outcome(full_scan_calibration, target, bracket, omega, seed_kappa=seed)
            assert got == want, (target, bracket, omega, seed)
            outcomes.append(want)
        failed = sum(isinstance(message, str) for message, _ in outcomes)
        assert 30 <= failed <= 270  # both paths are exercised

    @pytest.mark.parametrize(
        "target, bracket, seed",
        [
            (-math.pi, (1.0, 2.5), 1.65),  # the README calibration
            (-2.219, (1.0, 2.5), 1.65),  # 192 points from the seed
            (2.0, (0.2, 2.5), 0.2),  # the seed on the bracket's end
            (1.0, (0.5, 3.0), 40.0),  # the seed far above the bracket
            (-1.0, (1.0, 1.0 + 2e-14), 1.0),  # repeated grid points tie in distance
        ],
    )
    def test_chosen_cases_match_a_full_scan(self, target, bracket, seed):
        assert _outcome(calibrate_kappa, target, bracket, seed_kappa=seed) == _outcome(
            full_scan_calibration, target, bracket, seed_kappa=seed
        )

    def test_exact_zeros_tied_in_distance_take_the_first(self):
        # 200 points over 4 ulp of 1 take five kappas and three phases, so a target
        # on one of them is an exact zero at many points at equal distance.
        bracket = (1.0, 1.0 + 4 * math.ulp(1.0))
        target = sweep_kappa(*bracket, calibration.CALIBRATION_SCAN_POINTS)[100].phi_c_wrapped
        for seed in (0.5, 1.0 + 2 * math.ulp(1.0), 2.0):
            assert _outcome(calibrate_kappa, target, bracket, seed_kappa=seed) == _outcome(
                full_scan_calibration, target, bracket, seed_kappa=seed
            )

    def test_stalled_solver_reports_the_same_table(self, monkeypatch):
        monkeypatch.setattr(calibration, "CALIBRATION_TOLERANCE", -1.0)
        stalled = 0
        for target, bracket, omega, seed in _nearest_first_cases(30, np.random.default_rng(23)):
            got = _outcome(calibrate_kappa, target, bracket, omega, seed_kappa=seed)
            assert got == _outcome(full_scan_calibration, target, bracket, omega, seed_kappa=seed)
            stalled += got[0].startswith("root solver stalled")
        assert stalled >= 10

    def test_a_tie_keeps_scanning(self, monkeypatch):
        # On the grid 1 + i/256 with the seed 100.25/256 above 1, every distance is
        # exact. The probe holds points 99-102. Synthetic phases put an exact zero
        # at 102 and a sign change in (98, 99), both 1.75/256 from the seed. A full
        # scan takes (98, 99), the first in scan order, so the probe must not
        # settle the tie: the rest of the grid is scanned.
        step = 2.0**-8
        phase = np.full(calibration.CALIBRATION_SCAN_POINTS, -0.5)
        phase[:99], phase[102] = 0.5, 0.0
        sizes = []

        def synthetic_gates(rows, durations):  # diagonal stacks whose phi_c is each grid point's phase
            index = np.rint((rows[:, 0, 0] / rows[:, 0, 6] - 1.0) / step).astype(int)
            for start in range(0, len(index), CHUNK):
                gates = np.tile(np.eye(9, dtype=complex), (len(index[start : start + CHUNK]), 1, 1))
                gates[:, 4, 4] = np.exp(1j * phase[index[start : start + CHUNK]])  # exactly 1 at phase 0
                sizes.append(len(gates))
                yield gates

        class Picked(Exception):
            pass

        def picked(f, a, b, f_a, f_b):
            raise Picked(a, b)

        monkeypatch.setattr(calibration, "batch_unitaries", synthetic_gates)
        monkeypatch.setattr(calibration, "_anderson_bjorck", picked)
        with pytest.raises(Picked) as excinfo:
            calibrate_kappa(0.0, (1.0, 1.0 + 199 * step), seed_kappa=1.0 + 100.25 * step)
        assert excinfo.value.args == (1.0 + 98 * step, 1.0 + 99 * step)
        assert sizes[0] == calibration.SEED_PROBE_POINTS
        assert sum(sizes) == calibration.CALIBRATION_SCAN_POINTS
        assert max(sizes) == CHUNK

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_distances_raise_no_warning(self):
        # Every kappa - seed past the middle of the grid overflows to inf.
        args = (math.pi, (1.0, 1e308))
        with pytest.raises(CalibrationError, match="^no sign change") as excinfo:
            calibrate_kappa(*args, seed_kappa=-1e308)
        assert _outcome(calibrate_kappa, *args, seed_kappa=-1e308) == _outcome(
            full_scan_calibration, *args, seed_kappa=-1e308
        )
        assert len(excinfo.value.scan) == calibration.CALIBRATION_SCAN_POINTS

    def test_readme_calibration_scans_the_probe(self, scanned_gates):
        calibrate_kappa(-math.pi, (1.0, 2.5))
        assert scanned_gates == [calibration.SEED_PROBE_POINTS]

    def test_rows_are_built_for_the_scanned_points_only(self, monkeypatch):
        built, controls = [], calibration.geometric_controls

        def counted(kappas, omega):
            built.append(len(kappas))
            return controls(kappas, omega)

        monkeypatch.setattr(calibration, "geometric_controls", counted)
        calibrate_kappa(-math.pi, (1.0, 2.5))
        assert built == [calibration.SEED_PROBE_POINTS]
        built.clear()
        calibrate_kappa(-2.219, (1.0, 2.5))
        assert built[0] == calibration.SEED_PROBE_POINTS and sum(built) == calibration.CALIBRATION_SCAN_POINTS

    @pytest.mark.parametrize(
        "bracket, omega, bad",
        [
            ((1e-300, 2.5), 1e10, 0),  # v overflows at the grid's first kappa, the farthest from the seed
            ((1.0, 1e308), 1e-300, 1),  # v underflows to 0 from the second kappa on
        ],
    )
    def test_a_doubtful_grid_fails_at_its_first_bad_kappa(self, scanned_gates, bracket, omega, bad):
        kappas = np.linspace(*bracket, calibration.CALIBRATION_SCAN_POINTS)
        with pytest.raises(ValueError) as want:
            GeometricProtocolParams.from_omega(float(kappas[bad]), omega)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            calibrate_kappa(-math.pi, bracket, omega)
        assert scanned_gates == []

    def test_far_target_scans_the_grid(self, scanned_gates):
        calibrate_kappa(-2.219, (1.0, 2.5))
        assert scanned_gates[0] == calibration.SEED_PROBE_POINTS
        assert sum(scanned_gates) == calibration.CALIBRATION_SCAN_POINTS
        assert max(scanned_gates) == CHUNK


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

