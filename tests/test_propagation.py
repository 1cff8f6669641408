"""Tests for segment, sequence and sampled-control propagators."""

import math

import numpy as np
import pytest
from conftest import random_segment
from oracles import rk4_unitary

from rydgate.hamiltonians import (
    DriveParams,
    RydbergParams,
    symmetric_block_projectors,
)
from rydgate.propagation import (
    CHUNK,
    ConvergenceError,
    PulseSegment,
    PulseSequence,
    SampledControls,
    batch_unitaries,
    sampled_unitary,
    segment_unitary,
    sequence_unitary,
)
from rydgate.protocols import GeometricProtocolParams, geometric_sequence
from rydgate.robustness import _perturbed_controls
from rydgate.statespace import basis_index, rydberg_excitation_counts, unitarity_defect


def _split(segment, fraction=0.5):
    first = PulseSegment(
        duration=segment.duration * fraction,
        drive1=segment.drive1,
        drive2=segment.drive2,
        ryd=segment.ryd,
    )
    second = PulseSegment(
        duration=segment.duration * (1 - fraction),
        drive1=segment.drive1,
        drive2=segment.drive2,
        ryd=segment.ryd,
    )
    return first, second


class TestPulseTypes:
    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            PulseSegment(duration=0.0, drive1=None, drive2=None, ryd=RydbergParams(1.0))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PulseSequence(())

    def test_total_duration(self, rng):
        segs = [random_segment(rng) for _ in range(3)]
        assert PulseSequence(tuple(segs)).total_duration == pytest.approx(
            sum(s.duration for s in segs)
        )


class TestSegmentUnitary:
    def test_trivial_segment_is_identity(self):
        seg = PulseSegment(duration=2.5, drive1=None, drive2=None, ryd=RydbergParams(0.0))
        assert np.max(np.abs(segment_unitary(seg) - np.eye(9))) < 1e-14

    def test_resonant_pi_pulse_on_atom_one(self):
        omega = 1.7
        seg = PulseSegment(
            duration=math.pi / omega,
            drive1=DriveParams(omega, 0.0, 0.0),
            drive2=None,
            ryd=RydbergParams(4.0),
        )
        u = segment_unitary(seg)
        src = basis_index(1, 0)
        dst = basis_index(2, 0)
        assert u[dst, src] == pytest.approx(-1j, abs=1e-12)
        assert abs(u[src, src]) < 1e-12

    def test_matches_rk4_oracle_on_random_segments(self, rng):
        for _ in range(50):
            seg = random_segment(rng)
            u = segment_unitary(seg)
            ref = rk4_unitary(seg.hamiltonian(), seg.duration)
            assert np.max(np.abs(u - ref)) < 1e-8
            assert unitarity_defect(u) < 1e-10


class TestSequenceUnitary:
    def test_single_segment_equals_segment_unitary(self, rng):
        seg = random_segment(rng)
        seq = PulseSequence((seg,))
        assert np.max(np.abs(sequence_unitary(seq) - segment_unitary(seg))) < 1e-13

    def test_split_segment_reproduces_whole(self, rng):
        for _ in range(10):
            seg = random_segment(rng)
            whole = segment_unitary(seg)
            halves = sequence_unitary(PulseSequence(_split(seg)))
            assert np.max(np.abs(whole - halves)) < 1e-10

    def test_segment_order_matters(self, rng):
        a, b = random_segment(rng), random_segment(rng)
        ab = sequence_unitary(PulseSequence((a, b)))
        ba = sequence_unitary(PulseSequence((b, a)))
        # Generic segments do not commute; the product must be time-ordered.
        assert np.max(np.abs(ab - ba)) > 1e-3
        assert np.max(np.abs(ab - segment_unitary(b) @ segment_unitary(a))) < 1e-12

    def test_regrouping_is_associative(self, rng):
        segs = [random_segment(rng) for _ in range(4)]
        u_all = sequence_unitary(PulseSequence(tuple(segs)))
        u_grouped = sequence_unitary(PulseSequence(tuple(segs[2:]))) @ sequence_unitary(
            PulseSequence(tuple(segs[:2]))
        )
        assert np.max(np.abs(u_all - u_grouped)) < 1e-12

    def test_norm_preservation(self, rng):
        seq = PulseSequence(tuple(random_segment(rng) for _ in range(4)))
        u = sequence_unitary(seq)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        assert abs(np.linalg.norm(u @ psi) - 1.0) < 1e-12

    def test_phase_toggled_gate_keeps_computational_weight(self):
        # Measured floor for this implementation: every computational
        # diagonal modulus of the kappa = 1.65 gate stays above 0.9986.
        from rydgate.protocols import GeometricProtocolParams, geometric_sequence
        from rydgate.statespace import COMPUTATIONAL_INDICES

        seq = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))
        u = sequence_unitary(seq)
        assert min(abs(u[i, i]) for i in COMPUTATIONAL_INDICES) > 0.9986

    def test_symmetric_drive_confines_invariant_subspaces(self, rng):
        for _ in range(10):
            d = DriveParams(
                rabi=float(rng.uniform(0.1, 2.0)),
                detuning=float(rng.uniform(-2, 2)),
                phase=float(rng.uniform(-math.pi, math.pi)),
            )
            seg = PulseSegment(
                duration=float(rng.uniform(0.3, 2.0)),
                drive1=d,
                drive2=d,
                ryd=RydbergParams(float(rng.uniform(-3, 3))),
            )
            u = segment_unitary(seg)
            for p in symmetric_block_projectors().values():
                assert np.max(np.abs(u @ p - p @ u)) < 1e-10


class TestBatchUnitaries:
    def test_chunking_never_changes_bits(self, rng):
        n = 2 * CHUNK + 5
        rows, durations = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0)).controls()
        eps = rng.normal(scale=0.02, size=(n, 2))
        controls = _perturbed_controls(rows, 1.0 + eps[:, 0], (1.0 + eps[:, 1]) / 1.65)
        batch = list(batch_unitaries(controls, durations))
        assert len(batch) == n
        for i, u in enumerate(batch):
            (alone,) = batch_unitaries(controls[i : i + 1], durations)
            assert np.array_equal(u, alone), i

    def test_per_gate_durations(self, rng):
        segs = [random_segment(rng) for _ in range(6)]
        seqs = [PulseSequence(tuple(segs[:3])), PulseSequence(tuple(segs[3:]))]
        rows, durations = zip(*(seq.controls() for seq in seqs))
        for u, seq in zip(batch_unitaries(np.array(rows), np.array(durations)), seqs):
            assert np.array_equal(u, sequence_unitary(seq))


class TestSampledControls:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="uniformly"):
            SampledControls(
                times=np.array([0.0, 0.1, 0.3]),
                drive1=np.zeros((3, 3)),
                drive2=np.zeros((3, 3)),
                v=0.0,
            )

    @pytest.mark.parametrize("index, value", [((1, 0), -0.5), ((2, 1), np.nan), ((0, 2), np.inf)])
    def test_sample_validation(self, index, value):
        drive = np.ones((3, 3))
        drive[index] = value
        with pytest.raises(ValueError, match="finite, with rabi >= 0"):
            SampledControls(times=np.array([0.0, 0.1, 0.2]), drive1=np.ones((3, 3)), drive2=drive, v=0.0)

    def test_constant_controls_match_segment_unitary(self):
        omega, delta, phase, v = 1.2, -0.4, 0.3, 2.0
        controls = SampledControls.from_functions(
            lambda t: (omega, delta, phase),
            lambda t: (omega, delta, phase),
            v=v,
            duration=1.5,
            n_steps=16,
        )
        seg = PulseSegment(
            duration=1.5,
            drive1=DriveParams(omega, delta, phase),
            drive2=DriveParams(omega, delta, phase),
            ryd=RydbergParams(v),
        )
        assert np.max(np.abs(sampled_unitary(controls) - segment_unitary(seg))) < 1e-8

    def test_second_order_convergence_ratio(self):
        def d1(t):
            return (1.0 + 0.5 * math.sin(2.1 * t), -0.3 * t, 0.2 * math.cos(1.7 * t))

        def d2(t):
            return (0.8 + 0.4 * math.cos(1.3 * t), 0.1 * t, -0.15 * math.sin(2.3 * t))

        base = SampledControls.from_functions(d1, d2, v=1.5, duration=2.0, n_steps=64)
        fine = base.refined()
        finer = fine.refined()
        # Direct one-shot products at three grids expose the convergence order.
        from rydgate.propagation import _midpoint_product

        diff_coarse = np.max(np.abs(_midpoint_product(base) - _midpoint_product(fine)))
        diff_fine = np.max(np.abs(_midpoint_product(fine) - _midpoint_product(finer)))
        assert 3.2 < diff_coarse / diff_fine < 4.4

    def test_linear_phase_ramp_matches_rotating_frame(self):
        # A common linear laser-phase ramp phi(t) = w*t is gauge-equivalent
        # to a constant-phase drive with detuning shifted to Delta - w,
        # conjugated by the diagonal Rydberg-number rotation exp(i w t N_r).
        omega, delta, v, w, duration = 1.1, -0.6, 1.8, 0.9, 1.7
        controls = SampledControls.from_functions(
            lambda t: (omega, delta, w * t),
            lambda t: (omega, delta, w * t),
            v=v,
            duration=duration,
            n_steps=512,
        )
        u = sampled_unitary(controls, tol=1e-8)

        d_shifted = DriveParams(omega, delta - w, 0.0)
        seg = PulseSegment(duration=duration, drive1=d_shifted, drive2=d_shifted, ryd=RydbergParams(v))
        rotation = np.diag(np.exp(-1j * w * duration * rydberg_excitation_counts()))
        expected = rotation @ segment_unitary(seg)
        assert np.max(np.abs(u - expected)) < 5e-8

    def test_non_convergence_reports_residual(self):
        # One step across a violently oscillating control cannot converge in
        # zero halvings beyond the first comparison.
        controls = SampledControls.from_functions(
            lambda t: (3.0 + 2.9 * math.sin(40.0 * t), 2.0 * math.cos(33.0 * t), 0.0),
            lambda t: (3.0 + 2.9 * math.cos(47.0 * t), 0.0, 0.0),
            v=2.0,
            duration=3.0,
            n_steps=2,
        )
        with pytest.raises(ConvergenceError) as excinfo:
            sampled_unitary(controls, tol=1e-12, max_halvings=2)
        assert excinfo.value.residual > 1e-12
