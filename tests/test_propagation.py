"""Tests for segment, sequence and batched propagators."""

import math

import numpy as np
import pytest
from conftest import random_segment
from oracles import rk4_unitary, symmetric_block_projectors, unitarity_defect

from rydgate._kernels import expm_hermitian
from rydgate.hamiltonians import DriveParams, RydbergParams, h_full
from rydgate.propagation import (
    CHUNK,
    PulseSegment,
    PulseSequence,
    batch_unitaries,
    sequence_unitary,
)
from rydgate.protocols import GeometricProtocolParams, geometric_sequence
from rydgate.robustness import _perturbed_controls
from rydgate.statespace import basis_index


def _segment_unitary(segment):
    """The propagator of one segment, as a one-segment schedule."""
    return sequence_unitary(PulseSequence((segment,)))


def _segment_hamiltonian(segment):
    return h_full(segment.drive1, segment.drive2, segment.ryd)


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
        assert np.max(np.abs(_segment_unitary(seg) - np.eye(9))) < 1e-14

    def test_resonant_pi_pulse_on_atom_one(self):
        omega = 1.7
        seg = PulseSegment(
            duration=math.pi / omega,
            drive1=DriveParams(omega, 0.0, 0.0),
            drive2=None,
            ryd=RydbergParams(4.0),
        )
        u = _segment_unitary(seg)
        src = basis_index(1, 0)
        dst = basis_index(2, 0)
        assert u[dst, src] == pytest.approx(-1j, abs=1e-12)
        assert abs(u[src, src]) < 1e-12

    def test_matches_rk4_oracle_on_random_segments(self, rng):
        for _ in range(50):
            seg = random_segment(rng)
            u = _segment_unitary(seg)
            ref = rk4_unitary(_segment_hamiltonian(seg), seg.duration)
            assert np.max(np.abs(u - ref)) < 1e-8
            assert unitarity_defect(u) < 1e-10


class TestSequenceUnitary:
    def test_single_segment_equals_its_exponential(self, rng):
        seg = random_segment(rng)
        seq = PulseSequence((seg,))
        expected = expm_hermitian(_segment_hamiltonian(seg), seg.duration)
        assert np.max(np.abs(sequence_unitary(seq) - expected)) < 1e-13

    def test_split_segment_reproduces_whole(self, rng):
        for _ in range(10):
            seg = random_segment(rng)
            whole = _segment_unitary(seg)
            halves = sequence_unitary(PulseSequence(_split(seg)))
            assert np.max(np.abs(whole - halves)) < 1e-10

    def test_segment_order_matters(self, rng):
        a, b = random_segment(rng), random_segment(rng)
        ab = sequence_unitary(PulseSequence((a, b)))
        ba = sequence_unitary(PulseSequence((b, a)))
        # Generic segments do not commute; the product must be time-ordered.
        assert np.max(np.abs(ab - ba)) > 1e-3
        assert np.max(np.abs(ab - _segment_unitary(b) @ _segment_unitary(a))) < 1e-12

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
            u = _segment_unitary(seg)
            for p in symmetric_block_projectors().values():
                assert np.max(np.abs(u @ p - p @ u)) < 1e-10


class TestBatchUnitaries:
    def test_chunking_never_changes_bits(self, rng):
        n = 2 * CHUNK + 5
        rows, durations = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0)).controls()
        eps = rng.normal(scale=0.02, size=(n, 2))
        controls = _perturbed_controls(rows, 1.0 + eps[:, 0], (1.0 + eps[:, 1]) / 1.65)
        batch = np.concatenate(list(batch_unitaries(controls, durations)))
        assert len(batch) == n
        for i, u in enumerate(batch):
            ((alone,),) = batch_unitaries(controls[i : i + 1], durations)
            assert np.array_equal(u, alone), i

    def test_per_gate_durations(self, rng):
        segs = [random_segment(rng) for _ in range(6)]
        seqs = [PulseSequence(tuple(segs[:3])), PulseSequence(tuple(segs[3:]))]
        rows, durations = zip(*(seq.controls() for seq in seqs))
        (batch,) = batch_unitaries(np.array(rows), np.array(durations))
        for u, seq in zip(batch, seqs):
            assert np.array_equal(u, sequence_unitary(seq))
