"""Tests for schedules, their lowering to control rows, and the propagators."""

import dataclasses
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from conftest import random_segment
from oracles import (
    expm_hermitian,
    gauged_hamiltonians,
    h_full,
    one_atom_drive_unitary,
    rk4_unitary,
    sequence_product_from_identity,
    symmetric_block_projectors,
    two_atom_hamiltonian_by_rules,
    unitarity_defect,
)

from rydgate import _kernels, propagation
from rydgate._kernels import pure
from rydgate.analysis import RYDBERG_TIME_SAMPLES, rydberg_time
from rydgate.propagation import (
    CHUNK,
    COMPUTATIONAL_INDICES,
    DETUNING_COLUMNS,
    EXCITATIONS,
    PHASE_COLUMNS,
    RABI_COLUMNS,
    V_COLUMN,
    DriveParams,
    PulseSegment,
    PulseSequence,
    _gauge,
    _segments,
    _real_parts,
    batch_unitaries,
    distinct_segments,
    sequence_unitary,
)
from rydgate.protocols import (
    BlockadeProtocolParams,
    GeometricProtocolParams,
    blockade_pdp_sequence,
    geometric_controls,
    geometric_sequence,
)
from rydgate.robustness import _perturbed_controls


def _segment_unitary(segment):
    """The propagator of one segment, as a one-segment schedule."""
    return sequence_unitary(PulseSequence((segment,)))


def _segment_hamiltonian(segment):
    return h_full(segment.drive1, segment.drive2, segment.v)


def _split(segment, fraction=0.5):
    first = PulseSegment(
        duration=segment.duration * fraction,
        drive1=segment.drive1,
        drive2=segment.drive2,
        v=segment.v,
    )
    second = PulseSegment(
        duration=segment.duration * (1 - fraction),
        drive1=segment.drive1,
        drive2=segment.drive2,
        v=segment.v,
    )
    return first, second


class TestPulseTypes:
    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            PulseSegment(duration=0.0, drive1=None, drive2=None, v=1.0)

    def test_non_finite_interaction_rejected(self):
        for v in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="^v must be finite"):
                PulseSegment(duration=1.0, drive1=None, drive2=None, v=v)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PulseSequence(())

    @pytest.mark.parametrize("durations", [(1e308, 1e308), (1.7e308, 1e307, 1e307)])
    def test_overflowing_total_duration_rejected(self, durations):
        # Every segment is finite; only their sum overflows.
        segments = tuple(PulseSegment(duration=t, drive1=None, drive2=None, v=0.0) for t in durations)
        with pytest.raises(ValueError, match="^total duration must be finite, got inf$"):
            PulseSequence(segments)

    def test_total_duration(self, rng):
        segs = [random_segment(rng) for _ in range(3)]
        assert PulseSequence(tuple(segs)).total_duration == pytest.approx(
            sum(s.duration for s in segs)
        )


def _drive_tuple(drive):
    return None if drive is None else (drive.rabi, drive.detuning, drive.phase)


class TestLowering:
    """A sequence lowers its segments once, when built, to read-only rows."""

    def test_rows_and_durations_are_read_only(self, rng):
        seq = PulseSequence(tuple(random_segment(rng) for _ in range(3)))
        for array in (seq.controls, seq.durations):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            seq.controls = np.zeros((3, 7))

    def test_rows_give_the_rule_built_hamiltonians(self, rng):
        segments = tuple(random_segment(rng) for _ in range(40))
        seq = PulseSequence(segments)
        assert seq.controls.shape == (40, 7) and seq.durations.shape == (40,)
        assert seq.durations.tolist() == [s.duration for s in segments]
        for h, s in zip(gauged_hamiltonians(seq.controls), segments):
            want = two_atom_hamiltonian_by_rules(_drive_tuple(s.drive1), _drive_tuple(s.drive2), s.v)
            assert np.max(np.abs(h - want)) < 1e-15

    def test_rows_hold_each_drive_bit_for_bit(self, rng):
        # (Omega, wrapped phi, Delta) per atom as DriveParams holds them, 0.0 for no drive.
        drives = [DriveParams(sys.float_info.max, -1e-300, 3 * math.pi), DriveParams(5e-324, 0.0, -math.pi),
                  DriveParams(-0.0, -0.0, -0.0), DriveParams(2.0, 1.0, 1e17)]
        segments = [random_segment(rng) for _ in range(40)]
        segments += [PulseSegment(1.0, a, b, -0.0) for a in [None, *drives] for b in [*drives, None]]
        for row, s in zip(PulseSequence(tuple(segments)).controls, segments):
            atoms = [(0.0, 0.0, 0.0) if d is None else (d.rabi, d.phase, d.detuning) for d in (s.drive1, s.drive2)]
            assert row.tobytes() == np.array([*atoms[0], *atoms[1], s.v]).tobytes()
            for j, columns in enumerate((RABI_COLUMNS, PHASE_COLUMNS, DETUNING_COLUMNS)):
                assert row[..., columns].tobytes() == np.array([atom[j] for atom in atoms]).tobytes()
            assert row[V_COLUMN].tobytes() == np.float64(s.v).tobytes()

    def test_replace_lowers_again(self, rng):
        seq = PulseSequence(tuple(random_segment(rng) for _ in range(3)))
        other = PulseSequence(tuple(random_segment(rng) for _ in range(2)))
        replaced = dataclasses.replace(seq, segments=other.segments)
        assert replaced == other
        assert np.array_equal(replaced.controls, other.controls)
        assert np.array_equal(replaced.durations, other.durations)
        assert seq.controls.shape == (3, 7)

    def test_equality_and_hash_follow_the_segments(self, rng):
        segments = [random_segment(rng) for _ in range(3)]
        a, b = PulseSequence(tuple(segments)), PulseSequence(list(segments))
        assert a.controls is not b.controls
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != PulseSequence(tuple(segments[:2]))
        assert "controls" not in repr(a) and "durations" not in repr(a)


class TestSegmentUnitary:
    def test_trivial_segment_is_identity(self):
        seg = PulseSegment(duration=2.5, drive1=None, drive2=None, v=0.0)
        assert np.max(np.abs(_segment_unitary(seg) - np.eye(9))) < 1e-14

    def test_resonant_pi_pulse_on_atom_one(self):
        omega = 1.7
        seg = PulseSegment(
            duration=math.pi / omega,
            drive1=DriveParams(omega, 0.0, 0.0),
            drive2=None,
            v=4.0,
        )
        u = _segment_unitary(seg)
        src = 3 * 1 + 0  # |10>
        dst = 3 * 2 + 0  # |r0>
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
                v=float(rng.uniform(-3, 3)),
            )
            u = _segment_unitary(seg)
            for p in symmetric_block_projectors().values():
                assert np.max(np.abs(u @ p - p @ u)) < 1e-10


class TestBatchUnitaries:
    def test_chunking_never_changes_bits(self, rng):
        n = 2 * CHUNK + 5
        seq = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))
        durations = seq.durations
        eps = rng.normal(scale=0.02, size=(n, 2))
        controls = _perturbed_controls(seq.controls, 1.0 + eps[:, 0], (1.0 + eps[:, 1]) / 1.65)
        batch = np.concatenate(list(batch_unitaries(controls, durations)))
        assert len(batch) == n
        for i, u in enumerate(batch):
            ((alone,),) = batch_unitaries(controls[i : i + 1], durations)
            assert np.array_equal(u, alone), i

    def test_a_batch_of_no_gates_yields_no_stack(self):
        assert list(batch_unitaries(np.zeros((0, 4, 7)), np.ones(4))) == []

    def test_per_gate_durations(self, rng):
        segs = [random_segment(rng) for _ in range(6)]
        seqs = [PulseSequence(tuple(segs[:3])), PulseSequence(tuple(segs[3:]))]
        rows, durations = [seq.controls for seq in seqs], [seq.durations for seq in seqs]
        (batch,) = batch_unitaries(np.array(rows), np.array(durations))
        for u, seq in zip(batch, seqs):
            assert np.array_equal(u, sequence_unitary(seq))


class TestTwoRoutes:
    """A sequence diagonalises on its own; a batch per chunk. A gate gets the same bits."""

    @pytest.mark.parametrize(
        "sequences",
        [
            [geometric_sequence(GeometricProtocolParams.from_omega(k, 1.0)) for k in np.linspace(0.05, 2.5, 50)],
            [blockade_pdp_sequence(BlockadeProtocolParams(1.0, v)) for v in np.geomspace(1.0, 1e6, 50)],
        ],
        ids=["geometric", "blockade"],
    )
    def test_sequence_unitary_is_its_batch_of_one(self, sequences):
        for seq in sequences:
            ((batch,),) = batch_unitaries(seq.controls[None], seq.durations)
            assert np.array_equal(sequence_unitary(seq).view(np.uint64), batch.view(np.uint64))

    @pytest.mark.parametrize("rabi, v", [(1.0, 1e300), (1e-60, 1e-40), (1e30, 1e60), (1.0, 1e10)])
    def test_a_gate_eigh_cannot_resolve_raises_on_both_routes(self, rabi, v):
        # The 2pi pulse's eigenphases reach 2 pi V/Omega: past 2**32, eigh's rounding of the
        # eigenvalues, about eps V, moves each phase by 1e-6 rad or more.
        seq = blockade_pdp_sequence(BlockadeProtocolParams(rabi, v))
        for route in (lambda: sequence_unitary(seq), lambda: list(batch_unitaries(seq.controls[None], seq.durations))):
            with pytest.raises(ValueError, match=r"^an eigenphase w\*t overflows 2\*\*32 in magnitude"):
                route()
        # V/Omega = 6e8 keeps every eigenphase within the bound.
        assert unitarity_defect(sequence_unitary(blockade_pdp_sequence(BlockadeProtocolParams(1.0, 6e8)))) < 1e-6

    def test_mixed_batch_keeps_each_gates_bits(self):
        # Blockade gates, whose rows need no gauge, get D = 1 in a batch with geometric
        # gates. Splitting the 2pi pulse gives them the geometric gate's four segments.
        geometric = [geometric_sequence(GeometricProtocolParams.from_omega(k, 1.0)) for k in np.linspace(0.3, 2.5, 40)]
        blockade = []
        for v in np.geomspace(1.0, 1e6, 40):
            first, middle, last = blockade_pdp_sequence(BlockadeProtocolParams(1.0, v)).segments
            blockade.append(PulseSequence((first, *_split(middle), last)))
        sequences = [seq for pair in zip(geometric, blockade) for seq in pair]
        rows = np.array([seq.controls for seq in sequences])
        durations = np.array([seq.durations for seq in sequences])
        batch = np.concatenate(list(batch_unitaries(rows, durations)))
        for u, seq in zip(batch, sequences, strict=True):
            ((alone,),) = batch_unitaries(seq.controls[None], seq.durations)
            assert np.array_equal(u.view(np.uint64), alone.view(np.uint64))
            assert np.array_equal(u.view(np.uint64), sequence_unitary(seq).view(np.uint64))

    def _eigh_stacks(self, monkeypatch):
        stacks, eigh = [], np.linalg.eigh

        def recorded(a, *args, **kwargs):
            stacks.append((a.dtype, a.shape))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        return stacks

    @pytest.mark.parametrize(
        "sequence, shared",
        [
            (geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0)), 1),
            (blockade_pdp_sequence(BlockadeProtocolParams(1.0, 100.0)), 2),
        ],
        ids=["geometric", "blockade"],
    )
    def test_eigh_gets_real_stacks_of_the_shared_segments(self, monkeypatch, rng, sequence, shared):
        n = 2 * CHUNK + 5
        eps = rng.normal(scale=0.02, size=(n, 2))
        v = sequence.controls[0, 6] * (1.0 + eps[:, 1])
        controls = _perturbed_controls(sequence.controls, 1.0 + eps[:, 0], v)
        stacks = self._eigh_stacks(monkeypatch)
        list(batch_unitaries(controls, sequence.durations))
        sequence_unitary(sequence)
        float64 = np.dtype(np.float64)
        chunks = [(float64, (c, shared, 9, 9)) for c in (CHUNK, CHUNK, 5)]
        assert stacks == chunks + [(float64, (2, 9, 9))]


def _error_scale(rows, durations):
    """eps * the sum over segments of (n + max|w*t|): the rounding a step carries, whether formed
    from real or complex eigenvectors, which are orthonormal to about n*eps and give each
    eigenphase w*t to about eps*|w|*t; the steps' errors add up along the product."""
    w = np.linalg.eigvalsh(_real_parts(rows))
    return np.finfo(float).eps * (9 + np.abs(w * durations[..., None]).max(axis=-1)).sum(axis=-1)


class TestAccuracy:
    """Real steps, phase patterns and products by halves against complex steps multiplied from
    the identity, each from its own ``eigh``: within the rounding both carry. Measured, the
    geometric gates reach 0.48 of the bound (29 eps)."""

    def _check(self, rows, durations):
        batch = np.concatenate(list(batch_unitaries(rows, durations)))
        for u, gate_rows, t in zip(batch, rows, durations, strict=True):
            want = sequence_product_from_identity(gauged_hamiltonians(gate_rows), t, range(len(t)))
            assert np.abs(u - want).max() <= _error_scale(gate_rows, t)

    def test_geometric_gates(self):
        self._check(*geometric_controls(np.linspace(0.05, 2.5, 40), 1.0))

    def test_blockade_ladder(self):
        # The 2pi pulse's eigenphases reach 2 pi V/Omega, so the bound grows with V*t.
        sequences = [blockade_pdp_sequence(BlockadeProtocolParams(1.0, v)) for v in np.geomspace(1.0, 1e6, 40)]
        rows, durations = np.array([seq.controls for seq in sequences]), np.array([seq.durations for seq in sequences])
        self._check(rows, durations)
        # The eigh oracle above rounds as the package does; the closed form shares no diagonalisation.
        batch = np.concatenate(list(batch_unitaries(rows, durations)))
        for u, seq in zip(batch, sequences, strict=True):
            assert np.abs(u - one_atom_drive_unitary(seq)).max() <= _error_scale(seq.controls, seq.durations)

    def test_closed_form_oracle_matches_rk4(self, rng):
        # The closed form of the ladder check against RK4 on the rule-built Hamiltonian, for any
        # drive on one atom: Rabi frequency, detuning, laser phase and V of either sign.
        def rules(drive):
            return None if drive is None else (drive.rabi, drive.detuning, drive.phase)

        for _ in range(20):
            segments = []
            for _ in range(int(rng.integers(1, 4))):
                drive = DriveParams(*rng.uniform((0.2, -1.0, -3.0), (2.0, 1.0, 3.0)).tolist())
                drives = (drive, None) if rng.uniform() < 0.5 else (None, drive)
                segments.append(PulseSegment(float(rng.uniform(0.1, 2.0)), *drives, float(rng.uniform(-3.0, 3.0))))
            want = np.eye(9)
            for seg in segments:
                h = two_atom_hamiltonian_by_rules(rules(seg.drive1), rules(seg.drive2), seg.v)
                want = rk4_unitary(h, seg.duration) @ want
            assert np.abs(one_atom_drive_unitary(PulseSequence(tuple(segments))) - want).max() < 1e-8

    def test_random_phase_rows(self, rng):
        for k in range(1, 7):
            sequences = [PulseSequence(tuple(random_segment(rng) for _ in range(k))) for _ in range(20)]
            self._check(np.array([seq.controls for seq in sequences]), np.array([seq.durations for seq in sequences]))

    def test_gates_with_different_phase_jumps_keep_their_bits(self, rng):
        # Every gate toggles its own random phase, so each pattern is taken per gate.
        rows, durations = geometric_controls(np.linspace(0.3, 2.5, 2 * CHUNK + 5), 1.0)
        jumps = rng.uniform(-np.pi, np.pi, size=len(rows))
        rows[:, 1::2, PHASE_COLUMNS] = jumps[:, None, None]
        rows[::7, 1::2, PHASE_COLUMNS] = 0.0  # some gates have no phase at all
        batch = np.concatenate(list(batch_unitaries(rows, durations)))
        for u, gate_rows, t in zip(batch, rows, durations, strict=True):
            ((alone,),) = batch_unitaries(gate_rows[None], t)
            assert np.array_equal(u.view(np.uint64), alone.view(np.uint64))
        self._check(rows, durations)


def _gauge_rows(rng, n=600):
    """(n, 7) rows with Omega = 0 drives, phi = pi, -pi/2, 0.0 and -0.0, -0.0 entries and
    huge finite Omega among random ones."""
    rabi = rng.uniform(0.0, 3.0, size=(n, 2))
    rabi[::7] = 0.0
    rabi[3::11] = 1e300
    phase = rng.uniform(-np.pi, np.pi, size=(n, 2))
    phase[::5], phase[1::5] = np.pi, -np.pi / 2
    phase[5::10], phase[2::9] = 0.0, -0.0
    rows = np.zeros((n, 7))
    rows[:, [0, 3]], rows[:, [1, 4]] = rabi, phase
    rows[:, [2, 5]] = rng.uniform(-2.0, 2.0, size=(n, 2))
    rows[:, 6] = rng.uniform(-5.0, 5.0, size=n)
    rows[4::13, [0, 2, 6]] = -0.0
    return rows


class TestGauge:
    """H = D Hr D^dag with Hr real symmetric; segments whose phases are all zero take no phase pattern."""

    def test_gauge_rebuilds_the_hamiltonians(self, rng):
        rows = _gauge_rows(rng)
        hr = _real_parts(rows)
        assert np.array_equal(hr, hr.swapaxes(-1, -2))
        gauge = _gauge(rows[:, 1::3])[..., None] * np.eye(9)  # D as (n, 9, 9) diagonal matrices
        assert np.array_equal(gauge, gauge * np.eye(9))
        for h, row in zip(gauged_hamiltonians(rows), rows):
            want = two_atom_hamiltonian_by_rules(row[[0, 2, 1]], row[[3, 5, 4]], row[6])
            assert np.all(np.abs(h - want) <= 4 * np.finfo(float).eps * np.abs(want))

    def test_gauge_is_skipped_exactly_when_every_phase_is_zero(self, monkeypatch, rng):
        # A distinct segment whose phases are zero (or -0.0) in every gate takes no phase pattern,
        # and a batch whose phases are all zero (every blockade gate) takes no exp at all.
        rows = _gauge_rows(rng)
        exp, calls = np.exp, []
        monkeypatch.setattr(np, "exp", lambda x: calls.append(x.shape) or exp(x))
        for row in rows:
            before = len(calls)
            ((_, pattern),), gauges = _segments((0,), row[None, PHASE_COLUMNS])
            assert len(calls) - before == (1 if row[[1, 4]].any() else 0)
            assert (pattern is None) == (gauges is None) == (not row[[1, 4]].any())
        free = np.where(rng.uniform(size=(len(rows), 1, 2)) < 0.5, 0.0, -0.0)
        before = len(calls)
        assert _segments((0,), free) == (((0, None),), None)
        assert len(calls) == before
        free[17, 0, 1] = 1e-300  # one phased gate: one exp, and a pattern per gate
        ((_, pattern),), _ = _segments((0,), free)
        assert calls[before:] == [(len(rows), 1, 9)]
        assert pattern.shape == (len(rows), 9, 9)

    def test_a_batch_sharing_its_phases_takes_each_pattern_once(self, monkeypatch):
        calls, segments = [], propagation._segments
        monkeypatch.setattr(propagation, "_segments", lambda steps, phases: calls.append(phases.shape) or segments(steps, phases))
        rows, durations = geometric_controls(np.linspace(0.3, 2.5, 3 * CHUNK), 1.0)
        list(batch_unitaries(rows, durations))
        rows[5, 1::2, 1] = 0.5  # one gate with its own phase jump: patterns per gate, chunk by chunk
        list(batch_unitaries(rows, durations))
        assert calls == [(2, 2)] + [(CHUNK, 2, 2)] * 3

    def test_phase_free_rows_keep_their_bits_through_the_gauge(self, rng):
        # D = 1 + 0j exactly, so signed zeros in vr survive the multiply too.
        vr = rng.normal(size=(6, 9, 9))
        vr[..., ::4], vr[..., 1::4] = -0.0, 0.0
        phases = np.zeros((7, 2))
        phases[::2] = -0.0
        phases[6] = 0.5, -0.0  # a phased row beside them
        gauged = _gauge(phases)[..., None] * np.concatenate([vr, rng.normal(size=(1, 9, 9))])
        assert gauged.dtype == np.complex128
        assert np.array_equal(gauged[:6].view(np.uint64), vr.astype(np.complex128).view(np.uint64))
        # A blockade gate beside a phased one takes the exact unit pattern of its zero phases, and
        # every zero of its steps is +0.0, so no bit moves.
        seq = blockade_pdp_sequence(BlockadeProtocolParams(1.0, 100.0))
        phased = seq.controls.copy()
        phased[:, PHASE_COLUMNS] = (-np.pi / 2, 0.3), (0.1, 0.0), (-np.pi / 2, 0.3)
        rows, durations = np.stack([seq.controls, phased]), np.stack([seq.durations] * 2)
        units, _ = _segments((0, 1), rows[:, :2, PHASE_COLUMNS])
        assert all(np.array_equal(p[0].view(np.uint64), np.ones((9, 9), complex).view(np.uint64)) for _, p in units)
        ((gate, _),) = batch_unitaries(rows, durations)
        assert np.array_equal(gate.view(np.uint64), sequence_unitary(seq).view(np.uint64))
        floats = pure._steps(*np.linalg.eigh(_real_parts(rows[:, :2])), durations[:, :2]).view(np.float64)
        assert (floats == 0).any() and not np.signbit(floats[floats == 0]).any()

    def test_the_largest_finite_rabi_frequency_propagates(self):
        # The row holds Omega itself, so nothing overflows before eigh, on either route. The
        # segment lasts 2**30/Omega, so that each eigenphase |w*t| = 2**29 is within the bound.
        drive = DriveParams(sys.float_info.max, 0.0, -0.11215485773315592)
        seq = PulseSequence((PulseSegment(2.0**30 / sys.float_info.max, drive, None, 0.0),))
        assert seq.controls[0, :3].tolist() == [sys.float_info.max, -0.11215485773315592, 0.0]
        u = sequence_unitary(seq)
        assert unitarity_defect(u) < 1e-14
        finite = PulseSequence(
            (PulseSegment(seq.durations[0], DriveParams(1.0, 0.0, -0.11215485773315592), None, 0.0),)
        )
        (alone,) = batch_unitaries(seq.controls[None], seq.durations)
        (both,) = batch_unitaries(np.stack([finite.controls, seq.controls]), seq.durations)
        for got, want in ((alone[0], u), (both[1], u), (both[0], sequence_unitary(finite))):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # For a unit duration, |w*t| = Omega/2 is far beyond it.
        seq = PulseSequence((PulseSegment(1.0, drive, None, 0.0),))
        for route in (lambda: sequence_unitary(seq), lambda: list(batch_unitaries(seq.controls[None], seq.durations))):
            with pytest.raises(ValueError, match=r"^an eigenphase w\*t overflows 2\*\*32 in magnitude"):
                route()


class TestEigensystemCache:
    """A sequence keeps the read-only eigensystem of its distinct segments, and the running
    products of its one product loop."""

    def _sequence(self):
        return geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))

    def test_cached_arrays_are_read_only(self):
        (w, v, durations, order, segments), integral = self._sequence()._eigensystem
        assert (w.shape, v.shape, durations.shape, order) == ((2, 9), (2, 9, 9), (2,), (0, 1, 0, 1))
        (plain, none), (phased, pattern) = segments
        assert (plain, none, phased, pattern.shape) == (0, None, 1, (9, 9))
        # The Rydberg-time integral reads the gauged eigenvectors D vr.
        wd, vd, td, order_d = integral
        assert (wd is w, vd.shape, vd.dtype, td is durations, order_d) == (True, (2, 9, 9), np.complex128, True, order)
        for array in (w, v, durations, pattern, vd):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_unitary_is_a_new_array(self):
        seq = self._sequence()
        u, integral = sequence_unitary(seq), rydberg_time(seq)
        assert u.flags.owndata and u.flags.writeable
        want = u.copy()
        u[...] = np.nan
        assert np.array_equal(sequence_unitary(seq), want)
        assert sequence_unitary(seq) is not sequence_unitary(seq)
        assert rydberg_time(seq) == integral

    def test_equality_hash_and_repr_ignore_the_cache(self):
        seq, fresh = self._sequence(), self._sequence()
        sequence_unitary(seq)
        assert "_eigensystem" in vars(seq) and "_eigensystem" not in vars(fresh)
        assert "_partials" in vars(seq) and "_partials" not in vars(fresh)
        assert seq == fresh and hash(seq) == hash(fresh) and repr(seq) == repr(fresh)

    def test_pickling_rebuilds_from_the_segments(self):
        seq = self._sequence()
        u = sequence_unitary(seq)
        copy = pickle.loads(pickle.dumps(seq))
        assert copy == seq and hash(copy) == hash(seq) and repr(copy) == repr(seq)
        assert "_eigensystem" not in vars(copy) and "_partials" not in vars(copy)
        assert not copy.controls.flags.writeable and not copy.durations.flags.writeable
        assert np.array_equal(sequence_unitary(copy).view(np.uint64), u.view(np.uint64))

    def test_running_products_are_the_products_of_each_prefix(self):
        seq = self._sequence()
        (w, v, durations, order, segments), _ = seq._eigensystem
        partials = seq._partials
        assert partials.shape == (4, 9, 9) and not partials.flags.writeable
        for j in range(1, len(order) + 1):
            prefix = _kernels.sequence_product(w, v, durations, order[:j], segments)
            assert np.array_equal(partials[j - 1].view(np.uint64), prefix.view(np.uint64)), j
        assert np.array_equal(sequence_unitary(seq).view(np.uint64), partials[-1].view(np.uint64))

    def test_batches_keep_only_the_running_product(self, monkeypatch):
        calls, kernel = [], _kernels.sequence_product

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(_kernels, "sequence_product", recorded)
        seq = self._sequence()
        controls = np.repeat(seq.controls[None], CHUNK + 1, axis=0)
        assert sum(len(u) for u in batch_unitaries(controls, seq.durations)) == CHUNK + 1
        assert calls == [{}, {}]

    def test_replaced_sequence_gets_its_own_eigensystem(self):
        seq = self._sequence()
        other = blockade_pdp_sequence(BlockadeProtocolParams(1.0, 100.0))
        sequence_unitary(seq)
        replaced = dataclasses.replace(seq, segments=other.segments)
        assert "_eigensystem" not in vars(replaced)
        assert np.array_equal(sequence_unitary(replaced), sequence_unitary(other))
        assert replaced._eigensystem[0][3] == (0, 1, 0)
        assert dataclasses.replace(seq)._eigensystem is not seq._eigensystem


class _Word:
    """A product of named steps, as text, that counts the multiplications made."""

    def __init__(self, text, counter):
        self.text, self.counter = text, counter

    def __matmul__(self, other):
        self.counter.append(1)
        return _Word(f"({self.text} {other.text})", self.counter)


def _by_halves(steps, order):
    """steps[order[-1]] ... steps[order[0]] as the second half's product times the first's,
    each half likewise, every product taken anew."""
    if len(order) == 1:
        return steps[order[0]]
    half = (len(order) + 1) // 2
    return _by_halves(steps, order[half:]) @ _by_halves(steps, order[:half])


class TestSequenceProduct:
    """Real steps times their phase patterns, multiplied by halves: each index tuple's product is
    taken once, so a repeated period is squared, and the gate agrees to rounding with the
    complex steps multiplied from the identity."""

    def _stack(self, rng, shape):
        """Real symmetric generators, durations, and the phase patterns d d^dag of random unit d."""
        h = rng.normal(scale=3.0, size=shape + (9, 9))
        h = (h + h.swapaxes(-1, -2)) / 2.0
        d = np.exp(1j * rng.uniform(-np.pi, np.pi, size=shape + (9,)))
        patterns = d[..., :, None] * d[..., None, :].conj()
        return h, rng.uniform(0.1, 2.0, size=shape), patterns, d[..., :, None] * h * d[..., None, :].conj()

    @pytest.mark.parametrize(
        "order, products, word",
        [
            ((0, 1, 0, 1), 2, "((1 0) (1 0))"),
            ((0, 1, 0), 2, "(0 (1 0))"),
            ((0,), 0, "0"),
            ((0, 0, 0, 0), 2, "((0 0) (0 0))"),
            ((0, 1, 2, 0, 1, 2), 3, "((2 (1 0)) (2 (1 0)))"),
            ((0, 1, 1, 0), 3, "((0 1) (1 0))"),
        ],
    )
    def test_a_repeated_period_is_multiplied_out_once(self, order, products, word):
        counter = []
        got = pure._product([_Word(str(j), counter) for j in range(3)], order)
        assert (got.text, len(counter)) == (word, products)

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (7, 3)])
    def test_bits_are_the_halves_of_each_step(self, rng, shape):
        h, durations, patterns, _ = self._stack(rng, shape)
        w, v = np.linalg.eigh(h)
        plain = [(j, None) for j in range(shape[-1])]
        phased = [(j, patterns[..., j, :, :]) for j in range(shape[-1])]
        shared = [(j, patterns[(0,) * (len(shape) - 1) + (j,)]) for j in range(shape[-1])]
        for segments in (plain, phased, shared):
            steps = [_kernels.sequence_product(w, v, durations, (j,), segments) for j in range(shape[-1])]
            for length in range(1, 9):
                order = tuple(rng.integers(0, shape[-1], size=length).tolist())
                got = _kernels.sequence_product(w, v, durations, order, segments)
                want = _by_halves(steps, order)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), order

    @pytest.mark.parametrize("shape", [(4,), (7, 3)])
    def test_the_gate_keeps_its_bits_with_partials(self, rng, shape):
        h, durations, patterns, _ = self._stack(rng, shape)
        w, v = np.linalg.eigh(h)
        segments = [(j, patterns[..., j, :, :] if j % 2 else None) for j in range(shape[-1])]
        steps = [_kernels.sequence_product(w, v, durations, (j,), segments) for j in range(shape[-1])]
        for order in [(0, 1, 0, 1), (0, 1, 0), (1,), (0, 0), *(tuple(rng.integers(0, 3, size=8)) for _ in range(6))]:
            gate = _kernels.sequence_product(w, v, durations, order, segments)
            partials = _kernels.sequence_product(w, v, durations, order, segments, partials=True)
            assert partials.shape == (len(order), *gate.shape)
            assert np.array_equal(partials[-1].view(np.uint64), gate.view(np.uint64)), order
            # The running products the Rydberg time reads are taken one step at a time.
            running = steps[order[0]]
            for j, partial in zip(order[1:], partials[:-1]):
                assert np.array_equal(partial.view(np.uint64), running.view(np.uint64)), order
                running = steps[j] @ running

    @pytest.mark.parametrize("shape", [(4,), (7, 3)])
    def test_matches_complex_steps_from_the_identity(self, rng, shape):
        # Both products start from an eigh good to about eps*|h| per eigenvalue, which moves
        # each eigenphase by about eps*|w|*t, and from eigenvectors unitary to about n*eps:
        # a step is good to c*eps*(n + max|w*t|), and k steps add up.
        h, durations, patterns, hams = self._stack(rng, shape)
        w, v = np.linalg.eigh(h)
        segments = [(j, patterns[..., j, :, :]) for j in range(shape[-1])]
        per_step = 9 + np.abs(w * durations[..., None]).max()
        for length in range(1, 9):
            order = tuple(rng.integers(0, shape[-1], size=length).tolist())
            got = _kernels.sequence_product(w, v, durations, order, segments)
            want = sequence_product_from_identity(hams, durations, order)
            assert np.abs(got - want).max() <= 2 * length * per_step * np.finfo(float).eps, order

    def test_one_segment_gives_a_new_array(self, rng):
        h, durations, _, _ = self._stack(rng, (5, 2))
        u = _kernels.sequence_product(*np.linalg.eigh(h), durations, (1,), ((0, None), (1, None)))
        assert u.flags.owndata and u.flags.c_contiguous
        assert np.abs(u - expm_hermitian(h[:, 1], durations[:, 1])).max() < 1e-13


_PHASE_BOUND = 2.0**32
_PAST_BOUND = math.nextafter(_PHASE_BOUND, math.inf)


class TestEigenphases:
    """The range check of every step and population integral, ``pure._eigenphases``: w*t with
    |w*t| <= 2**32, else ValueError, and never a NumPy warning, overflow included."""

    @pytest.mark.parametrize(
        "w, t, ok",
        [
            ([_PHASE_BOUND], [1.0], True),
            ([-_PHASE_BOUND, 3.0], [1.0], True),
            ([2.0**31, -1.0], [2.0], True),
            ([_PAST_BOUND], [1.0], False),
            ([1.0, -_PAST_BOUND], [1.0], False),
            ([1.0, math.nan], [1.0], False),
            ([math.inf], [1.0], False),
            ([0.5, -math.inf], [1.0], False),
            ([1e300, 1.0], [1e10], False),
            ([-1e300, 1.0], [1e300], False),
        ],
        ids=["at-bound", "minus-bound", "product-at-bound", "past-bound", "minus-past-bound", "nan", "inf",
             "minus-inf", "overflow", "minus-overflow"],
    )
    def test_table(self, w, t, ok):
        w, t = np.array(w), np.array(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if ok:
                assert np.array_equal(pure._eigenphases(w, t).view(np.uint64), (w * t).view(np.uint64))
            else:
                with pytest.raises(ValueError, match=r"^an eigenphase w\*t overflows 2\*\*32 in magnitude"):
                    pure._eigenphases(w, t)

    def test_broadcast_stack(self, rng):
        # (n, e, 9) eigenvalues times (n, e, 1) durations, as ``_steps`` passes them.
        w, t = rng.normal(scale=1e3, size=(3, 2, 9)), rng.uniform(0.1, 2.0, size=(3, 2, 1))
        got = pure._eigenphases(w, t)
        assert got.shape == (3, 2, 9) and np.array_equal(got.view(np.uint64), (w * t).view(np.uint64))
        for bad in (math.nan, _PAST_BOUND / t[2, 1, 0] * 2.0):
            w[2, 1, 4] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"^an eigenphase w\*t overflows"):
                    pure._eigenphases(w, t)


def _step(row, t):
    """One segment's step from its own real diagonalisation and phase pattern, nothing shared."""
    segments, _ = _segments((0,), row[None, PHASE_COLUMNS])
    return _kernels.sequence_product(*np.linalg.eigh(_real_parts(row[None])), t[None], (0,), segments)


def _product_per_segment(rows, durations):
    """U_k ... U_1 from each segment's own step, multiplied by halves, nothing shared."""
    return _by_halves([_step(row, t) for row, t in zip(rows, durations)], range(len(rows)))


def _rydberg_time_per_segment(sequence):
    """``rydberg_time`` with every segment diagonalised and gauged on its own."""
    rows, durations, order = sequence.controls, sequence.durations, range(len(sequence.durations))
    w, v = np.linalg.eigh(_real_parts(rows))
    segments, gauges = _segments(order, rows[:, PHASE_COLUMNS])
    partials = _kernels.sequence_product(w, v, durations, order, segments, partials=True)
    states = np.eye(9, dtype=np.complex128)[list(COMPUTATIONAL_INDICES)]
    totals = _kernels.weighted_population_integral(
        w, v.astype(np.complex128) if gauges is None else gauges[..., None] * v, durations, order, partials, states,
        EXCITATIONS, RYDBERG_TIME_SAMPLES,
    )
    return float(np.mean(totals))


_DRIVE = DriveParams(1.0, 0.0, 0.3)
_OTHER = DriveParams(0.7, 0.4, -1.2)


class TestDistinctSegments:
    """A segment repeated in every gate is diagonalised once, with the same bits."""

    def _check_sequence(self, sequence, order):
        rows, durations = sequence.controls, sequence.durations
        assert distinct_segments(rows[None], durations[None])[2] == order
        assert np.array_equal(sequence_unitary(sequence), _product_per_segment(rows, durations))
        assert rydberg_time(sequence) == _rydberg_time_per_segment(sequence)

    def test_protocol_gates_repeat_their_segments(self):
        geo = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))
        self._check_sequence(geo, (0, 1, 0, 1))
        self._check_sequence(blockade_pdp_sequence(BlockadeProtocolParams(1.0, 100.0)), (0, 1, 0))

    def test_hand_made_sequence_without_repeats(self, rng):
        self._check_sequence(PulseSequence(tuple(random_segment(rng) for _ in range(5))), (0, 1, 2, 3, 4))

    def test_equal_rows_with_different_durations_are_distinct(self):
        segments = [PulseSegment(t, _DRIVE, _OTHER, 2.0) for t in (1.0, 2.0, 1.0)]
        self._check_sequence(PulseSequence(tuple(segments)), (0, 1, 0))

    def test_signed_zeros_are_distinct(self):
        negative = DriveParams(1.0, -0.0, 0.3)
        sequence = PulseSequence(tuple(PulseSegment(1.3, d, _OTHER, 2.0) for d in (_DRIVE, negative, _DRIVE)))
        rows = sequence.controls
        assert np.array_equal(rows[0], rows[1]) and rows[0].tobytes() != rows[1].tobytes()
        self._check_sequence(sequence, (0, 1, 0))

    @pytest.mark.parametrize(
        "run",
        [
            lambda: distinct_segments(np.zeros((0, 7)), np.zeros(0)),
            lambda: list(batch_unitaries(np.zeros((3, 0, 7)), np.zeros(0))),
        ],
        ids=["distinct_segments", "batch_unitaries"],
    )
    def test_a_stack_with_no_segment_is_rejected(self, run):
        # k = 0 divided the row bytes by zero.
        with pytest.raises(ValueError, match="^a pulse sequence needs at least one segment$"):
            run()

    def test_one_gate_breaking_the_pattern(self, rng):
        n, odd = 2 * CHUNK + 3, CHUNK + 1
        seq = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))
        durations = seq.durations
        eps = rng.normal(scale=0.02, size=(n, 2))
        controls = _perturbed_controls(seq.controls, 1.0 + eps[:, 0], (1.0 + eps[:, 1]) / 1.65)
        controls[odd, 2, 2] = 0.01  # a detuning on atom 1 in the third segment
        assert distinct_segments(controls, np.broadcast_to(durations, (n, 4)))[2] == (0, 1, 2, 1)
        batch = np.concatenate(list(batch_unitaries(controls, durations)))
        for i, u in enumerate(batch):
            ((alone,),) = batch_unitaries(controls[i : i + 1], durations)
            assert np.array_equal(u, alone), i
            assert np.array_equal(u, _product_per_segment(controls[i], durations)), i
