"""Tests for schedules, their lowering to control rows, and the propagators."""

import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from conftest import random_segment
from oracles import (
    expm_hermitian,
    gauged_hamiltonians,
    h_full,
    random_hermitian,
    rk4_unitary,
    sequence_product_from_identity,
    symmetric_block_projectors,
    two_atom_hamiltonian_by_rules,
    unitarity_defect,
)

from rydgate import _kernels
from rydgate.analysis import RYDBERG_TIME_SAMPLES, rydberg_time
from rydgate.hamiltonians import COMPUTATIONAL_INDICES, EXCITATIONS, _real_parts
from rydgate.propagation import (
    CHUNK,
    DriveParams,
    PulseSegment,
    PulseSequence,
    _gauged,
    batch_unitaries,
    distinct_segments,
    sequence_unitary,
)
from rydgate.protocols import (
    BlockadeProtocolParams,
    GeometricProtocolParams,
    blockade_pdp_sequence,
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
            want = [0.0, 0.0, 0.0] * 2 + [s.v]
            for k, drive in enumerate((s.drive1, s.drive2)):
                if drive is not None:
                    want[3 * k : 3 * k + 3] = drive.rabi, drive.phase, drive.detuning
            assert row.tobytes() == np.array(want).tobytes()

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
    """H = D Hr D^dag with Hr real symmetric; rows whose phases are all zero take no gauge."""

    def test_gauge_rebuilds_the_hamiltonians(self, rng):
        rows = _gauge_rows(rng)
        hr = _real_parts(rows)
        assert np.array_equal(hr, hr.swapaxes(-1, -2))
        gauge = _gauged(np.eye(9), rows[:, 1::3])  # D as (n, 9, 9) diagonal matrices
        assert np.array_equal(gauge, gauge * np.eye(9))
        for h, row in zip(gauged_hamiltonians(rows), rows):
            want = two_atom_hamiltonian_by_rules(row[[0, 2, 1]], row[[3, 5, 4]], row[6])
            assert np.all(np.abs(h - want) <= 4 * np.finfo(float).eps * np.abs(want))

    def test_gauge_is_skipped_exactly_when_every_phase_is_zero(self, monkeypatch, rng):
        rows = _gauge_rows(rng)
        vr = rng.normal(size=(9, 9))
        exp, calls = np.exp, []
        monkeypatch.setattr(np, "exp", lambda x: calls.append(x.shape) or exp(x))
        for row in rows:
            before = len(calls)
            _gauged(vr, row[1::3])
            assert len(calls) - before == (1 if row[[1, 4]].any() else 0)
        free = np.where(rng.uniform(size=(len(rows), 2)) < 0.5, 0.0, -0.0)
        before = len(calls)
        _gauged(rng.normal(size=(len(rows), 9, 9)), free)
        assert len(calls) == before
        free[17, 1] = 1e-300
        _gauged(rng.normal(size=(len(rows), 9, 9)), free)
        assert calls[before:] == [(len(rows), 9)]

    def test_phase_free_rows_keep_their_bits_through_the_gauge(self, rng):
        # D = 1 + 0j exactly, so signed zeros in vr survive too.
        vr = rng.normal(size=(6, 9, 9))
        vr[..., ::4], vr[..., 1::4] = -0.0, 0.0
        plain = _gauged(vr, np.zeros((6, 2)))
        assert plain.dtype == np.complex128
        assert np.array_equal(plain.view(np.uint64), vr.astype(np.complex128).view(np.uint64))
        phases = np.zeros((7, 2))
        phases[6] = 0.5, -0.0  # one phased row beside them forces the multiply
        through = _gauged(np.concatenate([vr, rng.normal(size=(1, 9, 9))]), phases)
        assert np.array_equal(through[:6].view(np.uint64), plain.view(np.uint64))
        # A blockade gate forced through the gauge by a phased row beside it.
        seq = blockade_pdp_sequence(BlockadeProtocolParams(1.0, 100.0))
        rows, durations, order = distinct_segments(seq.controls, seq.durations)
        phased = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0)).controls[1:2]
        both = np.concatenate([rows, phased])
        w, vr = np.linalg.eigh(_real_parts(both))
        through = _kernels.sequence_product(w[:2], _gauged(vr, both[:, 1::3])[:2], durations, order)
        assert np.array_equal(through.view(np.uint64), sequence_unitary(seq).view(np.uint64))

    def test_the_largest_finite_rabi_frequency_propagates(self):
        # The row holds Omega itself, so nothing overflows before eigh, on either route.
        drive = DriveParams(sys.float_info.max, 0.0, -0.11215485773315592)
        seq = PulseSequence((PulseSegment(1.0, drive, None, 0.0),))
        assert seq.controls[0, :3].tolist() == [sys.float_info.max, -0.11215485773315592, 0.0]
        u = sequence_unitary(seq)
        assert unitarity_defect(u) < 1e-14
        finite = PulseSequence((PulseSegment(1.0, DriveParams(1.0, 0.0, -0.11215485773315592), None, 0.0),))
        (alone,) = batch_unitaries(seq.controls[None], seq.durations)
        (both,) = batch_unitaries(np.stack([finite.controls, seq.controls]), seq.durations)
        for got, want in ((alone[0], u), (both[1], u), (both[0], sequence_unitary(finite))):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestEigensystemCache:
    """A sequence keeps the read-only eigensystem of its distinct segments, and the running
    products of its one product loop."""

    def _sequence(self):
        return geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))

    def test_cached_arrays_are_read_only(self):
        w, v, durations, order = self._sequence()._eigensystem
        assert (w.shape, v.shape, durations.shape, order) == ((2, 9), (2, 9, 9), (2,), (0, 1, 0, 1))
        for array in (w, v, durations):
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
        w, v, durations, order = seq._eigensystem
        partials = seq._partials
        assert partials.shape == (4, 9, 9) and not partials.flags.writeable
        for j in range(1, len(order) + 1):
            prefix = _kernels.sequence_product(w, v, durations, order[:j])
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
        assert replaced._eigensystem[3] == (0, 1, 0)
        assert dataclasses.replace(seq)._eigensystem is not seq._eigensystem


class TestSequenceProduct:
    """The product starts from the first segment's step, with the bits of one seeded
    with the identity."""

    def _stack(self, rng, shape):
        hams = np.array([random_hermitian(rng, scale=3.0) for _ in range(math.prod(shape))])
        return hams.reshape(shape + (9, 9)), rng.uniform(0.1, 2.0, size=shape)

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (7, 3)])
    def test_bit_equal_to_the_identity_seeded_loop(self, rng, shape):
        hams, durations = self._stack(rng, shape)
        for length in range(1, 7):
            for _ in range(4):
                order = tuple(rng.integers(0, shape[-1], size=length).tolist())
                got = _kernels.sequence_product(*np.linalg.eigh(hams), durations, order)
                want = sequence_product_from_identity(hams, durations, order)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), order

    def test_one_segment_gives_a_new_array(self, rng):
        hams, durations = self._stack(rng, (5, 2))
        u = _kernels.sequence_product(*np.linalg.eigh(hams), durations, (1,))
        assert u.flags.owndata and u.flags.c_contiguous
        assert np.array_equal(u, expm_hermitian(hams[:, 1], durations[:, 1]))


def _eigensystems(rows):
    """(w, v) of each row's Hamiltonian, one real ``eigh`` per row through the laser-phase gauge."""
    w, v = np.linalg.eigh(_real_parts(rows))
    return w, _gauged(v, rows[..., 1::3])


def _product_per_segment(rows, durations):
    """U_k ... U_1 from one diagonalisation per segment, each gauged on its own, nothing shared."""
    u = np.eye(9, dtype=np.complex128)
    for row, t in zip(rows, durations):
        u = _kernels.sequence_product(*_eigensystems(row[None]), t[None], (0,)) @ u
    return u


def _rydberg_time_per_segment(sequence):
    """``rydberg_time`` with every segment diagonalised on its own."""
    rows, durations = sequence.controls, sequence.durations
    (w, v), order = _eigensystems(rows), range(len(durations))
    partials = _kernels.sequence_product(w, v, durations, order, partials=True)
    states = np.eye(9, dtype=np.complex128)[list(COMPUTATIONAL_INDICES)]
    totals = _kernels.weighted_population_integral(
        w, v, durations, order, partials, states, EXCITATIONS, RYDBERG_TIME_SAMPLES
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
