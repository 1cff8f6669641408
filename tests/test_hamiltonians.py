"""Tests for the two-atom basis, the Hamiltonian builder against reference blocks and couplings,
and the Hermitian exponential oracle."""

import math

import numpy as np
import pytest
from conftest import random_drive
from oracles import (
    antisymmetric_rr_state,
    controlled_flip_family,
    expm_hermitian,
    h_block_01,
    h_block_11,
    h_direct,
    h_full,
    hermiticity_defect,
    random_hermitian,
    real_parts_by_einsum,
    rk4_unitary,
    symmetric_block_projectors,
    symmetric_rr_state,
    two_atom_hamiltonian_by_rules,
    unitarity_defect,
)

from rydgate.hamiltonians import COMPUTATIONAL_INDICES, EXCITATIONS, EXCITED, _real_parts
from rydgate.propagation import DriveParams, PulseSegment, wrap_angle


class TestDriveParams:
    def test_phase_normalized_into_half_open_interval(self):
        assert DriveParams(1.0, 0.0, 3 * math.pi).phase == pytest.approx(math.pi)
        assert DriveParams(1.0, 0.0, -math.pi / 2).phase == pytest.approx(-math.pi / 2)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError, match="rabi"):
            DriveParams(-0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DriveParams(math.nan)
        with pytest.raises(ValueError, match="^v must be finite, got inf$"):
            PulseSegment(1.0, None, None, math.inf)


class TestHFull:
    def test_interaction_only(self):
        h = h_full(None, None, 5.0)
        expected = np.zeros((9, 9))
        expected[8, 8] = 5.0
        assert np.array_equal(h, expected)

    def test_symmetric_drive_coefficients(self):
        d = DriveParams(1.0, 0.0, 0.0)
        h = h_full(d, d, 0.0)
        assert h[1, 2] == pytest.approx(0.5)  # <01|H|0r>
        assert h[2, 1] == pytest.approx(0.5)
        assert hermiticity_defect(h) == 0.0

    def test_matches_term_by_term_oracle(self):
        d = DriveParams(2.0, -3.0, math.pi / 4)
        h = h_full(d, d, 7.0)
        expected = two_atom_hamiltonian_by_rules(
            (2.0, -3.0, math.pi / 4), (2.0, -3.0, math.pi / 4), 7.0
        )
        assert np.max(np.abs(h - expected)) < 1e-15

    def test_asymmetric_and_absent_drives_match_oracle(self, rng):
        for _ in range(25):
            d1 = random_drive(rng) if rng.uniform() < 0.8 else None
            d2 = random_drive(rng) if rng.uniform() < 0.8 else None
            v = float(rng.uniform(-5, 5))
            h = h_full(d1, d2, v)
            expected = two_atom_hamiltonian_by_rules(
                None if d1 is None else (d1.rabi, d1.detuning, d1.phase),
                None if d2 is None else (d2.rabi, d2.detuning, d2.phase),
                v,
            )
            assert np.max(np.abs(h - expected)) < 1e-15

    def test_hermitian_over_random_draws(self, rng):
        for _ in range(100):
            h = h_full(random_drive(rng), random_drive(rng), float(rng.uniform(-5, 5)))
            assert hermiticity_defect(h) <= 1e-12


class TestBlock01:
    def test_resonant_coefficients(self):
        h = h_block_01(DriveParams(1.0, 0.0, 0.0))
        assert np.array_equal(h, np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex))

    def test_no_drive_is_pure_detuning(self):
        h = h_block_01(DriveParams(0.0, -1.7, 0.0))
        assert np.array_equal(h, np.diag([0.0, -1.7]).astype(complex))

    def test_equals_h_full_restriction(self, rng):
        for _ in range(25):
            d = random_drive(rng)
            full = h_full(d, d, float(rng.uniform(-5, 5)))
            block = full[np.ix_((1, 2), (1, 2))]
            assert np.max(np.abs(h_block_01(d) - block)) < 1e-12


class TestBlock11:
    def test_resonant_coefficients(self):
        h = h_block_11(DriveParams(1.0, 0.0, 0.0), 0.0)
        g = math.sqrt(2) / 2
        assert h[0, 1] == pytest.approx(g)
        assert h[1, 2] == pytest.approx(g)
        assert np.allclose(np.diag(h), 0.0)

    def test_equals_h_full_restriction_in_symmetric_basis(self, rng):
        bright = symmetric_rr_state()
        e11 = np.zeros(9, dtype=complex)
        e11[4] = 1.0
        err = np.zeros(9, dtype=complex)
        err[8] = 1.0
        basis = np.column_stack([e11, bright, err])
        for _ in range(25):
            d = random_drive(rng)
            v = float(rng.uniform(-5, 5))
            full = h_full(d, d, v)
            restricted = basis.conj().T @ full @ basis
            assert np.max(np.abs(h_block_11(d, v) - restricted)) < 1e-12

    def test_dark_combination_at_half_negative_detuning(self):
        v = 2.3
        h = h_block_11(DriveParams(1.1, -v / 2, 0.0), v)
        assert np.allclose(np.diag(h).real, [0.0, -v / 2, 0.0], atol=1e-15)
        dark = np.array([1.0, 0.0, -1.0]) / math.sqrt(2)
        assert np.max(np.abs(h @ dark)) < 1e-15

    def test_nonzero_eigenvalues_at_half_negative_detuning(self, rng):
        for _ in range(25):
            omega = float(rng.uniform(0.2, 3.0))
            v = float(rng.uniform(0.2, 6.0))
            h = h_block_11(DriveParams(omega, -v / 2, 0.0), v)
            s = math.sqrt(4 * omega**2 + v**2 / 4)
            eigs = np.sort(np.linalg.eigvalsh(h))
            expected = np.sort([-v / 4 - s / 2, 0.0, -v / 4 + s / 2])
            assert np.max(np.abs(eigs - expected)) < 1e-10

    def test_eigenvalue_gap_matches_cyclicity_frequency(self, rng):
        for _ in range(100):
            omega = float(rng.uniform(0.1, 3.0))
            v = float(rng.uniform(0.1, 8.0))
            phase = float(rng.uniform(-math.pi, math.pi))
            h = h_block_11(DriveParams(omega, -v / 2, phase), v)
            eigs = np.sort(np.linalg.eigvalsh(h))
            gap = eigs[-1] - eigs[0]
            assert gap == pytest.approx(math.sqrt(4 * omega**2 + v**2 / 4), abs=1e-10)


class TestHDirect:
    def test_zz_diagonal(self):
        h = h_direct("zz", 1.0)
        assert np.array_equal(h, np.diag([0.25, -0.25, -0.25, 0.25]).astype(complex))

    def test_xy_entries(self):
        h = h_direct("xy", 1.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 2.0
        assert np.array_equal(h, expected)

    def test_pm_is_half_xy(self):
        xy = h_direct("xy", 1.0)
        pm = h_direct("pm", 2.0)
        assert np.array_equal(xy, pm)

    def test_xy_evolution_is_controlled_flip_family(self):
        # exp(-i H t) realizes the cos/i*sin block with theta = -2*J*t: the
        # positive-theta member of the family is reached with J*t < 0.
        j, t = 1.0, 0.37
        u = expm_hermitian(h_direct("xy", j), t)
        assert np.max(np.abs(u - controlled_flip_family(-2 * j * t))) < 1e-10
        u_neg = expm_hermitian(h_direct("xy", -j), t)
        assert np.max(np.abs(u_neg - controlled_flip_family(2 * j * t))) < 1e-10


class TestSymmetricBlockStructure:
    def test_projectors_commute_with_h_full(self, rng):
        for _ in range(100):
            d = random_drive(rng)
            h = h_full(d, d, float(rng.uniform(-5, 5)))
            for p in symmetric_block_projectors().values():
                assert np.max(np.abs(h @ p - p @ h)) < 1e-12

    def test_antisymmetric_state_is_detuning_eigenvector(self, rng):
        for _ in range(100):
            d = random_drive(rng)
            h = h_full(d, d, float(rng.uniform(-5, 5)))
            a = antisymmetric_rr_state()
            assert np.max(np.abs(h @ a - d.detuning * a)) < 1e-12


def _extreme_rows(rng, shape):
    """Random control rows over magnitudes 1e-300 to 1e300, both signs, with planted
    0.0 and -0.0, all-negative rows, and |rr> diagonals that cancel exactly."""
    rows = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    rows[rng.uniform(size=shape) < 0.15] = 0.0
    rows[rng.uniform(size=shape) < 0.15] = -0.0
    flat = rows.reshape(-1, 7)
    flat[::3] = -np.abs(flat[::3])
    flat[1::5, 5] = -flat[1::5, 2]  # Delta1 + Delta2 = 0
    flat[2::5, 6] = -flat[2::5, 5]  # Delta2 + V = 0
    return rows


class TestGather:
    """``_real_parts`` gathers its entries with the bits of the full contraction's real parts."""

    @pytest.mark.parametrize("shape", [(7,), (1, 7), (3, 7), (40, 7), (1, 2, 7), (5, 3, 7), (64, 2, 7)])
    def test_bit_equal_to_the_contraction(self, rng, shape):
        # 81 floats a matrix, one contiguous stack, with the contraction's signed-zero rule
        # and |rr> sums, on rows with and without phases: the phase columns feed no entry.
        phase = np.isin(np.arange(7), (1, 4))
        for _ in range(20):
            rows = _extreme_rows(rng, shape)
            want = _real_parts(np.where(phase, 0.0, rows))
            for stack in (rows, np.where(phase, -0.0, rows)):
                real = _real_parts(stack)
                assert real.shape == shape[:-1] + (9, 9) and real.dtype == np.float64 and real.flags.c_contiguous
                assert np.array_equal(real.view(np.uint64), real_parts_by_einsum(stack).view(np.uint64))
                assert np.array_equal(real.view(np.uint64), want.view(np.uint64))

    def test_strided_and_padded_stacks(self, rng):
        d = random_drive(rng)
        rows = np.array([[d.rabi, d.phase, d.detuning, -0.0, d.rabi, -d.detuning, 2.5]] * 4)
        for stack in (rows, rows[::2], rows.T.copy().T, rows[None, :, None]):
            want = real_parts_by_einsum(stack)
            assert np.array_equal(_real_parts(stack).view(np.uint64), want.view(np.uint64))

    def test_rows_are_not_modified(self, rng):
        rows = _extreme_rows(rng, (6, 7))
        before = rows.copy()
        _real_parts(rows)
        assert np.array_equal(rows.view(np.uint64), before.view(np.uint64))


def test_computational_indices_are_row_major():
    qubits = (0, 1)  # the level codes of |0> and |1>
    assert COMPUTATIONAL_INDICES == tuple(3 * a + b for a in qubits for b in qubits) == (0, 1, 3, 4)


class TestExpmHermitian:
    def test_zero_time_gives_identity(self, rng):
        h = random_hermitian(rng)
        assert np.max(np.abs(expm_hermitian(h, 0.0) - np.eye(9))) < 1e-15

    def test_full_rabi_cycle_flips_sign_on_coupled_pair(self):
        omega = 1.3
        h = np.zeros((9, 9), dtype=complex)
        h[1, 2] = h[2, 1] = omega / 2
        u = expm_hermitian(h, 2 * math.pi / omega)
        expected = np.eye(9, dtype=complex)
        expected[1, 1] = expected[2, 2] = -1.0
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_matches_rk4_oracle(self, rng):
        h = random_hermitian(rng)
        u = expm_hermitian(h, 0.7)
        assert np.max(np.abs(u - rk4_unitary(h, 0.7))) < 1e-8

    def test_rejects_non_finite_time(self, rng):
        with pytest.raises(ValueError, match="overflows"):
            expm_hermitian(random_hermitian(rng), math.inf)

    def test_unitarity_over_random_draws(self, rng):
        for _ in range(100):
            u = expm_hermitian(random_hermitian(rng), float(rng.uniform(-3, 3)))
            assert unitarity_defect(u) < 1e-10

    def test_group_property(self, rng):
        for _ in range(20):
            h = random_hermitian(rng)
            t1, t2 = rng.uniform(-2, 2, size=2)
            lhs = expm_hermitian(h, t1) @ expm_hermitian(h, t2)
            rhs = expm_hermitian(h, t1 + t2)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_eigenvalues_on_unit_circle(self, rng):
        for _ in range(20):
            u = expm_hermitian(random_hermitian(rng), float(rng.uniform(0.1, 3)))
            moduli = np.abs(np.linalg.eigvals(u))
            assert np.max(np.abs(moduli - 1.0)) < 1e-10


class TestHelpers:
    def test_special_states_are_normalized_and_orthogonal(self):
        s = symmetric_rr_state()
        a = antisymmetric_rr_state()
        assert abs(np.vdot(s, s) - 1) < 1e-15
        assert abs(np.vdot(a, a) - 1) < 1e-15
        assert abs(np.vdot(s, a)) < 1e-15

    def test_rydberg_counts(self):
        assert list(EXCITATIONS) == [0, 0, 1, 0, 0, 1, 1, 1, 2]

    def test_excited_marks_each_atoms_rydberg_level(self):
        # Row-major over (atom 1, atom 2), |r> = code 2: n1 repeats, n2 tiles.
        assert EXCITED.tolist() == [np.repeat([0.0, 0.0, 1.0], 3).tolist(), np.tile([0.0, 0.0, 1.0], 3).tolist()]
        assert EXCITED.flags.c_contiguous and not EXCITED.flags.writeable

    def test_hermiticity_defect(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1j * 1e-4
        assert abs(hermiticity_defect(m) - 1e-4) < 1e-18


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi / 2, -math.pi / 2),
            (-3 * math.pi / 2, math.pi / 2),
            (2 * math.pi, 0.0),
            (7.0, 7.0 - 2 * math.pi),
        ],
    )
    def test_values(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected, abs=1e-12)

    def test_range_is_half_open(self, rng):
        for x in rng.uniform(-20, 20, size=200):
            w = wrap_angle(float(x))
            assert -math.pi < w <= math.pi
