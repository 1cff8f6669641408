"""Tests for basis indexing and the Hermitian exponential kernel."""

import math

import numpy as np
import pytest
from oracles import (
    antisymmetric_rr_state,
    hermiticity_defect,
    random_hermitian,
    rk4_unitary,
    symmetric_rr_state,
    unitarity_defect,
)

from rydgate._kernels import expm_hermitian
from rydgate.statespace import (
    COMPUTATIONAL_INDICES,
    Level,
    rydberg_excitation_counts,
    wrap_angle,
)


def test_computational_indices_are_row_major():
    qubits = (Level.G0, Level.G1)
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
        counts = rydberg_excitation_counts()
        assert list(counts) == [0, 0, 1, 0, 0, 1, 1, 1, 2]

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
