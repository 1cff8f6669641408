"""Tests for phase extraction, controlled phase, fidelity and actuation cost."""

import math

import numpy as np
import pytest
from conftest import random_segment
from oracles import (
    embed_two_qubit,
    expm_hermitian,
    gauged_hamiltonians,
    golden_section_fidelity,
    grid_argmax,
    h_direct,
    pulse_area_by_segments,
    running_products_from_identity,
    sampled_population_integral,
    sequential_population_integral,
    two_pass_gate_report,
)

import rydgate.propagation
from rydgate import _kernels, analysis, robustness
from rydgate._kernels import pure
from rydgate.analysis import (
    RYDBERG_TIME_SAMPLES,
    _GRID,
    _TWO_COS,
    _TWO_SIN,
    _diagonals,
    _fidelity_functional,
    _fidelity_terms,
    _grid_index,
    _grid_pass,
    _phase_sum,
    analyze_gate,
    controlled_phase,
    fidelity_cphase,
    phase_combination,
    phases_and_leakage,
    pulse_area,
    rydberg_time,
)
from rydgate.propagation import (
    CHUNK,
    COMPUTATIONAL_INDICES,
    EXCITATIONS,
    DriveParams,
    PulseSegment,
    PulseSequence,
    batch_unitaries,
    sequence_unitary,
    wrap_angle,
)
from rydgate.protocols import (
    BlockadeProtocolParams,
    GeometricProtocolParams,
    blockade_pdp_sequence,
    geometric_controls,
    geometric_sequence,
)
from rydgate.robustness import _perturbed_controls


def _embed_diag(values):
    u = np.eye(9, dtype=complex)
    for idx, val in zip(COMPUTATIONAL_INDICES, values):
        u[idx, idx] = val
    return u


def _mix_01_and_0r(amp, out):
    """Identity with |01> -> amp|01> + out|0r>, completed to the unitary
    block [[amp, -conj(out)], [out, conj(amp)]] on (|01>, |0r>)."""
    u = np.eye(9, dtype=complex)
    u[1:3, 1:3] = [[amp, -np.conj(out)], [out, np.conj(amp)]]
    return u


class TestPhasesAndLeakage:
    def test_identity(self):
        extraction = phases_and_leakage(np.eye(9, dtype=complex))
        assert extraction.phases == (0.0, 0.0, 0.0, 0.0)
        assert extraction.leakage == (0.0, 0.0, 0.0, 0.0)
        assert all(extraction.reliable)

    def test_constructed_diagonal(self):
        u = _embed_diag([1.0, 1.0, 1.0, np.exp(1j * math.pi / 3)])
        extraction = phases_and_leakage(u)
        assert extraction.phases[3] == pytest.approx(math.pi / 3)
        assert extraction.leakage_max == pytest.approx(0.0, abs=1e-15)

    def test_small_amplitude_flagged_unreliable(self):
        u = _mix_01_and_0r(0.4j, math.sqrt(1 - 0.16))
        extraction = phases_and_leakage(u)
        assert extraction.reliable == (True, False, True, True)
        assert extraction.leakage[1] == pytest.approx(1 - 0.16)

    def test_small_leakage_keeps_full_precision(self):
        # 1 - |<01|U|01>|^2 = 1 - cos^2(theta) cancels to 8 digits here; the
        # off-diagonal column weight is sin^2(theta) to the last bit.
        theta = 1e-4
        u = _mix_01_and_0r(math.cos(theta), math.sin(theta))
        extraction = phases_and_leakage(u)
        assert extraction.leakage == (0.0, math.sin(theta) ** 2, 0.0, 0.0)
        assert extraction.leakage_max == math.sin(theta) ** 2

    @pytest.mark.parametrize("n", [4, 5])
    def test_rejects_odd_shapes(self, n):
        with pytest.raises(ValueError, match="9x9"):
            phases_and_leakage(np.eye(n, dtype=complex))
        with pytest.raises(ValueError, match="9x9"):
            fidelity_cphase(np.eye(n, dtype=complex), math.pi)


class TestControlledPhase:
    def test_wrap_convention_at_branch_point(self):
        assert controlled_phase((0.0, math.pi, math.pi, math.pi)) == pytest.approx(math.pi)
        assert phase_combination((0.0, math.pi, math.pi, math.pi)) == pytest.approx(-math.pi)

    def test_cz_phases(self):
        assert controlled_phase((0.0, 0.0, 0.0, -math.pi)) == pytest.approx(math.pi)

    def test_includes_00_phase(self):
        assert controlled_phase((0.2, 0.0, 0.0, 0.5)) == pytest.approx(0.7)

    def test_invariant_under_global_phase_and_local_z(self, rng):
        for _ in range(25):
            base = rng.uniform(-math.pi, math.pi, size=4)
            u = _embed_diag(np.exp(1j * base))
            reference = controlled_phase(phases_and_leakage(u).phases)
            gamma, alpha, beta = rng.uniform(-math.pi, math.pi, size=3)
            local = np.exp(
                1j
                * (
                    gamma
                    + np.array([0.0, beta, alpha, alpha + beta])
                )
            )
            u_dressed = _embed_diag(np.exp(1j * base) * local)
            dressed = controlled_phase(phases_and_leakage(u_dressed).phases)
            assert math.isclose(
                math.cos(dressed - reference), 1.0, abs_tol=1e-9
            )

    def test_zz_gate_controlled_phase(self):
        j = 1.0
        t = math.pi / j
        u = embed_two_qubit(expm_hermitian(h_direct("zz", j), t))
        phi_c = controlled_phase(phases_and_leakage(u).phases)
        assert abs(phi_c) == pytest.approx(math.pi, abs=1e-10)

    def test_zz_phase_grows_linearly_with_area(self):
        # |phi_c| = J*t for the Ising coupling, up to the wrap at pi.
        j = 1.3
        for t in (0.2, 0.9, math.pi / j):
            u = embed_two_qubit(expm_hermitian(h_direct("zz", j), t))
            phi_c = controlled_phase(phases_and_leakage(u).phases)
            assert abs(phi_c) == pytest.approx(j * t, abs=1e-10)


class TestFidelity:
    def test_exact_cz_embedding(self):
        u = _embed_diag([1.0, 1.0, 1.0, -1.0])
        assert fidelity_cphase(u, math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_identity_against_cz_without_compensation(self):
        # M = diag(1, 1, 1, -1): (|trace|^2 + 4)/20 = (4 + 4)/20.
        assert fidelity_cphase(np.eye(9, dtype=complex), math.pi, compensate=False) == (
            pytest.approx(0.4, abs=1e-12)
        )

    def test_identity_against_cz_with_compensation(self):
        # Local phases (alpha = beta = pi/2) turn the trace into |2 + 2i|,
        # so compensation lifts the figure to (8 + 4)/20.
        assert fidelity_cphase(np.eye(9, dtype=complex), math.pi) == pytest.approx(
            0.6, abs=1e-9
        )

    def test_global_phase_invariance(self, rng):
        seq = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))
        u = sequence_unitary(seq)
        f0 = fidelity_cphase(u, math.pi)
        for gamma in rng.uniform(-math.pi, math.pi, size=5):
            assert fidelity_cphase(np.exp(1j * gamma) * u, math.pi) == pytest.approx(
                f0, abs=1e-11
            )

    def test_local_z_dressing_is_fully_compensated(self, rng):
        seq = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))
        u = sequence_unitary(seq)
        f0 = fidelity_cphase(u, math.pi)
        for _ in range(5):
            alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
            z1 = np.exp(1j * alpha * np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
            z2 = np.exp(1j * beta * np.tile([0.0, 1.0, 0.0], 3))
            dressed = np.diag(z1 * z2) @ u
            assert fidelity_cphase(dressed, math.pi) == pytest.approx(f0, abs=1e-9)

    def test_controlled_flip_block_at_quarter_cycle(self):
        # At |2*J*t| = pi/2 the direct exchange coupling realizes a perfect
        # controlled flip: the inner block swaps |01> and |10> with phase i.
        j = 1.0
        t = math.pi / (4 * j)
        u = expm_hermitian(h_direct("xy", j), t)
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, -1j, 0],
                [0, -1j, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert np.max(np.abs(u - expected)) < 1e-10

    @pytest.mark.parametrize("target_phi", [math.nan, math.inf, -math.inf, [0.0, -math.inf]])
    def test_non_finite_target_rejected(self, target_phi):
        # A stack's targets are checked one by one; the message names the first bad one.
        bad = np.ravel(target_phi)[-1]
        with pytest.raises(ValueError, match=f"^target_phi must be finite, got {bad}$"):
            fidelity_cphase(np.stack([np.eye(9, dtype=complex)] * 2), target_phi)

    def test_non_finite_unitary_rejected(self):
        # min(1, nan) is 1: without the check a NaN gate reads as perfect.
        u = np.eye(9, dtype=complex)
        u[4, 4] = np.nan
        for compensate in (True, False):
            with pytest.raises(ValueError, match="out of range"):
                fidelity_cphase(u, math.pi, compensate=compensate)

    @pytest.mark.parametrize("bad", [math.inf, complex(math.inf, -math.inf), complex(0.0, math.nan)])
    def test_an_infinite_entry_is_a_value_error_on_both_paths(self, bad):
        # The functional checks its gates before the local-Z search, which would warn
        # on an infinite entry (inf * 0); pytest turns that warning into an error.
        u = np.eye(9, dtype=complex)
        u[3, 3] = bad
        with pytest.raises(ValueError, match="^fidelity functional out of range"):
            fidelity_cphase(u, math.pi)
        with pytest.raises(ValueError, match="^fidelity functional out of range"):
            fidelity_cphase(np.array([np.eye(9), u]), math.pi)
        with pytest.raises(ValueError, match="^fidelity functional out of range"):
            fidelity_cphase(np.array([np.eye(9)] * 10 + [u] + [np.eye(9)] * 10), math.pi)  # past one grid pass

    @pytest.mark.parametrize("compensate", [True, False])
    def test_the_functional_leaves_its_terms_unchanged(self, rng, compensate):
        # So a caller may take phases from the diagonals before or after scoring them.
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        u = sequence_unitary(geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0)))
        # One gate, one grid pass, and a stack past one pass.
        for gates, target in (
            (u, math.pi),
            (np.array([u, q]), np.array([math.pi, 2.1])),
            (np.array([u, q] * 9), np.tile([math.pi, 2.1], 9)),
        ):
            c, tr_mm = _fidelity_terms(gates)
            kept = c.tobytes(), tr_mm.tobytes()
            _fidelity_functional(c, tr_mm, target, compensate)
            assert (c.tobytes(), tr_mm.tobytes()) == kept

    def test_maximizer_matches_golden_section_oracle(self, rng):
        cases = []
        for kappa in np.linspace(0.2, 2.5, 200):
            params = GeometricProtocolParams.from_omega(float(kappa), 1.0)
            cases.append((sequence_unitary(geometric_sequence(params)), math.pi))
        for params, build in (
            (GeometricProtocolParams.from_omega(1.65, 1.0), geometric_sequence),
            (BlockadeProtocolParams(rabi=1.0, v=100.0), blockade_pdp_sequence),
        ):
            seq = build(params)
            eps = rng.normal(scale=0.02, size=(200, 2))
            controls = _perturbed_controls(seq.controls, 1.0 + eps[:, 0], params.v * (1.0 + eps[:, 1]))
            cases.extend((u, math.pi) for chunk in batch_unitaries(controls, seq.durations) for u in chunk)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
            cases.append((q, float(rng.uniform(-math.pi, math.pi))))
        # Fully leaked |00>, |10> (or |01>, |11>): one term of f vanishes.
        cases.append((_embed_diag([0.0, 1.0, 0.0, np.exp(0.3j)]), 0.0))
        cases.append((_embed_diag([0.6, 0.0, 0.8j, 0.0]), 1.0))
        oracle = np.array([golden_section_fidelity(u, target) for u, target in cases])
        per_gate = np.array([fidelity_cphase(u, target) for u, target in cases])
        us, targets = zip(*cases)
        stacked = fidelity_cphase(np.array(us), np.array(targets))
        # |difference| <= 1e-15 also bounds how far below the oracle it may fall.
        for got in (per_gate, stacked):
            assert np.max(np.abs(got - oracle)) <= 1e-15


def _pair_terms(c):
    """The (A, z) pairs of ``_local_z_angle`` for (..., 4) diagonals c."""
    a, b = c[..., :2], c[..., 2:]
    return np.abs(a) ** 2 + np.abs(b) ** 2, np.conj(a) * b


def _grid_index_of(c):
    return _grid_index(*_pair_terms(c))


def _full_grid(big_a, z):
    """The full grid's index for (n, 2) pairs, in passes of 16 gates that no fixture records."""
    return np.concatenate([_grid_pass(big_a[i : i + 16], z[i : i + 16]) for i in range(0, len(z), 16)])


def _vanishing_pairs(rng, n):
    """(256 n, 4) diagonals of magnitude < 1 whose pair (c00, c10) vanishes, up to
    rounding, at each grid angle in turn."""
    c = rng.uniform(0.0, 1.0, (256, n, 4)) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, (256, n, 4)))
    c[..., 2] = -c[..., 0] * np.exp(-1j * _GRID)[:, None]
    return c.reshape(-1, 4)


def _random_diagonals(rng, n):
    """(2 n, 4) diagonals: n of near-unit magnitude, as on working gates, and n in [0, 1]."""
    magnitudes = np.concatenate([1.0 - rng.exponential(1e-3, (n, 4)), rng.uniform(0.0, 1.0, (n, 4))])
    return magnitudes * np.exp(1j * rng.uniform(0.0, 2 * math.pi, magnitudes.shape))


DEGENERATE_DIAGONALS = [
    [0.0, 0.6 + 0.1j, 0.0, -0.3j],  # the pair (c00, c10) is zero
    [0.0, 0.0, 0.0, 0.0],  # both pairs are zero: f is flat
    [0.8, 0.0, 0.0, 0.0],  # f is flat and nonzero
    [0.6 - 0.2j, 0.3j, -0.6 + 0.2j, 0.5],  # c10 = -c00: zero at grid angle 0
    [0.6 - 0.2j, 0.6 - 0.2j, 0.7j, 0.7j],  # equal pairs
    [0.3 + 0.4j, 0.3 + 0.4j, -0.3 - 0.4j, -0.3 - 0.4j],  # equal pairs, both zero at 0
]


class TestLocalZGrid:
    """The real-arithmetic grid of the local-Z maximizer against the complex-phasor oracle."""

    def test_matches_the_phasor_oracle_on_random_diagonals(self, rng):
        c = _random_diagonals(rng, 6400)
        assert np.array_equal(_grid_index_of(c), grid_argmax(c, _GRID))

    @pytest.mark.parametrize("c", DEGENERATE_DIAGONALS)
    def test_degenerate_diagonals(self, c):
        c = np.array(c, dtype=complex)
        assert _grid_index_of(c) == grid_argmax(c, _GRID)
        assert math.isfinite(fidelity_cphase(_embed_diag(c), 0.0))

    # The grid is searched 16 gates a pass.
    @pytest.mark.parametrize("shape", [(1,), (16,), (17,), (CHUNK + 1,), (3, 15), (2, 3, 2 * CHUNK + 7)])
    def test_chunked_search_gives_each_gates_index(self, rng, shape):
        c = _random_diagonals(rng, math.prod(shape))[::2].reshape(shape + (4,))
        index = _grid_index_of(c)
        assert index.shape == shape
        assert index.ravel().tolist() == [_grid_index_of(gate).item() for gate in c.reshape(-1, 4)]

    def test_clamp_keeps_nan_out_of_a_vanishing_pair(self, rng):
        # pytest turns RuntimeWarnings into errors, so a sqrt of a rounded-negative
        # h^2 fails here; these cases do round below 0 before the clamp.
        c = _vanishing_pairs(rng, 40)
        a, b = c[:, 0], c[:, 2]
        h2 = np.abs(a) ** 2 + np.abs(b) ** 2 + 2.0 * (np.conj(a) * b * np.exp(1j * _GRID.repeat(40))).real
        assert np.any(h2 < 0.0)
        assert np.array_equal(_grid_index_of(c), grid_argmax(c, _GRID))
        assert np.isfinite(fidelity_cphase(np.array([_embed_diag(x) for x in c[:512]]), 1.0)).all()

    def test_monte_carlo_block_step_gives_each_gates_grid_index_and_fidelity(self, monkeypatch, rng):
        # The block step scores a whole block at once.
        n = 3 * CHUNK + 5
        c = np.concatenate([DEGENERATE_DIAGONALS, _random_diagonals(rng, n)[::2]])[:n]  # both kinds
        u = np.array([_embed_diag(x) for x in c])
        seen = []

        def recorded(big_a, z):
            seen.append(_grid_index(big_a, z))
            return seen[-1]

        monkeypatch.setattr(analysis, "_grid_index", recorded)
        for target in (0.0, math.pi, 2.1):
            fidelities, phase_errors = robustness._block_statistics(*_fidelity_terms(u), target)
            for i, gate in enumerate(u):
                assert fidelities[i] == fidelity_cphase(gate, target)
                assert phase_errors[i] == abs(wrap_angle(controlled_phase(phases_and_leakage(gate).phases) - target))
        # At target 0 the grid sees the diagonals as they are.
        assert np.array_equal(seen[0], grid_argmax(c, _GRID))


def _close_peaks(rng, n, low, high, centre=None):
    """(n, 4) near-unit diagonals whose two pairs peak ``low`` to ``high`` grid cells apart,
    on either side of a random angle, or of ``centre``."""
    c = (1.0 - rng.exponential(1e-3, (n, 4))) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, (n, 4)))
    apart = rng.uniform(low, high, n) * rng.choice([-1.0, 1.0], n) * _GRID[1]
    # Pair p peaks at -arg(conj(c_p) c_{p+2}).
    peak = rng.uniform(0.0, 2 * math.pi, n) if centre is None else centre
    c[:, 2] = np.abs(c[:, 2]) * np.exp(1j * (np.angle(c[:, 0]) - peak + apart / 2))
    c[:, 3] = np.abs(c[:, 3]) * np.exp(1j * (np.angle(c[:, 1]) - peak - apart / 2))
    return c


class TestLocalZWindow:
    """In a stack of more than 16 gates, a gate whose pairs peak near each other is scored on
    a window of the grid, with the full grid's index bit for bit; the search leaves to the full
    grid every other gate, and every gate that the window's certificate does not cover."""

    @pytest.mark.parametrize(
        "family",
        [
            lambda rng: _random_diagonals(rng, 3000),
            lambda rng: np.tile(np.array(DEGENERATE_DIAGONALS, dtype=complex), (3, 1)),  # 18 gates
            lambda rng: _vanishing_pairs(rng, 20),
            lambda rng: _close_peaks(rng, 3000, 0.0, 2 * analysis._WINDOW),
            # Rounding is absolute below the normal range, which only the slack covers.
            lambda rng: _random_diagonals(rng, 3000) * 1e-161,
            lambda rng: _vanishing_pairs(rng, 20) * 1e-161,
        ],
        ids=["random", "degenerate", "vanishing", "close-peaks", "subnormal", "subnormal-vanishing"],
    )
    def test_gives_the_grid_index(self, rng, family, windowed):
        big_a, z = _pair_terms(family(rng))
        assert np.array_equal(_grid_index(big_a, z), _full_grid(big_a, z))
        assert windowed

    def test_peaks_ten_to_twelve_cells_apart_are_scored_on_the_window(self, rng, fallback, windowed):
        # Up to 12 cells apart both peaks lie a cell inside the window, whatever its
        # midpoint's cell. With one pair weaker, the maximum sits near the other's peak,
        # next to the window's end, so a window shifted by a cell leaves some gates.
        c = _close_peaks(rng, 4000, analysis._WINDOW - 6, analysis._WINDOW - 4)
        c[:, [1, 3]] *= rng.uniform(0.01, 1.0, (len(c), 1))
        big_a, z = _pair_terms(c)
        assert np.array_equal(_grid_index(big_a, z), _full_grid(big_a, z))
        assert fallback == [] and windowed == [(4000, 4000)]

    def test_peaks_more_than_the_window_apart_go_to_the_grid(self, rng, fallback, windowed):
        big_a, z = _pair_terms(_close_peaks(rng, 2000, analysis._WINDOW + 0.01, 128.0))
        assert np.array_equal(_grid_index(big_a, z), _full_grid(big_a, z))
        assert sum(fallback) == 2000 and windowed == [(0, 0)]

    def test_windows_that_wrap_past_the_last_cell(self, rng, fallback):
        # Midpoints within a cell of angle 0: each window spans cells 255 and 0.
        c = _close_peaks(rng, 2000, 0.0, analysis._WINDOW / 2, rng.uniform(-_GRID[1], _GRID[1], 2000))
        big_a, z = _pair_terms(c)
        index = _grid_index(big_a, z)
        assert np.array_equal(index, _full_grid(big_a, z))
        assert sum(fallback) == 0
        assert {0, 255} <= set(index.tolist())

    def test_a_tie_between_the_last_and_first_cell_picks_cell_0(self, fallback, windowed):
        # Both pairs peak half a cell below angle 0, where cells 255 and 0 score the same bits.
        # The gate is repeated past one grid pass, so that it reaches the window.
        z = 5e-4 * np.exp(0.5j * _GRID[1])
        c = np.array([[1.0, 1.0, z, z]] * 17)
        big_a, z = _pair_terms(c)
        h2 = z.real[..., None] * _TWO_COS - z.imag[..., None] * _TWO_SIN + big_a[..., None]  # as _grid_pass
        h = np.sqrt(np.maximum(h2, 0.0))
        f = h[0, 0] + h[0, 1]
        assert f[255] == f[0] == f.max() and np.sum(f == f.max()) == 2
        assert _grid_index(big_a, z).tolist() == _full_grid(big_a, z).tolist() == [0] * 17
        assert sum(fallback) == 0 and windowed == [(17, 17)]

    def test_a_stack_of_16_gates_takes_one_grid_pass(self, rng, fallback, windowed):
        c = _close_peaks(rng, 17, 0.0, 2.0)
        assert np.array_equal(_grid_index_of(c[:16]), _full_grid(*_pair_terms(c[:16])))
        assert fallback == [16] and windowed == []
        _grid_index_of(c)
        assert fallback == [16] and windowed == [(17, 17)]

    def test_each_gate_of_a_stack_picks_its_path(self, rng, fallback, windowed):
        # Near peaks interleaved with far ones: only the near gates are gathered for the window.
        near, far = _close_peaks(rng, 40, 0.0, 4.0), _close_peaks(rng, 40, 2 * analysis._WINDOW, 128.0)
        c = np.stack([near, far], axis=1).reshape(80, 4)
        big_a, z = _pair_terms(c)
        assert np.array_equal(_grid_index(big_a, z), _full_grid(big_a, z))
        assert sum(fallback) == 40 and windowed == [(40, 40)]

    def test_a_stack_of_gates_gives_the_bits_of_one_call_per_gate(self):
        kappas = np.linspace(0.2, 2.5, 60)
        gates = np.concatenate(list(batch_unitaries(*geometric_controls(kappas, 1.0)))).reshape(3, 20, 9, 9)
        targets = np.linspace(-4.0, 4.0, 60).reshape(3, 20)
        for target in (math.pi, targets):
            for compensate in (True, False):
                stacked = fidelity_cphase(gates, target, compensate)
                per_gate = [
                    fidelity_cphase(u, t, compensate) for u, t in zip(gates.reshape(60, 9, 9), np.broadcast_to(target, (3, 20)).ravel())
                ]
                assert stacked.shape == (3, 20)
                assert stacked.ravel().tolist() == per_gate

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), complex(math.inf, -math.inf)])
    def test_non_finite_rows_fall_back_and_fail_the_fidelity(self, monkeypatch, fallback, bad):
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        noise = robustness.NoiseModel.for_interaction(protocol.v, 1.0, 0.01, 0.005, 3)
        terms = robustness._fidelity_terms

        def with_a_bad_row(u):
            diagonals, tr_mm = terms(u)
            diagonals[5, 2] = bad
            return diagonals, tr_mm

        monkeypatch.setattr(robustness, "_fidelity_terms", with_a_bad_row)
        # The functional rejects the bad row before the grid sees it, and warns on nothing.
        with pytest.raises(ValueError, match="^fidelity functional out of range"):
            robustness.monte_carlo_fidelity(protocol, noise, 20)  # one propagator stack
        assert fallback == []
        # Given directly, the search leaves it to the full grid; an infinite entry warns (inf * 0).
        with np.errstate(invalid="ignore", over="ignore"):
            c = _random_diagonals(np.random.default_rng(5), 20)
            c[5, 2] = bad
            big_a, z = _pair_terms(c)
            assert np.array_equal(_grid_index(big_a, z), _full_grid(big_a, z))
        assert sum(fallback) >= 1


class TestStacks:
    def test_stack_gives_the_bits_of_its_gates(self, rng):
        n = 2 * CHUNK + 5
        seq = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))
        eps = rng.normal(scale=0.02, size=(n, 2))
        controls = _perturbed_controls(seq.controls, 1.0 + eps[:, 0], (1.0 + eps[:, 1]) / 1.65)
        chunks = list(batch_unitaries(controls, seq.durations))
        assert [len(chunk) for chunk in chunks] == [CHUNK, CHUNK, 5]
        z = rng.normal(size=(7, 9, 9)) + 1j * rng.normal(size=(7, 9, 9))
        randoms = np.linalg.qr(z)[0]
        for stack in (*chunks, randoms, np.concatenate([*chunks, randoms])):
            extraction = phases_and_leakage(stack)
            # A target off pi rounds its phasor product differently on a short stack.
            cases = [(target, flag) for target in (math.pi, 2.1) for flag in (True, False)]
            fidelities = [fidelity_cphase(stack, target, compensate=flag) for target, flag in cases]
            for i, u in enumerate(stack):
                alone = phases_and_leakage(u)
                for field in ("phases", "leakage", "reliable"):
                    assert tuple(x[i] for x in getattr(extraction, field)) == getattr(alone, field)
                assert extraction.leakage_max[i] == alone.leakage_max
                # One gate gives Python scalars, not NumPy ones.
                assert {type(x) for x in alone.phases + alone.leakage} == {float}
                assert {type(x) for x in alone.reliable} == {bool}
                assert type(alone.leakage_max) is float
                for got, (target, flag) in zip(fidelities, cases):
                    single = fidelity_cphase(u, target, compensate=flag)
                    assert type(single) is float and got[i] == single

    def test_phase_sum_gives_the_bits_of_the_full_extraction(self, rng):
        seq = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))
        eps = rng.normal(scale=0.02, size=(CHUNK + 3, 2))
        controls = _perturbed_controls(seq.controls, 1.0 + eps[:, 0], (1.0 + eps[:, 1]) / 1.65)
        z = rng.normal(size=(7, 9, 9)) + 1j * rng.normal(size=(7, 9, 9))
        sweep = np.concatenate(list(batch_unitaries(*geometric_controls(np.linspace(0.2, 2.5, 200), 1.0))))
        for stack in (*batch_unitaries(controls, seq.durations), np.linalg.qr(z)[0], sweep):
            diagonals = _diagonals(stack)
            assert diagonals.shape == (len(stack), 4)
            assert diagonals.tolist() == [[u[b][b] for b in COMPUTATIONAL_INDICES] for u in stack.tolist()]
            got = _phase_sum(diagonals)
            want = phase_combination(phases_and_leakage(stack).phases)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for i, u in enumerate(stack):
                alone = _phase_sum(_diagonals(u))
                want_alone = phase_combination(phases_and_leakage(u).phases)
                assert type(alone) is float and np.float64(alone).tobytes() == np.float64(want_alone).tobytes()
                assert np.float64(alone).tobytes() == got[i].tobytes()


class TestActuationMetrics:
    def test_blockade_pulse_area(self):
        seq = blockade_pdp_sequence(BlockadeProtocolParams(rabi=1.0, v=100.0))
        assert pulse_area(seq) == pytest.approx(4 * math.pi)

    def test_geometric_pulse_area_closed_form(self):
        for kappa in (0.5, 1.65, 3.0):
            params = GeometricProtocolParams.from_omega(kappa, 1.0)
            seq = geometric_sequence(params)
            expected = 16 * math.pi / math.sqrt(4 + 1 / (4 * kappa**2))
            assert pulse_area(seq) == pytest.approx(expected, rel=1e-12)

    def test_pulse_area_reads_the_rows_with_the_bits_of_the_segment_loop(self, rng):
        # Time order, atom 1 first, from +0.0; absent drives and Omega = -0.0 add nothing.
        gates = _PROTOCOL_GATES + [PulseSequence(tuple(random_segment(rng) for _ in range(n))) for n in range(1, 14) for _ in range(30)]
        gates.append(PulseSequence((PulseSegment(1.0, DriveParams(-0.0), None, 0.0),)))
        for seq in gates:
            area = pulse_area(seq)
            assert type(area) is float
            assert np.float64(area).tobytes() == np.float64(pulse_area_by_segments(seq)).tobytes()

    def test_gate_time_adds_the_durations_in_time_order(self):
        # At Omega = 1 the area is the gate time. Python 3.12's sum() compensates, giving 1.0.
        seq = PulseSequence(tuple(PulseSegment(0.1, DriveParams(1.0), None, 0.0) for _ in range(10)))
        report = analyze_gate(seq)
        assert report.gate_time == report.pulse_area == 0.9999999999999999

    def test_rydberg_time_zero_without_drive(self):
        seq = PulseSequence(
            (PulseSegment(duration=2.0, drive1=None, drive2=None, v=3.0),)
        )
        assert rydberg_time(seq) == pytest.approx(0.0, abs=1e-15)

    def test_rydberg_time_of_resonant_pi_pulse(self):
        # Pi pulse on atom 1 at V=0: only |10> and |11> excite, each with
        # population sin^2(Omega t / 2) whose integral over [0, pi/Omega] is
        # pi/(2*Omega); averaged over the four initial states: pi/(4*Omega).
        omega = 1.0
        seq = PulseSequence(
            (
                PulseSegment(
                    duration=math.pi / omega,
                    drive1=DriveParams(omega, 0.0, 0.0),
                    drive2=None,
                    v=0.0,
                ),
            )
        )
        assert rydberg_time(seq) == pytest.approx(
            math.pi / (4 * omega), rel=1e-6
        )

    @pytest.mark.parametrize(
        "seq",
        [
            geometric_sequence(GeometricProtocolParams.from_omega(1.65, 7e-308)),
            blockade_pdp_sequence(BlockadeProtocolParams(rabi=7e-308, v=7e-306)),
        ],
        ids=["geometric", "blockade"],
    )
    def test_overflowing_rydberg_time_raises(self, seq):
        # The gate time is finite, and each state's integral too, but not their mean.
        assert math.isfinite(seq.total_duration)
        with pytest.raises(ValueError, match="^rydberg_time overflows"):
            analyze_gate(seq)

    def test_overflowing_population_integral_raises(self):
        # The blockade gate at Omega = 4.5e-308: each segment is finite, its integrals are not.
        omega, pi_time = 4.5e-308, math.pi / 4.5e-308
        rows = np.zeros((2, 7))
        rows[0, [0, 6]] = rows[1, [3, 6]] = omega, 100 * omega
        hams = gauged_hamiltonians(rows)
        w, v = np.linalg.eigh(hams)
        durations, order = np.array([pi_time, 2 * pi_time]), (0, 1, 0)
        partials = running_products_from_identity(hams, durations, order)
        with pytest.raises(ValueError, match="^a population integral overflows"):
            _kernels.weighted_population_integral(
                w, v, durations, order, partials, np.eye(9)[list(COMPUTATIONAL_INDICES)],
                EXCITATIONS, 256,
            )

    def test_population_integral_per_state_and_input_untouched(self):
        seq = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))
        hams, durations = gauged_hamiltonians(seq.controls), seq.durations
        w, v = np.linalg.eigh(hams)
        psi0 = np.eye(9, dtype=np.complex128)[list(COMPUTATIONAL_INDICES)]
        before = psi0.copy()
        weights = EXCITATIONS
        order = range(len(durations))
        partials = running_products_from_identity(hams, durations, order)
        kept = partials.copy()
        totals = _kernels.weighted_population_integral(w, v, durations, order, partials, psi0, weights, 16)
        assert np.array_equal(psi0, before) and np.array_equal(partials, kept)
        for psi, total in zip(before, totals):
            (alone,) = _kernels.weighted_population_integral(w, v, durations, order, partials, psi[None], weights, 16)
            assert alone == pytest.approx(total, rel=1e-14)


#: A generic two-atom segment: both atoms driven off resonance, with interaction.
_GENERIC = PulseSegment(
    duration=1.3,
    drive1=DriveParams(1.0, 0.3, 0.4),
    drive2=DriveParams(0.8, -0.2, 1.1),
    v=2.5,
)

#: Geometric gates over kappa in [0.5, 2.5] and blockade gates over V in [10, 1280], at Omega = 1.
_PROTOCOL_GATES = [
    *(geometric_sequence(GeometricProtocolParams.from_omega(k, 1.0)) for k in np.linspace(0.5, 2.5, 100)),
    *(blockade_pdp_sequence(BlockadeProtocolParams(1.0, v)) for v in np.geomspace(10, 1280, 100)),
]


def _integrals(segments, samples):
    """(kernel, sampled oracle) integrals from the computational states of a schedule."""
    seq = PulseSequence(tuple(segments))
    hams, durations = gauged_hamiltonians(seq.controls), seq.durations
    (w, v), order = np.linalg.eigh(hams), range(len(durations))
    partials = running_products_from_identity(hams, durations, order)
    states = (np.eye(9)[list(COMPUTATIONAL_INDICES)], EXCITATIONS, samples)
    got = _kernels.weighted_population_integral(w, v, durations, order, partials, *states)
    return got, sampled_population_integral(hams, durations, *states)


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestRydbergTimeKernel:
    """The closed-form trapezoid sum against the sampled trapezoid it replaces."""

    def test_matches_sampled_oracle_on_protocol_gates(self):
        for i, seq in enumerate(_PROTOCOL_GATES):
            for samples in (256, 1, 2, 3, 16) if i % 10 == 0 else (256,):
                got, want = _integrals(seq.segments, samples)
                assert _rel_err(got, want) < 1e-13, (i, samples)

    @pytest.mark.parametrize("samples", [1, 2, 3, 16, 256])
    @pytest.mark.parametrize("m", [1, 3, 7, 40])
    def test_beat_aliasing_onto_the_grid(self, samples, m):
        # Atom 1 alone is driven at V = 0, so its dressed levels are split by
        # the generalized Rabi frequency; at this duration that gap times the
        # step duration/samples is 2*pi*m, and the beat repeats at every sample.
        rabi, detuning = 1.0, 0.5
        duration = 2 * math.pi * m * samples / math.hypot(rabi, detuning)
        aliased = PulseSegment(duration, DriveParams(rabi, detuning, 0.2), None, 0.0)
        got, want = _integrals((_GENERIC, aliased), samples)
        assert _rel_err(got, want) < 1e-10

    @pytest.mark.parametrize("samples", [1, 3, 256])
    def test_undriven_segment(self, samples):
        # H = 0: every gap is 0, and the segment adds duration * <psi|W|psi>.
        idle = PulseSegment(1.7, None, None, 0.0)
        got, want = _integrals((_GENERIC, idle), samples)
        assert _rel_err(got, want) < 1e-13
        before, _ = _integrals((_GENERIC,), samples)
        u = sequence_unitary(PulseSequence((_GENERIC,)))[:, list(COMPUTATIONAL_INDICES)]
        held = 1.7 * EXCITATIONS @ np.abs(u) ** 2
        np.testing.assert_allclose(got, before + held, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("samples", [1, 3, 256])
    def test_degenerate_eigenvalues(self, samples):
        # Equal drives on both atoms at V = 0: levels l_a + l_b pair up with l_b + l_a.
        drive = DriveParams(1.2, 0.4, 0.7)
        symmetric = PulseSegment(2.1, drive, drive, 0.0)
        (h,) = gauged_hamiltonians(PulseSequence((symmetric,)).controls)
        assert np.min(np.diff(np.linalg.eigvalsh(h))) < 1e-12
        got, want = _integrals((_GENERIC, symmetric), samples)
        assert _rel_err(got, want) < 1e-13


class TestGateReport:
    def test_analyze_gate_consistency(self):
        params = GeometricProtocolParams.from_omega(1.65, 1.0)
        seq = geometric_sequence(params)
        report = analyze_gate(seq)
        assert report.gate_time == pytest.approx(seq.total_duration)
        assert report.controlled_phase == pytest.approx(
            controlled_phase(report.phases)
        )
        assert 0.0 <= report.leakage_max <= 1.0
        assert 0.0 <= report.fidelity <= 1.0
        assert report.pulse_area == pytest.approx(pulse_area(seq))


class TestOneDiagonalisation:
    """A report diagonalises each distinct segment once, with the bits of two passes."""

    def _count(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "seq",
        [
            geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0)),
            blockade_pdp_sequence(BlockadeProtocolParams(1.0, 100.0)),
        ],
        ids=["geometric", "blockade"],
    )
    def test_analyze_gate_diagonalises_once(self, monkeypatch, seq):
        seq = PulseSequence(seq.segments)  # nothing computed yet
        eigh = self._count(monkeypatch, np.linalg, "eigh")
        hams = self._count(monkeypatch, rydgate.propagation, "_real_parts")
        distinct = self._count(monkeypatch, rydgate.propagation, "distinct_segments")
        exponentials = self._count(monkeypatch, pure, "_eigenphases")
        report = analyze_gate(seq)
        assert (len(eigh), len(hams), len(distinct), len(exponentials)) == (1, 1, 1, 1)
        # Later calls on the same sequence read its eigensystem and running products.
        u = sequence_unitary(seq)
        assert rydberg_time(seq) == report.rydberg_time
        assert (len(eigh), len(hams), len(distinct), len(exponentials)) == (1, 1, 1, 1)
        assert report == analyze_gate(seq) and len(eigh) == 1
        assert np.array_equal(u, sequence_unitary(seq))

    def test_reports_equal_the_two_pass_composition(self, rng):
        hand_made = [PulseSequence(tuple(random_segment(rng) for _ in range(n))) for n in (1, 2, 3, 5, 7)]
        sequences = [*_PROTOCOL_GATES, *hand_made, PulseSequence(hand_made[3].segments * 2)]
        for i, seq in enumerate(sequences):
            assert analyze_gate(seq) == two_pass_gate_report(seq), i
        for target in (-math.pi, 0.7, 1e4, -1e17):
            for seq in sequences[::25]:
                assert analyze_gate(seq, target) == two_pass_gate_report(seq, target), target

    def test_report_reads_one_gather_of_the_block(self, monkeypatch):
        seq = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0))
        terms = self._count(monkeypatch, analysis, "_fidelity_terms")
        leakage = self._count(monkeypatch, analysis, "_leakage")
        public = [self._count(monkeypatch, analysis, name) for name in ("phases_and_leakage", "fidelity_cphase")]
        analyze_gate(seq)
        assert (len(terms), len(leakage), public) == (1, 1, [[], []])

    def test_far_target_is_reduced_mod_two_pi(self):
        seq = geometric_sequence(GeometricProtocolParams.from_omega(1.0385, 1.0))
        reduced = math.remainder(1e17, 2 * math.pi)
        assert analyze_gate(seq, 1e17) == analyze_gate(seq, reduced)
        assert analyze_gate(seq, 1e17).fidelity == fidelity_cphase(sequence_unitary(seq), reduced)
        for target in (-math.pi, -1.0, 0.0, 2.5, math.pi):
            assert math.remainder(target, 2 * math.pi) == target

def _sequential_rydberg_time(sequence):
    """``rydberg_time`` with each state propagated again through the segments."""
    states = np.eye(9, dtype=np.complex128)[list(COMPUTATIONAL_INDICES)]
    totals = sequential_population_integral(
        *sequence._eigensystem[1], states, EXCITATIONS, RYDBERG_TIME_SAMPLES
    )
    return float(np.mean(totals))


class TestRunningProducts:
    """The Rydberg time starts each segment from the propagator's running products and sums
    the segments in one contraction: it agrees with the sequential integral to rounding."""

    def test_protocol_gates(self):
        blockade = [blockade_pdp_sequence(BlockadeProtocolParams(1.0, v)) for v in np.geomspace(1.0, 1e6, 60)]
        for i, seq in enumerate([*_PROTOCOL_GATES, *blockade]):
            got, want = rydberg_time(seq), _sequential_rydberg_time(seq)
            assert abs(got - want) <= 1e-15 * want, i

    def test_random_sequences_with_repeated_segments(self, rng):
        # Short, weakly driven draws have Rydberg times far below the gate time, where the
        # closed-form sum cancels: both routes then differ from a 40-digit trapezoid sum by
        # up to 6e-13 relative, and from each other by a few 1e-15. The bound is taken
        # relative to the larger of the Rydberg time and the gate time.
        for i in range(300):
            distinct = [random_segment(rng) for _ in range(int(rng.integers(1, 4)))]
            order = rng.integers(0, len(distinct), size=1 if i % 10 == 0 else int(rng.integers(1, 7)))
            seq = PulseSequence(tuple(distinct[j] for j in order))
            got, want = rydberg_time(seq), _sequential_rydberg_time(seq)
            assert abs(got - want) <= 1e-15 * max(want, seq.total_duration), i

