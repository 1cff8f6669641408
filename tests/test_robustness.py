"""Tests for the Monte-Carlo parameter-noise machinery."""

import math
import tracemalloc

import make_ziggurat_tables
import numpy as np
import pytest
from oracles import hermite_fidelity_moments, per_chunk_monte_carlo, quadrature_fidelity_moments, sample_eps

from rydgate import _ziggurat, propagation, robustness
from rydgate.calibration import sweep_kappa
from rydgate.protocols import BlockadeProtocolParams, GeometricProtocolParams, geometric_sequence
from rydgate.robustness import (
    FidelityStats,
    NoiseModel,
    _noise_draws,
    _perturbed_controls,
    _v_of_spacing,
    monte_carlo_fidelity,
)


def _noise(v, sigma_omega=0.0, sigma_r=0.0, seed=42, r0=1.0):
    return NoiseModel.for_interaction(
        v=v, r0=r0, sigma_omega_rel=sigma_omega, sigma_r_rel=sigma_r, seed=seed
    )


class TestVOfSpacing:
    def test_unit_values(self):
        assert _v_of_spacing(1.0, 1.0) == 1.0
        assert _v_of_spacing(64.0, 2.0) == 1.0

    def test_sixth_power_law(self):
        assert _v_of_spacing(1.0, 2.0) == pytest.approx(1.0 / 64.0)
        assert _v_of_spacing(5.0, 1.3) / _v_of_spacing(5.0, 2.6) == pytest.approx(64.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            _v_of_spacing(1.0, 0.0)
        with pytest.raises(ValueError, match="spacing"):
            _v_of_spacing(1.0, -2.0)

    def test_rejects_an_interaction_that_overflows(self):
        # 0.01**6 is finite; c6 / 1e-12 is not.
        with pytest.raises(ValueError, match="^spacing 0.01 is out of range"):
            _v_of_spacing(1e300, 0.01)


class TestNoiseModel:
    def test_for_interaction_round_trip(self):
        noise = _noise(v=0.5, r0=2.0)
        assert _v_of_spacing(noise.c6, noise.r0) == pytest.approx(0.5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1, 0.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            NoiseModel(0.0, 0.0, 1.0, 0.0, 0)
        with pytest.raises(ValueError):
            NoiseModel(0.0, 0.0, 1.0, 1.0, -1)

    def test_c6_must_be_finite(self):
        with pytest.raises(ValueError, match="^c6 must be finite, got inf$"):
            NoiseModel(0.0, 0.0, math.inf, 1.0, 0)

    @pytest.mark.parametrize("r0", [0.0, -1.0, math.inf, math.nan])
    def test_r0_must_be_positive(self, r0):
        with pytest.raises(ValueError, match=f"^r0 must be positive, got {r0}$"):
            NoiseModel(0.0, 0.0, 1.0, r0, 0)

    def test_an_interaction_beyond_float_range_is_blamed_on_v(self):
        # v * r0**6 was formed from the int first, and its OverflowError was put down to r0.
        with pytest.raises(ValueError, match="^v must be finite, got inf$"):
            NoiseModel.for_interaction(v=10**400, r0=1.0, sigma_omega_rel=0.0, sigma_r_rel=0.0, seed=1)

    def test_c6_overflow_is_rejected(self):
        with pytest.raises(ValueError, match="c6"):
            _noise(v=1.0, r0=1e100)

    @pytest.mark.parametrize("spread", ["sigma_omega", "sigma_r"])
    def test_overflowing_spread_is_rejected_without_a_warning(self, spread):
        # 1 + 1e308 * eps overflows for |eps| > 1.8; pytest turns a warning into an error.
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        with pytest.raises(ValueError):
            monte_carlo_fidelity(protocol, _noise(v=protocol.v, **{spread: 1e308}), 200)

    def test_non_finite_draws_are_rejected(self):
        rows = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0)).controls
        with pytest.raises(ValueError, match="finite"):
            _perturbed_controls(rows, np.array([1.0, math.inf]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):  # a finite factor times Omega = 1e10 overflows
            _perturbed_controls(rows * 1e10, np.array([1e300]), np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            _perturbed_controls(rows, np.array([1.0]), np.array([math.inf]))
        with pytest.raises(ValueError, match="^spacing must be positive, got inf$"):
            _v_of_spacing(1.0, math.inf)

    def test_spacing_underflow_is_rejected(self):
        noise = _noise(v=1.0, sigma_r=0.005, r0=1e-60)
        with pytest.raises(ValueError, match="spacing"):
            monte_carlo_fidelity(GeometricProtocolParams(kappa=1.65, v=1.0), noise, 2)

    @pytest.mark.parametrize("seed", [3.0, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(TypeError):
            _noise(v=1.0, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\), got "):
            _noise(v=1.0, seed=seed)

    def test_seed_accepts_numpy_integers(self):
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        stats = monte_carlo_fidelity(protocol, _noise(v=protocol.v, sigma_omega=0.02, seed=np.uint64(2**64 - 1)), 3)
        assert stats == monte_carlo_fidelity(protocol, _noise(v=protocol.v, sigma_omega=0.02, seed=2**64 - 1), 3)

    def test_mismatched_interaction_rejected(self):
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        with pytest.raises(ValueError, match="does not match"):
            monte_carlo_fidelity(protocol, _noise(v=2 * protocol.v), 4)


class TestMonteCarlo:
    def test_zero_noise_collapses_to_nominal(self):
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        stats = monte_carlo_fidelity(protocol, _noise(v=protocol.v), 8)
        assert stats.std_fidelity == 0.0
        assert stats.mean_abs_phase_error == pytest.approx(0.0, abs=1e-12)
        # The target is the nominal controlled phase, so the nominal gate
        # scores the compensated fidelity of its own leaky block.
        assert stats.mean_fidelity == pytest.approx(1.0, abs=5e-3)
        assert len(set(stats.percentiles)) == 1

    def test_deterministic_given_seed(self):
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        noise = _noise(v=protocol.v, sigma_omega=0.02, sigma_r=0.01, seed=7)
        a = monte_carlo_fidelity(protocol, noise, 64)
        b = monte_carlo_fidelity(protocol, noise, 64)
        assert a == b

    def test_per_sample_substreams_depend_only_on_seed_and_index(self):
        # This is what makes parallel evaluation safe: draws never depend on
        # how many samples run or in which order they are visited.
        forward = _noise_draws(9, np.arange(8))
        backward = _noise_draws(9, np.arange(8)[::-1])
        assert np.array_equal(forward, backward[::-1])
        assert np.array_equal(_noise_draws(9, np.arange(4)), forward[:4])
        assert np.array_equal(_noise_draws(9, [3]), forward[3:4])
        assert not np.any(_noise_draws(10, np.arange(8)) == forward)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1])
    def test_draws_match_a_fresh_seed_sequence_per_sample(self, seed):
        # 800 indices per seed, 5,600 (seed, i) pairs in all, bit for bit.
        indices = [*range(400), *range(2**32 - 400, 2**32)]
        want = np.array([sample_eps(seed, i) for i in indices])
        got = _noise_draws(seed, np.array(indices, dtype=np.uint32))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n_samples", [0, -1, 2**32])
    def test_sample_count_out_of_range_rejected(self, n_samples):
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        with pytest.raises(ValueError, match=r"^n_samples must be in \[1, 2\*\*32\), got "):
            monte_carlo_fidelity(protocol, _noise(v=protocol.v), n_samples)

    @pytest.mark.parametrize("n_samples", [2.5, 3.0, True, "3"])
    def test_sample_count_must_be_an_integer(self, n_samples):
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        with pytest.raises(TypeError):
            monte_carlo_fidelity(protocol, _noise(v=protocol.v), n_samples)

    def test_sample_count_accepts_numpy_integers(self):
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        noise = _noise(v=protocol.v, sigma_omega=0.02, seed=7)
        stats = monte_carlo_fidelity(protocol, noise, np.int64(5))
        assert stats == monte_carlo_fidelity(protocol, noise, 5)
        assert type(stats.n_samples) is int

    def test_doubling_samples_moves_mean_within_three_standard_errors(self):
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        noise = _noise(v=protocol.v, sigma_omega=0.03, sigma_r=0.02, seed=5)
        a = monte_carlo_fidelity(protocol, noise, 200)
        b = monte_carlo_fidelity(protocol, noise, 400)
        se = a.std_fidelity / math.sqrt(a.n_samples)
        assert abs(a.mean_fidelity - b.mean_fidelity) < 3 * se

    def test_blockade_protocol_accepted(self):
        protocol = BlockadeProtocolParams(rabi=1.0, v=20.0)
        stats = monte_carlo_fidelity(protocol, _noise(v=20.0, sigma_r=0.01, seed=3), 16)
        assert isinstance(stats, FidelityStats)
        assert 0.0 <= stats.mean_fidelity <= 1.0
        assert list(stats.percentiles) == sorted(stats.percentiles)

    def test_spacing_noise_contrast_table(self):
        # Same relative spacing noise through the 1/R^6 map: the weak-
        # interaction gate at V = Omega/1.65 versus a blockade-margin gate at
        # V = 20*Omega. Reported side by side; no ordering is asserted.
        sigma_r = 0.01
        geo = GeometricProtocolParams.from_omega(1.65, 1.0)
        blk = BlockadeProtocolParams(rabi=1.0, v=20.0)
        rows = []
        for name, protocol in (("geometric", geo), ("blockade", blk)):
            stats = monte_carlo_fidelity(
                protocol, _noise(v=protocol.v, sigma_r=sigma_r, seed=123), 200
            )
            rows.append((name, stats.mean_fidelity, stats.mean_abs_phase_error))
        for name, mean_f, phase_err in rows:
            assert 0.0 <= mean_f <= 1.0
            assert math.isfinite(phase_err)
        print("\nspacing-noise contrast (sigma_r = 1%):")
        for name, mean_f, phase_err in rows:
            print(f"  {name:10s} mean F = {mean_f:.6f}  mean |phi_c err| = {phase_err:.6f}")

    def test_mean_infidelity_regression_anchor(self):
        # Frozen from this implementation (seed 2024, n = 2000): guards the
        # noise pipeline end to end rather than any published figure.
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        noise = _noise(v=protocol.v, sigma_omega=0.01, seed=2024)
        stats = monte_carlo_fidelity(protocol, noise, 2000)
        assert 1.0 - stats.mean_fidelity == pytest.approx(ANCHOR_MEAN_INFIDELITY, abs=1e-9)


class TestBulkDraws:
    """``_noise_draws`` computes PCG64 and the ziggurat's fast path on arrays, with the bits of
    one ``Generator`` per sample, which still draws a sample that leaves the fast path."""

    def test_committed_tables_match_the_installed_numpy(self):
        # Every entry, re-probed: wi[idx] is the draw at rabs = 1; rabs = ki[idx] - 1 stays on
        # the fast path and ki[idx] leaves it (layer 1 has ki = 0: it is never fast).
        assert _ziggurat.MULTIPLIER == make_ziggurat_tables.MULTIPLIER
        assert _ziggurat.KI.dtype == np.uint64 and _ziggurat.KI.shape == _ziggurat.WI.shape == (256,)
        for idx, (ki, wi) in enumerate(zip(_ziggurat.KI.tolist(), _ziggurat.WI.tolist())):
            x, _ = make_ziggurat_tables.probe(1 << 9 | idx)
            assert np.float64(x).view(np.uint64) == np.float64(wi).view(np.uint64), idx
            assert not make_ziggurat_tables.probe(ki << 9 | idx)[1], idx
            assert ki == 0 or make_ziggurat_tables.probe((ki - 1) << 9 | idx)[1], idx

    def test_fast_path_boundary_on_crafted_outputs(self):
        # Words r = idx | sign << 8 | rabs << 9 of every layer at rabs = KI[idx] (slow) and
        # KI[idx] - 1 (fast, except layer 1, where KI = 0 and rabs = 0 is slow too), each
        # against NumPy's own draw from a generator whose next output is that word.
        ki, idx = _ziggurat.KI, np.arange(256, dtype=np.uint64)
        sign = (idx % 2) << np.uint64(8)
        at, below = ki << np.uint64(9) | sign | idx, (np.maximum(ki, 1) - 1) << np.uint64(9) | sign | idx
        draws, fast = robustness._ziggurat_fast_path(np.array([at, below]))
        assert not fast[0].any()
        assert fast[1].tolist() == (ki > 0).tolist() and not fast[1, 1]
        never = robustness._ziggurat_fast_path(np.array([1, 1 | 2**61 - 2**9], dtype=np.uint64))[1]
        assert not never.any()
        for word, draw, on_path in zip(np.concatenate([at, below]).tolist(), draws.ravel(), fast.ravel()):
            x, numpy_fast = make_ziggurat_tables.probe(word)
            assert on_path == numpy_fast, hex(word)
            assert not on_path or np.float64(x).view(np.uint64) == draw.view(np.uint64), hex(word)

    @pytest.mark.parametrize("seed", [7, 2**40 + 3])
    def test_bulk_draws_match_one_generator_per_sample(self, seed):
        # 50,000 samples a seed, 100,000 in all: the first indices and the last, up to 2**32 - 1.
        indices = np.array([*range(25_000), *range(2**32 - 25_000, 2**32)], dtype=np.uint32)
        want = robustness._generator_draws(robustness._seed_states(seed, indices))
        assert np.array_equal(_noise_draws(seed, indices).view(np.uint64), want.view(np.uint64))

    # (seed 3, i) found by search: which of the sample's two outputs fail rabs < ki[idx].
    # Layer 0's slow path is the normal tail, at 5606 and 4711.
    @pytest.mark.parametrize(
        "indices, slow",
        [([290, 297, 5606], [True, False]), ([100, 105, 4711], [False, True]), ([6132, 6910], [True, True])],
        ids=["first", "second", "both"],
    )
    def test_a_sample_off_the_fast_path_is_drawn_by_generator(self, monkeypatch, indices, slow):
        words = robustness._seed_states(3, np.array(indices))
        r = robustness._pcg_outputs(words, _ziggurat.MULTIPLIER)
        assert (((r >> 9) & (2**52 - 1)) >= _ziggurat.KI[r & 0xFF]).tolist() == [slow] * len(indices)
        generated, generator_draws = [], robustness._generator_draws

        def counted(rows):
            generated.append(len(rows))
            return generator_draws(rows)

        monkeypatch.setattr(robustness, "_generator_draws", counted)
        got = _noise_draws(3, np.array([0, *indices]))  # sample 0 takes the fast path and is checked
        assert generated == [1 + len(indices)]
        want = np.array([sample_eps(3, i) for i in [0, *indices]])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_a_different_generator_stream_is_an_error(self, monkeypatch):
        monkeypatch.setattr(_ziggurat, "WI", np.nextafter(_ziggurat.WI, 1.0))
        with pytest.raises(RuntimeError, match=f"^NumPy {np.__version__} draws unlike rydgate._ziggurat"):
            _noise_draws(42, np.arange(10))


class TestBlocks:
    """Samples run in blocks of ``SAMPLE_BLOCK`` and gates in chunks of ``CHUNK``."""

    # 49 is a multiple of the patched block, 50 is not, and 5 is less than one.
    @pytest.mark.parametrize("n_samples", [5, 49, 50])
    def test_chunk_and_block_boundaries_never_change_results(self, monkeypatch, n_samples):
        protocols = (GeometricProtocolParams.from_omega(1.65, 1.0), BlockadeProtocolParams(rabi=1.0, v=20.0))

        def run(statistics=monte_carlo_fidelity):
            noisy = [_noise(v=p.v, sigma_omega=0.02, sigma_r=0.01, seed=11) for p in protocols]
            return [statistics(p, noise, n_samples) for p, noise in zip(protocols, noisy)]

        want, want_sweep = run(), sweep_kappa(0.2, 2.5, 40)
        monkeypatch.setattr(propagation, "CHUNK", 3)
        monkeypatch.setattr(robustness, "SAMPLE_BLOCK", 7)
        assert run() == want == run(per_chunk_monte_carlo)
        assert sweep_kappa(0.2, 2.5, 40) == want_sweep

    def test_memory_grows_only_by_the_kept_results(self):
        # Only the fidelities and phase errors (16 B per sample) outlive a block.
        # At these sizes a block's gates set the peak; the constant covers what
        # the allocator keeps between runs.
        protocol = GeometricProtocolParams.from_omega(1.65, 1.0)
        noise = _noise(v=protocol.v, sigma_omega=0.01, sigma_r=0.005, seed=3)

        def peak(n_samples):
            tracemalloc.start()
            try:
                monte_carlo_fidelity(protocol, noise, n_samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = robustness.SAMPLE_BLOCK
        peak(2 * propagation.CHUNK)  # first-call allocations, which would inflate the first peak
        one, four = peak(block), peak(4 * block)
        assert four - one <= 16 * 3 * block + 2**17

    def test_statistics_add_no_temporary_of_the_sample_count(self):
        # Above some 10**5 samples the statistics, not a block, would set the
        # peak of a run; there too the samples themselves (16 B each) may be
        # all that grows. An n-length difference or copy would add 8 B each.
        def peak(n_samples):
            tracemalloc.start()
            try:
                fidelities = np.linspace(1.0, 0.99, n_samples)
                robustness._summary(fidelities, np.zeros(n_samples))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 2**15, 2**17
        peak(small)  # first-call allocations
        assert peak(large) - peak(small) <= 16 * (large - small) + 2**16

    def test_statistics_match_numpy(self, rng):
        fidelities = rng.uniform(0.98, 1.0, 3 * robustness.SAMPLE_BLOCK + 5)
        phase_errors = rng.uniform(0.0, 0.1, len(fidelities))
        stats = robustness._summary(fidelities.copy(), phase_errors)
        assert stats.mean_fidelity == np.mean(fidelities)
        assert stats.std_fidelity == pytest.approx(np.std(fidelities, ddof=1), rel=1e-13)
        assert stats.percentiles == tuple(np.percentile(fidelities, [1, 5, 50, 95, 99]).tolist())
        assert stats.mean_abs_phase_error == np.mean(phase_errors)

    # A block is scored at once from its gates' diagonals and Tr(M M^dag); the
    # oracle scores each propagator stack as it comes. Equal stats are equal bits.
    @pytest.mark.parametrize("n_samples", [1, 31, 33, 1000, robustness.SAMPLE_BLOCK + 5])
    @pytest.mark.parametrize(
        "protocol",
        [GeometricProtocolParams.from_omega(1.65, 1.0), BlockadeProtocolParams(rabi=1.0, v=100.0)],
        ids=["geometric", "blockade"],
    )
    def test_statistics_match_the_per_chunk_oracle(self, protocol, n_samples):
        noise = _noise(v=protocol.v, sigma_omega=0.02, sigma_r=0.01, seed=7)
        assert monte_carlo_fidelity(protocol, noise, n_samples) == per_chunk_monte_carlo(protocol, noise, n_samples)


class TestLocalZWindow:
    """The block step scores working gates on a window of the local-Z grid."""

    def test_the_benchmark_noise_is_scored_on_the_window(self, fallback):
        # The README and benchmark noise, 1,000 samples per gate. The geometric gate's
        # two pairs peak up to some 14 grid cells apart, and the window certifies 12:
        # at seed 42 one of its gates, and none of the blockade gate's, falls back.
        for protocol, fell_back in (
            (GeometricProtocolParams.from_omega(1.65, 1.0), [1]),
            (BlockadeProtocolParams(rabi=1.0, v=100.0), []),
        ):
            fallback.clear()
            monte_carlo_fidelity(protocol, _noise(v=protocol.v, sigma_omega=0.01, sigma_r=0.005, seed=42), 1000)
            assert fallback == fell_back


class TestHermiteRule:
    """The geometric gate's Monte-Carlo mean against a 36-gate Gauss-Hermite rule, a
    deterministic anchor for the whole scoring path (README noise)."""

    PROTOCOL = GeometricProtocolParams.from_omega(1.65, 1.0)

    def test_six_nodes_agree_with_eight(self):
        six = hermite_fidelity_moments(self.PROTOCOL, 0.01, 0.005, 6)
        eight = hermite_fidelity_moments(self.PROTOCOL, 0.01, 0.005, 8)
        # Five nodes miss the mean by 8e-14 and the variance by 4e-7 relative.
        assert abs(six[0] - eight[0]) < 1e-14
        assert six[1] == pytest.approx(eight[1], rel=1e-8)

    def test_readme_run_lies_within_three_standard_errors(self):
        mean, variance, _ = hermite_fidelity_moments(self.PROTOCOL, 0.01, 0.005, 6)
        stats = monte_carlo_fidelity(self.PROTOCOL, _noise(v=self.PROTOCOL.v, sigma_omega=0.01, sigma_r=0.005), 2000)
        assert abs(stats.mean_fidelity - mean) < 3 * math.sqrt(variance / stats.n_samples)


class TestQuadratureOracle:
    """Monte-Carlo statistics against the noise model's moments by quadrature.

    Rabi noise alone shows a detuning scaled with the Rabi frequency; spacing noise
    over Rabi noise shows a wrong power in the 1/R^6 map, through the spread; both
    show the two spreads swapped. ``mean_abs_phase_error`` and the percentiles are
    not smooth in the noise, so the rule does not check them.
    """

    SAMPLES = 10_000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("sigmas", [(0.05, 0.0), (0.03, 0.05)], ids=["rabi", "rabi+spacing"])
    @pytest.mark.parametrize(
        "protocol",
        [GeometricProtocolParams.from_omega(1.65, 1.0), BlockadeProtocolParams(rabi=1.0, v=100.0)],
        ids=["geometric", "blockade"],
    )
    def test_mean_and_spread_within_four_standard_errors(self, protocol, sigmas, seed):
        mean, variance, fourth = quadrature_fidelity_moments(protocol, *sigmas)
        noise = _noise(v=protocol.v, sigma_omega=sigmas[0], sigma_r=sigmas[1], seed=seed)
        stats = monte_carlo_fidelity(protocol, noise, self.SAMPLES)
        std = math.sqrt(variance)
        # The standard error of a sample spread, sqrt(Var(s^2))/(2 sigma), by the delta method.
        std_error = math.sqrt((fourth - variance**2) / self.SAMPLES) / (2 * std)
        assert abs(stats.mean_fidelity - mean) < 4 * std / math.sqrt(self.SAMPLES)
        assert abs(stats.std_fidelity - std) < 4 * std_error


#: Mean infidelity of the geometric protocol at kappa = 1.65 under 1 percent
#: Rabi-amplitude noise (seed 2024, 2000 samples); see the anchor test above.
ANCHOR_MEAN_INFIDELITY = 0.0014051550952
