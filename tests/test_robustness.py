"""Tests for the Monte-Carlo parameter-noise machinery."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.random import Philox
from oracles import (
    hermite_fidelity_moments,
    per_chunk_monte_carlo,
    per_sample_controls,
    per_sample_v,
    quadrature_fidelity_moments,
    sample_eps,
    sample_words,
)

from rydgate import propagation, robustness
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


def _outcome(f, *args):
    """The bits of f(*args), or the class and message of its ValueError."""
    try:
        return np.asarray(f(*args)).view(np.uint64).tolist()
    except ValueError as exc:
        return type(exc), str(exc)


def _per_sample_outcome(c6, spacings):
    """V of each spacing by ``per_sample_v`` in order, or the first bad spacing's ValueError."""
    return _outcome(lambda: np.array([per_sample_v(c6, r) for r in spacings.tolist()]))


def _accepted(c6, spacings):
    """Whether ``per_sample_v`` takes each spacing."""

    def takes(r):
        try:
            per_sample_v(c6, r)
        except ValueError:
            return False
        return True

    return np.array([takes(r) for r in spacings.tolist()], dtype=bool)


class TestVAgainstPerSampleRule:
    """A block's V in one ``np.float_power`` keeps the bits and the errors of one Python
    ``c6 / r**6`` per sample, in sample order (``oracles.per_sample_v``)."""

    @pytest.mark.parametrize(
        "c6, spread",
        [
            (0.606, lambda rng, n: 1.0 + 0.005 * rng.standard_normal(n)),  # the README's sigma_R
            (0.606, lambda rng, n: 1.0 + 0.3 * rng.standard_normal(n)),
            (1.0, lambda rng, n: 10.0 ** rng.uniform(-50.0, 50.0, n)),
            (1e-20, lambda rng, n: 10.0 ** rng.uniform(-55.0, -49.0, n)),  # r**6 subnormal or 0
            (1.0, lambda rng, n: 10.0 ** rng.uniform(-55.0, -49.0, n)),  # c6 / r**6 overflows
        ],
        ids=["readme", "sigma-0.3", "log-uniform-1e-50-1e50", "log-uniform-1e-55-1e-49", "overflow"],
    )
    def test_v_of_spacing_has_the_per_sample_bits(self, c6, spread):
        spacings = spread(np.random.default_rng(37), 100_000)
        accepted = spacings[_accepted(c6, spacings)]
        assert len(accepted) > 20_000
        assert _outcome(_v_of_spacing, c6, accepted) == _per_sample_outcome(c6, accepted)
        assert _outcome(_v_of_spacing, c6, spacings) == _per_sample_outcome(c6, spacings)

    @pytest.mark.parametrize(
        "v, r0, sigma_r",
        [(0.606, 1.0, 0.005), (0.606, 1.0, 0.3), (2.0, 1e-50, 0.3), (0.5, 3e-52, 0.3), (1e-5, 1e50, 0.3)],
        ids=["readme", "sigma-0.3", "r0-1e-50", "r0-3e-52-subnormal", "r0-1e50"],
    )
    def test_noisy_controls_have_the_per_sample_bits(self, v, r0, sigma_r):
        noise = NoiseModel.for_interaction(v, r0, 0.01, sigma_r, seed=11)
        rows = geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0)).controls[:1]
        eps = _noise_draws(noise.seed, 0, 25_000)
        kept = eps[_accepted(noise.c6, noise.r0 * (1.0 + noise.sigma_r_rel * eps[:, 1]))]
        want = per_sample_controls(rows, noise, kept)
        assert np.array_equal(robustness._noisy_controls(rows, noise, kept).view(np.uint64), want.view(np.uint64))
        # Where a spacing is bad, the first in sample order names the error.
        assert _outcome(robustness._noisy_controls, rows, noise, eps) == _outcome(
            per_sample_controls, rows, noise, eps
        )

    @pytest.mark.parametrize(
        "c6, bad",
        [
            (1.0, 0.0), (1.0, -0.0), (1.0, -2.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
            (1.0, 1e60),  # r**6 overflows
            (1.0, 1e-60),  # r**6 underflows to 0
            (1e300, 0.01),  # c6 / r**6 overflows
            (0.0, 1e-60),  # 0 / 0
        ],
    )
    def test_the_first_bad_spacing_in_sample_order_raises(self, c6, bad):
        for later in (-1.0, 1e60):  # a bad spacing after it, of either message
            spacings = np.array([1.0, 1.5, bad, 2.0, later, 0.5])
            outcome = _outcome(_v_of_spacing, c6, spacings)
            assert outcome == _per_sample_outcome(c6, spacings) == _outcome(per_sample_v, c6, bad)
            assert outcome[0] is ValueError


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
        # how many samples run or where a range of them starts.
        whole = _noise_draws(9, 0, 8)
        assert np.array_equal(np.concatenate([_noise_draws(9, 0, 4), _noise_draws(9, 4, 8)]), whole)
        assert np.array_equal(_noise_draws(9, 3, 4), whole[3:4])
        assert not np.any(_noise_draws(10, 0, 8) == whole)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1])
    def test_draws_match_a_fresh_philox_counter_per_sample(self, seed):
        # 800 indices per seed, 5,600 (seed, i) pairs in all. Sample i's words are those of a
        # fresh Philox at counter i, bit for bit: the words of one range's stream, 4 per sample.
        for start in (0, 2**32 - 400):
            stream = Philox(key=seed, counter=start).random_raw(4 * 400).reshape(400, 4)[:, :2]
            assert stream.tolist() == [list(sample_words(seed, i)) for i in range(start, start + 400)]
            # Box-Muller by NumPy's ufuncs and by math may round apart, within a few ulp of r.
            want = np.array([sample_eps(seed, i) for i in range(start, start + 400)])
            got = _noise_draws(seed, start, start + 400)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.hypot(*want.T))[:, None])

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_draws_are_independent_standard_normals(self, seed):
        # 100,000 samples: the moments of each column, and the correlation of the two
        # columns and of neighbouring samples, within 4 standard errors.
        n = 100_000
        eps = _noise_draws(seed, 2**31, 2**31 + n)
        for column in eps.T:
            assert abs(column.mean()) < 4 / math.sqrt(n)
            assert abs(np.mean(column**2) - 1.0) < 4 * math.sqrt(2 / n)
            assert abs(np.mean(column**4) - 3.0) < 4 * math.sqrt(96 / n)
        for a, b in ((eps[:, 0], eps[:, 1]), (eps[:-1].ravel(), eps[1:].ravel())):
            assert abs(np.mean(a * b)) < 4 / math.sqrt(len(a))

    @pytest.mark.parametrize(
        "words, r",
        [
            ([2**11 - 1, 0], math.sqrt(106 * math.log(2))),  # top 53 bits all zero: u_0 = 2**-53
            ([2**64 - 1, 2**64 - 1], 0.0),  # all ones: u_0 = 1, theta = 2 pi
        ],
        ids=["top-bits-zero", "all-ones"],
    )
    def test_edge_words_give_finite_draws_without_a_warning(self, monkeypatch, words, r):
        class Words:
            """A Philox whose every counter block starts with ``words``."""

            def __init__(self, key, counter):
                pass

            def random_raw(self, size):
                return np.resize(np.array([*words, 0, 0], dtype=np.uint64), size)

        monkeypatch.setattr(np.random, "Philox", Words)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (eps,) = _noise_draws(5, 0, 1)
        assert math.hypot(*eps) == pytest.approx(r, rel=1e-15, abs=0.0)
        assert eps[0] == pytest.approx(r, rel=1e-15, abs=0.0) and abs(eps[1]) < 1e-14

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
        # The README and benchmark noise, 2,000 samples per gate. The geometric gate's
        # two pairs peak up to some 14 grid cells apart, and the window certifies 12:
        # at seed 1 one of its gates (a sample past 1,000), and none of the blockade
        # gate's, falls back.
        for protocol, fell_back in (
            (GeometricProtocolParams.from_omega(1.65, 1.0), [1]),
            (BlockadeProtocolParams(rabi=1.0, v=100.0), []),
        ):
            fallback.clear()
            monte_carlo_fidelity(protocol, _noise(v=protocol.v, sigma_omega=0.01, sigma_r=0.005, seed=1), 2000)
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
ANCHOR_MEAN_INFIDELITY = 0.0014058174013
