"""Monte-Carlo gate fidelity under quasi-static parameter noise.

Noise model: one draw per gate, constant over the gate. The Rabi amplitude
of every driven atom is scaled by (1 + eps_Omega) and the atomic spacing by
(1 + eps_R), with independent Gaussian eps of the configured relative
spreads; the interaction follows exactly V = C6/R^6. The *programmed*
schedule (durations, detunings, phases) always comes from the nominal
parameters - control errors perturb the physics, not the program.

Reproducibility: sample i draws from a PCG64 generator seeded with
SeedSequence((seed, i)), taking eps_Omega then eps_R as standard normals.
Per-sample substreams make results independent of evaluation order, so
parallel execution cannot change them. ``_noise_draws`` gives these bits from
array arithmetic: the SeedSequence hash, PCG64's first outputs and the fast path
of NumPy's ziggurat, with tables probed from NumPy (``rydgate._ziggurat``). The
~3 % of samples with a draw off that path, and one fast sample as a check, go
through ``Generator``; a NumPy that draws otherwise raises ``RuntimeError``.
A ``SAMPLE_BLOCK``'s gates keep only their raw computational diagonal U_bb and
Tr(M M^dag) (72 B); the phase errors and the fidelities run once per block, with
the bits of one call per propagator stack. Only each sample's fidelity and phase
error (16 B) outlive its block.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from rydgate.analysis import _diagonals, _fidelity_functional, _fidelity_terms, _phase_sum
from rydgate.propagation import (
    RABI_COLUMNS, V_COLUMN, _count, _require_finite, _require_nonnegative, _require_positive, batch_unitaries,
    sequence_unitary, wrap_angle,
)
from rydgate.protocols import protocol_sequence


@dataclass(frozen=True)
class NoiseModel:
    """Relative Rabi and spacing noise, van der Waals map, and RNG seed."""

    sigma_omega_rel: float
    sigma_r_rel: float
    c6: float
    r0: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "sigma_omega_rel", _require_nonnegative(self.sigma_omega_rel, "sigma_omega_rel"))
        object.__setattr__(self, "sigma_r_rel", _require_nonnegative(self.sigma_r_rel, "sigma_r_rel"))
        object.__setattr__(self, "r0", _require_positive(self.r0, "r0"))
        object.__setattr__(self, "c6", _require_finite(self.c6, "c6"))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0, 64))

    @classmethod
    def for_interaction(cls, v, r0, sigma_omega_rel, sigma_r_rel, seed):
        """Choose C6 so the nominal spacing r0 reproduces interaction v."""
        v = _require_finite(v, "v")
        r0 = _require_positive(r0, "r0")
        try:
            c6 = v * r0**6
        except OverflowError:
            raise ValueError(f"c6 = v * r0**6 must be finite, got an overflow at r0 = {r0}") from None
        return cls(sigma_omega_rel, sigma_r_rel, c6, r0, seed)


@dataclass(frozen=True)
class FidelityStats:
    """Aggregate Monte-Carlo fidelity statistics."""

    n_samples: int
    mean_fidelity: float
    std_fidelity: float
    percentiles: tuple  # (p1, p5, p50, p95, p99)
    mean_abs_phase_error: float


#: Samples drawn, perturbed and propagated together in ``monte_carlo_fidelity``.
SAMPLE_BLOCK = 4096


def _v_of_spacing(c6, r):
    """Van der Waals interaction V = C6 / r^6 of a ``NoiseModel``'s finite C6."""
    r = _require_positive(r, "spacing")
    try:
        v = c6 / r**6
    except (OverflowError, ZeroDivisionError):
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"spacing {r} is out of range: r**6 or c6 / r**6 over- or underflows")
    return v


#: SeedSequence's hash constants (numpy/random/bit_generator.pyx), as Python ints: NumPy scalars warn where they wrap.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 2**32 - 1


def _hasher(const, mult):
    """NumPy SeedSequence's running hash: a call xors with the constant, steps it
    (times ``mult`` mod 2**32), multiplies by it and xorshifts; uint32 arrays in."""

    def hash_(value):
        nonlocal const
        value, const = value ^ const, const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hash_


def _seed_states(seed, indices):
    """(n, 4) native uint64 rows of ``SeedSequence((seed, i)).generate_state(4, np.uint64)``
    for each index 0 <= i < 2**32: one 32-bit entropy word for i, one or two for seed."""
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    entropy = np.zeros((4, len(indices)), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = indices
    hash_a = _hasher(_INIT_A, _MULT_A)
    pool = [hash_a(word) for word in entropy]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = _MIX_L * pool[dst] - _MIX_R * hash_a(pool[src])
        pool[dst] = mixed ^ (mixed >> 16)
    hash_b = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hash_b(pool[k % 4]) for k in range(8)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _generator_draws(words):
    """(n, 2) first two standard normals of ``Generator(PCG64)`` seeded from each row of ``_seed_states``."""
    from numpy.random import Generator, PCG64  # here: numpy.random adds ~20 ms to any start-up
    from numpy.random.bit_generator import ISeedSequence

    class HashedWords(ISeedSequence):
        """One C-contiguous row of ``_seed_states``, whose memory PCG64 seeds from."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    draws = np.empty((len(words), 2))
    for row, row_words in zip(draws, words):
        Generator(PCG64(HashedWords(row_words))).standard_normal(out=row)
    return draws


def _pcg_outputs(words, multiplier):
    """(n, 2) first two outputs of PCG64 seeded from (n, 4) ``_seed_states`` rows, as 128-bit LCG steps on uint64
    (high, low) pairs, the product's high word from 32-bit limbs: inc = (w2:w3 << 1) | 1, state = inc + w0:w1,
    one step; each output takes one more step and applies XSL-RR."""
    m_hi, m_lo = np.uint64(multiplier >> 64), np.uint64(multiplier & 2**64 - 1)
    m0, m1 = m_lo & _MASK32, m_lo >> 32
    inc = (words[:, 2] << 1) | (words[:, 3] >> 63), (words[:, 3] << 1) | 1

    def add(hi, lo, b_hi, b_lo):
        total = lo + b_lo
        return hi + b_hi + (total < lo), total

    def step(hi, lo):
        l0, l1 = lo & _MASK32, lo >> 32
        p01, p10 = l0 * m1, l1 * m0
        mid = (l0 * m0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
        return add(l1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + lo * m_hi + hi * m_lo, lo * m_lo, *inc)

    state, outputs = step(*add(*inc, words[:, 0], words[:, 1])), np.empty((len(words), 2), np.uint64)
    for column in outputs.T:
        state = step(*state)
        x, rotation = state[0] ^ state[1], state[0] >> 58
        column[:] = (x >> rotation) | (x << ((64 - rotation) & 63))
    return outputs


def _ziggurat_fast_path(r):
    """NumPy's ziggurat fast path on raw PCG64 outputs ``r``: the draws rabs * WI[idx], negated
    where the sign bit is set, and whether each output takes the path, rabs < KI[idx]."""
    from rydgate._ziggurat import KI, WI  # here: only the Monte-Carlo draws need them

    layer, rabs = r & 0xFF, (r >> 9) & (2**52 - 1)
    draws = rabs * WI[layer]
    np.negative(draws, out=draws, where=(r & 0x100).astype(bool))
    return draws, rabs < KI[layer]


def _noise_draws(seed, indices):
    """(n, 2) draws (eps_Omega, eps_R): for each of the n ``indices`` i < 2**32, the first
    two standard normals of ``Generator(PCG64(SeedSequence((seed, i))))``."""
    from rydgate._ziggurat import MULTIPLIER

    words = _seed_states(seed, indices)
    draws, fast = _ziggurat_fast_path(_pcg_outputs(words, MULTIPLIER))
    fast = fast.all(axis=1)
    # Samples off the fast path, and the first on it as a check of the tables, come from Generator.
    checked, slow = np.flatnonzero(fast)[:1], np.flatnonzero(~fast)
    exact = _generator_draws(words[np.concatenate([checked, slow])])
    if not np.array_equal(exact[: len(checked)].view(np.uint64), draws[checked].view(np.uint64)):
        raise RuntimeError(f"NumPy {np.__version__} draws unlike rydgate._ziggurat: see tests/make_ziggurat_tables.py")
    draws[slow] = exact[len(checked) :]
    return draws


def _perturbed_controls(rows, omega_factors, v):
    """(n, k, 7) control rows of n noisy copies of the nominal (k, 7) ``rows``.

    Gate i has its Rabi frequencies scaled by ``omega_factors[i]`` and its
    interaction set to ``v[i]``; durations, detunings and phases stay nominal.
    """
    controls = np.repeat(rows[None], len(v), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN, rejected below
        controls[..., RABI_COLUMNS] *= omega_factors[:, None, None]
    controls[..., V_COLUMN] = v[:, None]
    if not (np.all(omega_factors >= 0) and np.all(np.isfinite(controls))):
        raise ValueError("noise draws must give Rabi factors >= 0 and finite Rabi frequencies and V")
    return controls


def _noisy_controls(rows, noise, indices):
    """(n, k, 7) control rows of the Monte-Carlo samples ``indices`` of the nominal (k, 7) ``rows``."""
    eps = _noise_draws(noise.seed, indices)
    with np.errstate(over="ignore"):  # an infinite factor or spacing is rejected below
        omega_factors = 1.0 + noise.sigma_omega_rel * eps[:, 0]
        spacings = noise.r0 * (1.0 + noise.sigma_r_rel * eps[:, 1])
    v = [_v_of_spacing(noise.c6, r) for r in spacings.tolist()]
    return _perturbed_controls(rows, omega_factors, np.array(v))


def _block_statistics(diagonals, tr_mm, target):
    """Per-gate ``fidelity_cphase`` and |phase error| against ``target``, with their bits, from
    ``_fidelity_terms``' (n, 4) ``diagonals`` and (n,) ``tr_mm``."""
    phase_errors = np.abs(wrap_angle(wrap_angle(_phase_sum(diagonals)) - target))
    return _fidelity_functional(diagonals, tr_mm, target), phase_errors


def _summary(fidelities, phase_errors):
    """FidelityStats of per-sample fidelities and |phase errors| with no temporary of
    their length: the spread is summed ``SAMPLE_BLOCK`` samples at a time, and the
    percentiles partition ``fidelities`` in place, after the mean has been taken."""
    n = len(fidelities)

    def exact_sum(f):
        """Correctly rounded sum of f(fidelities - fidelities[0]): blocking never changes a bit."""
        blocks = (f(fidelities[i : i + SAMPLE_BLOCK] - fidelities[0]).tolist() for i in range(0, n, SAMPLE_BLOCK))
        return math.fsum(itertools.chain.from_iterable(blocks))

    # Shifting by the first sample is mathematically a no-op for the spread but
    # keeps identical samples (zero-noise runs) at exactly zero std.
    shifted_mean = exact_sum(lambda d: d) / n
    std = math.sqrt(exact_sum(lambda d: (d - shifted_mean) ** 2) / (n - 1)) if n > 1 else 0.0
    mean = float(np.mean(fidelities))
    percentiles = np.percentile(fidelities, [1, 5, 50, 95, 99], overwrite_input=True)
    return FidelityStats(
        n_samples=n,
        mean_fidelity=mean,
        std_fidelity=std,
        percentiles=tuple(percentiles.tolist()),
        mean_abs_phase_error=float(np.mean(phase_errors)),
    )


def monte_carlo_fidelity(protocol, noise, n_samples):
    """Fidelity statistics of a protocol under Rabi and spacing noise.

    The fidelity target and the phase-error reference are the *nominal*
    (noiseless) gate's wrapped controlled phase, so the statistics isolate
    noise-induced degradation. ``noise.c6 / noise.r0**6`` must reproduce the
    protocol's nominal interaction strength.

    ``n_samples`` is an integer in [1, 2**32).

    Returns
    -------
    FidelityStats
        Deterministic for a given (protocol, noise, n_samples).
    """
    n_samples = _count(n_samples, "n_samples", 1, 32)
    v_nom, v_noise = protocol.v, _v_of_spacing(noise.c6, noise.r0)
    if abs(v_noise - v_nom) > 1e-9 * max(1.0, abs(v_nom)):
        raise ValueError(
            f"noise model interaction c6/r0^6 = {v_noise} does not match "
            f"the protocol's nominal V = {v_nom}"
        )
    nominal = protocol_sequence(protocol)
    target = wrap_angle(_phase_sum(_diagonals(sequence_unitary(nominal))))

    fidelities, phase_errors = np.empty(n_samples), np.empty(n_samples)
    size = min(SAMPLE_BLOCK, n_samples)  # what a block's gates are scored from, reused by each block
    diagonals, tr_mm = np.empty((size, 4), dtype=complex), np.empty(size)
    for block in range(0, n_samples, SAMPLE_BLOCK):
        indices = np.arange(block, min(block + SAMPLE_BLOCK, n_samples))
        stop = 0
        # A block's rows die with its generator, before the next block is drawn.
        for u in batch_unitaries(_noisy_controls(nominal.controls, noise, indices), nominal.durations):
            start, stop = stop, stop + len(u)
            diagonals[start:stop], tr_mm[start:stop] = _fidelity_terms(u)
        kept = slice(block, block + stop)
        fidelities[kept], phase_errors[kept] = _block_statistics(diagonals[:stop], tr_mm[:stop], target)

    return _summary(fidelities, phase_errors)
