"""Monte-Carlo gate fidelity under quasi-static parameter noise.

Noise model: one draw per gate, constant over the gate. The Rabi amplitude
of every driven atom is scaled by (1 + eps_Omega) and the atomic spacing by
(1 + eps_R), with independent Gaussian eps of the configured relative
spreads; the interaction follows exactly V = C6/R^6. The *programmed*
schedule (durations, detunings, phases) always comes from the nominal
parameters - control errors perturb the physics, not the program.

Reproducibility: sample i takes eps_Omega then eps_R as the Box-Muller normals
of words 0 and 1 of counter block i of NumPy's ``Philox(key=seed)``, a
counter-based generator that addresses each block directly
(``Philox(key=seed, counter=i).random_raw(2)`` gives the two words). The draws
depend only on (seed, i), never on evaluation order, so parallel execution
cannot change them, and ``_noise_draws`` forms a block's draws in one call.
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


def _v_of_spacing(c6, spacings):
    """V = C6 / r^6 of a ``NoiseModel``'s finite C6 at each spacing r, with the bits of Python's ``c6 / r**6``:
    ``np.float_power`` calls libm's ``pow`` as ``**`` does (``np.power`` may not). The first bad spacing raises."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a bad spacing raises below
        r6 = np.float_power(spacings, 6)
        v = c6 / r6
    bad = ~((spacings > 0) & np.isfinite(r6) & np.isfinite(v))
    if bad.any():
        r = _require_positive(np.ravel(spacings)[np.argmax(bad)], "spacing")
        raise ValueError(f"spacing {r} is out of range: r**6 or c6 / r**6 over- or underflows")
    return v


def _noise_draws(seed, start, stop):
    """(n, 2) draws (eps_Omega, eps_R) of the samples start <= i < stop <= 2**32: the Box-Muller normals
    r cos(theta), r sin(theta) of words 0 and 1 of counter block i of ``Philox(key=seed)``, each word w
    taken as u = ((w >> 11) + 1) / 2**53 in (0, 1], with r = sqrt(-2 ln u_0) and theta = 2 pi u_1."""
    from numpy.random import Philox  # here: numpy.random adds ~20 ms to any start-up

    n = stop - start
    u = ((Philox(key=seed, counter=start).random_raw(4 * n).reshape(n, 4)[:, :2] >> 11) + 1) * 2.0**-53
    r, theta = np.sqrt(-2.0 * np.log(u[:, 0])), 2.0 * np.pi * u[:, 1]
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


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


def _noisy_controls(rows, noise, eps):
    """(n, k, 7) control rows of the nominal (k, 7) ``rows`` under n samples' (n, 2) ``_noise_draws`` ``eps``."""
    with np.errstate(over="ignore"):  # an infinite factor or spacing is rejected below
        omega_factors = 1.0 + noise.sigma_omega_rel * eps[:, 0]
        spacings = noise.r0 * (1.0 + noise.sigma_r_rel * eps[:, 1])
    return _perturbed_controls(rows, omega_factors, _v_of_spacing(noise.c6, spacings))


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
    nominal = protocol_sequence(protocol)  # raises for anything but protocol parameters
    if not isinstance(noise, NoiseModel):
        raise TypeError(f"noise must be a NoiseModel, got {type(noise).__name__}")
    v_nom, v_noise = protocol.v, _v_of_spacing(noise.c6, noise.r0)
    if abs(v_noise - v_nom) > 1e-9 * max(1.0, abs(v_nom)):
        raise ValueError(
            f"noise model interaction c6/r0^6 = {v_noise} does not match "
            f"the protocol's nominal V = {v_nom}"
        )
    target = wrap_angle(_phase_sum(_diagonals(sequence_unitary(nominal))))

    fidelities, phase_errors = np.empty(n_samples), np.empty(n_samples)
    size = min(SAMPLE_BLOCK, n_samples)  # what a block's gates are scored from, reused by each block
    diagonals, tr_mm = np.empty((size, 4), dtype=complex), np.empty(size)
    for block in range(0, n_samples, SAMPLE_BLOCK):
        eps = _noise_draws(noise.seed, block, min(block + SAMPLE_BLOCK, n_samples))
        stop = 0
        # A block's rows die with its generator, before the next block is drawn.
        for u in batch_unitaries(_noisy_controls(nominal.controls, noise, eps), nominal.durations):
            start, stop = stop, stop + len(u)
            diagonals[start:stop], tr_mm[start:stop] = _fidelity_terms(u)
        kept = slice(block, block + stop)
        fidelities[kept], phase_errors[kept] = _block_statistics(diagonals[:stop], tr_mm[:stop], target)

    return _summary(fidelities, phase_errors)
