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
parallel execution cannot change them.
"""

import math
from dataclasses import dataclass

import numpy as np

from rydgate.analysis import controlled_phase, fidelity_cphase, phases_and_leakage
from rydgate.hamiltonians import RABI_COLUMNS, V_COLUMN
from rydgate.propagation import batch_unitaries, sequence_unitary
from rydgate.protocols import protocol_sequence
from rydgate.statespace import wrap_angle


@dataclass(frozen=True)
class NoiseModel:
    """Relative Rabi and spacing noise, van der Waals map, and RNG seed."""

    sigma_omega_rel: float
    sigma_r_rel: float
    c6: float
    r0: float
    seed: int

    def __post_init__(self):
        for name in ("sigma_omega_rel", "sigma_r_rel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if not math.isfinite(self.c6):
            raise ValueError(f"c6 must be finite, got {self.c6}")
        if int(self.seed) != self.seed or not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @classmethod
    def for_interaction(cls, v, r0, sigma_omega_rel, sigma_r_rel, seed):
        """Choose C6 so the nominal spacing r0 reproduces interaction v."""
        try:
            c6 = v * r0**6
        except OverflowError:
            raise ValueError(f"c6 = v * r0**6 must be finite, got an overflow at r0 = {r0}") from None
        return cls(
            sigma_omega_rel=sigma_omega_rel,
            sigma_r_rel=sigma_r_rel,
            c6=c6,
            r0=r0,
            seed=seed,
        )

    @property
    def v_nominal(self):
        return v_of_spacing(self.c6, self.r0)


@dataclass(frozen=True)
class FidelityStats:
    """Aggregate Monte-Carlo fidelity statistics."""

    n_samples: int
    mean_fidelity: float
    std_fidelity: float
    percentiles: tuple  # (p1, p5, p50, p95, p99)
    mean_abs_phase_error: float


def v_of_spacing(c6, r):
    """Van der Waals interaction V = C6 / r^6."""
    if not r > 0:
        raise ValueError(f"spacing must be positive, got {r}")
    try:
        return c6 / r**6
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"spacing {r} is out of range: r**6 over- or underflows") from None


def _sample_eps(seed, index):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))
    return rng.standard_normal(), rng.standard_normal()


def _perturbed_controls(rows, omega_factors, v):
    """(n, k, 7) control rows of n noisy copies of the nominal (k, 7) ``rows``.

    Gate i has its Rabi frequencies scaled by ``omega_factors[i]`` and its
    interaction set to ``v[i]``; durations, detunings and phases stay nominal.
    """
    if not (np.all(omega_factors >= 0) and np.all(np.isfinite(v))):
        raise ValueError("noise draws must give Rabi factors >= 0 and a finite V")
    controls = np.repeat(rows[None], len(v), axis=0)
    controls[..., RABI_COLUMNS] *= omega_factors[:, None, None]
    controls[..., V_COLUMN] = v[:, None]
    return controls


def monte_carlo_fidelity(protocol, noise, n_samples):
    """Fidelity statistics of a protocol under Rabi and spacing noise.

    The fidelity target and the phase-error reference are the *nominal*
    (noiseless) gate's wrapped controlled phase, so the statistics isolate
    noise-induced degradation. ``noise.c6 / noise.r0**6`` must reproduce the
    protocol's nominal interaction strength.

    Returns
    -------
    FidelityStats
        Deterministic for a given (protocol, noise, n_samples).
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    v_nom = protocol.v
    if abs(noise.v_nominal - v_nom) > 1e-9 * max(1.0, abs(v_nom)):
        raise ValueError(
            f"noise model interaction c6/r0^6 = {noise.v_nominal} does not match "
            f"the protocol's nominal V = {v_nom}"
        )
    nominal = protocol_sequence(protocol)
    target = controlled_phase(phases_and_leakage(sequence_unitary(nominal)).phases)

    eps = np.array([_sample_eps(noise.seed, i) for i in range(n_samples)])
    spacings = noise.r0 * (1.0 + noise.sigma_r_rel * eps[:, 1])
    v = np.array([v_of_spacing(noise.c6, r) for r in spacings.tolist()])
    rows, durations = nominal.controls()
    controls = _perturbed_controls(rows, 1.0 + noise.sigma_omega_rel * eps[:, 0], v)
    fidelities, phase_errors = [], []
    for u in batch_unitaries(controls, durations):
        fidelities.append(fidelity_cphase(u, target))
        phase_errors.append(np.abs(wrap_angle(controlled_phase(phases_and_leakage(u).phases) - target)))
    fidelities, phase_errors = np.concatenate(fidelities), np.concatenate(phase_errors)

    # Shifting by the first sample is mathematically a no-op for the spread
    # but keeps identical samples (zero-noise runs) at exactly zero std.
    std = float(np.std(fidelities - fidelities[0], ddof=1)) if n_samples > 1 else 0.0
    return FidelityStats(
        n_samples=int(n_samples),
        mean_fidelity=float(np.mean(fidelities)),
        std_fidelity=std,
        percentiles=tuple(float(p) for p in np.percentile(fidelities, [1, 5, 50, 95, 99])),
        mean_abs_phase_error=float(np.mean(phase_errors)),
    )
