"""Gate characterization: accumulated phases, leakage, fidelity, actuation cost.

Phase conventions. Diagonal phases phi_b = arg(<b|U|b>) are taken per
computational state b in {00, 01, 10, 11}. The controlled phase is the
local-phase-invariant combination

    phi_c = phi_11 + phi_00 - phi_10 - phi_01,

reported both raw ("unwrapped", range (-4*pi, 4*pi)) and wrapped into
(-pi, pi] with the branch point -pi mapped to +pi. Including phi_00 makes
the same functional correct for direct-coupling gates where |00> is not
stationary; it vanishes for the Rydberg protocols where |00> is decoupled.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from rydgate import _kernels
from rydgate.hamiltonians import hamiltonians
from rydgate.propagation import sequence_unitary
from rydgate.statespace import (
    COMPUTATIONAL_INDICES,
    basis_state,
    rydberg_excitation_counts,
    wrap_angle,
)

#: Below this diagonal-amplitude magnitude the extracted phase is meaningless
#: (the evolution is far from cyclic for that basis state).
RELIABLE_AMPLITUDE = 0.5

#: Safety cap on Newton steps in the local-Z refinement of fidelity_cphase;
#: starting at most one grid cell (2*pi/256) from the maximum, it stops after
#: one to six steps on sweep, noisy and random gates.
_NEWTON_STEPS = 16


def _computational_indices(u):
    if u.shape == (9, 9):
        return COMPUTATIONAL_INDICES
    if u.shape == (4, 4):
        return (0, 1, 2, 3)
    raise ValueError(f"expected a 9x9 or 4x4 unitary, got shape {u.shape}")


@dataclass(frozen=True)
class PhaseExtraction:
    """Diagonal phases and leakage per computational state (00, 01, 10, 11)."""

    phases: tuple
    leakage: tuple
    reliable: tuple

    @property
    def leakage_max(self):
        return max(self.leakage)


def phases_and_leakage(u):
    """Extract phi_b = arg(<b|U|b>) and leak_b = 1 - |<b|U|b>|^2 per state.

    States whose diagonal amplitude has magnitude below 0.5 are flagged
    unreliable instead of raising: their phase is still reported but should
    not be trusted.
    """
    u = np.asarray(u)
    idx = _computational_indices(u)
    amps = [complex(u[i, i]) for i in idx]
    phases = tuple(math.atan2(a.imag, a.real) for a in amps)
    leakage = tuple(min(1.0, max(0.0, 1.0 - abs(a) ** 2)) for a in amps)
    reliable = tuple(abs(a) >= RELIABLE_AMPLITUDE for a in amps)
    return PhaseExtraction(phases=phases, leakage=leakage, reliable=reliable)


def phase_combination(phases):
    """Raw controlled-phase combination phi_11 + phi_00 - phi_10 - phi_01."""
    phi_00, phi_01, phi_10, phi_11 = phases
    return phi_11 + phi_00 - phi_10 - phi_01


def controlled_phase(phases):
    """Controlled phase wrapped into (-pi, pi], with wrap(-pi) = +pi."""
    return wrap_angle(phase_combination(phases))


def _newton_alpha(terms, alpha, lo, hi):
    """Refine a maximum of f(alpha) = sum_k sqrt(A_k + 2 Re(z_k e^{i alpha})).

    Takes Newton steps on the closed-form f' and f'' from ``alpha`` and stops
    where f is not concave, where a step would leave (lo, hi), where the step
    no longer changes alpha or no longer shrinks (rounding makes it cycle
    between neighbouring floats), or at a cusp of one term.
    """
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        d1 = d2 = 0.0
        for big_a, z in terms:
            w = z * cmath.exp(1j * alpha)
            g = big_a + 2.0 * w.real
            if g <= 0.0:
                return alpha
            h = math.sqrt(g)
            d1 -= w.imag / h
            d2 -= w.real / h + w.imag * w.imag / (h * g)
        if not d2 < 0.0:
            return alpha
        step = d1 / d2
        new = alpha - step
        if not (lo < new < hi and abs(step) < last) or new == alpha:
            return alpha
        alpha, last = new, abs(step)
    return alpha


def fidelity_cphase(u, target_phi, compensate=True):
    """Average gate fidelity against diag(1, 1, 1, e^{i*target_phi}).

    Computes M = P U_t^dag U P on the computational subspace and returns
    (|Tr M|^2 + Tr(M M^dag)) / 20, the average-fidelity functional for a
    possibly leaky block. With ``compensate`` (default), single-qubit Z-phase
    freedom is removed by maximizing over the two local angles (Pedersen,
    Moller & Molmer, Phys. Lett. A 367, 47 (2007)): the qubit-2 angle
    maximizes out exactly, leaving a 1-D search over the qubit-1 angle
    (coarse grid, then Newton steps inside the best grid cell).
    """
    if not math.isfinite(target_phi):
        raise ValueError(f"target_phi must be finite, got {target_phi}")
    u = np.asarray(u, dtype=np.complex128)
    idx = _computational_indices(u)
    block = u[np.ix_(idx, idx)]
    tr_mm = float(np.sum(np.abs(block) ** 2))
    targets = np.array([1.0, 1.0, 1.0, np.exp(1j * target_phi)])
    c = np.conj(targets) * np.diag(block)  # order: 00, 01, 10, 11

    tr = abs(np.sum(c))
    if compensate:

        def best_trace(alpha):
            ph = np.exp(1j * alpha)
            return abs(c[0] + c[2] * ph) + abs(c[1] + c[3] * ph)

        grid = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
        ph = np.exp(1j * grid)
        coarse = grid[np.argmax(np.abs(c[0] + c[2] * ph) + np.abs(c[1] + c[3] * ph))]
        step = grid[1] - grid[0]
        # |a + b e^{ia}|^2 = |a|^2 + |b|^2 + 2 Re(conj(a) b e^{ia}); a pair whose
        # amplitudes both vanish adds nothing to f.
        terms = [
            (abs(a) ** 2 + abs(b) ** 2, complex(np.conj(a) * b))
            for a, b in ((c[0], c[2]), (c[1], c[3]))
            if a != 0 or b != 0
        ]
        alpha = _newton_alpha(terms, float(coarse), coarse - step, coarse + step)
        tr = max(best_trace(coarse), best_trace(alpha))
    fidelity = (tr * tr + tr_mm) / 20.0
    # Written so that a NaN functional (a non-finite propagator) fails too.
    if not fidelity <= 1.0 + 1e-9:
        raise ValueError(f"fidelity functional out of range: {fidelity}")
    return min(1.0, fidelity)


def pulse_area(sequence):
    """Total applied Rabi area: sum over segments and atoms of Omega*dt."""
    area = 0.0
    for seg in sequence.segments:
        for drive in (seg.drive1, seg.drive2):
            if drive is not None:
                area += drive.rabi * seg.duration
    return area


def rydberg_time(sequence, initial_states=None, samples_per_segment=256):
    """Time-integrated Rydberg occupation, averaged over initial states.

    Single excitation counts once and the doubly-excited state twice; the
    integrand is sampled on ``samples_per_segment`` uniform intervals per
    segment (trapezoidal rule). Defaults to averaging over the four
    computational product states.
    """
    if initial_states is None:
        initial_states = [basis_state(i // 3, i % 3) for i in COMPUTATIONAL_INDICES]
    rows, durations = sequence.controls()
    totals = _kernels.weighted_population_integral(
        hamiltonians(rows), durations, np.array(initial_states, dtype=np.complex128),
        rydberg_excitation_counts(), int(samples_per_segment),
    )
    return float(np.mean(totals))


@dataclass(frozen=True)
class GateReport:
    """Full characterization of one simulated gate."""

    phases: tuple
    controlled_phase: float
    controlled_phase_unwrapped: float
    leakage: tuple
    leakage_max: float
    fidelity: float
    gate_time: float
    pulse_area: float
    rydberg_time: float

    def __post_init__(self):
        if not 0.0 <= self.leakage_max <= 1.0:
            raise ValueError(f"leakage_max out of [0, 1]: {self.leakage_max}")
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity out of [0, 1]: {self.fidelity}")


def analyze_gate(sequence, target_phi=math.pi, samples_per_segment=256):
    """Propagate a schedule and assemble its :class:`GateReport`.

    ``target_phi`` sets the controlled-phase target for the fidelity figure
    (pi, i.e. a CZ gate, by default).
    """
    u = sequence_unitary(sequence)
    extraction = phases_and_leakage(u)
    return GateReport(
        phases=extraction.phases,
        controlled_phase=controlled_phase(extraction.phases),
        controlled_phase_unwrapped=phase_combination(extraction.phases),
        leakage=extraction.leakage,
        leakage_max=extraction.leakage_max,
        fidelity=fidelity_cphase(u, target_phi),
        gate_time=sequence.total_duration,
        pulse_area=pulse_area(sequence),
        rydberg_time=rydberg_time(sequence, samples_per_segment=samples_per_segment),
    )
