"""Gate characterization: accumulated phases, leakage, fidelity, actuation cost.

Phase conventions. Diagonal phases phi_b = arg(<b|U|b>) are taken per
computational state b in {00, 01, 10, 11}. The controlled phase is the
local-phase-invariant combination

    phi_c = phi_11 + phi_00 - phi_10 - phi_01,

reported both raw ("unwrapped", range (-4*pi, 4*pi)) and wrapped into
(-pi, pi] with the branch point -pi mapped to +pi. Including phi_00 keeps
the combination free of local Z and global phases for gates where |00> is
not stationary; it vanishes for the Rydberg protocols where |00> is decoupled.

``phases_and_leakage`` and ``fidelity_cphase`` take one 9x9 unitary, giving
Python scalars, or a (..., 9, 9) stack, giving arrays with the bits of one call
per gate.
"""

import math
from dataclasses import dataclass

import numpy as np

from rydgate import _kernels
from rydgate.hamiltonians import hamiltonians
from rydgate.propagation import distinct_segments, sequence_unitary
from rydgate.statespace import COMPUTATIONAL_INDICES, rydberg_excitation_counts, wrap_angle

#: Below this diagonal-amplitude magnitude the extracted phase is meaningless
#: (the evolution is far from cyclic for that basis state).
RELIABLE_AMPLITUDE = 0.5

#: Qubit-1 angles that seed the local-Z maximizer, and twice their cosines and sines.
_GRID = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
_TWO_COS, _TWO_SIN = 2.0 * np.cos(_GRID), 2.0 * np.sin(_GRID)

#: Trapezoid intervals per segment of ``rydberg_time``.
RYDBERG_TIME_SAMPLES = 256

#: rydberg_time's initial states and weights.
_COMPUTATIONAL_STATES = np.eye(9, dtype=np.complex128)[list(COMPUTATIONAL_INDICES)]
_EXCITATIONS = rydberg_excitation_counts()

#: The indices of |00>, |01>, |10>, |11>, and the other rows of their columns.
_INDICES = np.array(COMPUTATIONAL_INDICES)
_OTHERS = np.array([[j for j in range(9) if j != b] for b in COMPUTATIONAL_INDICES])


def _stack(u):
    u = np.asarray(u, dtype=np.complex128)
    if u.shape[-2:] != (9, 9):
        raise ValueError(f"expected a 9x9 unitary or a stack of them, got shape {u.shape}")
    return u


def _unstack(values):
    """A Python scalar for one gate, the array for a stack."""
    return values.tolist() if values.ndim == 0 else values


def _per_state(values):
    """Four per-state entries of (..., 4) values: scalars for one gate, arrays for a stack."""
    return tuple(values.tolist() if values.ndim == 1 else np.moveaxis(values, -1, 0))


@dataclass(frozen=True)
class PhaseExtraction:
    """Diagonal phases and leakage per state (00, 01, 10, 11); arrays over a stack's gates."""

    phases: tuple
    leakage: tuple
    reliable: tuple
    leakage_max: float


def phases_and_leakage(u):
    """Extract phi_b = arg(<b|U|b>) and leak_b = sum_{j != b} |<j|U|b>|^2 per state.

    For a unitary, leak_b = 1 - |<b|U|b>|^2, a difference that would cancel
    where leakage is small. States whose diagonal amplitude has magnitude
    below 0.5 are flagged unreliable instead of raising: their phase is
    still reported but should not be trusted.
    """
    u = _stack(u)
    amps = u[..., _INDICES, _INDICES]
    # In C order, so that each gate's sums add in the same order.
    off_diagonal = np.ascontiguousarray(u[..., _OTHERS, _INDICES[:, None]])
    leakage = np.minimum((np.abs(off_diagonal) ** 2).sum(axis=-1), 1.0)
    return PhaseExtraction(
        phases=_per_state(np.arctan2(amps.imag, amps.real)),
        leakage=_per_state(leakage),
        reliable=_per_state(np.abs(amps) >= RELIABLE_AMPLITUDE),
        leakage_max=_unstack(leakage.max(axis=-1)),
    )


def phase_combination(phases):
    """Raw controlled-phase combination phi_11 + phi_00 - phi_10 - phi_01."""
    phi_00, phi_01, phi_10, phi_11 = phases
    return phi_11 + phi_00 - phi_10 - phi_01


def controlled_phase(phases):
    """Controlled phase wrapped into (-pi, pi], with wrap(-pi) = +pi."""
    return wrap_angle(phase_combination(phases))


def _grid_index(big_a, z):
    """Index of the ``_GRID`` angle maximizing f = sum sqrt(A + 2 Re(z e^{ia})) over the pairs
    of ``_local_z_angle``, in real arithmetic: h^2 is clamped at 0, which rounding can cross."""
    h = z.real[..., None] * _TWO_COS - z.imag[..., None] * _TWO_SIN
    h += big_a[..., None]
    np.sqrt(np.maximum(h, 0.0, out=h), out=h)
    return np.argmax(h[..., 0, :] + h[..., 1, :], axis=-1)


def _local_z_angle(c):
    """Qubit-1 angle maximizing f: two Newton steps from the best grid point,
    which is kept where they give NaN (a cusp) or leave its grid cell."""
    a, b = c[..., :2], c[..., 2:]
    big_a = np.abs(a) ** 2 + np.abs(b) ** 2
    z = np.conj(a) * b
    alpha = coarse = _GRID[_grid_index(big_a, z)]
    big_a[big_a == 0.0] = 1.0  # a vanished pair has w = 0: its terms stay 0, not 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            w = z * np.exp(1j * alpha)[..., None]
            h = np.sqrt(big_a + 2.0 * w.real)
            q = w / h
            # f = sum h, with h^2 = |a + b e^{ia}|^2 = A + 2 Re(w), w = z e^{ia}:
            # f' = -sum Im(w)/h and f'' = -sum (Re(w)/h + Im(w)^2/h^3).
            d1 = q.imag.sum(axis=-1)
            d2 = (q.real + q.imag * q.imag / h).sum(axis=-1)
            alpha = alpha - d1 / d2
    return np.where(np.abs(alpha - coarse) < _GRID[1], alpha, coarse)


def fidelity_cphase(u, target_phi, compensate=True):
    """Average gate fidelity against diag(1, 1, 1, e^{i*target_phi}).

    Computes M = P U_t^dag U P on the computational subspace and returns
    (|Tr M|^2 + Tr(M M^dag)) / 20, the average-fidelity functional for a
    possibly leaky block. With ``compensate`` (default), single-qubit Z-phase
    freedom is removed by maximizing over the two local angles (Pedersen,
    Moller & Molmer, Phys. Lett. A 367, 47 (2007)): the qubit-2 angle
    maximizes out exactly, leaving a 1-D search over the qubit-1 angle
    (a 256-point grid, then two Newton steps). For a stack of gates,
    ``target_phi`` broadcasts over its leading axes.
    """
    if not np.isfinite(target_phi).all():
        raise ValueError(f"target_phi must be finite, got {target_phi}")
    u = _stack(u)
    # In C order, so that each gate's sums add in the same order.
    block = np.ascontiguousarray(u[..., _INDICES[:, None], _INDICES])
    tr_mm = (np.abs(block.reshape(block.shape[:-2] + (16,))) ** 2).sum(axis=-1)
    c = block.diagonal(axis1=-2, axis2=-1).copy()  # order: 00, 01, 10, 11
    # Not in place: NumPy rounds an in-place product of one element unlike longer ones.
    c[..., 3] = c[..., 3] * np.conj(np.exp(1j * np.asarray(target_phi)))

    tr = np.abs(c.sum(axis=-1))
    if compensate:
        # f = |c00 + c10 e^{ia}| + |c01 + c11 e^{ia}| at the maximizing angle a.
        pairs = np.abs(c[..., :2] + c[..., 2:] * np.exp(1j * _local_z_angle(c))[..., None])
        tr = pairs[..., 0] + pairs[..., 1]
    fidelity = (tr * tr + tr_mm) / 20.0
    # Written so that a NaN functional (a non-finite propagator) fails too.
    if not (fidelity <= 1.0 + 1e-9).all():
        raise ValueError(f"fidelity functional out of range: {np.max(fidelity)}")
    return _unstack(np.minimum(fidelity, 1.0))


def pulse_area(sequence):
    """Total applied Rabi area: sum over segments and atoms of Omega*dt."""
    area = 0.0
    for seg in sequence.segments:
        for drive in (seg.drive1, seg.drive2):
            if drive is not None:
                area += drive.rabi * seg.duration
    return area


def rydberg_time(sequence):
    """Time-integrated Rydberg occupation, averaged over the four computational
    product states.

    Single excitation counts once and the doubly-excited state twice. The
    integral is the trapezoid rule on ``RYDBERG_TIME_SAMPLES`` uniform
    intervals per segment, summed in closed form in each distinct segment's eigenbasis.
    """
    rows, durations, order = distinct_segments(sequence.controls[None], sequence.durations[None])
    totals = _kernels.weighted_population_integral(
        hamiltonians(rows[0]), durations[0], order, _COMPUTATIONAL_STATES, _EXCITATIONS, RYDBERG_TIME_SAMPLES
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


def analyze_gate(sequence, target_phi=math.pi):
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
        rydberg_time=rydberg_time(sequence),
    )
