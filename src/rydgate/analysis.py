"""Gate characterization: accumulated phases, leakage, fidelity, actuation cost.

Phase conventions. Diagonal phases phi_b = arg(<b|U|b>) are taken per
computational state b in {00, 01, 10, 11}. The controlled phase is the
local-phase-invariant combination

    phi_c = phi_11 + phi_00 - phi_10 - phi_01,

reported both raw ("unwrapped", range (-4*pi, 4*pi)) and wrapped into
(-pi, pi] with the branch point -pi mapped to +pi. Including phi_00 keeps
the combination free of local Z and global phases for gates where |00> is
not stationary; it vanishes for the Rydberg protocols where |00> is decoupled.
Sweeps, calibration and Monte-Carlo read it only through ``_diagonals`` and
``_phase_sum``, per gate or per batch with the same bits.

``phases_and_leakage`` and ``fidelity_cphase`` take one 9x9 unitary, giving
Python scalars, or a (..., 9, 9) stack, giving arrays with the bits of one call
per gate.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from rydgate import _kernels
from rydgate.propagation import COMPUTATIONAL_INDICES, EXCITATIONS, RABI_COLUMNS, _require_finite, sequence_unitary, wrap_angle

#: Below this diagonal-amplitude magnitude the extracted phase is meaningless
#: (the evolution is far from cyclic for that basis state).
RELIABLE_AMPLITUDE = 0.5

#: Qubit-1 angles that seed the local-Z maximizer, and twice their cosines and sines.
_GRID = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
_TWO_COS, _TWO_SIN = 2.0 * np.cos(_GRID), 2.0 * np.sin(_GRID)

#: Trapezoid intervals per segment of ``rydberg_time``.
RYDBERG_TIME_SAMPLES = 256

#: rydberg_time's initial states.
_COMPUTATIONAL_STATES = np.eye(9, dtype=np.complex128)[list(COMPUTATIONAL_INDICES)]

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


def _diagonals(u):
    """The (..., 4) raw diagonal U_bb (00, 01, 10, 11) of a (..., 9, 9) stack, a new array."""
    return u[..., _INDICES, _INDICES]


def _leakage(u):
    """The (..., 4) leakage sum_{j != b} |U_jb|^2 of a (..., 9, 9) stack's computational columns."""
    # In C order, so that each gate's sums add in the same order.
    off_diagonal = np.ascontiguousarray(u[..., _OTHERS, _INDICES[:, None]])
    return np.minimum((np.abs(off_diagonal) ** 2).sum(axis=-1), 1.0)


def phases_and_leakage(u):
    """Extract phi_b = arg(<b|U|b>) and leak_b = sum_{j != b} |<j|U|b>|^2 per state.

    For a unitary, leak_b = 1 - |<b|U|b>|^2, a difference that would cancel
    where leakage is small. States whose diagonal amplitude has magnitude
    below 0.5 are flagged unreliable instead of raising: their phase is
    still reported but should not be trusted.
    """
    u = _stack(u)
    amplitudes, leakage = _diagonals(u), _leakage(u)
    return PhaseExtraction(
        phases=_per_state(np.arctan2(amplitudes.imag, amplitudes.real)),
        leakage=_per_state(leakage),
        reliable=_per_state(np.abs(amplitudes) >= RELIABLE_AMPLITUDE),
        leakage_max=_unstack(leakage.max(axis=-1)),
    )


def phase_combination(phases):
    """Raw controlled-phase combination phi_11 + phi_00 - phi_10 - phi_01."""
    phi_00, phi_01, phi_10, phi_11 = phases
    return phi_11 + phi_00 - phi_10 - phi_01


def controlled_phase(phases):
    """Controlled phase wrapped into (-pi, pi], with wrap(-pi) = +pi."""
    return wrap_angle(phase_combination(phases))


def _phase_sum(diagonals):
    """The unwrapped phi_c of (4,) or (n, 4) raw diagonals U_bb: a Python float for one gate, with
    the bits of ``phase_combination(phases_and_leakage(u).phases)`` for each gate."""
    angles = np.arctan2(diagonals.imag, diagonals.real)
    return phase_combination(angles.tolist() if angles.ndim == 1 else angles.T)


def _grid_pass(big_a, z):
    """Index of the ``_GRID`` angle maximizing f = sum sqrt(A + 2 Re(z e^{ia})) over the pairs
    of ``_local_z_angle``, in real arithmetic: h^2 is clamped at 0, which rounding can cross."""
    h = z.real[..., None] * _TWO_COS - z.imag[..., None] * _TWO_SIN
    h += big_a[..., None]
    np.sqrt(np.maximum(h, 0.0, out=h), out=h)
    return np.argmax(h[..., 0, :] + h[..., 1, :], axis=-1)


#: Gates per full-grid pass: a (gates, 2, 256) temporary of 128 KiB or more is mapped and
#: unmapped by glibc's malloc each time, and every pass faults its pages in afresh.
_PASS = 16
#: Grid cells around the midpoint of the two pairs' peaks that the window scores.
_WINDOW = 16
#: Gates per slice of ``_window``: its (_WINDOW, 2, gates) float64 temporaries are 128 KiB.
_SLICE = 512


def _window(pairs, sep, low):
    """Each gate's argmax over the ``_WINDOW`` cells around the midpoint of its pairs' peaks, and
    whether a bound certifies it, from ``_grid_index``'s (4, 2, n) pairs (A, Re z, Im z, |z|) and
    the peaks' separation ``sep`` and midpoint's cell ``low``, in cells.

    Pair p's term T_p(d) = sqrt(max(A_p + 2|z_p| cos d, 0)) falls with the distance d from its
    peak -arg z_p up to pi. With both peaks a cell inside the window, a cell beyond it scores at
    most an end cell or, between the antipodes, T_0 + T_1 at pi - |sep|. The window's maximum must
    beat both by a slack: h^2 rounds by under 15 eps (A + 4|z|) a pair, or absolutely if subnormal.
    """
    cells, step = len(_GRID), _GRID[1]
    a, z_re, z_im, modulus = pairs
    antipodes = np.sqrt(np.maximum(a - 2.0 * modulus * np.cos(sep * step), 0.0)).sum(axis=0)
    slack = 16.0 * np.sqrt(np.finfo(float).eps * (a + 4.0 * modulus).sum(axis=0) + 1e-300)
    first = low.astype(np.intp) + (1 - _WINDOW // 2)
    index, certified = np.empty(len(low), dtype=np.intp), np.empty(len(low), dtype=bool)
    for i in range(0, len(low), _SLICE):  # (_WINDOW, 2, m) cells of m gates at a time
        gates = slice(i, i + _SLICE)
        cols = (first[gates] + np.arange(_WINDOW)[:, None]) & (cells - 1)  # % cells, a power of two
        h = z_re[:, gates] * _TWO_COS[cols][:, None]
        h -= z_im[:, gates] * _TWO_SIN[cols][:, None]
        h += a[:, gates]
        np.sqrt(np.maximum(h, 0.0, out=h), out=h)
        f = h[:, 0] + h[:, 1]
        best = f.max(axis=0)
        # The lowest grid index among equal maxima, as np.argmax picks, also where cols wrap.
        index[gates] = np.where(f == best, cols, cells).min(axis=0)
        certified[gates] = best > np.maximum(np.maximum(f[0], f[-1]), antipodes[gates]) + slack[gates]
    return index, certified


def _grid_index(big_a, z):
    """Index of the ``_GRID`` angle maximizing f over the (..., 2) pairs of ``_local_z_angle``,
    with each gate's bits whatever stack it is in. At most ``_PASS`` gates take one full-grid
    pass. In a larger stack, a gate whose two peaks lie near each other takes the argmax of the
    ``_WINDOW`` cells around their midpoint, where a bound certifies it; every other gate (peaks
    far apart, flat pairs, non-finite gates) takes the full grid, ``_PASS`` gates a pass."""
    if z.size <= 2 * _PASS:
        return _grid_pass(big_a, z)
    shape, big_a, z = z.shape[:-1], big_a.reshape(-1, 2), z.reshape(-1, 2)
    cells, index = len(_GRID), np.empty(len(z), dtype=np.intp)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite gate is not certified
        pairs = np.array([big_a.T, z.real.T, z.imag.T, np.abs(z).T])  # (4, 2, n): gates innermost
        peaks = np.arctan2(-pairs[2], pairs[1]) / _GRID[1]  # in cells
        sep = (peaks[1] - peaks[0] + cells / 2) % cells - cells / 2
        mid = peaks[0] + sep / 2
        low, half = np.floor(mid), np.abs(sep) / 2
        near = (half <= mid - low + _WINDOW / 2 - 2) & (half <= low - mid + _WINDOW / 2 - 1)
        # The near gates are gathered only when some gate is not: on sweeps, not in most Monte-Carlo blocks.
        windowed = slice(None) if near.all() else np.flatnonzero(near)
        index[windowed], near[windowed] = _window(pairs[..., windowed], sep[windowed], low[windowed])
    rest = np.flatnonzero(~near)
    if rest.size:  # gathered once: a gather per pass costs more than the window saves on a sweep
        big_a, z = big_a[rest], z[rest]
        passes = [_grid_pass(big_a[i : i + _PASS], z[i : i + _PASS]) for i in range(0, len(z), _PASS)]
        index[rest] = np.concatenate(passes)
    return index.reshape(shape)


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
            curvature = q.real + q.imag * q.imag / h
            # f = sum h, with h^2 = |a + b e^{ia}|^2 = A + 2 Re(w), w = z e^{ia}:
            # f' = -sum Im(w)/h and f'' = -sum (Re(w)/h + Im(w)^2/h^3), each pair added as in the grid pass.
            alpha = alpha - (q.imag[..., 0] + q.imag[..., 1]) / (curvature[..., 0] + curvature[..., 1])
    return np.where(np.abs(alpha - coarse) < _GRID[1], alpha, coarse)


def _fidelity_terms(u):
    """What a stack's fidelity reads: ``_diagonals(u)``, and Tr(M M^dag)."""
    # In C order, so that each gate's sums add in the same order.
    block = np.ascontiguousarray(u[..., _INDICES[:, None], _INDICES])
    tr_mm = (np.abs(block.reshape(block.shape[:-2] + (16,))) ** 2).sum(axis=-1)
    return _diagonals(u), tr_mm


def _fidelity_functional(c, tr_mm, target_phi, compensate=True):
    """The fidelity array of ``_fidelity_terms``, which it leaves unchanged."""
    if not (np.isfinite(c).all() and np.isfinite(tr_mm).all()):  # before the local-Z search warns on it
        raise ValueError("fidelity functional out of range: a gate is not finite")
    c = c.copy()
    # Not in place: NumPy rounds an in-place product of one element unlike longer ones.
    c[..., 3] = c[..., 3] * np.conj(np.exp(1j * np.asarray(target_phi)))
    if compensate:
        # f = |c00 + c10 e^{ia}| + |c01 + c11 e^{ia}| at the maximizing angle a.
        pairs = np.abs(c[..., :2] + c[..., 2:] * np.exp(1j * _local_z_angle(c))[..., None])
        tr = pairs[..., 0] + pairs[..., 1]
    else:
        tr = np.abs(c.sum(axis=-1))
    fidelity = (tr * tr + tr_mm) / 20.0
    # Written so that a NaN functional (a non-finite propagator) fails too.
    if not (fidelity <= 1.0 + 1e-9).all():
        raise ValueError(f"fidelity functional out of range: {np.max(fidelity)}")
    return np.minimum(fidelity, 1.0)


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
    checked = [_require_finite(phi, "target_phi") for phi in np.ravel(target_phi).tolist()]
    target_phi = np.reshape(checked, np.shape(target_phi))
    return _unstack(_fidelity_functional(*_fidelity_terms(_stack(u)), target_phi, compensate))


def pulse_area(sequence):
    """Total applied Rabi area: sum over segments and atoms of Omega*dt."""
    # Summed from +0.0 in time order, atom 1 first, one term at a time, as ``total_duration``
    # adds: Python 3.12's sum() of floats compensates. An absent drive adds +0.0.
    rows, durations = sequence.controls.tolist(), sequence.durations.tolist()
    return functools.reduce(operator.add, (row[c] * t for row, t in zip(rows, durations) for c in RABI_COLUMNS), 0.0)


def rydberg_time(sequence):
    """Time-integrated Rydberg occupation, averaged over the four computational
    product states.

    Single excitation counts once and the doubly-excited state twice. The
    integral is the trapezoid rule on ``RYDBERG_TIME_SAMPLES`` uniform
    intervals per segment, summed in closed form in each distinct segment's eigenbasis
    from the states at each segment's start, read off the sequence's running products.
    """
    totals = _kernels.weighted_population_integral(
        *sequence._eigensystem[1], sequence._partials, _COMPUTATIONAL_STATES, EXCITATIONS, RYDBERG_TIME_SAMPLES
    )
    mean = functools.reduce(operator.add, totals.tolist()) / len(totals)  # np.mean's sum, left to right
    if not math.isfinite(mean):
        raise ValueError(f"rydberg_time overflows: the mean of the per-state integrals is {mean}")
    return mean


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
    (pi, i.e. a CZ gate, by default), reduced exactly mod 2*pi by ``math.remainder``.
    """
    target_phi = _require_finite(target_phi, "target_phi")
    u = sequence_unitary(sequence)
    diagonal, tr_mm = _fidelity_terms(u)
    leakages = tuple(_leakage(u).tolist())
    phases = tuple(np.arctan2(diagonal.imag, diagonal.real).tolist())
    unwrapped = phase_combination(phases)
    return GateReport(
        phases=phases,
        controlled_phase=wrap_angle(unwrapped),
        controlled_phase_unwrapped=unwrapped,
        leakage=leakages,
        leakage_max=max(leakages),
        fidelity=float(_fidelity_functional(diagonal, tr_mm, math.remainder(target_phi, 2 * math.pi))),
        gate_time=sequence.total_duration,
        pulse_area=pulse_area(sequence),
        rydberg_time=rydberg_time(sequence),
    )
