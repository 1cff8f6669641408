"""Hamiltonian builders for the two-atom Rydberg system and reference couplings.

The drive on atom k couples ``|1>_k`` to ``|r>_k`` with Rabi frequency Omega,
detuning Delta and laser phase phi; the matrix-element convention is

    <1|H|r> = (Omega/2) e^{i phi},        <r|H|r> = Delta,

applied symmetrically to both atoms (or to one atom only, with the other
drive absent). Doubly-excited ``|rr>`` is shifted by the interaction V.

With a symmetric drive the full 9x9 Hamiltonian decomposes into invariant
blocks {|00>}, {|01>,|0r>}, {|10>,|r0>}, {|11>,|B>,|rr>} and the dark state
(|1r>-|r1>)/sqrt(2), where |B> = (|1r>+|r1>)/sqrt(2). ``h_block_01`` and
``h_block_11`` build the small blocks directly.

The full Hamiltonian is linear in the seven columns of a control row,
(Omega1 cos phi1, Omega1 sin phi1, Delta1, Omega2 cos phi2, Omega2 sin phi2,
Delta2, V): ``hamiltonians`` contracts a stack of rows with ``OPERATORS``.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from rydgate.statespace import (
    DIM,
    Level,
    antisymmetric_rr_state,
    basis_index,
    kron,
    symmetric_rr_state,
    wrap_angle,
)


def _require_finite(value, name):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class DriveParams:
    """Per-atom laser drive: Rabi frequency, detuning and phase (radians)."""

    rabi: float
    detuning: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        _require_finite(self.rabi, "rabi")
        _require_finite(self.detuning, "detuning")
        _require_finite(self.phase, "phase")
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")
        object.__setattr__(self, "phase", wrap_angle(self.phase))


@dataclass(frozen=True)
class RydbergParams:
    """Rydberg-Rydberg interaction strength V (angular frequency, signed)."""

    v: float

    def __post_init__(self):
        _require_finite(self.v, "v")


class CouplingKind(Enum):
    """Direct qubit-qubit coupling flavors."""

    XY = "xy"
    ZZ = "zz"
    PM = "pm"


@dataclass(frozen=True)
class CouplingSpec:
    """Direct two-qubit coupling of a given kind and strength."""

    kind: CouplingKind
    j: float

    def __post_init__(self):
        _require_finite(self.j, "j")


# Per-atom operators of the three drive columns: the two quadratures of the
# |1>-|r> coupling and the Rydberg projector |r><r|.
_ATOM = np.zeros((3, 3, 3), dtype=np.complex128)
_ATOM[:2, Level.G1, Level.RYD] = 0.5, 0.5j
_ATOM[:2, Level.RYD, Level.G1] = 0.5, -0.5j
_ATOM[2, Level.RYD, Level.RYD] = 1.0
#: (7, 9, 9) Hermitian operators, one per control-row column; the last is |rr><rr|.
OPERATORS = np.stack(
    [kron(op, np.eye(3)) for op in _ATOM]
    + [kron(np.eye(3), op) for op in _ATOM]
    + [kron(_ATOM[2], _ATOM[2])]
)
OPERATORS.flags.writeable = False
#: Control-row columns proportional to a Rabi frequency, and the V column.
RABI_COLUMNS = (0, 1, 3, 4)
V_COLUMN = 6


def control_row(drive1, drive2, ryd):
    """(7,) control row of per-atom drives (``None``: undriven) and interaction."""
    row = []
    for d in (drive1, drive2):
        if d is None:
            row += (0.0, 0.0, 0.0)
        else:
            row += (d.rabi * math.cos(d.phase), d.rabi * math.sin(d.phase), d.detuning)
    return np.array(row + [ryd.v])


def hamiltonians(controls):
    """Hamiltonians of a (..., 7) stack of control rows, shape (..., 9, 9)."""
    # einsum on real views stays out of BLAS, whose threaded gemm on a large
    # stack leaves OpenBLAS worker threads spinning on the other CPUs.
    real = np.einsum("...c,cij->...ij", controls, OPERATORS.view(np.float64), order="C")
    return real.view(np.complex128)


def h_full(drive1, drive2, ryd):
    """Full two-atom Hamiltonian with per-atom drives and Rydberg interaction.

    Parameters
    ----------
    drive1, drive2 : DriveParams or None
        Laser drive on each atom; ``None`` means the atom is not driven.
    ryd : RydbergParams
        Interaction strength of the doubly-excited state.

    Returns
    -------
    (9, 9) complex Hermitian array
    """
    return hamiltonians(control_row(drive1, drive2, ryd))


def h_block_01(drive2):
    """Single-excitation block over {|01>, |0r>}: atom 1 idle, atom 2 driven."""
    om = 0.5 * drive2.rabi * cmath.exp(1j * drive2.phase)
    return np.array([[0.0, om], [np.conj(om), drive2.detuning]], dtype=np.complex128)


def h_block_11(drive, ryd):
    """Double-occupation block over {|11>, |B>, |rr>} for a symmetric drive.

    |B> = (|1r>+|r1>)/sqrt(2); the ladder couplings are sqrt(2)/2 * Omega
    e^{i phi} and the diagonal reads (0, Delta, V + 2*Delta).
    """
    g = (math.sqrt(2) / 2) * drive.rabi * cmath.exp(1j * drive.phase)
    return np.array(
        [
            [0.0, g, 0.0],
            [np.conj(g), drive.detuning, g],
            [0.0, np.conj(g), ryd.v + 2 * drive.detuning],
        ],
        dtype=np.complex128,
    )


@dataclass(frozen=True)
class BlockadeEffectiveModel:
    """Two-level rewrite of the double-occupation block in the blockade regime.

    ``matrix`` acts on {|B>, |b>}: coupling Omega e^{i phi}, diagonal
    (Delta, 0). ``b_state`` is the 9-dimensional embedding of

        |b> = sin(theta11/2) e^{-2i phi} |11> + cos(theta11/2) |rr>,

    with tan(theta11) = Omega/Delta. Kept as a comparison object only: its
    coupling normalization and the |rr> weight in |b> do not reduce to the
    standard strong-blockade two-level model, so no gate protocol uses it.
    """

    matrix: np.ndarray
    b_state: np.ndarray
    theta11: float


def h_blockade_eff(drive, theta11=None):
    """Effective two-level model on {|B>, |b>} with V dropped.

    ``theta11`` defaults to atan2(Omega, Delta), i.e. tan(theta11) =
    Omega/Delta with the branch that keeps theta11 in [0, pi] for Omega >= 0.
    """
    if theta11 is None:
        theta11 = math.atan2(drive.rabi, drive.detuning)
    g = drive.rabi * cmath.exp(1j * drive.phase)
    matrix = np.array([[drive.detuning, g], [np.conj(g), 0.0]], dtype=np.complex128)
    b_state = np.zeros(DIM, dtype=np.complex128)
    b_state[basis_index(Level.G1, Level.G1)] = math.sin(theta11 / 2) * cmath.exp(-2j * drive.phase)
    b_state[basis_index(Level.RYD, Level.RYD)] = math.cos(theta11 / 2)
    return BlockadeEffectiveModel(matrix=matrix, b_state=b_state, theta11=float(theta11))


_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_SP = np.array([[0, 1], [0, 0]], dtype=np.complex128)  # |0><1|
_SM = _SP.conj().T
#: Direct-coupling operators per unit J, built once like ``OPERATORS``.
_DIRECT = {
    CouplingKind.XY: np.kron(_SX, _SX) + np.kron(_SY, _SY),
    CouplingKind.ZZ: 0.25 * np.kron(_SZ, _SZ),
    CouplingKind.PM: np.kron(_SP, _SM) + np.kron(_SM, _SP),
}


def h_direct(spec):
    """Direct-coupling two-qubit Hamiltonian on {|00>, |01>, |10>, |11>}.

    XY: J*(sx sx + sy sy); ZZ: (J/4)*sz sz; PM: J*(s+ s- + s- s+).
    """
    if spec.kind not in _DIRECT:
        raise ValueError(f"unknown coupling kind: {spec.kind!r}")
    return spec.j * _DIRECT[spec.kind]


def symmetric_block_projectors():
    """Projectors onto the invariant subspaces of any symmetric drive.

    Returns a dict keyed by '00', '01', '10', '11', 'antisym'.
    """

    def from_states(states):
        p = np.zeros((DIM, DIM), dtype=np.complex128)
        for s in states:
            p += np.outer(s, s.conj())
        return p

    e = {
        (a, b): np.eye(DIM, dtype=np.complex128)[basis_index(a, b)]
        for a in Level
        for b in Level
    }
    return {
        "00": from_states([e[Level.G0, Level.G0]]),
        "01": from_states([e[Level.G0, Level.G1], e[Level.G0, Level.RYD]]),
        "10": from_states([e[Level.G1, Level.G0], e[Level.RYD, Level.G0]]),
        "11": from_states(
            [e[Level.G1, Level.G1], symmetric_rr_state(), e[Level.RYD, Level.RYD]]
        ),
        "antisym": from_states([antisymmetric_rr_state()]),
    }
