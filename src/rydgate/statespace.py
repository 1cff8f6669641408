"""Linear algebra over the two-atom, three-level Hilbert space.

Each atom carries the levels ``|0>``, ``|1>`` and the Rydberg level ``|r>``
(codes 0, 1, 2). Two-atom product states are ordered row-major over
(atom 1, atom 2):

    index(a, b) = 3*code(a) + code(b)

so the nine basis states are ``|00>, |01>, |0r>, |10>, |11>, |1r>, |r0>,
|r1>, |rr>`` at indices 0..8. All frequencies are angular frequencies in a
user-chosen reference unit and times are in the inverse unit (hbar = 1).

States are plain complex NumPy vectors and operators are complex matrices;
every function here is pure and safe to call concurrently.
"""

import math
from enum import IntEnum

import numpy as np

from rydgate import _kernels

DIM_SINGLE = 3
DIM = 9

#: Indices of the computational product states |00>, |01>, |10>, |11>.
COMPUTATIONAL_INDICES = (0, 1, 3, 4)


class Level(IntEnum):
    """Single-atom level: ground qubit states and the Rydberg state."""

    G0 = 0
    G1 = 1
    RYD = 2


def basis_index(a, b):
    """Product-basis index of |ab>, row-major over (atom 1, atom 2)."""
    return 3 * int(Level(a)) + int(Level(b))


def basis_state(a, b):
    """Unit amplitude vector for the product state |ab>."""
    psi = np.zeros(DIM, dtype=np.complex128)
    psi[basis_index(a, b)] = 1.0
    return psi


def symmetric_rr_state():
    """(|1r> + |r1>)/sqrt(2), the drive-coupled (bright) single-excitation state."""
    psi = np.zeros(DIM, dtype=np.complex128)
    psi[basis_index(Level.G1, Level.RYD)] = 1 / math.sqrt(2)
    psi[basis_index(Level.RYD, Level.G1)] = 1 / math.sqrt(2)
    return psi


def antisymmetric_rr_state():
    """(|1r> - |r1>)/sqrt(2), dark under any symmetric drive."""
    psi = np.zeros(DIM, dtype=np.complex128)
    psi[basis_index(Level.G1, Level.RYD)] = 1 / math.sqrt(2)
    psi[basis_index(Level.RYD, Level.G1)] = -1 / math.sqrt(2)
    return psi


def rydberg_excitation_counts():
    """Number of Rydberg excitations of each product basis state (0, 1 or 2)."""
    per_atom = np.array([0.0, 0.0, 1.0])  # |0>, |1>, |r>
    return np.add.outer(per_atom, per_atom).ravel()


def kron(a, b):
    """Tensor product of two single-atom (3x3) operators.

    (kron(a, b))[3i+k, 3j+l] = a[i, j] * b[k, l]; atom 1 is the slow index.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != (DIM_SINGLE, DIM_SINGLE) or b.shape != (DIM_SINGLE, DIM_SINGLE):
        raise ValueError(f"operands must be {DIM_SINGLE}x{DIM_SINGLE}, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def hermiticity_defect(m):
    """Largest entrywise magnitude of m - m^dagger."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def unitarity_defect(u):
    """Largest entrywise magnitude of u^dagger u - identity."""
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def expm_hermitian(h, t):
    """Unitary exp(-i*h*t) of a Hermitian matrix via eigendecomposition.

    Parameters
    ----------
    h : (n, n) complex array
        Hermitian matrix (angular-frequency units).
    t : float
        Evolution time.

    Raises
    ------
    ValueError
        If ``h`` is not square, not Hermitian (to 1e-12 relative to its
        largest entry, with 1.0 floor) or ``t`` is not finite.
    """
    h = np.ascontiguousarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h)))) if h.size else 1.0
    defect = hermiticity_defect(h)
    if defect > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {defect:.3e}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return _kernels.expm_hermitian(h, float(t))


def wrap_angle(x):
    """Wrap an angle into (-pi, pi]; the branch point -pi maps to +pi."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)
