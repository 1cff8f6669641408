"""The operator basis of the two-atom Rydberg Hamiltonian.

The drive on atom k couples ``|1>_k`` to ``|r>_k`` with Rabi frequency Omega,
detuning Delta and laser phase phi; the matrix-element convention is

    <1|H|r> = (Omega/2) e^{i phi},        <r|H|r> = Delta,

applied symmetrically to both atoms (or to one atom only, with the other
drive absent). Doubly-excited ``|rr>`` is shifted by the interaction V.

With a symmetric drive the full 9x9 Hamiltonian decomposes into invariant
blocks {|00>}, {|01>,|0r>}, {|10>,|r0>}, {|11>,|B>,|rr>} and the dark state
(|1r>-|r1>)/sqrt(2), where |B> = (|1r>+|r1>)/sqrt(2).

The full Hamiltonian is linear in the seven columns of a control row,
(Omega1 cos phi1, Omega1 sin phi1, Delta1, Omega2 cos phi2, Omega2 sin phi2,
Delta2, V): ``hamiltonians`` contracts a stack of rows with ``OPERATORS``.
Schedules and their rows live in ``rydgate.propagation``.
"""

import numpy as np

from rydgate.statespace import Level

# Per-atom operators of the three drive columns: the two quadratures of the
# |1>-|r> coupling and the Rydberg projector |r><r|.
_ATOM = np.zeros((3, 3, 3), dtype=np.complex128)
_ATOM[:2, Level.G1, Level.RYD] = 0.5, 0.5j
_ATOM[:2, Level.RYD, Level.G1] = 0.5, -0.5j
_ATOM[2, Level.RYD, Level.RYD] = 1.0
#: (7, 9, 9) Hermitian operators, one per control-row column; the last is |rr><rr|.
OPERATORS = np.stack(
    [np.kron(op, np.eye(3)) for op in _ATOM]
    + [np.kron(np.eye(3), op) for op in _ATOM]
    + [np.kron(_ATOM[2], _ATOM[2])]
)
OPERATORS.flags.writeable = False
#: Control-row columns proportional to a Rabi frequency, and the V column.
RABI_COLUMNS = (0, 1, 3, 4)
V_COLUMN = 6


def hamiltonians(controls):
    """Hamiltonians of a (..., 7) stack of control rows, shape (..., 9, 9)."""
    # einsum on real views stays out of BLAS, whose threaded gemm on a large
    # stack leaves OpenBLAS worker threads spinning on the other CPUs.
    real = np.einsum("...c,cij->...ij", controls, OPERATORS.view(np.float64), order="C")
    return real.view(np.complex128)

