"""The operator basis of the two-atom Rydberg Hamiltonian.

The drive on atom k couples ``|1>_k`` to ``|r>_k`` with Rabi frequency Omega,
detuning Delta and laser phase phi; the matrix-element convention is

    <1|H|r> = (Omega/2) e^{i phi},        <r|H|r> = Delta,

applied symmetrically to both atoms (or to one atom only, with the other
drive absent). Doubly-excited ``|rr>`` is shifted by the interaction V.

With a symmetric drive the full 9x9 Hamiltonian decomposes into invariant
blocks {|00>}, {|01>,|0r>}, {|10>,|r0>}, {|11>,|B>,|rr>} and the dark state
(|1r>-|r1>)/sqrt(2), where |B> = (|1r>+|r1>)/sqrt(2). Atom k's phase phi_k sits
on its one |1>-|r> link, and the one cycle of the coupling graph, |11> -> |1r> -> |rr>
-> |r1> -> |11>, carries phi1 + phi2 - phi1 - phi2 = 0. So H = D Hr D^dag, with Hr real
symmetric and D = exp(-i(phi1 n1 + phi2 n2)), n_k marking the states with atom k in
|r>; ``rydgate.propagation`` diagonalises Hr.

The full Hamiltonian is linear in the seven columns of a control row,
(Omega1 cos phi1, Omega1 sin phi1, Delta1, Omega2 cos phi2, Omega2 sin phi2,
Delta2, V), with ``OPERATORS`` as the basis. Each of its 162 real entries is
fed by at most one column, except the |rr> diagonal Delta1 + Delta2 + V, so
``hamiltonians`` gathers each entry's column from a table derived from
``OPERATORS`` instead of contracting with all seven; ``_real_parts`` gathers
only the 81 real parts, all of a matrix whose sine columns are zero. Schedules
and their rows live in ``rydgate.propagation``.
"""

import numpy as np

# Per-atom operators of the three drive columns on levels |0>, |1>, |r> (codes 0, 1, 2): the
# two quadratures of the |1>-|r> coupling and the Rydberg projector |r><r|.
_G1, _RYD = 1, 2
_ATOM = np.zeros((3, 3, 3), dtype=np.complex128)
_ATOM[:2, _G1, _RYD] = 0.5, 0.5j
_ATOM[:2, _RYD, _G1] = 0.5, -0.5j
_ATOM[2, _RYD, _RYD] = 1.0
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

# The gather table over the 162 floats of a Hamiltonian's real view: the first column
# feeding each entry (0 where none does) and its coefficient (0.0 there).
_REAL = OPERATORS.view(np.float64).reshape(7, 162)
_COLUMN = np.argmax(_REAL != 0, axis=0)
_COEFFICIENT = _REAL[_COLUMN, np.arange(162)]
# The |rr> diagonal, the one entry more than one column feeds (each with coefficient
# 1), and the columns it adds to its gathered Delta1: Delta2, then V.
(_RR,) = np.flatnonzero(np.count_nonzero(_REAL, axis=0) > 1).tolist()
_RR_ADDED = np.flatnonzero(_REAL[:, _RR])[1:].tolist()


def _gather(controls, step):
    """(n, 162 // step) floats of the Hamiltonians of (..., 7) control rows: the real view, or its real parts."""
    # Bit-equal to the contraction with OPERATORS in column order, for finite rows,
    # and, unlike a matrix product, never in BLAS, whose threaded gemm on a large
    # stack leaves OpenBLAS worker threads spinning on the other CPUs. The rows are
    # flattened to 2-D so that the |rr> adds run on one strided column, which NumPy
    # starts faster than a strided 2-D block.
    rows = controls.reshape(-1, 7)
    entries = np.take(rows, _COLUMN[::step], axis=-1)
    entries *= _COEFFICIENT[::step]
    rr = entries[:, _RR // step]
    for column in _RR_ADDED:
        rr += rows[:, column]
    entries += 0.0  # the contraction's sums start at +0.0, so a -0.0 product reads 0.0
    return entries


def hamiltonians(controls):
    """Hamiltonians of a (..., 7) stack of control rows, shape (..., 9, 9)."""
    return _gather(controls, 1).view(np.complex128).reshape(controls.shape[:-1] + (9, 9))


def _real_parts(controls):
    """``hamiltonians(controls).real``, bit for bit, as a contiguous (..., 9, 9) float64 stack of the 81 real
    entries alone: for rows with zero sine columns, the whole matrices."""
    return _gather(controls, 2).reshape(controls.shape[:-1] + (9, 9))
