"""The two-atom basis and the operator basis of the Rydberg Hamiltonian.

Each atom carries the levels ``|0>``, ``|1>`` and the Rydberg level ``|r>``
(codes 0, 1, 2). Two-atom product states are ordered row-major over
(atom 1, atom 2):

    index(a, b) = 3*code(a) + code(b)

so the nine basis states are ``|00>, |01>, |0r>, |10>, |11>, |1r>, |r0>,
|r1>, |rr>`` at indices 0..8. All frequencies are angular frequencies in a
user-chosen reference unit and times are in the inverse unit (hbar = 1).

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
|r>; ``rydgate.propagation`` diagonalises Hr and puts D back.

A control row holds the seven columns (Omega1, phi1, Delta1, Omega2, phi2, Delta2, V).
Hr is the Hamiltonian of the row with its phases cleared, linear in the other columns
with the real parts of ``OPERATORS`` as the basis; the sine quadratures of the phase
columns have no real part, so a phase feeds no entry of Hr. Each of Hr's 81 entries is
fed by at most one column, except the |rr> diagonal Delta1 + Delta2 + V, so
``_real_parts`` gathers each entry's column from a table derived from ``OPERATORS``
instead of contracting with all seven. Schedules and their rows live in
``rydgate.propagation``.
"""

import numpy as np

# Per-atom operators of the three drive columns on levels |0>, |1>, |r> (codes 0, 1, 2): the
# two quadratures of the |1>-|r> coupling and the Rydberg projector |r><r|.
_G1, _RYD = 1, 2
_ATOM = np.zeros((3, 3, 3), dtype=np.complex128)
_ATOM[:2, _G1, _RYD] = 0.5, 0.5j
_ATOM[:2, _RYD, _G1] = 0.5, -0.5j
_ATOM[2, _RYD, _RYD] = 1.0
#: (7, 9, 9) Hermitian operators, one per control-row column; the last is |rr><rr|. A phase
#: column's is the imaginary sine quadrature, which Omega sin(phi) would multiply.
OPERATORS = np.stack(
    [np.kron(op, np.eye(3)) for op in _ATOM]
    + [np.kron(np.eye(3), op) for op in _ATOM]
    + [np.kron(_ATOM[2], _ATOM[2])]
)
OPERATORS.flags.writeable = False
#: The control-row columns of the Rabi frequencies, and the V column.
RABI_COLUMNS = (0, 3)
V_COLUMN = 6
#: n1 and n2, C-ordered copies of the diagonals of the Delta1 and Delta2 operators: 1.0 on the
#: states with atom 1, atom 2 in |r>. Their sum, each state's Rydberg excitations (0, 1 or 2),
#: weighs ``analysis.rydberg_time``; the computational states |00>, |01>, |10>, |11> have none.
EXCITED = OPERATORS[[2, 5]].real.diagonal(axis1=1, axis2=2).copy()
EXCITATIONS = EXCITED.sum(axis=0)
EXCITED.flags.writeable = EXCITATIONS.flags.writeable = False
COMPUTATIONAL_INDICES = tuple(np.flatnonzero(EXCITATIONS == 0).tolist())

# The gather table over the 81 real parts of a Hamiltonian: the first column feeding
# each entry (0 where none does) and its coefficient (0.0 there).
_REAL = OPERATORS.real.reshape(7, 81)
_COLUMN = np.argmax(_REAL != 0, axis=0)
_COEFFICIENT = _REAL[_COLUMN, np.arange(81)]
# The |rr> diagonal, the one entry more than one column feeds (each with coefficient
# 1), and the columns it adds to its gathered Delta1: Delta2, then V.
(_RR,) = np.flatnonzero(np.count_nonzero(_REAL, axis=0) > 1).tolist()
_RR_ADDED = np.flatnonzero(_REAL[:, _RR])[1:].tolist()


def _real_parts(controls):
    """Hr of (..., 7) control rows, a contiguous (..., 9, 9) float64 stack: the real part of
    the contraction with ``OPERATORS`` in column order, bit for bit, for finite rows."""
    # Never in BLAS, unlike a matrix product, whose threaded gemm on a large stack
    # leaves OpenBLAS worker threads spinning on the other CPUs. The rows are
    # flattened to 2-D so that the |rr> adds run on one strided column, which NumPy
    # starts faster than a strided 2-D block.
    rows = controls.reshape(-1, 7)
    entries = np.take(rows, _COLUMN, axis=-1)
    entries *= _COEFFICIENT
    rr = entries[:, _RR]
    for column in _RR_ADDED:
        rr += rows[:, column]
    entries += 0.0  # the contraction's sums start at +0.0, so a -0.0 product reads 0.0
    return entries.reshape(controls.shape[:-1] + (9, 9))
