"""Basis conventions of the two-atom, three-level Hilbert space.

Each atom carries the levels ``|0>``, ``|1>`` and the Rydberg level ``|r>``
(codes 0, 1, 2). Two-atom product states are ordered row-major over
(atom 1, atom 2):

    index(a, b) = 3*code(a) + code(b)

so the nine basis states are ``|00>, |01>, |0r>, |10>, |11>, |1r>, |r0>,
|r1>, |rr>`` at indices 0..8. All frequencies are angular frequencies in a
user-chosen reference unit and times are in the inverse unit (hbar = 1).
"""

import math

import numpy as np

#: Indices of the computational product states |00>, |01>, |10>, |11>.
COMPUTATIONAL_INDICES = (0, 1, 3, 4)


def rydberg_excitation_counts():
    """Number of Rydberg excitations of each product basis state (0, 1 or 2)."""
    per_atom = np.array([0.0, 0.0, 1.0])  # |0>, |1>, |r>
    return np.add.outer(per_atom, per_atom).ravel()


def wrap_angle(x):
    """Wrap an angle into (-pi, pi]; the branch point -pi maps to +pi."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)
