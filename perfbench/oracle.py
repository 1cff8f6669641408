"""Independent reference physics for the benchmark's output checks.

Rebuilds the two gate protocols from the conventions stated in the README
(drive element <1|H|r> = (Omega/2) e^{i phi}, +Delta |r><r| per atom,
+V |rr><rr|, row-major basis over (atom 1, atom 2)) without importing
rydgate, so a check never compares the program against itself. The Rydberg
time is integrated exactly in each segment's eigenbasis, which makes it the
limit of arbitrarily fine quadrature.
"""

import math

import numpy as np

COMPUTATIONAL = (0, 1, 3, 4)
GEOMETRIC_PHASES = (0.0, -math.pi / 2, 0.0, -math.pi / 2)
#: Rydberg excitation count of each basis state |ab>, index 3a + b.
RYDBERG_COUNT = np.array([(a == 2) + (b == 2) for a in range(3) for b in range(3)], float)


def wrap(x):
    """Angle in (-pi, pi], with -pi mapped to +pi (the README convention)."""
    y = math.remainder(x, 2 * math.pi)
    return math.pi if y == -math.pi else y


def _atom(rabi, detuning, phase):
    a = np.zeros((3, 3), dtype=np.complex128)
    a[1, 2] = 0.5 * rabi * np.exp(1j * phase)
    a[2, 1] = np.conj(a[1, 2])
    a[2, 2] = detuning
    return a


def _hamiltonian(drive1, drive2, v):
    idle = np.zeros((3, 3))
    h = np.kron(_atom(*drive1) if drive1 else idle, np.eye(3))
    h = h + np.kron(np.eye(3), _atom(*drive2) if drive2 else idle)
    h[8, 8] += v
    return h


def geometric_segments(kappa, omega):
    """(duration, drive1, drive2, v) per segment; drives are (rabi, detuning, phase)."""
    v = omega / kappa
    t = 2 * math.pi / math.hypot(2 * omega, v / 2)
    return [(t, (omega, -v / 2, p), (omega, -v / 2, p), v) for p in GEOMETRIC_PHASES]


def blockade_segments(omega, v):
    drive = (omega, 0.0, 0.0)
    t = math.pi / omega
    return [(t, drive, None, v), (2 * t, None, drive, v), (t, drive, None, v)]


def gate_time_geometric(kappa, omega):
    v = omega / kappa
    return 8 * math.pi / math.sqrt(4 * omega**2 + v**2 / 4)


def gate_time_blockade(omega):
    return 4 * math.pi / omega


def pulse_area(segments):
    return sum(d[0] * t for t, d1, d2, _ in segments for d in (d1, d2) if d)


class Gate:
    """Unitary, phases and exact Rydberg time of one piecewise-constant gate."""

    def __init__(self, segments):
        self.segments = segments
        self.gate_time = sum(s[0] for s in segments)
        self.pulse_area = pulse_area(segments)
        u = np.eye(9, dtype=np.complex128)
        psi = np.eye(9, dtype=np.complex128)[:, COMPUTATIONAL]
        integral = np.zeros(len(COMPUTATIONAL))
        for t, d1, d2, v in segments:
            w, vec = np.linalg.eigh(_hamiltonian(d1, d2, v))
            u = (vec * np.exp(-1j * w * t)) @ vec.conj().T @ u
            m = vec.conj().T @ (RYDBERG_COUNT[:, None] * vec)
            c = vec.conj().T @ psi
            x = (w[:, None] - w[None, :]) * t
            # \int_0^t e^{i(w_j - w_k)s} ds, written with sinc so equal
            # eigenvalues take the limit t without cancellation.
            kernel = t * np.exp(0.5j * x) * np.sinc(x / (2 * math.pi))
            integral += np.einsum("js,jk,ks,jk->s", c.conj(), m, c, kernel).real
            psi = vec @ (np.exp(-1j * w * t)[:, None] * c)
        self.unitary = u
        self.rydberg_time = float(np.mean(integral))
        diag = [u[i, i] for i in COMPUTATIONAL]
        self.phases = tuple(math.atan2(a.imag, a.real) for a in diag)
        p00, p01, p10, p11 = self.phases
        self.controlled_phase = wrap(p11 + p00 - p10 - p01)
        self.leakage_max = max(1.0 - abs(a) ** 2 for a in diag)


def geometric(kappa, omega=1.0):
    return Gate(geometric_segments(kappa, omega))


def blockade(omega, v):
    return Gate(blockade_segments(omega, v))


def trapezoid_rydberg_time(segments, samples):
    """Trapezoidal Rydberg time on ``samples`` intervals per segment (self-test only)."""
    psi = np.eye(9, dtype=np.complex128)[:, COMPUTATIONAL]
    total = np.zeros(len(COMPUTATIONAL))
    for t, d1, d2, v in segments:
        w, vec = np.linalg.eigh(_hamiltonian(d1, d2, v))
        c = vec.conj().T @ psi
        ts = np.linspace(0.0, t, samples + 1)
        amps = np.einsum("ij,tj,js->tis", vec, np.exp(-1j * np.outer(ts, w)), c)
        pops = np.einsum("tis,i->ts", np.abs(amps) ** 2, RYDBERG_COUNT)
        total += np.trapezoid(pops, dx=t / samples, axis=0)
        psi = amps[-1]
    return float(np.mean(total))
