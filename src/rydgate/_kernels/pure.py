"""NumPy implementations of the propagation kernels.

Leading axes of every argument are batch axes: one broadcast
``np.linalg.eigh`` diagonalises every matrix of a call.
"""

import numpy as np


def expm_hermitian(h, t):
    """exp(-i*h*t) of (..., n, n) Hermitian matrices; ``t`` broadcasts over ``h.shape[:-2]``."""
    w, v = np.linalg.eigh(h)
    v_dagger = v.conj().swapaxes(-1, -2)
    v *= np.exp(w * (-1j * np.asarray(t))[..., None])[..., None, :]  # in place: one stack fewer
    return v @ v_dagger


def sequence_product(hams, durations):
    """Time-ordered propagators U = exp(-i*h_k*t_k) ... exp(-i*h_1*t_1).

    ``hams`` (..., k, n, n) holds each gate's segment generators, first
    segment first, and ``durations`` (..., k) their durations, broadcast
    against ``hams.shape[:-2]``. Returns the (..., n, n) propagators.
    """
    steps = expm_hermitian(hams, durations)
    u = np.eye(hams.shape[-1], dtype=np.complex128)
    for j in range(steps.shape[-3]):
        u = steps[..., j, :, :] @ u
    return u


def weighted_population_integral(hams, durations, psi0, weights, samples_per_segment):
    """Trapezoidal time integrals of a weighted population along a sequence.

    Propagates each of the (m, n) initial states ``psi0`` through the (k, n, n)
    piecewise-constant schedule of (k,) ``durations`` and integrates
    sum_i weights[i]*|psi_i(t)|^2, sampling each segment on a uniform grid
    of ``samples_per_segment`` intervals. Returns the (m,) integrals.
    """
    psi = np.array(psi0, dtype=np.complex128)
    total = np.zeros(psi.shape[0])
    w, v = np.linalg.eigh(hams)
    for wk, vk, dur in zip(w, v, durations):
        phases = np.exp(np.outer(np.linspace(0.0, dur, samples_per_segment + 1), -1j * wk))
        # One state at a time: an (m, samples + 1, n) stack is paged in afresh per call.
        for i, c in enumerate(psi @ vk.conj()):
            amps = (phases * c) @ vk.T
            total[i] += np.trapezoid(np.abs(amps) ** 2 @ weights, dx=dur / samples_per_segment)
            psi[i] = amps[-1]
    return total
