"""NumPy implementations of the propagation kernels.

All inputs are expected to be C-contiguous ``complex128`` / ``float64``
arrays (the public wrappers in :mod:`rydgate.statespace` and
:mod:`rydgate.propagation` take care of that).
"""

import numpy as np


def expm_hermitian(h, t):
    """exp(-i*h*t) of a Hermitian matrix via spectral decomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(w * (-1j * t))) @ v.conj().T


def sequence_product(hams, durations):
    """Time-ordered propagator of piecewise-constant Hamiltonians.

    Parameters
    ----------
    hams : (k, n, n) complex array
        Hermitian generator of each segment, first segment first.
    durations : (k,) float array
        Segment durations.

    Returns
    -------
    (n, n) complex array
        U = exp(-i*h_k*t_k) ... exp(-i*h_1*t_1).
    """
    n = hams.shape[1]
    u = np.eye(n, dtype=np.complex128)
    for h, dt in zip(hams, durations):
        u = expm_hermitian(h, dt) @ u
    return u


def weighted_population_integral(hams, durations, psi0, weights, samples_per_segment):
    """Trapezoidal time integral of a weighted population along a sequence.

    Propagates ``psi0`` through the piecewise-constant schedule and
    accumulates the integral of sum_i weights[i]*|psi_i(t)|^2, sampling each
    segment on a uniform grid of ``samples_per_segment`` intervals.

    Returns
    -------
    (float, (n,) complex array)
        The integral and the final state.
    """
    psi = np.asarray(psi0, dtype=np.complex128)
    total = 0.0
    for h, dur in zip(hams, durations):
        w, v = np.linalg.eigh(h)
        c = v.conj().T @ psi
        ts = np.linspace(0.0, dur, samples_per_segment + 1)
        amps = (np.exp(np.outer(ts, -1j * w)) * c) @ v.T
        pops = np.abs(amps) ** 2 @ weights
        total += float(np.trapezoid(pops, dx=dur / samples_per_segment))
        psi = amps[-1]
    return total, psi
