"""NumPy implementations of the propagation kernels.

Leading axes of every argument are batch axes: one broadcast
``np.linalg.eigh`` diagonalises every matrix of a call.
"""

import numpy as np


def _eigenphases(w, t):
    """w*t, raising ValueError where it overflows, before NumPy would warn."""
    with np.errstate(over="ignore"):
        wt = w * t
    if not np.isfinite(wt).all():
        raise ValueError("an eigenphase w*t overflows: the interaction strength times the duration is out of range")
    return wt


def expm_hermitian(h, t):
    """exp(-i*h*t) of (..., n, n) Hermitian matrices; ``t`` broadcasts over ``h.shape[:-2]``."""
    w, v = np.linalg.eigh(h)
    v_dagger = v.conj().swapaxes(-1, -2)
    v *= np.exp(-1j * _eigenphases(w, np.asarray(t)[..., None]))[..., None, :]  # in place: one stack fewer
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


def _trapezoid_factor(w, h, n):
    """h*D_n(y_jk), y_jk = (w_j - w_k)*h: the trapezoid rule's weight for the beat
    e^{i(w_j - w_k)t} sampled on n intervals of width h. ``w`` holds each
    segment's eigenvalues, (k, d), and ``h`` its step, (k,); returns (k, d, d).

    D_n(y) = sum_{s=0..n} e^{isy} - (1 + e^{iny})/2 = e^{inr} sin(nr)/tan(r), with
    r = y/2 reduced modulo pi into [-pi/2, pi/2): D_n has period 2*pi in y, and
    a beat that aliases onto the grid (y near 2*pi*m) takes the limit D_n = n
    there instead of a quotient of two rounding errors.
    """
    h = h[:, None, None]
    half_y = 0.5 * (w[:, :, None] - w[:, None, :]) * h
    r = np.remainder(half_y + 0.5 * np.pi, np.pi) - 0.5 * np.pi
    d = np.divide(np.sin(n * r), np.tan(r), out=np.full_like(r, n), where=r != 0)
    return h * d * np.exp(1j * n * r)


def weighted_population_integral(hams, durations, psi0, weights, samples_per_segment):
    """Trapezoidal time integrals of a weighted population along a sequence.

    Propagates each of the (m, n) initial states ``psi0`` through the (k, n, n)
    piecewise-constant schedule of (k,) ``durations`` and integrates
    sum_i weights[i]*|psi_i(t)|^2 by the trapezoid rule on a uniform grid of
    ``samples_per_segment`` intervals per segment. Returns the (m,) integrals.

    The sum is taken in closed form, not by sampling: in each segment's
    eigenbasis, with c = V^dag psi and G = V^dag diag(weights) V, the population
    is sum_jk conj(c_j) G_jk c_k e^{i(w_j - w_k)t}, and the trapezoid rule
    weighs each beat by ``_trapezoid_factor``.
    """
    w, v = np.linalg.eigh(hams)
    steps = np.exp(-1j * _eigenphases(w, durations[:, None]))
    v_dagger = v.conj().swapaxes(-1, -2)
    kernels = _trapezoid_factor(w, durations / samples_per_segment, samples_per_segment)
    kernels *= v_dagger @ (weights[:, None] * v)
    psi = np.asarray(psi0, dtype=np.complex128)
    total = np.zeros(psi.shape[0])
    for vk, kernel, step in zip(v, kernels, steps):
        c = psi @ vk.conj()
        total += ((c.conj() @ kernel) * c).sum(axis=-1).real
        psi = (c * step) @ vk.T
    return total
