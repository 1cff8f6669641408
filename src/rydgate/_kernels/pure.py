"""NumPy implementations of the propagation kernels.

Leading axes of every argument are batch axes. The product and the integral take
the eigensystems ``(w, v)`` of one broadcast ``np.linalg.eigh``, which callers may
share: neither writes into ``v``.
"""

import itertools

import numpy as np


def _eigenphases(w, t):
    """w*t, raising ValueError where |w*t| > 2**32 (NaN and overflow included), before NumPy would
    warn. eigh rounds w by about eps*max|w|, which past that bound turns e^{-iwt} into noise."""
    with np.errstate(over="ignore"):
        wt = w * t
    if not (np.abs(wt) <= 2.0**32).all():
        raise ValueError(
            "an eigenphase w*t overflows 2**32 in magnitude, past which eigh cannot resolve the gate: "
            "the interaction strength times the duration is out of range"
        )
    return wt


def _steps(w, v, t):
    """exp(-i*h*t) of real symmetric (..., n, n) h = v diag(w) v^T; ``t`` broadcasts over ``w.shape[:-1]``.
    Its floats are one real product, v @ floats(v^T e), e = exp(-i*w*t) giving cos and -sin alike on every
    lane; the product sums from +0.0, so its zeros are +0.0 and a factor of exactly 1 + 0j keeps its bits."""
    e = np.exp(-1j * _eigenphases(w, np.asarray(t)[..., None]))
    return (v @ np.multiply(v.swapaxes(-1, -2), e[..., :, None], order="C").view(np.float64)).view(np.complex128)


def _product(steps, order, running=()):
    """steps[order[-1]] @ ... @ steps[order[0]], its second half's product times its first's, each half
    likewise and taken once when the halves are equal: a period repeated 2**m times is multiplied out
    once and squared m times. The association depends only on len(order); a first half of at most 3
    steps has that of its running product, read from ``running`` where that holds it."""
    if len(order) == 1:
        return steps[order[0]]
    half = (len(order) + 1) // 2
    first = running[half - 1] if half <= min(3, len(running)) else _product(steps, order[:half], running)
    return (first if order[half:] == order[:half] else _product(steps, order[half:])) @ first


def sequence_product(w, v, durations, order, segments, partials=False):
    """Time-ordered propagators U = exp(-i*h_k*t_k) ... exp(-i*h_1*t_1), a new (..., n, n) array.

    ``w`` (..., e, n), ``v`` (..., e, n, n) and ``durations`` (..., e) give each gate's e distinct real
    steps; ``segments`` the distinct segments as (step, pattern) pairs, the step times a (..., n, n)
    pattern elementwise unless it is None; ``order`` each segment's, first first. With ``partials``,
    (k, ..., n, n): U_1, U_2 U_1, ..., one step at a time, and U, with the bits it has without them.
    """
    real = _steps(w, v, durations)
    steps = [real[..., i, :, :] if p is None else real[..., i, :, :] * p for i, p in segments]
    if not partials:
        u = _product(steps, order)
        return u if len(order) > 1 else u.copy()
    running = [*itertools.accumulate((steps[j] for j in order[:-1]), lambda u, step: step @ u)]
    return np.array([*running, _product(steps, order, running)])


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


def weighted_population_integral(w, v, durations, order, partials, psi0, weights, samples_per_segment):
    """Trapezoidal time integrals of a weighted population along a sequence.

    Segment j of the schedule is generated by v diag(w) v^dag at index ``order[j]``
    of the distinct segments' (d, n) ``w``, (d, n, n) ``v`` and (d,) ``durations``,
    and ``partials`` holds the (k, n, n) running products U_j ... U_1 of
    ``sequence_product``. Integrates sum_i weights[i]*|psi_i(t)|^2 for each of the
    (m, n) initial states ``psi0`` by the trapezoid rule on a uniform grid of
    ``samples_per_segment`` intervals per segment. Returns the (m,) integrals.

    The sum is taken in closed form, without propagating again: in each segment's
    eigenbasis, with c = V^dag psi for psi at its start (psi0, then U_j ... U_1 psi0)
    and G = V^dag diag(weights) V, the population is sum_jk conj(c_j) G_jk c_k
    e^{i(w_j - w_k)t}; the trapezoid rule weighs each beat by ``_trapezoid_factor``.
    """
    psi, order, v_conj = np.asarray(psi0, dtype=np.complex128), list(order), v.conj()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite integral raises below
        kernels = _trapezoid_factor(w, durations / samples_per_segment, samples_per_segment)
        kernels *= v_conj.swapaxes(-1, -2) @ (weights[:, None] * v)
        c = np.concatenate([psi[None], psi @ partials[:-1].swapaxes(-1, -2)]) @ v_conj[order]
        total = ((c.conj() @ kernels[order]) * c).sum(axis=-1).real.sum(axis=0)
    if not np.isfinite(total).all():
        raise ValueError("a population integral overflows: the eigenvalue spread or the durations are out of range")
    return total
