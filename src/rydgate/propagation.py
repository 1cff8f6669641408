"""Pulse schedules and exact unitary propagation.

Piecewise-constant schedules are the native representation: each segment
holds constant per-atom drives and interaction strength, and its propagator
is the exact spectral-decomposition exponential. Laser-phase jumps between
segments are represented as distinct segments with different stored phases,
not as instantaneous kicks. A second-order midpoint stepper
(``sampled_unitary``) covers time-varying controls.

Every propagation goes through ``batch_unitaries``, which hands stacks of
control rows to the kernel ``CHUNK`` gates at a time: memory stays bounded,
and a gate's propagator does not depend on the batch it is in.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from rydgate import _kernels
from rydgate.hamiltonians import DriveParams, RydbergParams, control_row, h_full, hamiltonians

#: Gates per kernel call in ``batch_unitaries``: small enough that each stack
#: (41 KB at four segments) is reused by the allocator, not paged in afresh.
CHUNK = 8


class ConvergenceError(RuntimeError):
    """Step-halving failed to converge; ``residual`` holds the last change."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class PulseSegment:
    """One constant-control interval: duration, per-atom drives, interaction."""

    duration: float
    drive1: DriveParams | None
    drive2: DriveParams | None
    ryd: RydbergParams

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be positive and finite, got {self.duration}")

    def hamiltonian(self):
        return h_full(self.drive1, self.drive2, self.ryd)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered piecewise-constant schedule; segment 1 acts first."""

    segments: tuple = field(default=())

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a pulse sequence needs at least one segment")
        object.__setattr__(self, "segments", segments)

    @property
    def total_duration(self):
        return sum(seg.duration for seg in self.segments)

    def controls(self):
        """(k, 7) control rows and (k,) durations, kernel-ready."""
        rows = np.array([control_row(s.drive1, s.drive2, s.ryd) for s in self.segments])
        return rows, np.array([s.duration for s in self.segments])


def segment_unitary(segment):
    """Exact propagator exp(-i*H*duration) of one segment."""
    return sequence_unitary(PulseSequence((segment,)))


def batch_unitaries(controls, durations):
    """Yield the propagator of each of n gates given as (n, k, 7) control
    rows and (n, k) segment durations, or (k,) shared by all gates."""
    durations = np.broadcast_to(durations, controls.shape[:-1])
    for start in range(0, len(controls), CHUNK):
        chunk = slice(start, start + CHUNK)
        yield from _kernels.sequence_product(hamiltonians(controls[chunk]), durations[chunk])


def sequence_unitary(sequence):
    """Time-ordered product U = U_k ... U_2 U_1 over the whole schedule."""
    rows, durations = sequence.controls()
    (u,) = batch_unitaries(rows[None], durations)
    return u


@dataclass(frozen=True)
class SampledControls:
    """Controls sampled on a uniform time grid, with constant interaction.

    ``times`` is the grid 0, dt, ..., duration; ``drive1``/``drive2`` hold one
    finite (rabi >= 0, detuning, phase) row per grid point. Phase samples are
    plain reals (not re-wrapped), so ramps interpolate linearly across grid
    refinement.
    """

    times: np.ndarray
    drive1: np.ndarray
    drive2: np.ndarray
    v: float

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        d1 = np.ascontiguousarray(self.drive1, dtype=np.float64)
        d2 = np.ascontiguousarray(self.drive2, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two sample times")
        steps = np.diff(times)
        if not np.all(steps > 0):
            raise ValueError("sample times must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("sample times must be uniformly spaced")
        if times[0] != 0.0:
            raise ValueError("grid must start at t=0")
        for name, d in (("drive1", d1), ("drive2", d2)):
            if d.shape != (times.size, 3):
                raise ValueError(f"{name} must have shape (n_times, 3), got {d.shape}")
            if not (np.all(np.isfinite(d)) and np.all(d[:, 0] >= 0)):
                raise ValueError(f"{name} samples must be finite, with rabi >= 0")
        if not math.isfinite(self.v):
            raise ValueError(f"v must be finite, got {self.v}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "drive1", d1)
        object.__setattr__(self, "drive2", d2)

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    @property
    def duration(self):
        return float(self.times[-1])

    @classmethod
    def from_functions(cls, drive1_fn, drive2_fn, v, duration, n_steps):
        """Sample callables t -> (rabi, detuning, phase) on a uniform grid."""
        times = np.linspace(0.0, duration, n_steps + 1)
        d1 = np.array([drive1_fn(t) for t in times], dtype=np.float64)
        d2 = np.array([drive2_fn(t) for t in times], dtype=np.float64)
        return cls(times=times, drive1=d1, drive2=d2, v=v)

    def refined(self):
        """Controls on the half-step grid; new points interpolate linearly."""

        def interleave(arr):
            mid = 0.5 * (arr[:-1] + arr[1:])
            out = np.empty((arr.shape[0] + mid.shape[0],) + arr.shape[1:], dtype=arr.dtype)
            out[0::2] = arr
            out[1::2] = mid
            return out

        return SampledControls(
            times=interleave(self.times),
            drive1=interleave(self.drive1),
            drive2=interleave(self.drive2),
            v=self.v,
        )


def _midpoint_product(controls):
    columns = []
    for d in (controls.drive1, controls.drive2):
        rabi, detuning, phase = (0.5 * (d[:-1] + d[1:])).T
        columns += [rabi * np.cos(phase), rabi * np.sin(phase), detuning]
    rows = np.column_stack(columns + [np.full(len(rabi), controls.v)])
    (u,) = batch_unitaries(rows[None], controls.dt)
    return u


def sampled_unitary(controls, tol=1e-8, max_halvings=12):
    """Propagator for time-varying controls, refined until grid-converged.

    Each step uses the exact exponential of the midpoint-sampled Hamiltonian
    (second order in dt). The grid is halved until two successive results
    agree entrywise within ``tol``; the finer result is returned.

    Raises
    ------
    ConvergenceError
        If the change is still above ``tol`` after ``max_halvings`` halvings.
    """
    u_prev = _midpoint_product(controls)
    for _ in range(max_halvings):
        controls = controls.refined()
        u = _midpoint_product(controls)
        residual = float(np.max(np.abs(u - u_prev)))
        if residual < tol:
            return u
        u_prev = u
    raise ConvergenceError(
        f"propagator did not converge to {tol:g} after {max_halvings} grid halvings "
        f"(last change {residual:.3e})",
        residual=residual,
    )
