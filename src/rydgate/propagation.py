"""Pulse schedules and exact unitary propagation.

Piecewise-constant schedules are the native representation: each segment
holds constant per-atom drives and interaction strength, and its propagator
is the exact spectral-decomposition exponential. Laser-phase jumps between
segments are represented as distinct segments with different stored phases,
not as instantaneous kicks.

Every propagation goes through ``batch_unitaries``, which hands stacks of
control rows to the kernel and yields one stack per ``CHUNK`` gates: memory
stays bounded, and a gate's propagator does not depend on the batch it is in.
A segment that repeats an earlier one in every gate of a batch (geometric
A B A B, blockade A B A) is diagonalised once: identical bytes, identical bits.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from rydgate import _kernels
from rydgate.hamiltonians import DriveParams, RydbergParams, control_row, hamiltonians

#: Gates per kernel call in ``batch_unitaries``. The call and the characterization of its
#: stack pay a fixed dispatch cost: a 2,000-gate Monte-Carlo run makes 66 calls at 32, 252
#: at 8, for the same matrices. 256 ran slower than 64: a fidelity-grid temporary is 1 MB.
CHUNK = 32


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


def distinct_segments(controls, durations):
    """The distinct segments of n gates' (n, k, 7) control rows and (n, k) durations.

    Segment j repeats an earlier one when its row and duration have the same
    bytes in every gate (-0.0 is not 0.0). Returns the (n, d, 7) rows and (n, d)
    durations of the d distinct segments, and the k-tuple ``order`` of each
    segment's index into them."""
    first, order = {}, []
    for row, t in zip(controls.swapaxes(0, 1), durations.T):
        order.append(first.setdefault(row.tobytes() + t.tobytes(), len(first)))
    keep = [order.index(i) for i in range(len(first))]
    return controls[:, keep], durations[:, keep], tuple(order)


def batch_unitaries(controls, durations):
    """Yield in order the (<= CHUNK, 9, 9) propagator stacks of n gates given as
    (n, k, 7) control rows and (n, k) segment durations, or (k,) shared by all."""
    controls, durations, order = distinct_segments(controls, np.broadcast_to(durations, controls.shape[:-1]))
    for start in range(0, len(controls), CHUNK):
        chunk = slice(start, start + CHUNK)
        yield _kernels.sequence_product(hamiltonians(controls[chunk]), durations[chunk], order)


def sequence_unitary(sequence):
    """Time-ordered product U = U_k ... U_2 U_1 over the whole schedule."""
    rows, durations = sequence.controls()
    (gates,) = batch_unitaries(rows[None], durations)
    return gates[0]
