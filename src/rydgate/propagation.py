"""Pulse schedules and exact unitary propagation.

Piecewise-constant schedules are the native representation: a ``PulseSegment``
holds a duration, each atom's drive (``DriveParams`` or ``None``) and the
interaction V, and a ``PulseSequence`` orders segments in time; a laser-phase
jump is a new segment, not a kick. A sequence is lowered once, when built, to
read-only (k, 7) ``controls`` rows of ``hamiltonians`` and (k,) ``durations``.

Every propagation goes through ``batch_unitaries``, which hands stacks of
control rows to the kernel and yields one stack per ``CHUNK`` gates: memory
stays bounded, and a gate's propagator does not depend on the batch it is in.
A segment that repeats an earlier one in every gate of a batch (geometric
A B A B, blockade A B A) is diagonalised once and exponentiated exactly:
identical bytes, identical bits.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from rydgate import _kernels
from rydgate.hamiltonians import hamiltonians
from rydgate.statespace import wrap_angle

#: Gates per kernel call in ``batch_unitaries``. The call and the characterization of its
#: stack pay a fixed dispatch cost: a 2,000-gate Monte-Carlo run makes 66 calls at 32, 252
#: at 8, for the same matrices. 256 ran slower than 64: a fidelity-grid temporary is 1 MB.
CHUNK = 32


def _require_finite(value, name):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class DriveParams:
    """Per-atom laser drive: Rabi frequency, detuning and phase (radians)."""

    rabi: float
    detuning: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        _require_finite(self.rabi, "rabi")
        _require_finite(self.detuning, "detuning")
        _require_finite(self.phase, "phase")
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")
        object.__setattr__(self, "phase", wrap_angle(self.phase))


@dataclass(frozen=True)
class PulseSegment:
    """One constant-control interval: duration, per-atom drives, signed interaction V."""

    duration: float
    drive1: DriveParams | None
    drive2: DriveParams | None
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        _require_finite(self.v, "v")


def _drive_columns(drive):
    if drive is None:
        return 0.0, 0.0, 0.0
    return drive.rabi * math.cos(drive.phase), drive.rabi * math.sin(drive.phase), drive.detuning


def _lower(segments):
    """Read-only (k, 7) control rows and (k,) durations of ``segments``."""
    rows = np.array([(*_drive_columns(s.drive1), *_drive_columns(s.drive2), s.v) for s in segments], dtype=float)
    durations = np.array([s.duration for s in segments], dtype=float)
    rows.flags.writeable = durations.flags.writeable = False
    return rows, durations


@dataclass(frozen=True)
class PulseSequence:
    """Ordered piecewise-constant schedule; segment 1 acts first. Its read-only (k, 7)
    ``controls`` and (k,) ``durations`` are lowered once; equality uses ``segments``."""

    segments: tuple
    controls: np.ndarray = field(init=False, compare=False, repr=False)
    durations: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a pulse sequence needs at least one segment")
        object.__setattr__(self, "segments", segments)
        controls, durations = _lower(segments)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "durations", durations)

    @property
    def total_duration(self):
        return sum(seg.duration for seg in self.segments)


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
    (gates,) = batch_unitaries(sequence.controls[None], sequence.durations)
    return gates[0]
