"""Pulse schedules and exact unitary propagation.

Piecewise-constant schedules are the native representation: a ``PulseSegment``
holds a duration, each atom's drive (``DriveParams`` or ``None``) and the
interaction V, and a ``PulseSequence`` orders segments in time; a laser-phase
jump is a new segment, not a kick. A sequence is lowered once, when built, to
read-only (k, 7) ``controls`` rows (Omega1, phi1, Delta1, Omega2, phi2, Delta2, V),
an absent drive's columns all 0.0, and (k,) ``durations``.

A segment that repeats an earlier one (geometric A B A B, blockade A B A) is
diagonalised once. A sequence diagonalises its distinct segments on first use and keeps
the running products U_j ... U_1 of its one product loop, which ``sequence_unitary`` and
``analysis.rydberg_time`` read; ``batch_unitaries`` works per ``CHUNK`` gates and keeps
only the running product, so memory stays bounded. Either route gives a gate the same
bits, whatever batch it is in. Only real matrices are diagonalised:
H = D Hr D^dag with Hr real symmetric and D diagonal (``rydgate.hamiltonians`` says
why), so the eigenvectors are D times Hr's, D read off the phase columns 1 and 4, and
a batch's segments that differ only in laser phase share one eigh of Hr.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from rydgate import _kernels
from rydgate.hamiltonians import EXCITED, _real_parts

#: Gates per kernel call in ``batch_unitaries``. The call and the characterization of its
#: stack pay a fixed dispatch cost: a 2,000-gate Monte-Carlo run makes 66 calls at 32, 252
#: at 8, for the same matrices. 256 ran slower than 64: a fidelity-grid temporary is 1 MB.
CHUNK = 32


def wrap_angle(x):
    """Wrap an angle into (-pi, pi]; the branch point -pi maps to +pi."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


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
    return (0.0, 0.0, 0.0) if drive is None else (drive.rabi, drive.phase, drive.detuning)


def _lower(segments):
    """Read-only (k, 7) control rows and (k,) durations of ``segments``."""
    rows = np.array([(*_drive_columns(s.drive1), *_drive_columns(s.drive2), s.v) for s in segments], dtype=float)
    durations = np.array([s.duration for s in segments], dtype=float)
    rows.flags.writeable = durations.flags.writeable = False
    return rows, durations


@dataclass(frozen=True)
class PulseSequence:
    """Ordered piecewise-constant schedule; segment 1 acts first. Its read-only (k, 7)
    ``controls`` and (k,) ``durations`` are lowered once; equality and pickling use ``segments``."""

    segments: tuple
    controls: np.ndarray = field(init=False, compare=False, repr=False)
    durations: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a pulse sequence needs at least one segment")
        object.__setattr__(self, "segments", segments)
        _require_finite(self.total_duration, "total duration")
        controls, durations = _lower(segments)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "durations", durations)

    @property
    def total_duration(self):
        return sum(seg.duration for seg in self.segments)

    def __reduce__(self):
        return PulseSequence, (self.segments,)

    @functools.cached_property
    def _eigensystem(self):
        """Read-only (w, v, durations, order) of the distinct segments, h = v diag(w) v^dag."""
        rows, durations, order = distinct_segments(self.controls, self.durations)
        w, v = np.linalg.eigh(_real_parts(rows))
        v = _gauged(v, rows[:, 1::3])
        w.flags.writeable = v.flags.writeable = durations.flags.writeable = False
        return w, v, durations, order

    @functools.cached_property
    def _partials(self):
        """Read-only (k, 9, 9) running products U_j ... U_1 of ``_eigensystem``; the last is the gate."""
        partials = _kernels.sequence_product(*self._eigensystem, partials=True)
        partials.flags.writeable = False
        return partials


def _gauged(vr, phases):
    """D vr, D = exp(-i(phi1 n1 + phi2 n2)), from (..., 9, 9) real eigenvectors and the (..., 2)
    laser phases of their rows; vr as complex when every phase is zero. exp(1j * -x), unlike
    exp(-1j * x), is exactly 1 + 0j at x = 0, so a phase-free row keeps its bits either way."""
    if not np.count_nonzero(phases):
        return vr.astype(np.complex128)
    return np.exp(1j * -(phases @ EXCITED))[..., None] * vr


def distinct_segments(controls, durations):
    """The distinct segments of (n, k, 7) or (k, 7) control rows and (n, k) or (k,) durations.

    Segment j repeats an earlier one when its row and duration have the same
    bytes in every gate (-0.0 is not 0.0). Returns the (..., d, 7) rows and (..., d)
    durations of the d distinct segments, and the k-tuple ``order`` of each
    segment's index into them."""
    first, order = {}, []
    for row, t in zip(controls.swapaxes(0, -2), durations.swapaxes(0, -1)):
        order.append(first.setdefault(row.tobytes() + t.tobytes(), len(first)))
    keep = [order.index(i) for i in range(len(first))]
    return controls[..., keep, :], durations[..., keep], tuple(order)


def batch_unitaries(controls, durations):
    """Yield in order the (<= CHUNK, 9, 9) propagator stacks of n gates given as
    (n, k, 7) control rows and (n, k) segment durations, or (k,) shared by all."""
    controls, durations, order = distinct_segments(controls, np.broadcast_to(durations, controls.shape[:-1]))
    phases, real = controls[..., 1::3], controls.copy()
    real[..., 1::3] = 0.0
    real, _, shared = distinct_segments(real, np.zeros_like(durations))  # eigh needs no durations
    for start in range(0, len(controls), CHUNK):
        chunk = slice(start, start + CHUNK)
        w, v = np.linalg.eigh(_real_parts(real[chunk]))
        v = _gauged(v[:, shared], phases[chunk])
        yield _kernels.sequence_product(w[:, shared], v, durations[chunk], order)


def sequence_unitary(sequence):
    """Time-ordered product U = U_k ... U_2 U_1 over the whole schedule, a new array."""
    return sequence._partials[-1].copy()
