"""Pulse schedules, the control rows of the Rydberg Hamiltonian, and exact unitary propagation.

Each atom carries the levels ``|0>``, ``|1>`` and the Rydberg level ``|r>``
(codes 0, 1, 2). Two-atom product states are ordered row-major over
(atom 1, atom 2):

    index(a, b) = 3*code(a) + code(b)

so the nine basis states are ``|00>, |01>, |0r>, |10>, |11>, |1r>, |r0>,
|r1>, |rr>`` at indices 0..8. All frequencies are angular frequencies in a
user-chosen reference unit and times are in the inverse unit (hbar = 1).

The drive on atom k couples ``|1>_k`` to ``|r>_k`` with Rabi frequency Omega,
detuning Delta and laser phase phi; the matrix-element convention is

    <1|H|r> = (Omega/2) e^{i phi},        <r|H|r> = Delta,

applied symmetrically to both atoms (or to one atom only, with the other
drive absent). Doubly-excited ``|rr>`` is shifted by the interaction V.

Piecewise-constant schedules are the native representation: a ``PulseSegment``
holds a duration, each atom's drive (``DriveParams`` or ``None``) and the
interaction V, and a ``PulseSequence`` orders segments in time; a laser-phase
jump is a new segment, not a kick. A sequence is lowered once, when built, to
read-only (k, 7) ``controls`` rows (Omega1, phi1, Delta1, Omega2, phi2, Delta2, V),
an absent drive's columns all 0.0, and (k,) ``durations``. ``RABI_COLUMNS``,
``PHASE_COLUMNS``, ``DETUNING_COLUMNS`` and ``V_COLUMN`` name the columns.

Only real matrices are diagonalised. With a symmetric drive the 9x9 Hamiltonian
decomposes into invariant blocks {|00>}, {|01>,|0r>}, {|10>,|r0>}, {|11>,|B>,|rr>} and
the dark state (|1r>-|r1>)/sqrt(2), where |B> = (|1r>+|r1>)/sqrt(2). Atom k's phase
phi_k sits on its one |1>-|r> link, and the one cycle of the coupling graph,
|11> -> |1r> -> |rr> -> |r1> -> |11>, carries phi1 + phi2 - phi1 - phi2 = 0. So
H = D Hr D^dag, with Hr real symmetric and D = exp(-i(phi1 n1 + phi2 n2)), n_k
(``EXCITED``) marking the states with atom k in |r>, and a step exp(-iHt) is exp(-i Hr t)
times a phase pattern. Hr is the rows contracted with ``OPERATORS``, seven real
symmetric operators; a phase column's is zero.

A segment that repeats an earlier one (geometric A B A B, blockade A B A) is stepped once,
and in a batch one that differs from it only in laser phase (geometric A and B) shares its
eigh and real step. The steps are multiplied by halves: the geometric gate is (B A)^2. A
sequence keeps its eigensystem and running products U_j ... U_1, which ``sequence_unitary``
and ``analysis.rydberg_time`` read, the gate last: up to 3 steps by halves are associated as
step by step, so the gate's first half (B A) is read off them. ``batch_unitaries`` works per
``CHUNK`` gates and keeps only the gates. Either route gives a gate the same bits.
"""

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from rydgate import _kernels

# Per-atom operators of the three drive columns on levels |0>, |1>, |r> (codes 0, 1, 2): the real
# |1>-|r> coupling, zero for the phase (it enters only through the gauge D), and |r><r|.
_G1, _RYD = 1, 2
_ATOM = np.zeros((3, 3, 3))
_ATOM[0, _G1, _RYD] = _ATOM[0, _RYD, _G1] = 0.5
_ATOM[2, _RYD, _RYD] = 1.0
#: The (7, 9, 9) real symmetric basis of Hr, one operator per control-row column; the last is |rr><rr|.
OPERATORS = np.stack(
    [np.kron(op, np.eye(3)) for op in _ATOM]
    + [np.kron(np.eye(3), op) for op in _ATOM]
    + [np.kron(_ATOM[2], _ATOM[2])]
)
OPERATORS.flags.writeable = False
#: The control-row columns of the Rabi frequencies, the laser phases (a slice, so that
#: ``rows[..., PHASE_COLUMNS]`` is a view), the detunings, and V.
RABI_COLUMNS = (0, 3)
PHASE_COLUMNS = slice(1, 7, 3)
DETUNING_COLUMNS = (2, 5)
V_COLUMN = 6
#: n1 and n2, C-ordered copies of the diagonals of the Delta1 and Delta2 operators: 1.0 on the
#: states with atom 1, atom 2 in |r>. Their sum, each state's Rydberg excitations (0, 1 or 2),
#: weighs ``analysis.rydberg_time``; the computational states |00>, |01>, |10>, |11> have none.
EXCITED = OPERATORS[list(DETUNING_COLUMNS)].diagonal(axis1=1, axis2=2).copy()
EXCITATIONS = EXCITED.sum(axis=0)
EXCITED.flags.writeable = EXCITATIONS.flags.writeable = False
COMPUTATIONAL_INDICES = tuple(np.flatnonzero(EXCITATIONS == 0).tolist())


def _real_parts(controls):
    """Hr of (..., 7) control rows, a (..., 9, 9) float64 stack, C-ordered for C-ordered rows:
    their contraction with ``OPERATORS``, summed in column order from +0.0."""
    # Never in BLAS, unlike a matrix product, whose threaded gemm on a large stack
    # leaves OpenBLAS worker threads spinning on the other CPUs.
    return np.einsum("...c,cij->...ij", controls, OPERATORS)


#: Gates per kernel call in ``batch_unitaries``, each call paying a fixed dispatch cost (a 2,000-gate
#: Monte-Carlo run makes 64 calls at 32, 250 at 8). At 32 the kernel's largest per-chunk temporaries, a
#: blockade chunk's (32, 2, 9, 9) complex steps, are 83 KB, under glibc's 128 KiB mmap threshold, which 64 crosses.
CHUNK = 32


def wrap_angle(x):
    """Wrap an angle into (-pi, pi]; the branch point -pi maps to +pi."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def _float(value, name):
    """``value`` as a float: TypeError for a bool (NumPy's too), a str or an array; an int beyond float range is +-inf."""
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):  # a float skips the ABC check
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _range_check(holds, wanted):
    """A check that takes a value as a float and raises "<name> must be <wanted>, got <value>" unless ``holds``."""

    def require(value, name):
        if type(value) is not float:
            value = _float(value, name)
        if not holds(value):
            raise ValueError(f"{name} must be {wanted}, got {value}")
        return value

    return require


_require_finite = _range_check(math.isfinite, "finite")
_require_positive = _range_check(lambda value: 0 < value < math.inf, "positive")
_require_nonnegative = _range_check(lambda value: 0 <= value < math.inf, "finite and >= 0")


def _count(value, name, low, bits):
    """``value`` as an int in [low, 2**bits); a bool or a non-integer raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = operator.index(value)
    if not low <= value < 2**bits:
        shown = value if value.bit_length() <= 64 else f"an integer of {value.bit_length()} bits"
        raise ValueError(f"{name} must be in [{low}, 2**{bits}), got {shown}")
    return value


@dataclass(frozen=True)
class DriveParams:
    """Per-atom laser drive: Rabi frequency, detuning and phase (radians)."""

    rabi: float
    detuning: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rabi", _require_nonnegative(self.rabi, "rabi"))
        object.__setattr__(self, "detuning", _require_finite(self.detuning, "detuning"))
        object.__setattr__(self, "phase", wrap_angle(_require_finite(self.phase, "phase")))


@dataclass(frozen=True)
class PulseSegment:
    """One constant-control interval: duration, per-atom drives, signed interaction V."""

    duration: float
    drive1: DriveParams | None
    drive2: DriveParams | None
    v: float

    def __post_init__(self):
        object.__setattr__(self, "duration", _require_positive(self.duration, "duration"))
        for name in ("drive1", "drive2"):
            if not isinstance(getattr(self, name), (DriveParams, type(None))):
                raise TypeError(f"{name} must be DriveParams or None, got {type(getattr(self, name)).__name__}")
        object.__setattr__(self, "v", _require_finite(self.v, "v"))


def _drive_columns(drive):
    """A drive's three row columns, in the order of its atom's ``OPERATORS``."""
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
        if not all(isinstance(segment, PulseSegment) for segment in segments):
            raise TypeError(f"segments must be PulseSegments, got {[type(s).__name__ for s in segments]}")
        object.__setattr__(self, "segments", segments)
        controls, durations = _lower(segments)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "durations", durations)
        _require_finite(self.total_duration, "total duration")

    @property
    def total_duration(self):
        # Added left to right without compensation, as ``analysis.pulse_area`` adds, on every
        # Python: 3.12's sum() of floats compensates. A float + that overflows gives inf, no warning.
        return functools.reduce(operator.add, self.durations.tolist())

    def __reduce__(self):
        return PulseSequence, (self.segments,)

    @functools.cached_property
    def _eigensystem(self):
        """Read-only arguments of ``_kernels.sequence_product`` and of ``weighted_population_integral`` (D vr)."""
        rows, durations, order = distinct_segments(self.controls, self.durations)
        w, v = np.linalg.eigh(_real_parts(rows))
        segments, gauges = _segments(range(len(rows)), rows[:, PHASE_COLUMNS])
        gauged = v.astype(np.complex128) if gauges is None else gauges[..., None] * v
        w.flags.writeable = v.flags.writeable = durations.flags.writeable = gauged.flags.writeable = False
        return (w, v, durations, order, segments), (w, gauged, durations, order)

    @functools.cached_property
    def _partials(self):
        """Read-only (k, 9, 9) running products U_j ... U_1 of ``_eigensystem``; the last is the gate."""
        partials = _kernels.sequence_product(*self._eigensystem[0], partials=True)
        partials.setflags(write=False)
        return partials


def _gauge(phases):
    """The (..., 9) diagonal of D = exp(-i(phi1 n1 + phi2 n2)) of (..., 2) phases; exp(1j * -0.0) is 1 + 0j."""
    return np.exp(1j * -(phases @ EXCITED))


def distinct_segments(controls, durations):
    """The distinct segments of (n, k, 7) or (k, 7) control rows and (n, k) or (k,) durations.

    Segment j repeats an earlier one when its row and duration have the same
    bytes in every gate (-0.0 is not 0.0). Returns the (..., d, 7) rows and (..., d)
    durations of the d distinct segments, and the k-tuple ``order`` of each
    segment's index into them; views where the distinct segments come first."""
    # Segment-major bytes, one copy of each, split into the k segments' keys.
    rows, times = controls.swapaxes(0, -2).tobytes(), durations.swapaxes(0, -1).tobytes()
    k, first, order = controls.shape[-2], {}, []
    r, t = len(rows) // k, len(times) // k
    for j in range(k):
        order.append(first.setdefault((rows[j * r : (j + 1) * r], times[j * t : (j + 1) * t]), len(first)))
    keep = [order.index(i) for i in range(len(first))]
    keep = slice(len(keep)) if keep[-1] < len(keep) else keep
    return controls[..., keep, :], durations[..., keep], tuple(order)


def _segments(steps, phases):
    """Each distinct segment's (step, pattern d d^dag), which turns exp(-i Hr t) into the step of D Hr D^dag, and
    the (..., d, 9) diagonals d of D, from the (..., d, 2) phases; None for zero phases, and for d if all are."""
    if not np.count_nonzero(phases):  # cheaper than the reduction below, on every blockade gate
        return tuple((step, None) for step in steps), None
    phased = phases.reshape(-1, *phases.shape[-2:]).any(axis=(0, 2)).tolist()
    gauges = _gauge(phases)
    patterns = gauges[..., :, None] * gauges[..., None, :].conj()
    patterns.setflags(write=False)
    return tuple((step, patterns[..., j, :, :] if phased[j] else None) for j, step in enumerate(steps)), gauges


def batch_unitaries(controls, durations):
    """Yield in order the (<= CHUNK, 9, 9) propagator stacks of n gates given as (n, k, 7) control
    rows and (n, k) segment durations, or (k,) shared by all. The phase patterns are taken once if
    every gate has the same phase bytes (Monte-Carlo blocks, sweeps), else per gate, chunk by chunk."""
    rows, durations, order = distinct_segments(controls, np.broadcast_to(durations, controls.shape[:-1]))
    phases, real = rows[..., PHASE_COLUMNS], rows.copy()
    real[..., PHASE_COLUMNS] = 0.0
    real, durations, steps = distinct_segments(real, durations)
    gates = phases.reshape(-1, *phases.shape[-2:])
    shared = len(gates) and (gates.view(np.uint64) == gates[0].view(np.uint64)).all()
    segments = _segments(steps, gates[0])[0] if shared else None
    for start in range(0, len(real), CHUNK):
        chunk = slice(start, start + CHUNK)
        w, v = np.linalg.eigh(_real_parts(real[chunk]))
        yield _kernels.sequence_product(w, v, durations[chunk], order, segments or _segments(steps, phases[chunk])[0])


def sequence_unitary(sequence):
    """Time-ordered product U = U_k ... U_2 U_1 over the whole schedule, a new array."""
    return sequence._partials[-1].copy()
