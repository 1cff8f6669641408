"""The two controlled-phase gate protocols and their closed-form gate times.

Geometric weak-interaction protocol: both atoms driven symmetrically with
Omega = kappa*V and Delta = -V/2, in four equal segments of duration
T = 2*pi/sqrt(4*Omega^2 + V^2/4) whose laser phase toggles between 0 and
-pi/2. The toggle sign matters: with the drive convention
<1|H|r> = (Omega/2) e^{i phi}, toggling by -pi/2 places the pi controlled
phase at kappa ~ 1.65 (toggling by +pi/2 would put it near kappa ~ 1.33).

Blockade protocol: resonant pi pulse on atom 1, 2*pi pulse on atom 2, pi
pulse on atom 1, total 4*pi/Omega regardless of V.

Only this module turns protocol parameters into schedules: one gate of either
protocol (``protocol_sequence``), or kernel-ready rows of geometric gates.
"""

import math
from dataclasses import dataclass

import numpy as np

from rydgate.propagation import (
    DETUNING_COLUMNS, RABI_COLUMNS, V_COLUMN, DriveParams, PulseSegment, PulseSequence, _require_finite, _require_positive,
)

#: Default calibration seed: ratio Omega/V at which the geometric protocol
#: realizes a controlled phase of magnitude pi.
CZ_KAPPA_SEED = 1.65

#: Laser phases of the four geometric-protocol segments.
GEOMETRIC_SEGMENT_PHASES = (0.0, -math.pi / 2, 0.0, -math.pi / 2)


def _segment_duration(omega, v):
    """Cyclic-evolution period 2*pi/sqrt(4*Omega^2 + V^2/4) as pi/hypot(Omega, V/4): no finite Omega overflows."""
    return math.pi / math.hypot(omega, v / 4)


@dataclass(frozen=True)
class GeometricProtocolParams:
    """Weak-interaction protocol parameters: kappa = Omega/V and V."""

    kappa: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "kappa", _require_positive(self.kappa, "kappa"))
        object.__setattr__(self, "v", _require_positive(self.v, "v"))

    @classmethod
    def from_omega(cls, kappa, omega):
        """Build from (kappa, Omega) instead of (kappa, V)."""
        kappa = _require_positive(kappa, "kappa")
        omega = _require_positive(omega, "omega")
        v = omega / kappa
        if not math.isfinite(v):
            raise ValueError(f"v = omega/kappa overflows: omega {omega}, kappa {kappa}")
        return cls(kappa=kappa, v=v)

    @property
    def omega(self):
        return self.kappa * self.v

    @property
    def segment_duration(self):
        """Duration of each of the four segments: one cyclic-evolution period."""
        return _segment_duration(self.omega, self.v)


@dataclass(frozen=True)
class BlockadeProtocolParams:
    """Blockade pi-2pi-pi protocol parameters (intended V >> Omega)."""

    rabi: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "rabi", _require_positive(self.rabi, "rabi"))
        object.__setattr__(self, "v", _require_finite(self.v, "v"))


def geometric_sequence(params):
    """Four-segment phase-toggled schedule of the geometric protocol: one segment per laser
    phase, its drive shared by both atoms, and each segment shared by the segments that repeat it."""
    omega, v = params.omega, params.v
    t = _segment_duration(omega, v)
    drives = {phase: DriveParams(omega, -v / 2, phase) for phase in set(GEOMETRIC_SEGMENT_PHASES)}
    segments = {phase: PulseSegment(t, drive, drive, v) for phase, drive in drives.items()}
    return PulseSequence(tuple(segments[phase] for phase in GEOMETRIC_SEGMENT_PHASES))


def blockade_pdp_sequence(params):
    """Resonant pi (atom 1) - 2pi (atom 2) - pi (atom 1) schedule.

    The schedule itself is independent of V; the interaction only enters the
    Hamiltonian during propagation.
    """
    drive = DriveParams(params.rabi, 0.0, 0.0)
    pi_time = math.pi / params.rabi
    pi_pulse = PulseSegment(duration=pi_time, drive1=drive, drive2=None, v=params.v)
    two_pi_pulse = PulseSegment(duration=2 * pi_time, drive1=None, drive2=drive, v=params.v)
    return PulseSequence((pi_pulse, two_pi_pulse, pi_pulse))


def protocol_sequence(params):
    """Pulse schedule of geometric or blockade protocol parameters."""
    if isinstance(params, GeometricProtocolParams):
        return geometric_sequence(params)
    if isinstance(params, BlockadeProtocolParams):
        return blockade_pdp_sequence(params)
    raise TypeError(f"unsupported protocol parameters: {params!r}")


# Rows of the geometric schedule at Omega = V = 1. Omega scales the Rabi columns, V the
# detunings and the V column; the laser phases stay as they are.
_UNIT_ROWS = geometric_sequence(GeometricProtocolParams(kappa=1.0, v=1.0)).controls
_V_SCALED = (*DETUNING_COLUMNS, V_COLUMN)


def geometric_controls(kappas, omega):
    """(n, 4, 7) control rows and (n, 4) durations of the geometric gate at each of
    n kappas, bit for bit the ``controls`` and ``durations`` of ``geometric_sequence(
    GeometricProtocolParams.from_omega(kappa, omega))``, without building either.

    V = Omega/kappa and Omega = kappa*V round as in the dataclass; a duration takes
    ``math.hypot`` per gate, because ``np.hypot`` can differ in the last bit.
    """
    omega = _require_positive(omega, "omega")
    kappas = np.asarray(kappas, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = omega / kappas
    valid = np.isfinite(kappas) & (kappas > 0) & np.isfinite(v) & (v > 0)
    if not valid.all():  # the dataclass raises its own error for the first bad kappa
        GeometricProtocolParams.from_omega(float(kappas[np.argmin(valid)]), omega)
    omegas = kappas * v
    rows = np.repeat(_UNIT_ROWS[None], len(kappas), axis=0)
    rows[..., RABI_COLUMNS] *= omegas[:, None, None]
    rows[..., _V_SCALED] *= v[:, None, None]
    durations = [_segment_duration(w, x) for w, x in zip(omegas.tolist(), v.tolist())]
    durations = np.repeat(np.array(durations)[:, None], len(_UNIT_ROWS), axis=1)
    with np.errstate(over="ignore"):
        valid = (durations[:, 0] > 0) & np.isfinite(durations.sum(axis=-1))
    if not valid.all():  # the schedule raises its own error for the first such gate
        geometric_sequence(GeometricProtocolParams.from_omega(float(kappas[np.argmin(valid)]), omega))
    return rows, durations


def gate_time_geometric(kappa, omega):
    """Total geometric-protocol duration 8*pi/(Omega*sqrt(4 + 1/(4*kappa^2))).

    Strictly increasing in kappa at fixed Omega: from 2*pi/Omega at
    kappa = 1/sqrt(48) up to 4*pi/Omega as kappa -> infinity (V -> 0).
    The root is taken as ``hypot(2, 1/(2*kappa))``, so no square underflows.
    """
    kappa = _require_positive(kappa, "kappa")
    omega = _require_positive(omega, "omega")
    return _require_positive(8 * math.pi / omega / math.hypot(2.0, 0.5 / kappa), "gate time")


def gate_time_blockade(omega):
    """Total blockade-protocol duration 4*pi/Omega, independent of V."""
    omega = _require_positive(omega, "omega")
    return _require_positive(4 * math.pi / omega, "gate time")
