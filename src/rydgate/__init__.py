"""rydgate: two-atom Rydberg gate simulator and calibration toolkit.

Simulates controlled-phase gates on two three-level atoms (|0>, |1>, |r>),
covering both the strong-blockade pi-2pi-pi protocol and the four-segment
phase-toggled protocol that works at weak interaction strength, plus gate
characterization (phases, leakage, fidelity), kappa calibration, parameter
sweeps and Monte-Carlo robustness statistics.
"""

from rydgate._kernels import BACKEND
from rydgate.analysis import (
    GateReport,
    analyze_gate,
    controlled_phase,
    fidelity_cphase,
    phases_and_leakage,
    pulse_area,
    rydberg_time,
)
from rydgate.calibration import (
    CalibrationError,
    CalibrationResult,
    SweepRecord,
    calibrate_kappa,
    sweep_kappa,
)
from rydgate.propagation import DriveParams, PulseSegment, PulseSequence, sequence_unitary
from rydgate.protocols import (
    BlockadeProtocolParams,
    GeometricProtocolParams,
    blockade_pdp_sequence,
    gate_time_blockade,
    gate_time_geometric,
    geometric_sequence,
)
from rydgate.robustness import FidelityStats, NoiseModel, monte_carlo_fidelity

__version__ = "0.1.0"

__all__ = [
    "BlockadeProtocolParams",
    "CalibrationError",
    "CalibrationResult",
    "DriveParams",
    "FidelityStats",
    "GateReport",
    "GeometricProtocolParams",
    "NoiseModel",
    "PulseSegment",
    "PulseSequence",
    "SweepRecord",
    "analyze_gate",
    "blockade_pdp_sequence",
    "calibrate_kappa",
    "controlled_phase",
    "fidelity_cphase",
    "gate_time_blockade",
    "gate_time_geometric",
    "geometric_sequence",
    "monte_carlo_fidelity",
    "phases_and_leakage",
    "pulse_area",
    "rydberg_time",
    "sequence_unitary",
    "sweep_kappa",
]
