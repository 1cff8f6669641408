"""rydgate: two-atom Rydberg gate simulator and calibration toolkit.

Simulates controlled-phase gates on two three-level atoms (|0>, |1>, |r>),
covering both the strong-blockade pi-2pi-pi protocol and the four-segment
phase-toggled protocol that works at weak interaction strength, plus gate
characterization (phases, leakage, fidelity), kappa calibration, parameter
sweeps and Monte-Carlo robustness statistics.

``import rydgate`` loads no submodule and not NumPy. A public name, ``BACKEND``
or a submodule name is imported on first use (PEP 562) and kept in the package
namespace, so later lookups are plain attribute reads.
"""

import importlib

__version__ = "0.1.0"

#: Each name resolved on first use and the submodule that defines it; the submodules are the values.
_HOMES = {
    "BACKEND": "_kernels",
    **dict.fromkeys(
        ("GateReport", "analyze_gate", "controlled_phase", "fidelity_cphase", "phases_and_leakage",
         "pulse_area", "rydberg_time"),
        "analysis",
    ),
    **dict.fromkeys(
        ("CalibrationError", "CalibrationResult", "SweepRecord", "calibrate_kappa", "sweep_kappa"), "calibration"
    ),
    **dict.fromkeys(("DriveParams", "PulseSegment", "PulseSequence", "sequence_unitary"), "propagation"),
    **dict.fromkeys(
        ("BlockadeProtocolParams", "GeometricProtocolParams", "blockade_pdp_sequence", "gate_time_blockade",
         "gate_time_geometric", "geometric_sequence"),
        "protocols",
    ),
    **dict.fromkeys(("FidelityStats", "NoiseModel", "monte_carlo_fidelity"), "robustness"),
}

__all__ = sorted(_HOMES.keys() - {"BACKEND"})


def __getattr__(name):
    """Import ``name``'s submodule, or the submodule ``name``, and keep the value here."""
    home = _HOMES.get(name, name)
    if home not in _HOMES.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOMES, *_HOMES.values()})
