"""Parameter sweeps and root-finding calibration of the geometric protocol.

The controlled phase is not assumed monotone in kappa: calibration first
scans the bracket on a fixed 200-point grid, keeps the sign-change interval
of the wrapped phase error nearest the seed, and then bisects. Sweeps and the
scan batch rows from ``geometric_controls``; each bisection step builds one
``geometric_sequence``. Identical inputs give bit-identical tables.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from rydgate.analysis import (
    analyze_gate,
    controlled_phase,
    fidelity_cphase,
    phase_combination,
    phases_and_leakage,
)
from rydgate.propagation import batch_unitaries, sequence_unitary
from rydgate.protocols import (
    CZ_KAPPA_SEED,
    BlockadeProtocolParams,
    GeometricProtocolParams,
    blockade_pdp_sequence,
    geometric_controls,
    geometric_sequence,
)
from rydgate.statespace import wrap_angle

#: Grid size of calibrate_kappa's pre-bisection scan, and the largest
#: |wrapped phase error| it accepts at kappa*.
CALIBRATION_SCAN_POINTS = 200
CALIBRATION_TOLERANCE = 1e-6


class CalibrationError(RuntimeError):
    """Calibration could not bracket the target; ``scan`` holds (kappa, phi_c)."""

    def __init__(self, message, scan):
        super().__init__(message)
        self.scan = scan


@dataclass(frozen=True)
class SweepRecord:
    """One kappa sample of the geometric protocol at fixed Omega."""

    kappa: float
    v_over_omega: float
    gate_time_omega_over_pi: float
    phi_c_wrapped: float
    phi_c_unwrapped: float
    leakage_max: float
    fidelity_cz: float


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated ratio kappa* and the gate report at that point."""

    kappa_star: float
    report: object
    scan: tuple


@dataclass(frozen=True)
class BlockadeScanRecord:
    """Blockade protocol characterization at one interaction strength."""

    v: float
    v_over_omega: float
    report: object


def _geometric(kappa, omega):
    return geometric_sequence(GeometricProtocolParams.from_omega(float(kappa), omega))


def sweep_kappa(k_min, k_max, n, omega=1.0):
    """Characterize the geometric protocol on n uniformly spaced kappa values.

    Fidelity is measured against a CZ gate (target phase pi). Records come
    back ordered by kappa.
    """
    if not (0 < k_min < k_max < math.inf):
        raise ValueError(f"need finite 0 < k_min < k_max, got ({k_min}, {k_max})")
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"need at least 2 sweep points, got {n}")
    kappas = np.linspace(k_min, k_max, n)
    rows, durations = geometric_controls(kappas, omega)
    gate_times = durations.sum(axis=-1)
    wrapped, unwrapped, leakage, fidelity = [], [], [], []
    for u in batch_unitaries(rows, durations):
        extraction = phases_and_leakage(u)
        wrapped.append(controlled_phase(extraction.phases))
        unwrapped.append(phase_combination(extraction.phases))
        leakage.append(extraction.leakage_max)
        fidelity.append(fidelity_cphase(u, math.pi))
    columns = (np.concatenate(c).tolist() for c in (wrapped, unwrapped, leakage, fidelity))
    return [
        SweepRecord(kappa, 1.0 / kappa, gate_time * omega / math.pi, *values)
        for kappa, gate_time, *values in zip(kappas.tolist(), gate_times.tolist(), *columns)
    ]


def _phase_error(u, target_phi):
    return wrap_angle(controlled_phase(phases_and_leakage(u).phases) - target_phi)


def calibrate_kappa(target_phi, bracket, omega=1.0, seed_kappa=CZ_KAPPA_SEED):
    """Find kappa* where the geometric protocol's controlled phase hits target.

    A 200-point scan over ``bracket`` locates sign changes of the wrapped
    error wrap(phi_c(kappa) - target); intervals whose endpoints differ by
    more than pi are branch-cut jumps and are skipped. The admissible
    interval nearest ``seed_kappa`` is bisected down to width 1e-10, which
    leaves the wrapped error far below ``CALIBRATION_TOLERANCE``.

    Raises
    ------
    CalibrationError
        If no admissible sign change exists in the bracket, or the wrapped
        error at kappa* exceeds ``CALIBRATION_TOLERANCE``; the scanned
        (kappa, wrapped phi_c) table is attached for diagnosis.
    """
    for name, value in (("target_phi", target_phi), ("seed_kappa", seed_kappa)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    k_lo, k_hi = bracket
    if not (0 < k_lo < k_hi < math.inf):
        raise ValueError(f"need finite 0 < k_lo < k_hi, got {bracket}")

    def error_at(kappa):
        return _phase_error(sequence_unitary(_geometric(kappa, omega)), target_phi)

    kappas = np.linspace(k_lo, k_hi, CALIBRATION_SCAN_POINTS)
    chunks = batch_unitaries(*geometric_controls(kappas, omega))
    errors = np.concatenate([_phase_error(u, target_phi) for u in chunks])
    scan = tuple(
        (float(k), wrap_angle(e + target_phi)) for k, e in zip(kappas, errors.tolist())
    )

    # Scan points on target, and sign changes that do not jump the branch cut,
    # in scan order.
    crossing = (errors[:-1] * errors[1:] < 0) & (np.abs(np.diff(errors)) < math.pi)
    ends = [(i, i) for i in np.flatnonzero(errors == 0.0)]
    ends = sorted(ends + [(i, i + 1) for i in np.flatnonzero(crossing)])
    if not ends:
        raise CalibrationError(
            f"no sign change of the wrapped phase error in bracket ({k_lo}, {k_hi}) "
            f"for target {target_phi:.6f} rad",
            scan=scan,
        )
    i, j = min(ends, key=lambda e: abs(0.5 * (kappas[e[0]] + kappas[e[1]]) - seed_kappa))
    lo, hi = float(kappas[i]), float(kappas[j])

    if lo != hi:
        e_lo = errors[i]
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            e_mid = error_at(mid)
            if e_mid == 0.0:
                lo = hi = mid
                break
            if (e_mid < 0) == (e_lo < 0):
                lo, e_lo = mid, e_mid
            else:
                hi = mid
    kappa_star = 0.5 * (lo + hi)

    report = analyze_gate(_geometric(kappa_star, omega), target_phi=target_phi)
    residual = wrap_angle(report.controlled_phase - target_phi)
    if abs(residual) > CALIBRATION_TOLERANCE:
        raise CalibrationError(
            f"bisection stalled: |wrapped error| = {abs(residual):.3e} > {CALIBRATION_TOLERANCE:g} "
            f"at kappa = {kappa_star}",
            scan=scan,
        )
    return CalibrationResult(kappa_star=kappa_star, report=report, scan=scan)


def blockade_invariance_scan(omega, v_values):
    """Characterize the blockade protocol at fixed Omega for each V.

    The schedule never changes with V, so the gate-time column is constant
    by construction; phases, leakage and CZ fidelity expose the blockade
    error, whose infidelity shrinks roughly fourfold per doubling of V.
    All V must be at least 10*Omega; below that the pi-2pi-pi analysis does
    not apply.
    """
    records = []
    for v in v_values:
        if v < 10 * omega:
            raise ValueError(f"blockade scan requires V >= 10*Omega, got V={v}, Omega={omega}")
        seq = blockade_pdp_sequence(BlockadeProtocolParams(rabi=omega, v=v))
        report = analyze_gate(seq, target_phi=math.pi)
        records.append(BlockadeScanRecord(v=float(v), v_over_omega=float(v) / omega, report=report))
    return records
