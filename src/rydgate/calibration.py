"""Parameter sweeps and root-finding calibration of the geometric protocol.

The controlled phase is not assumed monotone in kappa: calibration first
scans the bracket on a fixed 200-point grid, keeps the sign-change interval
of the wrapped phase error nearest the seed, and then bisects. Everything
here is deterministic: identical inputs give bit-identical tables.
"""

import math
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
    geometric_sequence,
)
from rydgate.statespace import wrap_angle

#: Grid size of the pre-bisection scan in calibrate_kappa.
CALIBRATION_SCAN_POINTS = 200


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


def _geometric_batch(kappas, omega):
    """Gate times (n,) and propagator chunks of the geometric gate at each kappa."""
    rows, durations = zip(*(_geometric(k, omega).controls() for k in kappas))
    durations = np.array(durations)
    return durations.sum(axis=-1), batch_unitaries(np.array(rows), durations)


def sweep_kappa(k_min, k_max, n, omega=1.0):
    """Characterize the geometric protocol on n uniformly spaced kappa values.

    Fidelity is measured against a CZ gate (target phase pi). Records come
    back ordered by kappa.
    """
    if not (0 < k_min < k_max):
        raise ValueError(f"need 0 < k_min < k_max, got ({k_min}, {k_max})")
    if n < 2:
        raise ValueError(f"need at least 2 sweep points, got {n}")
    kappas = np.linspace(k_min, k_max, int(n))
    gate_times, chunks = _geometric_batch(kappas, omega)
    wrapped, unwrapped, leakage, fidelity = [], [], [], []
    for u in chunks:
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


def calibrate_kappa(target_phi, bracket, omega=1.0, seed_kappa=CZ_KAPPA_SEED, tol=1e-6):
    """Find kappa* where the geometric protocol's controlled phase hits target.

    A 200-point scan over ``bracket`` locates sign changes of the wrapped
    error wrap(phi_c(kappa) - target); intervals whose endpoints differ by
    more than pi are branch-cut jumps and are skipped. The admissible
    interval nearest ``seed_kappa`` is bisected down to width 1e-10, which
    leaves the wrapped error far below ``tol``.

    Raises
    ------
    CalibrationError
        If no admissible sign change exists in the bracket; the scanned
        (kappa, wrapped phi_c) table is attached for diagnosis.
    """
    for name, value in (("target_phi", target_phi), ("seed_kappa", seed_kappa)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    k_lo, k_hi = bracket
    if not (0 < k_lo < k_hi):
        raise ValueError(f"need 0 < k_lo < k_hi, got {bracket}")

    def error_at(kappa):
        return _phase_error(sequence_unitary(_geometric(kappa, omega)), target_phi)

    kappas = np.linspace(k_lo, k_hi, CALIBRATION_SCAN_POINTS)
    _, chunks = _geometric_batch(kappas, omega)
    errors = np.concatenate([_phase_error(u, target_phi) for u in chunks])
    scan = tuple(
        (float(k), wrap_angle(e + target_phi)) for k, e in zip(kappas, errors.tolist())
    )

    # Scan points on target, and sign changes that do not jump the branch cut,
    # in scan order.
    crossing = (errors[:-1] * errors[1:] < 0) & (np.abs(np.diff(errors)) < math.pi)
    ends = [(i, i) for i in np.flatnonzero(errors == 0.0)]
    ends = sorted(ends + [(i, i + 1) for i in np.flatnonzero(crossing)])
    candidates = [(float(kappas[i]), float(kappas[j])) for i, j in ends]
    if not candidates:
        raise CalibrationError(
            f"no sign change of the wrapped phase error in bracket ({k_lo}, {k_hi}) "
            f"for target {target_phi:.6f} rad",
            scan=scan,
        )
    lo, hi = min(candidates, key=lambda c: abs(0.5 * (c[0] + c[1]) - seed_kappa))

    if lo != hi:
        e_lo = error_at(lo)
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

    residual = error_at(kappa_star)
    if abs(residual) > tol:
        raise CalibrationError(
            f"bisection stalled: |wrapped error| = {abs(residual):.3e} > {tol:g} "
            f"at kappa = {kappa_star}",
            scan=scan,
        )
    report = analyze_gate(_geometric(kappa_star, omega), target_phi=target_phi)
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
