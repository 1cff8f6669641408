"""Parameter sweeps and root-finding calibration of the geometric protocol.

The controlled phase is not assumed monotone in kappa: calibration first
scans the bracket on a fixed 200-point grid, keeps the sign-change interval
of the wrapped phase error nearest the seed, and then solves for the root in
that interval by Anderson-Bjorck regula falsi. Sweeps and the scan batch rows
from ``geometric_controls`` and compute one controlled-phase column, which a
failed calibration reports; each solver step builds one ``geometric_sequence``.
Identical inputs give bit-identical tables.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from rydgate.analysis import (
    _phases,
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
    """Calibration could not bracket the target; ``scan`` holds the scanned (kappa, phi_c)."""

    def __init__(self, message, scan):
        super().__init__(message)
        self.scan = tuple(scan)


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


@dataclass(frozen=True)
class BlockadeScanRecord:
    """Blockade protocol characterization at one interaction strength."""

    v: float
    v_over_omega: float
    report: object


def _geometric(kappa, omega):
    return geometric_sequence(GeometricProtocolParams.from_omega(float(kappa), omega))


def sweep_kappa(k_min, k_max, n):
    """Characterize the geometric protocol on n uniformly spaced kappa values.

    Every column depends on kappa alone (Omega sets only the clock), so the rows
    are built at Omega = 1. Fidelity is measured against a CZ gate (target phase
    pi). Records come back ordered by kappa.
    """
    if not (0 < k_min < k_max < math.inf):
        raise ValueError(f"need finite 0 < k_min < k_max, got ({k_min}, {k_max})")
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"need at least 2 sweep points, got {n}")
    kappas = np.linspace(k_min, k_max, n)
    rows, durations = geometric_controls(kappas, 1.0)
    gate_times = durations.sum(axis=-1)
    unwrapped, leakage, fidelity = [], [], []
    for u in batch_unitaries(rows, durations):
        extraction = phases_and_leakage(u)
        unwrapped.append(phase_combination(extraction.phases))
        leakage.append(extraction.leakage_max)
        fidelity.append(fidelity_cphase(u, math.pi))
    unwrapped, leakage, fidelity = (np.concatenate(c) for c in (unwrapped, leakage, fidelity))
    columns = (c.tolist() for c in (wrap_angle(unwrapped), unwrapped, leakage, fidelity))
    return [
        SweepRecord(kappa, 1.0 / kappa, gate_time / math.pi, *values)
        for kappa, gate_time, *values in zip(kappas.tolist(), gate_times.tolist(), *columns)
    ]


#: The root solver stops once |wrapped error| is at most a few ulp of pi, or
#: once its bracket is no wider than this.
ROOT_ERROR_STOP = 4 * math.ulp(math.pi)
ROOT_WIDTH_STOP = 1e-10


def _anderson_bjorck(f, a, b, f_a, f_b):
    """The evaluated x of smallest |f(x)| in a root search of f on [a, b], where
    f_a = f(a) and f_b = f(b) have opposite signs.

    Anderson-Bjorck regula falsi: each step evaluates f where the chord through
    the bracket ends crosses zero, or at the midpoint when that point is not
    strictly inside, and keeps the subinterval with the sign change. When the
    same end is replaced twice running, the value kept at the other end is
    scaled by 1 - f_new/f_old (by 1/2 if that is not positive).
    """
    best = min((a, f_a), (b, f_b), key=lambda p: abs(p[1]))
    a_negative, replaced = f_a < 0, None
    while abs(best[1]) > ROOT_ERROR_STOP and b - a > ROOT_WIDTH_STOP:
        c = b - f_b * (b - a) / (f_b - f_a)
        if not a < c < b:
            c = 0.5 * (a + b)
        f_c = f(c)
        if abs(f_c) < abs(best[1]):
            best = (c, f_c)
        if (f_c < 0) == a_negative:
            if replaced == "a":
                m = 1 - f_c / f_a
                f_b *= m if m > 0 else 0.5
            a, f_a, replaced = c, f_c, "a"
        else:
            if replaced == "b":
                m = 1 - f_c / f_b
                f_a *= m if m > 0 else 0.5
            b, f_b, replaced = c, f_c, "b"
    return best[0]


def calibrate_kappa(target_phi, bracket, omega=1.0, seed_kappa=CZ_KAPPA_SEED):
    """Find kappa* where the geometric protocol's controlled phase hits target.

    The target is first reduced, exactly, by ``math.remainder(target_phi, 2*pi)``,
    so a target far outside [-pi, pi] does not round the scanned phases away.
    A 200-point scan over ``bracket`` locates sign changes of the wrapped
    error wrap(phi_c(kappa) - target); intervals whose endpoints differ by
    more than pi are branch-cut jumps and are skipped. In the admissible
    interval nearest ``seed_kappa``, Anderson-Bjorck regula falsi (Anderson &
    Bjorck, BIT 12, 503 (1972)) evaluates the error where the chord through the
    bracket ends crosses zero, and falls back to the midpoint whenever that
    point is not strictly inside, so every step keeps a sign change inside the
    bracket as bisection did. It stops once |error| is at most
    ``ROOT_ERROR_STOP`` (4 ulp of pi) or the bracket is at most
    ``ROOT_WIDTH_STOP`` (1e-10) wide, and returns the evaluated kappa of
    smallest |error|. That takes 2 to 5 single-gate propagations where
    bisection took 27. A scan point exactly on target is returned as it is.

    Raises
    ------
    CalibrationError
        If no admissible sign change exists in the bracket, or the wrapped
        error at kappa* exceeds ``CALIBRATION_TOLERANCE``; the scanned
        (kappa, wrapped phi_c) pairs are attached for diagnosis.
    """
    for name, value in (("target_phi", target_phi), ("seed_kappa", seed_kappa)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    k_lo, k_hi = bracket
    if not (0 < k_lo < k_hi < math.inf):
        raise ValueError(f"need finite 0 < k_lo < k_hi, got {bracket}")

    target = math.remainder(target_phi, 2 * math.pi)

    def error_at(kappa):
        return wrap_angle(controlled_phase(_phases(sequence_unitary(_geometric(kappa, omega)))) - target)

    kappas = np.linspace(k_lo, k_hi, CALIBRATION_SCAN_POINTS)
    chunks = batch_unitaries(*geometric_controls(kappas, omega))
    phases = wrap_angle(np.concatenate([phase_combination(_phases(u)) for u in chunks]))
    errors = wrap_angle(phases - target)

    # Scan points on target, and sign changes that do not jump the branch cut,
    # in scan order.
    crossing = (errors[:-1] * errors[1:] < 0) & (np.abs(np.diff(errors)) < math.pi)
    ends = [(i, i) for i in np.flatnonzero(errors == 0.0)]
    ends = sorted(ends + [(i, i + 1) for i in np.flatnonzero(crossing)])
    if not ends:
        raise CalibrationError(
            f"no sign change of the wrapped phase error in bracket ({k_lo}, {k_hi}) "
            f"for target {target_phi:.6f} rad",
            scan=zip(kappas.tolist(), phases.tolist()),
        )
    i, j = min(ends, key=lambda e: abs(0.5 * (kappas[e[0]] + kappas[e[1]]) - seed_kappa))
    lo, hi = float(kappas[i]), float(kappas[j])

    kappa_star = lo
    if lo != hi:
        kappa_star = _anderson_bjorck(error_at, lo, hi, float(errors[i]), float(errors[j]))

    report = analyze_gate(_geometric(kappa_star, omega), target_phi=target)
    residual = wrap_angle(report.controlled_phase - target)
    if abs(residual) > CALIBRATION_TOLERANCE:
        raise CalibrationError(
            f"bisection stalled: |wrapped error| = {abs(residual):.3e} > {CALIBRATION_TOLERANCE:g} "
            f"at kappa = {kappa_star}",
            scan=zip(kappas.tolist(), phases.tolist()),
        )
    return CalibrationResult(kappa_star=kappa_star, report=report)


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
