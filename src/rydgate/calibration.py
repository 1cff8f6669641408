"""Parameter sweeps and root-finding calibration of the geometric protocol.

The controlled phase is not assumed monotone in kappa: calibration scans a
fixed 200-point grid over the bracket, the points around the seed first, for
the sign-change interval of the wrapped phase error nearest the seed, and
solves for the root there by Anderson-Bjorck regula falsi. Sweeps and the scan
batch rows from ``geometric_controls``; a calibration lowers its whole grid once,
so a bad kappa fails before any gate is propagated, and propagates only the rows
of the points it scans. Both keep only what each propagator stack's columns read:
its raw diagonal U_bb, and for sweeps Tr(M M^dag) and the largest leakage. Phases,
and a sweep's fidelities, are computed once per batch with the bits of one call per
stack. A failed calibration completes and reports its controlled-phase column; each
solver step builds one ``geometric_sequence``, and the report reuses the best step's
propagation (a kappa* on a scan point builds its own). Identical inputs give
bit-identical tables.
"""

import math
from dataclasses import dataclass

import numpy as np

from rydgate.analysis import _diagonals, _fidelity_functional, _fidelity_terms, _leakage, _phase_sum, analyze_gate
from rydgate.propagation import _count, _float, _require_finite, batch_unitaries, sequence_unitary, wrap_angle
from rydgate.protocols import CZ_KAPPA_SEED, GeometricProtocolParams, geometric_controls, geometric_sequence

#: Grid size of calibrate_kappa's pre-scan, and the largest
#: |wrapped phase error| it accepts at kappa*.
CALIBRATION_SCAN_POINTS = 200
CALIBRATION_TOLERANCE = 1e-6
#: Grid points nearest the seed that the pre-scan propagates first: enough to
#: settle a crossing in the seed's grid interval without the rest of the grid.
SEED_PROBE_POINTS = 4


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


def _geometric(kappa, omega):
    return geometric_sequence(GeometricProtocolParams.from_omega(float(kappa), omega))


def sweep_kappa(k_min, k_max, n):
    """Characterize the geometric protocol on n uniformly spaced kappa values.

    Every column depends on kappa alone (Omega sets only the clock), so the rows
    are built at Omega = 1. Fidelity is measured against a CZ gate (target phase
    pi). Records come back ordered by kappa.
    """
    k_min = _float(k_min, "k_min")
    k_max = _float(k_max, "k_max")
    if not (0 < k_min < k_max < math.inf):
        raise ValueError(f"need finite 0 < k_min < k_max, got ({k_min}, {k_max})")
    n = _count(n, "n", 2, 63)
    kappas = np.linspace(k_min, k_max, n)
    rows, durations = geometric_controls(kappas, 1.0)
    gate_times = durations.sum(axis=-1)
    diagonals, tr_mm, leakage = np.empty((n, 4), dtype=complex), np.empty(n), np.empty(n)
    stop = 0
    for u in batch_unitaries(rows, durations):
        start, stop = stop, stop + len(u)
        diagonals[start:stop], tr_mm[start:stop] = _fidelity_terms(u)
        leakage[start:stop] = _leakage(u).max(axis=-1)
    unwrapped = _phase_sum(diagonals)
    fidelity = _fidelity_functional(diagonals, tr_mm, math.pi)
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

    The target is first reduced, exactly, by
    ``math.remainder(target_phi, 2*pi)``, so a target far outside [-pi, pi] does
    not round the scanned phases away. A 200-point scan over ``bracket`` locates
    sign changes of the wrapped error wrap(phi_c(kappa) - target); intervals
    whose endpoints differ by more than pi are branch-cut jumps and are skipped.
    The grid is lowered to control rows once, which raises the dataclass error
    of its first bad kappa in grid order. The scan propagates the
    ``SEED_PROBE_POINTS`` kappas nearest ``seed_kappa``, then the rest unless no
    kappa left could give an admissible interval as near as the nearest found. In that interval, Anderson-Bjorck regula falsi
    (Anderson & Bjorck, BIT 12, 503 (1972)) evaluates the error where the chord
    through the bracket ends crosses zero, and falls back to the midpoint
    whenever that point is not strictly inside, so every step keeps a sign
    change inside the bracket as bisection did. It stops once |error| is at most
    ``ROOT_ERROR_STOP`` (4 ulp of pi) or the bracket is at most
    ``ROOT_WIDTH_STOP`` (1e-10) wide, and returns the evaluated kappa of
    smallest |error|. That takes 2 to 5 single-gate propagations where bisection
    took 27. A scan point exactly on target is returned as it is. The report
    reads the solver step's propagation of kappa* and propagates again only
    for a scan point.

    Raises
    ------
    CalibrationError
        If no admissible sign change exists in the bracket, or the wrapped
        error at kappa* exceeds ``CALIBRATION_TOLERANCE``; the scan is completed
        and its (kappa, wrapped phi_c) pairs are attached for diagnosis.
    """
    target_phi = _require_finite(target_phi, "target_phi")
    seed_kappa = _require_finite(seed_kappa, "seed_kappa")
    k_lo, k_hi = bracket
    k_lo = _float(k_lo, "k_lo")
    k_hi = _float(k_hi, "k_hi")
    if not (0 < k_lo < k_hi < math.inf):
        raise ValueError(f"need finite 0 < k_lo < k_hi, got ({k_lo}, {k_hi})")

    target = math.remainder(target_phi, 2 * math.pi)

    solved = {}  # each solver step's sequence, which keeps its eigensystem and running products

    def error_at(kappa):
        sequence = solved[kappa] = _geometric(kappa, omega)
        return wrap_angle(wrap_angle(_phase_sum(_diagonals(sequence_unitary(sequence)))) - target)

    kappas = np.linspace(k_lo, k_hi, CALIBRATION_SCAN_POINTS)
    rows, durations = geometric_controls(kappas, omega)  # raises for omega, or the first bad kappa in grid order
    with np.errstate(over="ignore"):  # a distance that overflows is inf
        # distance[i + j]: of candidate (i, j), a scan point on target (i, i) or a sign change (i, i + 1)
        ends_kappa = np.repeat(kappas, 2)
        distance = np.abs(0.5 * (ends_kappa[:-1] + ends_kappa[1:]) - seed_kappa)
    point_distance = distance[::2].tolist()
    nearest = sorted(range(len(kappas)), key=point_distance.__getitem__)
    phases, errors = np.full_like(kappas, np.nan), np.full_like(kappas, np.nan)

    def scan(points):
        diagonals, stop = np.empty((len(points), 4), dtype=complex), 0
        for u in batch_unitaries(rows[points], durations[points]):
            start, stop = stop, stop + len(u)
            diagonals[start:stop] = _diagonals(u)
        phases[points] = wrap_angle(_phase_sum(diagonals))
        errors[points] = wrap_angle(phases[points] - target)

    def failure(message):
        scan(np.flatnonzero(np.isnan(phases)))  # the table has every point
        return CalibrationError(message, scan=zip(kappas.tolist(), phases.tolist()))

    for points in (nearest[:SEED_PROBE_POINTS], nearest[SEED_PROBE_POINTS:]):
        scan(points)
        # Scan points on target, and sign changes that do not jump the branch cut,
        # in scan order; a point not yet scanned is NaN and is neither.
        crossing = (errors[:-1] * errors[1:] < 0) & (np.abs(np.diff(errors)) < math.pi)
        ends = [(i, i) for i in np.flatnonzero(errors == 0.0)]
        ends = sorted(ends + [(i, i + 1) for i in np.flatnonzero(crossing)])
        if ends:  # done once every candidate with a point not yet scanned is farther out
            pending = np.repeat(np.isnan(errors), 2)
            unresolved = distance[pending[:-1] | pending[1:]]
            if min(distance[i + j] for i, j in ends) < unresolved.min(initial=math.inf):
                break
    if not ends:
        raise failure(
            f"no sign change of the wrapped phase error in bracket ({k_lo}, {k_hi}) "
            f"for target {target_phi:.6f} rad"
        )
    i, j = min(ends, key=lambda e: distance[e[0] + e[1]])
    lo, hi = float(kappas[i]), float(kappas[j])

    kappa_star = lo
    if lo != hi:
        kappa_star = _anderson_bjorck(error_at, lo, hi, float(errors[i]), float(errors[j]))

    sequence = solved[kappa_star] if kappa_star in solved else _geometric(kappa_star, omega)
    report = analyze_gate(sequence, target_phi=target)
    residual = wrap_angle(report.controlled_phase - target)
    if abs(residual) > CALIBRATION_TOLERANCE:
        raise failure(
            f"root solver stalled: |wrapped error| = {abs(residual):.3e} > {CALIBRATION_TOLERANCE:g} "
            f"at kappa = {kappa_star}"
        )
    return CalibrationResult(kappa_star=kappa_star, report=report)
