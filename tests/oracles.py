"""Independent reference implementations used only to check the package.

Nothing here may call into the code paths it verifies: the integrator walks
the Schroedinger equation with classical RK4 steps, the two-atom Hamiltonian
is assembled element by element from selection rules instead of tensor
products, and the invariant blocks and projectors of a symmetric drive are
written out in the symmetric basis. Drives are read by attribute (``rabi``,
``detuning``, ``phase``), so the package's ``DriveParams`` can be passed in.
``one_atom_drive_unitary`` exponentiates the 2x2 blocks of segments that each drive
one atom, the blockade gate's, by formula, with no diagonalisation.

``gauged_hamiltonians`` is one exception: it is the package's own complex
Hamiltonian of control rows, D Hr D^dag from the real parts the package
diagonalises and the laser-phase gauge it puts back, kept here because only the
tests call it and check it against the oracles; ``h_full`` applies it to one
segment, lowered by ``PulseSequence``.
``expm_hermitian`` is the complex exponential step v e^{-iwt} v^dag of one ``eigh``,
as the package formed its steps before it took real steps and phase patterns; it
shares only the package's range check (``_kernels.pure._eigenphases``).
``running_products_from_identity`` multiplies those steps from the identity one at a
time: the reference the package's product must match to rounding.
``quadrature_fidelity_moments`` is another exception: it propagates and scores the
gates of its own noise rows with the package and checks the noise model and
statistics, and so is ``hermite_fidelity_moments``, its rule with fewer gates.
``two_pass_gate_report`` assembles a report from the package's real steps,
phase patterns, product, laser-phase gauge, integral and characterization, and
checks only that one diagonalisation shared by the propagator and the Rydberg time
gives the bits of two.
``sequential_population_integral`` is the package's trapezoid integral as it was
before it read the running products: it keeps the package's closed-form beat weights
(``_kernels.pure._trapezoid_factor``) and checks only that starting each segment from
the running products, and summing all segments in one contraction, changes nothing
but rounding.
``full_scan_calibration`` calibrates with the package's propagation, root
solver and report, and checks only that scanning nearest the seed first, and
stopping early, picks the interval a scan of the whole grid picks.
``per_sample_v`` is V = C6 / r**6 of one spacing as a Python division, as the
package took it, sample by sample, before it took a block's V in one array
expression. ``per_sample_controls`` perturbs the nominal rows with the package's
draws and ``_perturbed_controls``, but with ``per_sample_v`` in sample order.
``per_chunk_monte_carlo`` scores each propagator stack as it comes, with those
controls and the package's propagation, fidelity and statistics, and checks only
that scoring a whole block of samples at once keeps every bit. ``per_stack_sweep``
and ``per_stack_scan_phases`` score each stack of a sweep or calibration scan
with the public ``phases_and_leakage`` and ``fidelity_cphase``, and check only
that the private terms the package reads keep every bit.
"""

import cmath
import functools
import math

import numpy as np

from rydgate._kernels import sequence_product, weighted_population_integral
from rydgate._kernels.pure import _eigenphases, _trapezoid_factor
from rydgate import calibration, robustness
from rydgate.analysis import (
    RYDBERG_TIME_SAMPLES,
    GateReport,
    analyze_gate,
    controlled_phase,
    fidelity_cphase,
    phase_combination,
    phases_and_leakage,
    pulse_area,
)
from rydgate.propagation import (
    COMPUTATIONAL_INDICES,
    EXCITATIONS,
    OPERATORS,
    PHASE_COLUMNS,
    PulseSegment,
    PulseSequence,
    _gauge,
    _segments,
    _real_parts,
    batch_unitaries,
    distinct_segments,
    sequence_unitary,
    wrap_angle,
)
from rydgate.protocols import (
    CZ_KAPPA_SEED,
    GeometricProtocolParams,
    geometric_controls,
    geometric_sequence,
    protocol_sequence,
)


def rk4_unitary(h, t, tol=1e-10, n_start=64, max_doublings=14):
    """Integrate dU/dt = -i H U with RK4, doubling steps until converged.

    Returns the first iterate whose entrywise distance to the previous
    halving is below ``tol``.
    """
    h = np.asarray(h, dtype=np.complex128)

    def integrate(n_steps):
        m = -1j * h
        u = np.eye(h.shape[0], dtype=np.complex128)
        dt = t / n_steps
        for _ in range(n_steps):
            k1 = m @ u
            k2 = m @ (u + 0.5 * dt * k1)
            k3 = m @ (u + 0.5 * dt * k2)
            k4 = m @ (u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return u

    n = n_start
    prev = integrate(n)
    for _ in range(max_doublings):
        n *= 2
        cur = integrate(n)
        if np.max(np.abs(cur - prev)) < tol:
            return cur
        prev = cur
    raise AssertionError(f"RK4 oracle did not converge to {tol} within {n} steps")


def two_atom_hamiltonian_by_rules(drive1, drive2, v):
    """Two-atom Hamiltonian assembled element by element from selection rules.

    ``drive1``/``drive2`` are (rabi, detuning, phase) tuples or None. Levels
    are coded 0, 1, 2 (= Rydberg) and the product index is 3*atom1 + atom2.
    A drive couples that atom's levels 1 and 2 with amplitude
    (rabi/2) e^{i phase} on the <1|H|2> side and shifts its level 2 by the
    detuning; the interaction shifts the (2, 2) product state by v.
    """
    out = np.zeros((9, 9), dtype=np.complex128)

    def single(drive):
        m = np.zeros((3, 3), dtype=np.complex128)
        if drive is not None:
            rabi, detuning, phase = drive
            m[1, 2] = 0.5 * rabi * np.exp(1j * phase)
            m[2, 1] = np.conj(m[1, 2])
            m[2, 2] = detuning
        return m

    m1, m2 = single(drive1), single(drive2)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    element = 0.0 + 0.0j
                    if b == d:
                        element += m1[a, c]
                    if a == c:
                        element += m2[b, d]
                    if (a, b, c, d) == (2, 2, 2, 2):
                        element += v
                    out[3 * a + b, 3 * c + d] = element
    return out


def gauged_hamiltonians(controls):
    """(..., 9, 9) Hamiltonians D Hr D^dag of (..., 7) control rows (Omega1, phi1, Delta1,
    Omega2, phi2, Delta2, V), from the package: Hr from ``_real_parts`` and the diagonal
    D = exp(-i(phi1 n1 + phi2 n2)) from ``_gauge``."""
    d = _gauge(controls[..., 1::3])[..., None] * np.eye(9)
    return d @ _real_parts(controls) @ d.conj().swapaxes(-1, -2)


def h_full(drive1, drive2, v):
    """(9, 9) Hamiltonian of one segment with drives ``drive1``, ``drive2``
    (``DriveParams`` or None: undriven) and interaction ``v``, from the package."""
    (h,) = gauged_hamiltonians(PulseSequence((PulseSegment(1.0, drive1, drive2, v),)).controls)
    return h


def real_parts_by_columns(controls):
    """(..., 9, 9) Hr of (..., 7) control rows, each column times its ``OPERATORS`` entry,
    summed one column at a time in column order from +0.0: the package's one contraction,
    ``_real_parts``, must match bit for bit."""
    total = np.zeros(controls.shape[:-1] + (9, 9))
    for column in range(7):
        total = total + controls[..., column, None, None] * OPERATORS[column]
    return total


def pulse_area_by_segments(sequence):
    """Sum over segments and atoms of Omega*dt, one drive at a time from +0.0, read off the
    ``DriveParams``: ``analysis.pulse_area``, which reads the rows, must match bit for bit."""
    area = 0.0
    for seg in sequence.segments:
        for drive in (seg.drive1, seg.drive2):
            if drive is not None:
                area += drive.rabi * seg.duration
    return area


def expm_hermitian(h, t):
    """exp(-i*h*t) of (..., n, n) Hermitian matrices; ``t`` broadcasts over ``h.shape[:-2]``."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * _eigenphases(w, np.asarray(t)[..., None]))
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


def running_products_from_identity(hams, durations, order):
    """The (k, ..., n, n) running products U_j ... U_1 of the steps exp(-i*h*t) of the
    (..., d, n, n) ``hams`` and (..., d) ``durations`` in ``order``, first segment first,
    each multiplied onto the last from the identity."""
    steps = expm_hermitian(hams, durations)
    u, products = np.eye(hams.shape[-1], dtype=np.complex128), []
    for j in order:
        u = steps[..., j, :, :] @ u
        products.append(u)
    return np.array(products)


def sequence_product_from_identity(hams, durations, order):
    """The last of ``running_products_from_identity``: the gate."""
    return running_products_from_identity(hams, durations, order)[-1]


def one_atom_drive_unitary(sequence):
    """The propagator of a schedule whose segments each drive one atom, in closed form, from
    ``cmath``/``math`` and no diagonalisation: the blockade pi - 2pi - pi gate is one.

    With atom k driven, each level s of the other atom gives an invariant block. The pair
    {|1>_k s, |r>_k s} has H = [[0, c], [conj(c), d]], c = (Omega/2) e^{i phi} and
    d = Delta + V if s is |r>, else Delta; its step is e^{-idt/2} [cos(Wt) - i sin(Wt)/W (H - d/2)],
    W = sqrt(|c|^2 + d^2/4), as (H - d/2)^2 = W^2. The state |0>_k s does not move. The steps
    are multiplied from the identity, one at a time."""
    u = np.eye(9, dtype=np.complex128)
    for seg in sequence.segments:
        drives = (seg.drive1, seg.drive2)
        if drives.count(None) != 1:
            raise ValueError("each segment must drive exactly one atom")
        atom = 0 if drives[1] is None else 1
        drive = drives[atom]
        c = 0.5 * drive.rabi * cmath.exp(1j * drive.phase)
        step = np.zeros((9, 9), dtype=np.complex128)
        for spectator in range(3):
            ground, one, rydberg = (3 * level + spectator if atom == 0 else 3 * spectator + level for level in range(3))
            d = drive.detuning + (seg.v if spectator == 2 else 0.0)
            w, t = math.hypot(abs(c), 0.5 * d), seg.duration
            cos, sinc = math.cos(w * t), (math.sin(w * t) / w if w else t)
            rotation = cmath.exp(-0.5j * d * t)
            step[ground, ground] = 1.0
            step[one, one] = rotation * complex(cos, 0.5 * d * sinc)
            step[rydberg, rydberg] = rotation * complex(cos, -0.5 * d * sinc)
            step[one, rydberg] = rotation * -1j * sinc * c
            step[rydberg, one] = rotation * -1j * sinc * c.conjugate()
        u = step @ u
    return u


def two_pass_gate_report(sequence, target_phi=math.pi):
    """``analyze_gate`` as it was composed before a sequence kept its eigensystem: the
    propagator and its running products from one diagonalisation of the distinct segments'
    real parts, and the Rydberg time from a second diagonalisation of the same matrices,
    gauged per distinct segment. ``analyze_gate`` must give an equal report."""
    rows, durations, order = distinct_segments(sequence.controls, sequence.durations)
    w, v = np.linalg.eigh(_real_parts(rows))
    segments, gauges = _segments(range(len(rows)), rows[:, PHASE_COLUMNS])
    partials = sequence_product(w, v, durations, order, segments, partials=True)
    u = partials[-1]
    states = np.eye(9, dtype=np.complex128)[list(COMPUTATIONAL_INDICES)]
    w, v = np.linalg.eigh(_real_parts(rows))
    totals = weighted_population_integral(
        w, v.astype(np.complex128) if gauges is None else gauges[..., None] * v, durations, order, partials, states,
        EXCITATIONS, RYDBERG_TIME_SAMPLES,
    )
    extraction = phases_and_leakage(u)
    unwrapped = phase_combination(extraction.phases)
    return GateReport(
        phases=extraction.phases,
        controlled_phase=wrap_angle(unwrapped),
        controlled_phase_unwrapped=unwrapped,
        leakage=extraction.leakage,
        leakage_max=extraction.leakage_max,
        fidelity=fidelity_cphase(u, math.remainder(target_phi, 2 * math.pi)),
        gate_time=sequence.total_duration,
        pulse_area=pulse_area(sequence),
        rydberg_time=float(np.mean(totals)),
    )


def sequential_population_integral(w, v, durations, order, psi0, weights, samples_per_segment):
    """The (m,) trapezoid integrals of ``_kernels.weighted_population_integral``, computed as
    the package did before the kernel read the running products: each of the (m, n) initial
    states ``psi0`` is propagated again, segment by segment in that segment's eigenbasis, and
    each segment's closed-form sum is added in turn."""
    steps = np.exp(-1j * (w * durations[:, None]))
    v_dagger = v.conj().swapaxes(-1, -2)
    psi = np.asarray(psi0, dtype=np.complex128)
    total = np.zeros(psi.shape[0])
    kernels = _trapezoid_factor(w, durations / samples_per_segment, samples_per_segment)
    kernels *= v_dagger @ (weights[:, None] * v)
    for j in order:
        c = psi @ v[j].conj()
        total += ((c.conj() @ kernels[j]) * c).sum(axis=-1).real
        psi = (c * steps[j]) @ v[j].T
    return total


def bisect_root(f, lo, hi, f_lo, width=1e-10):
    """Final bracket (lo, hi) of bisecting [lo, hi] down to ``width``, where
    f_lo = f(lo) and f(hi) have opposite signs; lo == hi where f hits 0 exactly.

    The loop the package's kappa calibration ran before its root solver.
    """
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid, mid
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo, hi


def full_scan_calibration(target_phi, bracket, omega=1.0, seed_kappa=CZ_KAPPA_SEED):
    """``calibration.calibrate_kappa`` as it ran before its scan stopped early: every
    point of the grid is propagated, in order, and the admissible interval nearest
    the seed is picked from all of them. Reads the tolerance from the module, so a
    test may patch it for both."""
    for name, value in (("target_phi", target_phi), ("seed_kappa", seed_kappa)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    k_lo, k_hi = bracket
    if not (0 < k_lo < k_hi < math.inf):
        raise ValueError(f"need finite 0 < k_lo < k_hi, got {bracket}")

    target = math.remainder(target_phi, 2 * math.pi)

    def geometric(kappa):
        return geometric_sequence(GeometricProtocolParams.from_omega(float(kappa), omega))

    def error_at(kappa):
        return wrap_angle(controlled_phase(phases_and_leakage(sequence_unitary(geometric(kappa))).phases) - target)

    kappas = np.linspace(k_lo, k_hi, calibration.CALIBRATION_SCAN_POINTS)
    chunks = batch_unitaries(*geometric_controls(kappas, omega))
    phases = wrap_angle(np.concatenate([phase_combination(phases_and_leakage(u).phases) for u in chunks]))
    errors = wrap_angle(phases - target)

    crossing = (errors[:-1] * errors[1:] < 0) & (np.abs(np.diff(errors)) < math.pi)
    ends = [(i, i) for i in np.flatnonzero(errors == 0.0)]
    ends = sorted(ends + [(i, i + 1) for i in np.flatnonzero(crossing)])
    if not ends:
        raise calibration.CalibrationError(
            f"no sign change of the wrapped phase error in bracket ({k_lo}, {k_hi}) "
            f"for target {target_phi:.6f} rad",
            scan=zip(kappas.tolist(), phases.tolist()),
        )
    i, j = min(ends, key=lambda e: abs(0.5 * (kappas[e[0]] + kappas[e[1]]) - seed_kappa))
    lo, hi = float(kappas[i]), float(kappas[j])

    kappa_star = lo
    if lo != hi:
        kappa_star = calibration._anderson_bjorck(error_at, lo, hi, float(errors[i]), float(errors[j]))

    report = analyze_gate(geometric(kappa_star), target_phi=target)
    residual = wrap_angle(report.controlled_phase - target)
    tolerance = calibration.CALIBRATION_TOLERANCE
    if abs(residual) > tolerance:
        raise calibration.CalibrationError(
            f"root solver stalled: |wrapped error| = {abs(residual):.3e} > {tolerance:g} "
            f"at kappa = {kappa_star}",
            scan=zip(kappas.tolist(), phases.tolist()),
        )
    return calibration.CalibrationResult(kappa_star=kappa_star, report=report)


def per_stack_sweep(k_min, k_max, n):
    """``calibration.sweep_kappa``'s records with each ``batch_unitaries`` stack scored on
    its own, as it is yielded: ``phases_and_leakage`` and ``fidelity_cphase`` per stack."""
    kappas = np.linspace(k_min, k_max, n)
    rows, durations = geometric_controls(kappas, 1.0)
    unwrapped, leakage, fidelity = [], [], []
    for u in batch_unitaries(rows, durations):
        extraction = phases_and_leakage(u)
        unwrapped.append(phase_combination(extraction.phases))
        leakage.append(extraction.leakage_max)
        fidelity.append(fidelity_cphase(u, math.pi))
    unwrapped, leakage, fidelity = (np.concatenate(c) for c in (unwrapped, leakage, fidelity))
    columns = zip(wrap_angle(unwrapped).tolist(), unwrapped.tolist(), leakage.tolist(), fidelity.tolist())
    gate_times = (durations.sum(axis=-1) / math.pi).tolist()
    return [
        calibration.SweepRecord(kappa, 1.0 / kappa, gate_time, *values)
        for kappa, gate_time, values in zip(kappas.tolist(), gate_times, columns)
    ]


def per_stack_scan_phases(kappas, omega):
    """The wrapped controlled phase at each of ``kappas``, from ``phases_and_leakage`` on
    each ``batch_unitaries`` stack of their geometric gates."""
    chunks = batch_unitaries(*geometric_controls(np.asarray(kappas), omega))
    return wrap_angle(np.concatenate([phase_combination(phases_and_leakage(u).phases) for u in chunks]))


def controlled_flip_family(theta):
    """Two-qubit matrix diag-embedded [[cos, i sin], [i sin, cos]] inner block."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, 1j * s, 0],
            [0, 1j * s, c, 0],
            [0, 0, 0, 1],
        ],
        dtype=np.complex128,
    )


def random_hermitian(rng, n=9, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.ascontiguousarray(scale * (m + m.conj().T) / 2.0)


def golden_section_fidelity(u, target_phi, iterations=100):
    """Local-Z-compensated average gate fidelity by golden-section search.

    The functional (|Tr M|^2 + Tr(M M^dag)) / 20 against
    diag(1, 1, 1, e^{i target_phi}), with the qubit-2 angle maximized out in
    closed form, leaves f(alpha) = |d00 + d10 e^{ia}| + |d01 + d11 e^{ia}| to
    maximize over the qubit-1 angle. Its best point on a 256-point grid
    brackets the maximum to one grid cell either side; golden-section search
    narrows that bracket using values of f only.
    """
    u = np.asarray(u, dtype=np.complex128)
    block = u[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])]
    d = np.diag(block) * np.array([1.0, 1.0, 1.0, np.exp(-1j * target_phi)])

    def f(alpha):
        ph = np.exp(1j * alpha)
        return abs(d[0] + d[2] * ph) + abs(d[1] + d[3] * ph)

    cell = 2 * np.pi / 256
    grid = cell * np.arange(256)
    values = np.abs(d[0] + d[2] * np.exp(1j * grid)) + np.abs(d[1] + d[3] * np.exp(1j * grid))
    best = grid[np.argmax(values)]
    lo, hi = best - cell, best + cell
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iterations):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
    tr = max(f(best), f1, f2)
    return min(1.0, (tr * tr + float(np.sum(np.abs(block) ** 2))) / 20.0)


def sampled_population_integral(hams, durations, psi0, weights, samples_per_segment):
    """Trapezoidal integrals of sum_i weights[i]*|psi_i(t)|^2 by sampling.

    Each of the (m, n) states ``psi0`` is propagated on its own through the
    (k, n, n) piecewise-constant schedule: every segment is sampled at
    ``samples_per_segment + 1`` equally spaced times, and the populations are
    integrated with ``np.trapezoid``. Returns the (m,) integrals.
    """
    total = np.zeros(len(psi0))
    for i, psi in enumerate(np.array(psi0, dtype=np.complex128)):
        for h, t in zip(hams, durations):
            w, v = np.linalg.eigh(h)
            times = np.linspace(0.0, t, samples_per_segment + 1)
            amps = (np.exp(-1j * np.outer(times, w)) * (v.conj().T @ psi)) @ v.T
            total[i] += np.trapezoid(np.abs(amps) ** 2 @ weights, dx=t / samples_per_segment)
            psi = amps[-1]
    return total


def grid_argmax(c, grid):
    """Index of the ``grid`` angle a maximizing f(a) = |c00 + c10 e^{ia}| + |c01 + c11 e^{ia}|
    for (..., 4) diagonals c ordered 00, 01, 10, 11, evaluated on complex phasors with ``abs``."""
    pairs = np.abs(c[..., :2, None] + c[..., 2:, None] * np.exp(1j * grid))
    return np.argmax(pairs[..., 0, :] + pairs[..., 1, :], axis=-1)


def _rule_moments(protocol, sigma_omega, sigma_r, r0, x, x_weights, y, y_weights):
    """Mean, variance and fourth central moment of the fidelity by the tensor rule
    of nodes x (on eps_Omega) and y (on eps_R), in units of their spreads, whose
    weights each sum to sqrt(2 pi), as ``hermegauss``' do.

    The perturbed rows are built here, not by the package's noise functions; the
    propagation and the fidelity are the package's. The Rabi columns (Omega of each
    atom: 0 and 3 of the row) are scaled by 1 + sigma_Omega*x, and V = C6/r^6 is set
    at r = r0*(1 + sigma_R*y).
    """
    nominal = protocol_sequence(protocol)
    target = controlled_phase(phases_and_leakage(sequence_unitary(nominal)).phases)
    weights = np.outer(x_weights, y_weights).ravel() / (2 * math.pi)
    assert abs(weights.sum() - 1.0) < 1e-13
    c6 = protocol.v * r0**6
    rows = np.repeat(nominal.controls[None], len(weights), axis=0)
    rows[..., [0, 3]] *= np.repeat(1.0 + sigma_omega * x, len(y))[:, None, None]
    rows[..., 6] = c6 / np.tile(r0 * (1.0 + sigma_r * y), len(x))[:, None] ** 6
    fidelities = np.concatenate([fidelity_cphase(u, target) for u in batch_unitaries(rows, nominal.durations)])
    mean = weights @ fidelities
    deviations = fidelities - mean
    return mean, weights @ deviations**2, weights @ deviations**4


@functools.cache
def quadrature_fidelity_moments(protocol, sigma_omega, sigma_r, r0=1.0):
    """Mean, variance and fourth central moment of the fidelity under the noise
    model, by a tensor rule over (eps_Omega, eps_R) in units of their spreads: the
    16-node Gauss-Hermite rule on eps_Omega and the Gaussian-weighted trapezoid rule
    on 257 points of [-8, 8] on eps_R, which converges geometrically for a smooth
    integrand (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
    """
    x, x_weights = np.polynomial.hermite_e.hermegauss(16)
    y = np.linspace(-8.0, 8.0, 257)
    y_weights = (y[1] - y[0]) * np.exp(-0.5 * y**2)
    y_weights[[0, -1]] *= 0.5
    return _rule_moments(protocol, sigma_omega, sigma_r, r0, x, x_weights, y, y_weights)


@functools.cache
def hermite_fidelity_moments(protocol, sigma_omega, sigma_r, nodes, r0=1.0):
    """``quadrature_fidelity_moments`` by the ``nodes`` x ``nodes`` Gauss-Hermite
    tensor rule: exact for a fidelity polynomial of degree 2 nodes - 1 in each
    eps, so it converges fast where the fidelity is smooth in both, as for the
    geometric gate (not the blockade gate, whose fidelity oscillates in eps_R)."""
    x, weights = np.polynomial.hermite_e.hermegauss(nodes)
    return _rule_moments(protocol, sigma_omega, sigma_r, r0, x, weights, x, weights)


def per_sample_v(c6, r):
    """V = c6 / r**6 of one float spacing r, or the package's ValueError for a bad one."""
    if not 0 < r < math.inf:
        raise ValueError(f"spacing must be positive, got {r}")
    try:
        v = c6 / r**6
    except (OverflowError, ZeroDivisionError):
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"spacing {r} is out of range: r**6 or c6 / r**6 over- or underflows")
    return v


def per_sample_controls(rows, noise, indices):
    """The (n, k, 7) noisy control rows of the Monte-Carlo samples ``indices``, V from ``per_sample_v``."""
    eps = robustness._noise_draws(noise.seed, indices)
    with np.errstate(over="ignore"):
        omega_factors = 1.0 + noise.sigma_omega_rel * eps[:, 0]
        spacings = noise.r0 * (1.0 + noise.sigma_r_rel * eps[:, 1])
    v = np.array([per_sample_v(noise.c6, r) for r in spacings.tolist()])
    return robustness._perturbed_controls(rows, omega_factors, v)


def per_chunk_monte_carlo(protocol, noise, n_samples):
    """``monte_carlo_fidelity``'s statistics with each ``batch_unitaries`` stack scored
    on its own: ``fidelity_cphase`` and the phase error per stack, as it is yielded."""
    nominal = protocol_sequence(protocol)
    target = controlled_phase(phases_and_leakage(sequence_unitary(nominal)).phases)
    fidelities, phase_errors = [], []
    for block in range(0, n_samples, robustness.SAMPLE_BLOCK):
        indices = np.arange(block, min(block + robustness.SAMPLE_BLOCK, n_samples))
        for u in batch_unitaries(per_sample_controls(nominal.controls, noise, indices), nominal.durations):
            fidelities.append(fidelity_cphase(u, target))
            phase_errors.append(np.abs(wrap_angle(controlled_phase(phases_and_leakage(u).phases) - target)))
    return robustness._summary(np.concatenate(fidelities), np.concatenate(phase_errors))


def sample_eps(seed, index):
    """(eps_Omega, eps_R) of Monte-Carlo sample ``index``: the first two standard
    normals of a fresh PCG64 generator seeded with ``SeedSequence((seed, index))``."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))
    return rng.standard_normal(), rng.standard_normal()


def hermiticity_defect(m):
    """Largest entrywise magnitude of m - m^dagger."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def unitarity_defect(u):
    """Largest entrywise magnitude of u^dagger u - identity."""
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def symmetric_rr_state():
    """(|1r> + |r1>)/sqrt(2), the drive-coupled (bright) single-excitation state."""
    psi = np.zeros(9, dtype=np.complex128)
    psi[[5, 7]] = 1 / math.sqrt(2)  # |1r>, |r1>
    return psi


def antisymmetric_rr_state():
    """(|1r> - |r1>)/sqrt(2), dark under any symmetric drive."""
    psi = np.zeros(9, dtype=np.complex128)
    psi[[5, 7]] = 1 / math.sqrt(2), -1 / math.sqrt(2)  # |1r>, |r1>
    return psi


def h_block_01(drive2):
    """Single-excitation block over {|01>, |0r>}: atom 1 idle, atom 2 driven."""
    om = 0.5 * drive2.rabi * cmath.exp(1j * drive2.phase)
    return np.array([[0.0, om], [np.conj(om), drive2.detuning]], dtype=np.complex128)


def h_block_11(drive, v):
    """Double-occupation block over {|11>, |B>, |rr>} for a symmetric drive.

    |B> = (|1r>+|r1>)/sqrt(2); the ladder couplings are sqrt(2)/2 * Omega
    e^{i phi} and the diagonal reads (0, Delta, V + 2*Delta).
    """
    g = (math.sqrt(2) / 2) * drive.rabi * cmath.exp(1j * drive.phase)
    return np.array(
        [
            [0.0, g, 0.0],
            [np.conj(g), drive.detuning, g],
            [0.0, np.conj(g), v + 2 * drive.detuning],
        ],
        dtype=np.complex128,
    )


def symmetric_block_projectors():
    """Projectors onto the invariant subspaces of any symmetric drive.

    Returns a dict keyed by '00', '01', '10', '11', 'antisym'. Basis indices
    are 3*atom1 + atom2 with level codes |0>, |1>, |r> = 0, 1, 2.
    """

    def from_states(states):
        return sum(np.outer(s, s.conj()) for s in states)

    e = np.eye(9, dtype=np.complex128)
    return {
        "00": from_states([e[0]]),
        "01": from_states([e[1], e[2]]),
        "10": from_states([e[3], e[6]]),
        "11": from_states([e[4], symmetric_rr_state(), e[8]]),
        "antisym": from_states([antisymmetric_rr_state()]),
    }


_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_SP = np.array([[0, 1], [0, 0]], dtype=np.complex128)  # |0><1|
_SM = _SP.conj().T
_DIRECT = {
    "xy": np.kron(_SX, _SX) + np.kron(_SY, _SY),
    "zz": 0.25 * np.kron(_SZ, _SZ),
    "pm": np.kron(_SP, _SM) + np.kron(_SM, _SP),
}


def h_direct(kind, j):
    """Direct-coupling two-qubit Hamiltonian on {|00>, |01>, |10>, |11>}.

    ``kind`` "xy": J*(sx sx + sy sy); "zz": (J/4)*sz sz; "pm": J*(s+ s- + s- s+).
    """
    return j * _DIRECT[kind]


def embed_two_qubit(u4):
    """9x9 unitary acting as the 4x4 ``u4`` on |00>, |01>, |10>, |11> and as
    the identity on every state with a Rydberg excitation."""
    u = np.eye(9, dtype=np.complex128)
    u[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = u4
    return u
