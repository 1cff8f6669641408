"""End-to-end acceptance suite for the toolkit's headline claims.

Each test prints one ``[acceptance] <claim>: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live). Values marked
"frozen" are regression anchors measured from this implementation the first
time the suite went green; they pin reproducibility, not external truth.
"""

import functools
import json
import math

import numpy as np
import pytest
from conftest import random_segment
from oracles import (
    antisymmetric_rr_state,
    controlled_flip_family,
    embed_two_qubit,
    expm_hermitian,
    h_block_11,
    h_direct,
    h_full,
    hermiticity_defect,
    rk4_unitary,
    symmetric_block_projectors,
    unitarity_defect,
)

from rydgate.analysis import (
    analyze_gate,
    controlled_phase,
    fidelity_cphase,
    phases_and_leakage,
)
from rydgate.calibration import calibrate_kappa, sweep_kappa
from rydgate.cli import main as cli_main
from rydgate.propagation import DriveParams, PulseSequence, sequence_unitary
from rydgate.protocols import (
    BlockadeProtocolParams,
    GeometricProtocolParams,
    blockade_pdp_sequence,
    gate_time_blockade,
    gate_time_geometric,
    geometric_sequence,
)

# Frozen regression anchors (see module docstring).
ANCHOR_KAPPA_STAR = 1.645070143559
ANCHOR_LEAKAGE_AT_KAPPA_STAR = 2.757290075489e-03
ANCHOR_FIDELITY_AT_165 = 0.998635429532
LEAKAGE_CEILING_AT_165 = 3.0e-3


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")

        return inner

    return wrap


@criterion("geometric CZ point (kappa = 1.65, calibrated kappa*)")
def test_geometric_cz_point():
    report = analyze_gate(geometric_sequence(GeometricProtocolParams.from_omega(1.65, 1.0)))
    assert abs(report.controlled_phase) == pytest.approx(math.pi, abs=0.05)
    assert report.phases[0] == 0.0
    assert all(leak <= LEAKAGE_CEILING_AT_165 for leak in report.leakage[1:])
    assert report.fidelity == pytest.approx(ANCHOR_FIDELITY_AT_165, abs=1e-9)

    result = calibrate_kappa(-math.pi, (1.0, 2.5))
    assert 1.60 <= result.kappa_star <= 1.70
    assert result.kappa_star == pytest.approx(ANCHOR_KAPPA_STAR, abs=1e-9)
    assert result.report.leakage_max == pytest.approx(ANCHOR_LEAKAGE_AT_KAPPA_STAR, abs=1e-9)


@criterion("gate-time closed form at kappa = 1.65 and 0.144")
def test_gate_time_closed_form():
    for omega in (1.0, 2.3):
        slow = gate_time_geometric(1.65, omega) * omega / math.pi
        fast = gate_time_geometric(0.144, omega) * omega / math.pi
        assert abs(slow - 3.9547) <= 0.001
        assert abs(fast - 1.996) <= 0.001
    assert 1 / 0.144 == pytest.approx(6.944, abs=1e-3)


def _blockade_report(omega, v):
    return analyze_gate(blockade_pdp_sequence(BlockadeProtocolParams(rabi=omega, v=v)))


@criterion("blockade gate time independent of V, infidelity ~ 1/V^2")
def test_blockade_v_independence():
    reports = [_blockade_report(1.0, v) for v in (50.0, 100.0, 200.0, 400.0)]
    gate_times = [r.gate_time for r in reports]
    assert len(set(gate_times)) == 1
    assert gate_times[0] == pytest.approx(gate_time_blockade(1.0), rel=1e-15)
    infidelities = [1.0 - r.fidelity for r in reports]
    assert all(b < a for a, b in zip(infidelities, infidelities[1:]))
    for bigger, smaller in zip(infidelities, infidelities[1:]):
        assert 0.15 <= smaller / bigger <= 0.35


@criterion("blockade truth table at V = 100 Omega")
def test_blockade_truth_table():
    report = _blockade_report(1.0, 100.0)
    phases = report.phases
    assert abs(phases[0]) <= 1e-12
    for phi in phases[1:]:
        assert abs(abs(phi) - math.pi) <= 0.2
    assert all(leak <= 0.01 for leak in report.leakage)


@criterion("direct-coupling reference gates (exchange flip, Ising phase)")
def test_direct_coupling_gates():
    # Exchange coupling at |2 J t| = pi/2: exp(-i H t) lands exactly on the
    # printed cos/i*sin controlled-flip matrix for J < 0, and on its complex
    # conjugate (theta -> -theta) for J > 0.
    t = math.pi / 4
    u_neg = expm_hermitian(h_direct("xy", -1.0), t)
    assert np.max(np.abs(u_neg - controlled_flip_family(math.pi / 2))) < 1e-10
    u_pos = expm_hermitian(h_direct("xy", 1.0), t)
    assert np.max(np.abs(u_pos - controlled_flip_family(-math.pi / 2))) < 1e-10

    u_zz = embed_two_qubit(expm_hermitian(h_direct("zz", 1.0), math.pi))
    phi_c = controlled_phase(phases_and_leakage(u_zz).phases)
    assert abs(abs(phi_c) - math.pi) < 1e-10
    assert fidelity_cphase(u_zz, math.pi) == pytest.approx(1.0, abs=1e-12)


@criterion("structural invariants over 120 random parameter draws")
def test_structural_invariants():
    rng = np.random.default_rng(424242)
    projectors = symmetric_block_projectors()
    dark = antisymmetric_rr_state()
    for _ in range(120):
        omega = float(rng.uniform(0.05, 2.5))
        delta = float(rng.uniform(-2.5, 2.5))
        phase = float(rng.uniform(-math.pi, math.pi))
        v = float(rng.uniform(-4.0, 4.0))
        d = DriveParams(omega, delta, phase)
        h = h_full(d, d, v)

        assert hermiticity_defect(h) <= 1e-12
        u = expm_hermitian(h, float(rng.uniform(0.1, 3.0)))
        assert unitarity_defect(u) <= 1e-10
        for p in projectors.values():
            assert np.max(np.abs(h @ p - p @ h)) <= 1e-12
        assert np.max(np.abs(h @ dark - delta * dark)) <= 1e-12

        v_pos = abs(v) + 0.1
        d_res = DriveParams(omega, -v_pos / 2, phase)
        block = h_block_11(d_res, v_pos)
        dark_combo = np.array([1.0, 0.0, -np.exp(-2j * phase)]) / math.sqrt(2)
        assert np.max(np.abs(block @ dark_combo)) <= 1e-12
        eigs = np.sort(np.linalg.eigvalsh(block))
        gap = eigs[-1] - eigs[0]
        assert abs(gap - math.sqrt(4 * omega**2 + v_pos**2 / 4)) <= 1e-10


@criterion("propagator equivalence to independent integrator oracles")
def test_propagator_oracles():
    rng = np.random.default_rng(777)
    for _ in range(50):
        seg = random_segment(rng)
        u = sequence_unitary(PulseSequence((seg,)))
        h = h_full(seg.drive1, seg.drive2, seg.v)
        assert np.max(np.abs(u - rk4_unitary(h, seg.duration))) < 1e-8


@criterion("gate time falls monotonically toward 2 pi/Omega as V grows")
def test_monotone_acceleration():
    records = sweep_kappa(1 / math.sqrt(48), 3.0, 120)
    ordered = sorted(records, key=lambda r: r.v_over_omega)
    times = [r.gate_time_omega_over_pi for r in ordered]
    assert all(later < earlier for earlier, later in zip(times, times[1:]))
    assert all(t >= 2.0 - 1e-12 for t in times)
    assert times[-1] == pytest.approx(2.0, abs=1e-9)
    assert times[0] < 4.0


@criterion("CLI output is byte-identical across repeated runs")
def test_cli_determinism(capsys):
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    sweep_argv = ["sweep", "--kappa-min", "1.3", "--kappa-max", "2.0", "--n", "15"]
    assert run(sweep_argv) == run(sweep_argv)

    robust_argv = [
        "robustness", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1",
        "--sigma-omega-rel", "0.02", "--sigma-r-rel", "0.01", "--seed", "42",
        "--samples", "120",
    ]
    first = run(robust_argv)
    second = run(robust_argv)
    assert first == second
    assert json.loads(first)["seed"] == 42
