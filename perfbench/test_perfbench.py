"""Self-tests of the benchmark: smoke runs, output checks, oracle and tracer.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import oracle
import run
import tracing
import workloads

import rydgate
import rydgate.analysis
import rydgate.calibration
import rydgate.robustness
from rydgate import _kernels


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["montecarlo", "scan", "characterize", "cli"])
def test_smoke_run_emits_every_metric_without_failures(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    e2e, layers = run.declared_metrics()
    declared = layers if trace else e2e
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"])
    if trace:
        assert result["metrics"]["fail_frac"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_program_fails_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "speed.py", "workloads.py", "oracle.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(run.HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(open(os.path.join(run.ROOT, "BENCHMARK.json")).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 2
    assert "cannot import the program" in proc.stderr
    assert proc.stdout.strip() == ""


def _corrupted_run(workload, good, corrupt):
    """Run the harness loop over an op that returns a corrupted output."""
    workload.check(0, good)
    return run.measure(workload, lambda i: corrupt(good), 0.0, 3)


def test_corrupted_montecarlo_stats_count_as_failed():
    w = workloads.MonteCarlo(5, smoke=True)
    good = w.op(0)
    bad = lambda out: (dataclasses.replace(out[0], mean_fidelity=out[0].mean_fidelity - 1e-12), out[1])
    phase = _corrupted_run(w, good, bad)
    assert phase.failed == len(phase.latencies) == 3


def test_corrupted_characterize_reports_count_as_failed():
    w = workloads.Characterize(5, smoke=True)
    w.prepare_checks()
    good = w.op(0)
    late = lambda out: [dataclasses.replace(r, gate_time=r.gate_time * (1 + 1e-9)) for r in out]
    assert _corrupted_run(w, good, late).failed == 3


def test_tolerances_accept_exact_rydberg_time_and_reject_wrong_gates():
    w = workloads.Characterize(5, smoke=True)
    w.prepare_checks()
    exact = [dataclasses.replace(r, rydberg_time=g.rydberg_time) for r, g in zip(w.op(0), w.refs)]
    w.check(0, exact)
    for idx, (kind, x) in enumerate(w.gates):
        bad = list(exact)
        if kind == "geometric":
            # Toggling the phase by +pi/2 instead of -pi/2 moves the Rydberg
            # time alone by 7-25 %.
            segs = [(t, (o, d, -p), (o, d, -p), v)
                    for t, (o, d, p), _, v in oracle.geometric_segments(x, 1.0)]
            bad[idx] = dataclasses.replace(bad[idx], rydberg_time=oracle.Gate(segs).rydberg_time)
        else:
            # Twice the interaction leaves the Rydberg time almost unchanged
            # but moves the controlled phase.
            wrong = oracle.blockade(1.0, 2 * x)
            bad[idx] = dataclasses.replace(bad[idx], controlled_phase=wrong.controlled_phase)
        with pytest.raises(workloads.CheckFailed):
            w.check(0, bad)


def test_corrupted_calibration_counts_as_failed():
    w = workloads.Scan(5, smoke=True)
    w.prepare_checks()
    good = w.op(0)
    sweep, cals = good
    off = lambda out: (sweep, [dataclasses.replace(c, kappa_star=c.kappa_star + 1e-4) for c in cals])
    assert _corrupted_run(w, good, off).failed == 3


def _flip_last_digit(data):
    idx = max(i for i, b in enumerate(data) if chr(b).isdigit())
    return data[:idx] + (b"1" if data[idx:idx + 1] == b"0" else b"0") + data[idx + 1:]


@pytest.mark.parametrize("corrupt", [
    lambda code, data: (3, data),
    lambda code, data: (code, _flip_last_digit(data)),
    lambda code, data: (code, data.replace(b"_", b"-", 1)),
], ids=["exit", "digit", "key"])
def test_corrupted_cli_output_counts_as_failed(tmp_path, corrupt):
    w = workloads.Cli(5, smoke=True, out_dir=str(tmp_path))
    w.prepare_checks()
    outs = [w.op_in_process(i) for i in range(w.round_size)]
    for i, out in enumerate(outs):
        w.check(i, out)
    phase = run.measure(w, lambda i: corrupt(*outs[i]), 0.0, w.round_size)
    assert phase.failed == len(phase.latencies) == w.round_size


def test_oracle_matches_fine_trapezoid_and_rydgate():
    segs = oracle.geometric_segments(1.645, 1.0)
    exact = oracle.Gate(segs).rydberg_time
    coarse = oracle.trapezoid_rydberg_time(segs, 256)
    fine = oracle.trapezoid_rydberg_time(segs, 1024)
    # Trapezoid error falls as h^2 toward the exact integral.
    assert abs(fine - exact) < abs(coarse - exact) / 10
    assert abs(fine - exact) / exact < 1e-7
    report = rydgate.analyze_gate(rydgate.geometric_sequence(
        rydgate.GeometricProtocolParams.from_omega(1.645, 1.0)))
    assert abs(report.rydberg_time - coarse) / exact < 1e-12
    assert abs(oracle.wrap(report.controlled_phase - oracle.Gate(segs).controlled_phase)) < 1e-12


def test_tracer_wraps_each_reference_and_restores_them():
    original = rydgate.propagation.sequence_unitary
    kernel = _kernels.sequence_product
    tracer = tracing.Tracer()
    tracer.install(rydgate)
    try:
        wrapped = rydgate.analysis.sequence_unitary
        assert wrapped is not original
        assert rydgate.calibration.sequence_unitary is wrapped
        assert rydgate.robustness.sequence_unitary is wrapped
        assert rydgate.sequence_unitary is wrapped
        assert _kernels.sequence_product is not kernel
        assert _kernels.pure.sequence_product is _kernels.sequence_product
        tracer.op_id = 0
        rydgate.analyze_gate(rydgate.blockade_pdp_sequence(rydgate.BlockadeProtocolParams(1.0, 50.0)))
        tracer.op_id = -1
    finally:
        tracer.uninstall()
    assert rydgate.analysis.sequence_unitary is original
    assert _kernels.sequence_product is kernel
    metrics = tracer.layer_metrics(1)
    assert metrics["analysis.report.calls"] == 1
    assert metrics["propagation.segments"] == 3
    assert metrics["robustness.calls"] == 0 and metrics["calibration.solves"] == 0
    a = tracer.arrays()
    total = a["end"] - a["start"]
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    root = a["parent"] == -1
    assert self_total == pytest.approx(total[root].sum(), rel=1e-9)


def test_tail_is_the_value_with_ten_ops_beyond_it():
    value, pct, beyond = run.tail(list(range(100, 0, -1)))
    assert (value, beyond) == (90, 10) and pct == pytest.approx(90.0)
