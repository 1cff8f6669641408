"""Layered end-to-end benchmark for rydgate.

Run from the repository root:

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 8 --trace 0

One process, one client, closed loop: the next op starts when the previous
one has returned and its output has been checked. With ``--trace 0`` the
end-to-end metrics of BENCHMARK.json are measured with tracing off. With
``--trace 1`` the same ops run first untraced and then traced, and the
per-layer metrics come from the traced half. The last line of stdout is the
result as JSON; the lines above it print every metric by name with its unit,
and the environment record. Spans and the full record are written under
``perfbench/out/``. ``--smoke`` shrinks every workload to run in seconds.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

#: Seed never used while tuning the benchmark; confirm later claims with it.
HELD_OUT_SEED = 7919
#: op_tail_s is the latency with this many ops beyond it.
TAIL_BEYOND = 10
#: Ops the end-to-end loop runs at least, so that op_tail_s lies at p60 or
#: above even on montecarlo, whose ops take about 1 s each.
MIN_OPS = 25
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
#: Hard stop for one measuring loop, so a run always ends within 180 s.
MAX_MEASURE_S = 90.0
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WAIT_NOTE = (
    "waiting time: none to report - one thread, one client, no queue and no I/O "
    "inside an in-process op"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("montecarlo", "scan", "characterize", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def build(args):
    """Import rydgate, build the workload inputs and warm up."""
    import workloads  # imports rydgate, which may be missing

    cls = workloads.WORKLOADS[args.workload]
    extra = {"out_dir": OUT} if cls is workloads.Cli else {}
    workload = cls(args.seed, args.smoke, **extra)
    workload.warm_up()
    return workload


def run_child(argv):
    """Captured stderr of a fresh interpreter; raises on failure."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stderr


def setup_seconds(args, repeats):
    """Median time, at reference speed, of fresh interpreters doing the set-up."""
    argv = [os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    meter = speed.Meter()
    times = []
    for _ in range(repeats):
        with meter:
            run_child(argv)
        times.append(meter.scaled)
    return statistics.median(times)


def import_seconds(repeats):
    """Median per group of ``-X importtime`` figures for ``import rydgate``.

    Each figure is scaled by the host speed seen around its child process,
    like the end-to-end times, so it compares with ``setup_s`` and ``cli.*_s``.
    """
    meter = speed.Meter()
    runs = []
    for _ in range(repeats):
        with meter:
            stderr = run_child(["-X", "importtime", "-c", "import rydgate"])
        factor = meter.scaled / meter.cpu
        runs.append({k: v * factor for k, v in tracing.import_times(stderr).items()})
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


class Phase:
    """Latencies, items and failures of one measuring loop.

    ``latencies`` are CPU seconds scaled to the reference speed; ``cpu`` and
    ``wall`` keep the raw figures.
    """

    def __init__(self):
        self.latencies = []
        self.cpu = []
        self.wall = []
        self.items = 0
        self.failed = 0
        self.errors = []


def measure(workload, op, seconds, min_ops, n_ops=None, tracer=None):
    """Closed loop over ``op``; stops after ``n_ops`` ops or, when that is
    None, once ``seconds`` have passed, ``min_ops`` ops are done and the
    current round is complete."""
    phase = Phase()
    # No reference blocks inside a traced op: they would land in its spans.
    meter = speed.Meter(ticks=tracer is None)
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if n_ops is not None:
            if i >= n_ops:
                break
        elif elapsed >= MAX_MEASURE_S or (
            elapsed >= seconds and i >= min_ops and i % workload.round_size == 0
        ):
            break
        if tracer is not None:
            tracer.op_id = i
        try:
            with meter:
                out = op(i)
            ok = True
        except Exception as exc:  # a failed op is counted, not fatal
            ok = False
            phase.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.op_id = -1
        phase.latencies.append(meter.scaled)
        phase.cpu.append(meter.cpu)
        phase.wall.append(meter.wall)
        if ok:
            try:
                workload.check(i, out)
            except Exception as exc:  # malformed output fails its check
                ok = False
                phase.errors.append(f"check {i}: {type(exc).__name__}: {exc}")
        phase.failed += not ok
        phase.items += workload.items(i)
        i += 1
    return phase


def tail(latencies):
    """(value, percentile, ops beyond it) at the highest percentile with ten ops beyond."""
    xs = sorted(latencies)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def source_digest():
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def environment(args):
    import rydgate

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "rydgate_backend": rydgate.BACKEND,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "load": "closed loop, 1 client, 1 process",
    }


def end_to_end(args, workload):
    """Untraced run: the end-to-end metrics and the run record."""
    setup = setup_seconds(args, 1 if args.smoke else SETUP_REPEATS)
    workload.prepare_checks()
    phase = measure(workload, workload.op, args.seconds, 1 if args.smoke else MIN_OPS)
    if args.workload == "cli":
        rss_kb = workload.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, tail_pct, beyond = tail(phase.latencies)
    metrics = {
        "setup_s": setup,
        "op_p50_s": statistics.median(phase.latencies),
        "op_tail_s": tail_s,
        "items_per_s": phase.items / sum(phase.latencies),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    record = {
        "ops": len(phase.latencies),
        "items": phase.items,
        "op_tail_percentile": tail_pct,
        "op_tail_ops_beyond": beyond,
        "fail_frac": phase.failed / len(phase.latencies),
        "op_cpu_p50_s": statistics.median(phase.cpu),
        "op_wall_p50_s": statistics.median(phase.wall),
        "op_scaled_s": phase.latencies,
        "op_cpu_s": phase.cpu,
        "op_wall_s": phase.wall,
        "errors": phase.errors[:20],
    }
    return metrics, [phase], record


def per_layer(args, workload):
    """Traced run: the same ops untraced, then traced; per-layer metrics."""
    import rydgate
    import workloads

    imports = import_seconds(1 if args.smoke else IMPORT_REPEATS)
    workload.prepare_checks()
    half = args.seconds / 2
    base = measure(workload, workload.op, half, 1)
    n = len(base.latencies)
    phases = [base]
    cli_times = {}
    if args.workload == "cli":
        by_command = {}
        for i, t in enumerate(base.latencies):
            by_command.setdefault(workload.command(i), []).append(t)
        cli_times = {f"cli.{c}_s": statistics.median(ts) for c, ts in by_command.items()}
        base = measure(workload, workload.op_in_process, half, 1, n_ops=n)
        phases.append(base)
        in_process = workload.op_in_process
    else:
        in_process = workload.op
    tracer = tracing.Tracer()
    tracer.install(rydgate)
    try:
        traced = measure(workload, in_process, half, 1, n_ops=n, tracer=tracer)
    finally:
        tracer.uninstall()
    phases.append(traced)
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))

    layers = tracer.layer_metrics(n)
    metrics = dict(imports)
    metrics.update(layers)
    metrics["analysis.rydberg_time.rel_err"] = workload.rydberg_rel_err
    for command in workloads.Cli.COMMANDS:
        metrics[f"cli.{command}_s"] = cli_times.get(f"cli.{command}_s", 0.0)
    # Spans are wall-clock, so layer shares are taken of wall-clock op time.
    traced_op_s = sum(traced.wall) / n
    metrics["trace.overhead_frac"] = sum(traced.latencies) / sum(base.latencies) - 1.0
    attempted = sum(len(p.latencies) for p in phases)
    metrics["fail_frac"] = sum(p.failed for p in phases) / attempted
    shares = {name: metrics[f"{name}.self_s"] / traced_op_s for name in tracing.LAYERS}
    total_shares = {name: metrics[f"{name}.total_s"] / traced_op_s for name in tracing.LAYERS}
    record = {
        "ops_per_phase": n,
        # op_p50_s of the first, untraced phase: the base for layer shares.
        "untraced_op_p50_s": statistics.median(phases[0].latencies),
        "traced_op_wall_s": traced_op_s,
        "untraced_op_wall_s": sum(base.wall) / n,
        "layer_self_share_of_traced_op": shares,
        "layer_total_share_of_traced_op": total_shares,
        "unattributed_share": 1.0 - sum(shares.values()),
        "spans": len(tracer.start),
        "errors": [e for p in phases for e in p.errors][:20],
    }
    return metrics, phases, record


def main(argv=None):
    args = parse_args(argv)
    # Child interpreters (set-up probes, CLI commands) import rydgate from src.
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    try:
        workload = build(args)
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import the program from {SRC}: {exc}\n")
        return 2
    if args.setup_probe:
        return 0
    # One CPU for this process and its children, so the reference blocks
    # timed here run where the op runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    e2e_units, layer_units = declared_metrics()
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        metrics, phases, record = per_layer(args, workload)
        units = layer_units
    else:
        metrics, phases, record = end_to_end(args, workload)
        units = e2e_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    env = environment(args)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: {env['load']}")
    print(WAIT_NOTE)
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  attempted = {attempted}, failed = {failed}")
    for line in record.get("errors", []):
        print(f"  error: {line}")
    print("env " + json.dumps({**env, **{k: v for k, v in record.items()
                                         if k not in ("errors", "op_scaled_s", "op_cpu_s", "op_wall_s")}}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "record": record, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
