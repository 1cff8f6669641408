"""The benchmark's four workloads: inputs from the seed, one op, output checks.

Every workload builds its inputs from the benchmark seed alone and reaches
rydgate only through public names looked up on the package at call time
(``rydgate.X``), so the traced run sees every call. An op returns its
output; ``check`` raises :class:`CheckFailed` when that output is wrong.
Checks compare against :mod:`oracle`, closed forms, the in-process library
or earlier ops of the same run, never against the op itself.
"""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import oracle

import rydgate
import rydgate.cli

# Tolerances. The Rydberg-time bound is relative to the exact integral; it
# accepts the 256-interval trapezoid (at most 2.1e-6 on these gates) and an
# exact replacement, and rejects a gate with wrong dynamics.
REL_CLOSED_FORM = 1e-12
REL_RYDBERG_TIME = 1e-5
ABS_PHASE = 1e-9
ABS_LEAKAGE = 1e-9
CALIBRATION_TOL = 1e-6
REL_LIBRARY = 1e-12
ABS_LIBRARY = 1e-14


class CheckFailed(AssertionError):
    """An op's output is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def close(a, b, rel=REL_LIBRARY, abs_tol=ABS_LIBRARY):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


class Workload:
    """One benchmark workload. ``round_size`` ops form a unit the loop never splits."""

    name = ""
    round_size = 1
    #: Largest relative Rydberg-time error seen in checked outputs.
    rydberg_rel_err = 0.0

    def warm_up(self):
        """Touch every code path once so first-call costs land in set-up."""

    def prepare_checks(self):
        """Compute check references before timing starts (not part of set-up)."""

    def items(self, i):
        """Requested results delivered by op ``i``."""
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError

    def check(self, i, out):
        raise NotImplementedError

    def _check_report(self, report, gate):
        """Compare a GateReport with the oracle gate it should describe."""
        require(rel_err(report.gate_time, gate.gate_time) < REL_CLOSED_FORM, "gate time")
        require(rel_err(report.pulse_area, gate.pulse_area) < REL_CLOSED_FORM, "pulse area")
        err = rel_err(report.rydberg_time, gate.rydberg_time)
        self.rydberg_rel_err = max(self.rydberg_rel_err, err)
        require(err < REL_RYDBERG_TIME, f"rydberg time off by {err:.2e} relative")
        require(
            abs(oracle.wrap(report.controlled_phase - gate.controlled_phase)) < ABS_PHASE,
            "controlled phase",
        )
        require(abs(report.leakage_max - gate.leakage_max) < ABS_LEAKAGE, "leakage")
        require(0.0 <= report.fidelity <= 1.0, "fidelity out of [0, 1]")


def _noise(protocol, seed):
    return rydgate.NoiseModel.for_interaction(
        v=protocol.v, r0=1.0, sigma_omega_rel=0.01, sigma_r_rel=0.005, seed=seed
    )


class MonteCarlo(Workload):
    """Monte-Carlo fidelity of the geometric and blockade gates under noise."""

    name = "montecarlo"

    def __init__(self, seed, smoke=False):
        # 1000 samples per gate, not the README's 2000: a run needs 25 ops
        # for its tail, and 25 ops of 4000 gates took over a minute.
        self.samples = 20 if smoke else 1000
        self.noise_seed = random.Random(seed).getrandbits(32)
        self.first = None

    def _run(self, samples):
        geo = rydgate.GeometricProtocolParams.from_omega(1.65, 1.0)
        blk = rydgate.BlockadeProtocolParams(rabi=1.0, v=100.0)
        return tuple(
            rydgate.monte_carlo_fidelity(p, _noise(p, self.noise_seed), samples)
            for p in (geo, blk)
        )

    def warm_up(self):
        self._run(2)

    def items(self, i):
        return 2 * self.samples

    def op(self, i):
        return self._run(self.samples)

    def check(self, i, out):
        for stats in out:
            require(stats.n_samples == self.samples, "sample count")
            require(0.99 <= stats.mean_fidelity <= 1.0, "implausible mean fidelity")
            require(stats.std_fidelity >= 0.0, "negative spread")
            require(list(stats.percentiles) == sorted(stats.percentiles), "percentile order")
            require(math.isfinite(stats.mean_abs_phase_error), "phase error")
        if self.first is None:
            self.first = out
        require(out == self.first, "same seed gave different FidelityStats")


class Scan(Workload):
    """A 200-point kappa sweep and three calibrations to seed-drawn targets."""

    name = "scan"
    KAPPA_RANGE = (0.2, 2.5)
    BRACKET = (1.0, 2.5)
    README_TARGET = -3.14159265358979

    def __init__(self, seed, smoke=False):
        self.points = 20 if smoke else 200
        rng = random.Random(seed)
        # Wrapped phases the bracket reaches with margin: phi_c rises from
        # 1.05 at kappa = 1 through pi near 1.645 and ends at -2.06.
        drawn = []
        for _ in range(0 if smoke else 2):
            x = rng.uniform(0.0, 2.7)
            drawn.append(1.2 + x if x < 1.8 else -3.0 + (x - 1.8))
        self.targets = [self.README_TARGET] + drawn

    def warm_up(self):
        rydgate.sweep_kappa(*self.KAPPA_RANGE, 2)
        rydgate.calibrate_kappa(self.README_TARGET, self.BRACKET)

    def prepare_checks(self):
        self.kappas = [
            self.KAPPA_RANGE[0] + (self.KAPPA_RANGE[1] - self.KAPPA_RANGE[0]) * j / (self.points - 1)
            for j in range(self.points)
        ]
        self.sweep_ref = [oracle.geometric(k) for k in self.kappas]

    def items(self, i):
        return self.points + len(self.targets)

    def op(self, i):
        sweep = rydgate.sweep_kappa(*self.KAPPA_RANGE, self.points)
        cals = [rydgate.calibrate_kappa(t, self.BRACKET) for t in self.targets]
        return sweep, cals

    def check(self, i, out):
        sweep, cals = out
        require(len(sweep) == self.points, "sweep length")
        for rec, kappa, gate in zip(sweep, self.kappas, self.sweep_ref):
            require(close(rec.kappa, kappa, abs_tol=0.0), "sweep kappa grid")
            require(
                rel_err(rec.gate_time_omega_over_pi, gate.gate_time / math.pi) < REL_CLOSED_FORM,
                "sweep gate time",
            )
            require(abs(oracle.wrap(rec.phi_c_wrapped - gate.controlled_phase)) < ABS_PHASE, "sweep phase")
            require(abs(oracle.wrap(rec.phi_c_unwrapped - rec.phi_c_wrapped)) < ABS_PHASE, "unwrapped phase")
            require(abs(rec.leakage_max - gate.leakage_max) < ABS_LEAKAGE, "sweep leakage")
            require(0.0 <= rec.fidelity_cz <= 1.0, "sweep fidelity")
        require(len(cals) == len(self.targets), "calibration count")
        for result, target in zip(cals, self.targets):
            require(self.BRACKET[0] <= result.kappa_star <= self.BRACKET[1], "kappa* outside bracket")
            gate = oracle.geometric(result.kappa_star)
            require(
                abs(oracle.wrap(gate.controlled_phase - target)) < CALIBRATION_TOL,
                f"phi_c(kappa*) misses target {target}",
            )
            self._check_report(result.report, gate)


class Characterize(Workload):
    """analyze_gate on a seed-drawn batch of geometric and blockade gates."""

    name = "characterize"

    def __init__(self, seed, smoke=False):
        rng = random.Random(seed)
        half = 2 if smoke else 25
        gates = [("geometric", rng.uniform(0.5, 2.5)) for _ in range(half)]
        gates += [("blockade", 10.0 * 2.0 ** rng.uniform(0.0, 7.0)) for _ in range(half)]
        rng.shuffle(gates)
        self.gates = gates

    def _sequence(self, kind, x):
        if kind == "geometric":
            return rydgate.geometric_sequence(rydgate.GeometricProtocolParams.from_omega(x, 1.0))
        return rydgate.blockade_pdp_sequence(rydgate.BlockadeProtocolParams(rabi=1.0, v=x))

    def warm_up(self):
        rydgate.analyze_gate(self._sequence("geometric", 1.65))
        rydgate.analyze_gate(self._sequence("blockade", 100.0))

    def prepare_checks(self):
        self.refs = [
            oracle.geometric(x) if kind == "geometric" else oracle.blockade(1.0, x)
            for kind, x in self.gates
        ]

    def items(self, i):
        return len(self.gates)

    def op(self, i):
        return [rydgate.analyze_gate(self._sequence(kind, x)) for kind, x in self.gates]

    def check(self, i, out):
        require(len(out) == len(self.gates), "report count")
        for report, (kind, x), gate in zip(out, self.gates, self.refs):
            closed = oracle.gate_time_geometric(x, 1.0) if kind == "geometric" else oracle.gate_time_blockade(1.0)
            require(rel_err(report.gate_time, closed) < REL_CLOSED_FORM, "closed-form gate time")
            self._check_report(report, gate)


PHASE_KEYS = ["phi_00", "phi_01", "phi_10", "phi_11"]
PERCENTILE_KEYS = ["p1", "p5", "p50", "p95", "p99"]
SWEEP_HEADER = (
    "kappa,v_over_omega,gate_time_omega_over_pi,"
    "phi_c_wrapped_rad,phi_c_unwrapped_rad,leakage_max,fidelity_cz"
)
COMPARE_HEADER = "protocol,gate_time,gate_time_omega_over_pi,fidelity_cz,pulse_area_rad,rydberg_time"


def _report_payload(report, omega):
    """The README's JSON report layout, built from public GateReport fields."""
    return {
        "phases": dict(zip(PHASE_KEYS, report.phases)),
        "controlled_phase_wrapped": report.controlled_phase,
        "controlled_phase_unwrapped": report.controlled_phase_unwrapped,
        "leakage_max": report.leakage_max,
        "fidelity": report.fidelity,
        "gate_time": report.gate_time,
        "gate_time_omega_over_pi": report.gate_time * omega / math.pi,
        "pulse_area": report.pulse_area,
        "rydberg_time": report.rydberg_time,
    }


def _same_json(got, want, path="$"):
    """Same keys in the same order, numbers within 1e-12 relative."""
    if isinstance(want, dict):
        require(isinstance(got, dict) and list(got) == list(want), f"keys at {path}")
        for key in want:
            _same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, str) or isinstance(want, int) and not isinstance(want, bool):
        require(got == want, f"value at {path}")
    else:
        require(isinstance(got, float) and close(got, float(want)), f"number at {path}")


def _same_csv(text, header, rows):
    """Exact header; each field equals the library value at 12 significant digits."""
    lines = text.split("\n")
    require(lines[-1] == "" and "\r" not in text, "CSV line endings")
    require(lines[0] == header, "CSV header")
    require(len(lines) - 2 == len(rows), "CSV row count")
    for line, row in zip(lines[1:-1], rows):
        fields = line.split(",")
        require(len(fields) == len(row), "CSV field count")
        for field, want in zip(fields, row):
            if isinstance(want, str):
                require(field == want, "CSV label")
            else:
                require(close(float(field), float(format(want, ".12g"))), "CSV number")


class Cli(Workload):
    """The six README command lines, each a fresh ``python -m rydgate.cli`` process.

    The children find rydgate through ``PYTHONPATH``, which ``run.py`` sets.
    """

    name = "cli"
    COMMANDS = (
        "simulate_geometric",
        "simulate_blockade",
        "sweep",
        "calibrate",
        "compare",
        "robustness",
    )
    round_size = len(COMMANDS)

    def __init__(self, seed, smoke=False, out_dir="."):
        rng = random.Random(seed)
        self.noise_seed = rng.getrandbits(31)
        self.points = 20 if smoke else 200
        self.samples = 20 if smoke else 2000
        self.sweep_path = os.path.join(out_dir, f"sweep-{os.getpid()}.csv")
        self.argv = {
            "simulate_geometric": ["simulate", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1"],
            "simulate_blockade": ["simulate", "--protocol", "blockade", "--omega", "1", "--v", "100"],
            "sweep": ["sweep", "--kappa-min", "0.2", "--kappa-max", "2.5", "--n", str(self.points),
                      "--output", self.sweep_path],
            "calibrate": ["calibrate", "--target-phi", "-3.14159265358979", "--bracket", "1.0", "2.5"],
            "compare": ["compare", "--omega", "1", "--kappa", "1.65", "--blockade-v", "100"],
            "robustness": ["robustness", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1",
                           "--sigma-omega-rel", "0.01", "--sigma-r-rel", "0.005",
                           "--seed", str(self.noise_seed), "--samples", str(self.samples)],
        }
        # Each round runs all six commands in a seed-drawn order.
        self._rng = rng
        self._order = []
        self.first_bytes = {}
        self.child_rss_kb = 0

    def command(self, i):
        while len(self._order) <= i:
            order = list(self.COMMANDS)
            self._rng.shuffle(order)
            self._order.extend(order)
        return self._order[i]

    def items(self, i):
        return 1

    def _output(self, name, stdout):
        if name == "sweep":
            with open(self.sweep_path, "rb") as fh:
                return fh.read()
        return stdout

    def op(self, i):
        """Run one command as a child process; returns (exit code, output bytes)."""
        name = self.command(i)
        proc = subprocess.Popen(
            [sys.executable, "-m", "rydgate.cli", *self.argv[name]],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        with proc.stdout:
            stdout = proc.stdout.read()
        # wait4 instead of wait: it also returns the child's peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, self._output(name, stdout)

    def op_in_process(self, i):
        """Run one command through ``rydgate.cli.main`` in this process."""
        name = self.command(i)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = rydgate.cli.main(list(self.argv[name]))
        return code, self._output(name, buf.getvalue().encode())

    def prepare_checks(self):
        geo = rydgate.GeometricProtocolParams.from_omega(1.65, 1.0)
        blk = rydgate.BlockadeProtocolParams(rabi=1.0, v=100.0)
        geo_report = rydgate.analyze_gate(rydgate.geometric_sequence(geo))
        blk_report = rydgate.analyze_gate(rydgate.blockade_pdp_sequence(blk))
        cal = rydgate.calibrate_kappa(-3.14159265358979, (1.0, 2.5))
        stats = rydgate.monte_carlo_fidelity(geo, _noise(geo, self.noise_seed), self.samples)
        sweep = rydgate.sweep_kappa(0.2, 2.5, self.points)
        self.expected = {
            "simulate_geometric": {"protocol": "geometric", **_report_payload(geo_report, 1.0)},
            "simulate_blockade": {"protocol": "blockade", **_report_payload(blk_report, 1.0)},
            "calibrate": {
                "kappa_star": cal.kappa_star,
                "target_phi": -3.14159265358979,
                "report": _report_payload(cal.report, 1.0),
            },
            "robustness": {
                "protocol": "geometric",
                "seed": self.noise_seed,
                "n_samples": stats.n_samples,
                "mean_fidelity": stats.mean_fidelity,
                "std_fidelity": stats.std_fidelity,
                "percentiles": dict(zip(PERCENTILE_KEYS, stats.percentiles)),
                "mean_abs_phase_error": stats.mean_abs_phase_error,
            },
            "sweep": [
                (r.kappa, r.v_over_omega, r.gate_time_omega_over_pi, r.phi_c_wrapped,
                 r.phi_c_unwrapped, r.leakage_max, r.fidelity_cz)
                for r in sweep
            ],
            "compare": [
                (name, rep.gate_time, rep.gate_time / math.pi, rep.fidelity, rep.pulse_area,
                 rep.rydberg_time)
                for name, rep in (("blockade", blk_report), ("geometric", geo_report))
            ],
        }
        self.rydberg_refs = {
            "simulate_geometric": [oracle.geometric(1.65)],
            "simulate_blockade": [oracle.blockade(1.0, 100.0)],
            "compare": [oracle.blockade(1.0, 100.0), oracle.geometric(1.65)],
        }

    def _rydberg_times(self, name, text):
        if name == "compare":
            return [float(line.split(",")[-1]) for line in text.split("\n")[1:-1]]
        payload = json.loads(text)
        return [payload.get("report", payload)["rydberg_time"]]

    def check(self, i, out):
        name = self.command(i)
        code, data = out
        require(code == 0, f"{name} exited with {code}")
        text = data.decode()
        want = self.expected[name]
        if name == "sweep":
            _same_csv(text, SWEEP_HEADER, want)
        elif name == "compare":
            _same_csv(text, COMPARE_HEADER, want)
        else:
            _same_json(json.loads(text), want)
        refs = self.rydberg_refs.get(name)
        if name == "calibrate":
            refs = [oracle.geometric(json.loads(text)["kappa_star"])]
        for value, gate in zip(self._rydberg_times(name, text), refs) if refs else ():
            err = rel_err(value, gate.rydberg_time)
            self.rydberg_rel_err = max(self.rydberg_rel_err, err)
            require(err < REL_RYDBERG_TIME, f"{name} rydberg time off by {err:.2e}")
        first = self.first_bytes.setdefault(name, data)
        require(data == first, f"{name} output bytes changed between invocations")


WORKLOADS = {w.name: w for w in (MonteCarlo, Scan, Characterize, Cli)}

