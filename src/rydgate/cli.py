"""Command-line front end: simulate, sweep, calibrate, compare, robustness.

Every command reads its parameters from flags, optionally merged over a
plain ``key = value`` config file (flags win). Output goes to stdout or to
``--output``; identical configurations produce byte-identical output. CSV
numbers carry 12 significant digits and lines end in LF. Exit codes:
0 success, 2 configuration error, 3 numerical non-convergence.
"""

import argparse
import json
import math
import sys

from rydgate.analysis import analyze_gate
from rydgate.calibration import CalibrationError, calibrate_kappa, sweep_kappa
from rydgate.protocols import (
    CZ_KAPPA_SEED,
    BlockadeProtocolParams,
    GeometricProtocolParams,
    protocol_sequence,
)
from rydgate.robustness import NoiseModel, monte_carlo_fidelity

SWEEP_HEADER = (
    "kappa,v_over_omega,gate_time_omega_over_pi,"
    "phi_c_wrapped_rad,phi_c_unwrapped_rad,leakage_max,fidelity_cz"
)
COMPARE_HEADER = (
    "protocol,gate_time,gate_time_omega_over_pi,fidelity_cz,pulse_area_rad,rydberg_time"
)


def _fmt(x):
    """12-significant-digit decimal rendering used in all CSV output."""
    return format(float(x), ".12g")


def _positive(value, name):
    if value is None:
        raise ValueError(f"missing required option: {name}")
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _parse_config_file(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, raw = line.partition("=")
                values[key.strip()] = raw.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge(args, schema):
    """Resolve each schema key from flags, then config file, then default."""
    raw = vars(args)
    file_values = _parse_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(schema)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for key, (parse, default, required) in schema.items():
        if raw.get(key) is not None:
            resolved[key] = raw[key]
        elif key in file_values:
            try:
                resolved[key] = parse(file_values[key])
            except ValueError as exc:
                raise ValueError(f"config key {key}: {exc}") from exc
        else:
            if required and default is None:
                raise ValueError(f"missing required option: {key.replace('_', '-')}")
            resolved[key] = default
    return resolved


def _parse_bracket(text):
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"bracket needs two numbers, got {text!r}")
    return [float(parts[0]), float(parts[1])]


def _emit(text, output):
    if output and output != "-":
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_payload(report, omega):
    names = ("phi_00", "phi_01", "phi_10", "phi_11")
    return {
        "phases": dict(zip(names, report.phases)),
        "controlled_phase_wrapped": report.controlled_phase,
        "controlled_phase_unwrapped": report.controlled_phase_unwrapped,
        "leakage_max": report.leakage_max,
        "fidelity": report.fidelity,
        "gate_time": report.gate_time,
        "gate_time_omega_over_pi": report.gate_time * omega / math.pi,
        "pulse_area": report.pulse_area,
        "rydberg_time": report.rydberg_time,
    }


def _protocol(cfg):
    """Protocol parameters and Rabi frequency of ``simulate`` and ``robustness``."""
    omega, v = cfg["omega"], cfg["v"]
    if cfg["protocol"] == "blockade":
        omega = _positive(omega, "omega")
        if v is None:
            raise ValueError("blockade protocol needs v")
        return BlockadeProtocolParams(rabi=omega, v=v), omega
    if cfg["protocol"] != "geometric":
        raise ValueError(f"unknown protocol: {cfg['protocol']!r}")
    kappa = _positive(cfg["kappa"], "kappa")
    if omega is not None and v is not None:
        raise ValueError("give either omega or v for the geometric protocol, not both")
    if omega is not None:
        params = GeometricProtocolParams.from_omega(kappa, _positive(omega, "omega"))
    elif v is not None:
        params = GeometricProtocolParams(kappa=kappa, v=_positive(v, "v"))
    else:
        raise ValueError("geometric protocol needs omega or v")
    return params, params.omega


def cmd_simulate(cfg):
    params, omega = _protocol(cfg)
    report = analyze_gate(protocol_sequence(params), target_phi=cfg["target_phi"])
    payload = {"protocol": cfg["protocol"], **_report_payload(report, omega)}
    _emit(json.dumps(payload, indent=2) + "\n", cfg["output"])
    return 0


def cmd_sweep(cfg):
    records = sweep_kappa(cfg["kappa_min"], cfg["kappa_max"], cfg["n"], omega=cfg["omega"])
    lines = [SWEEP_HEADER]
    for r in records:
        lines.append(
            ",".join(
                _fmt(x)
                for x in (
                    r.kappa,
                    r.v_over_omega,
                    r.gate_time_omega_over_pi,
                    r.phi_c_wrapped,
                    r.phi_c_unwrapped,
                    r.leakage_max,
                    r.fidelity_cz,
                )
            )
        )
    _emit("\n".join(lines) + "\n", cfg["output"])
    return 0


def cmd_calibrate(cfg):
    bracket = cfg["bracket"]
    try:
        result = calibrate_kappa(
            cfg["target_phi"],
            (bracket[0], bracket[1]),
            omega=cfg["omega"],
            seed_kappa=cfg["seed_kappa"],
        )
    except CalibrationError as exc:
        sys.stderr.write(f"calibration failed: {exc}\n")
        sys.stderr.write("kappa,phi_c_wrapped_rad\n")
        for kappa, phi in exc.scan:
            sys.stderr.write(f"{_fmt(kappa)},{_fmt(phi)}\n")
        return 3
    payload = {
        "kappa_star": result.kappa_star,
        "target_phi": cfg["target_phi"],
        "report": _report_payload(result.report, cfg["omega"]),
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg["output"])
    return 0


def cmd_compare(cfg):
    omega = _positive(cfg["omega"], "omega")
    geo = GeometricProtocolParams.from_omega(_positive(cfg["kappa"], "kappa"), omega)
    blk = BlockadeProtocolParams(rabi=omega, v=_positive(cfg["blockade_v"], "blockade-v"))
    rows = []
    for name, params in (("blockade", blk), ("geometric", geo)):
        report = analyze_gate(protocol_sequence(params), target_phi=cfg["target_phi"])
        rows.append(
            name
            + ","
            + ",".join(
                _fmt(x)
                for x in (
                    report.gate_time,
                    report.gate_time * omega / math.pi,
                    report.fidelity,
                    report.pulse_area,
                    report.rydberg_time,
                )
            )
        )
    _emit("\n".join([COMPARE_HEADER] + rows) + "\n", cfg["output"])
    return 0


def cmd_robustness(cfg):
    protocol, _ = _protocol(cfg)
    noise = NoiseModel.for_interaction(
        v=protocol.v,
        r0=_positive(cfg["r0"], "r0"),
        sigma_omega_rel=cfg["sigma_omega_rel"],
        sigma_r_rel=cfg["sigma_r_rel"],
        seed=cfg["seed"],
    )
    stats = monte_carlo_fidelity(protocol, noise, cfg["samples"])
    payload = {
        "protocol": cfg["protocol"],
        "seed": cfg["seed"],
        "n_samples": stats.n_samples,
        "mean_fidelity": stats.mean_fidelity,
        "std_fidelity": stats.std_fidelity,
        "percentiles": dict(zip(("p1", "p5", "p50", "p95", "p99"), stats.percentiles)),
        "mean_abs_phase_error": stats.mean_abs_phase_error,
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg["output"])
    return 0


_COMMON = {
    "config": (str, None, False),
    "output": (str, None, False),
}

SCHEMAS = {
    "simulate": {
        **_COMMON,
        "protocol": (str, None, True),
        "kappa": (float, None, False),
        "omega": (float, None, False),
        "v": (float, None, False),
        "target_phi": (float, math.pi, False),
    },
    "sweep": {
        **_COMMON,
        "kappa_min": (float, None, True),
        "kappa_max": (float, None, True),
        "n": (int, None, True),
        "omega": (float, 1.0, False),
    },
    "calibrate": {
        **_COMMON,
        "target_phi": (float, None, True),
        "bracket": (_parse_bracket, None, True),
        "omega": (float, 1.0, False),
        "seed_kappa": (float, CZ_KAPPA_SEED, False),
    },
    "compare": {
        **_COMMON,
        "omega": (float, None, True),
        "kappa": (float, None, True),
        "blockade_v": (float, None, True),
        "target_phi": (float, math.pi, False),
    },
    "robustness": {
        **_COMMON,
        "protocol": (str, None, True),
        "kappa": (float, None, False),
        "omega": (float, None, False),
        "v": (float, None, False),
        "sigma_omega_rel": (float, 0.0, False),
        "sigma_r_rel": (float, 0.0, False),
        "r0": (float, 1.0, False),
        "seed": (int, None, True),
        "samples": (int, 1000, False),
    },
}

HANDLERS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
    "compare": cmd_compare,
    "robustness": cmd_robustness,
}


COMMAND_HELP = {
    "simulate": "simulate one gate protocol and print its report",
    "sweep": "characterize the geometric protocol over a kappa range",
    "calibrate": "find kappa giving a target controlled phase",
    "compare": "blockade vs geometric protocol at equal Rabi frequency",
    "robustness": "Monte-Carlo fidelity under parameter noise",
}

#: argparse settings of the flags not parsed by their schema type.
FLAG_SETTINGS = {
    "config": {"help": "key = value config file; flags override it"},
    "output": {"help": "output path ('-' or omitted: stdout)"},
    "protocol": {"choices": ("geometric", "blockade")},
    "bracket": {"type": float, "nargs": 2, "metavar": ("LO", "HI")},
}


def build_parser():
    """One subcommand per schema, one ``--flag-name`` per schema key."""
    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Two-atom Rydberg gate simulator and calibration toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command, help=COMMAND_HELP[command])
        for key, (parse, _, _) in schema.items():
            settings = FLAG_SETTINGS.get(key, {"type": parse})
            p.add_argument("--" + key.replace("_", "-"), dest=key, **settings)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge(args, SCHEMAS[args.command])
        return HANDLERS[args.command](cfg)
    except ValueError as exc:  # every rejected option or value
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
