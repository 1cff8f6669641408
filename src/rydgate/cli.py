"""Command-line front end: simulate, sweep, calibrate, compare, robustness.

Every command reads its parameters from flags, optionally merged over a
plain ``key = value`` config file (flags win). Each handler maps the resolved
configuration to the text it prints; ``main`` alone writes that text, to stdout
or to ``--output``, and alone maps each outcome to an exit code: 0 success,
2 configuration error, unallocatable count or out-of-range result, 3 numerical
non-convergence. Identical configurations produce byte-identical output. CSV
numbers carry 12 significant digits and lines end in LF; JSON never holds NaN
or Infinity. A command loads only the modules it runs: ``sweep`` and
``calibrate`` import ``calibration`` in their handlers, ``robustness`` imports
``robustness``, and ``main`` imports ``CalibrationError`` only to map a
``RuntimeError``.
"""

import argparse
import json
import math
import re
import sys

from rydgate.analysis import analyze_gate
from rydgate.propagation import _require_finite, _require_positive
from rydgate.protocols import CZ_KAPPA_SEED, BlockadeProtocolParams, GeometricProtocolParams, protocol_sequence

SWEEP_HEADER = (
    "kappa,v_over_omega,gate_time_omega_over_pi,"
    "phi_c_wrapped_rad,phi_c_unwrapped_rad,leakage_max,fidelity_cz"
)
COMPARE_HEADER = (
    "protocol,gate_time,gate_time_omega_over_pi,fidelity_cz,pulse_area_rad,rydberg_time"
)
#: The ``_report_payload`` keys of COMPARE_HEADER's columns after ``protocol``.
_COMPARE_KEYS = ("gate_time", "gate_time_omega_over_pi", "fidelity", "pulse_area", "rydberg_time")


#: Default of an option that has none and must be given.
REQUIRED = object()


def _positive(value, name):
    if value is None:
        raise ValueError(f"missing required option: {name}")
    return _require_positive(value, name)


def _parse_config_file(path):
    values, first_line = {}, {}
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not part of the first key
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, equals, raw = (part.strip() for part in line.partition("="))
                if not (equals and key):
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                if key in first_line:
                    raise ValueError(f"{path}:{lineno}: config key {key} already given on line {first_line[key]}")
                first_line[key], values[key] = lineno, raw
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge(args, options):
    """Resolve each option from flags, then config file, then default."""
    raw = vars(args)
    file_values = _parse_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(options)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for key, (parse, default) in options.items():
        if raw.get(key) is not None:
            resolved[key] = raw[key]
        elif key in file_values:
            try:
                resolved[key] = parse(file_values[key])
            except ValueError as exc:
                raise ValueError(f"config key {key}: {exc}") from exc
        elif default is REQUIRED:
            raise ValueError(f"missing required option: {key.replace('_', '-')}")
        else:
            resolved[key] = default
    return resolved


def _parse_bracket(text):
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"bracket needs two numbers, got {text!r}")
    return [float(parts[0]), float(parts[1])]


def _write(text, output):
    if not output or output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file {output}: {exc}") from exc


def _csv(header, rows):
    """``header`` and one line per row, numbers at 12 significant digits."""
    lines = [header]
    lines += [",".join(x if isinstance(x, str) else format(float(x), ".12g") for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload):
    """Indented JSON; a NaN or an infinity raises ValueError, as RFC 8259 has neither."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


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
    """Protocol parameters and Rabi frequency of ``cfg``."""
    omega, v = cfg["omega"], cfg["v"]
    if cfg["protocol"] == "blockade":
        if cfg["kappa"] is not None:
            raise ValueError("blockade protocol takes no kappa")
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
        params = GeometricProtocolParams.from_omega(kappa, omega)
    elif v is not None:
        params = GeometricProtocolParams(kappa=kappa, v=v)
    else:
        raise ValueError("geometric protocol needs omega or v")
    return params, params.omega


def cmd_simulate(cfg):
    """simulate one gate protocol and print its report"""
    params, omega = _protocol(cfg)
    report = analyze_gate(protocol_sequence(params), target_phi=cfg["target_phi"])
    return _json({"protocol": cfg["protocol"], **_report_payload(report, omega)})


def cmd_sweep(cfg):
    """characterize the geometric protocol over a kappa range"""
    from rydgate.calibration import sweep_kappa

    records = sweep_kappa(cfg["kappa_min"], cfg["kappa_max"], cfg["n"])
    return _csv(SWEEP_HEADER, (vars(record).values() for record in records))  # fields in column order


def cmd_calibrate(cfg):
    """find kappa giving a target controlled phase"""
    from rydgate.calibration import calibrate_kappa

    result = calibrate_kappa(cfg["target_phi"], tuple(cfg["bracket"]), omega=cfg["omega"], seed_kappa=cfg["seed_kappa"])
    report = _report_payload(result.report, cfg["omega"])
    return _json({"kappa_star": result.kappa_star, "target_phi": cfg["target_phi"], "report": report})


def cmd_compare(cfg):
    """blockade vs geometric protocol at equal Rabi frequency"""
    omega = cfg["omega"]
    geo = GeometricProtocolParams.from_omega(cfg["kappa"], omega)
    blk = BlockadeProtocolParams(rabi=omega, v=_require_finite(cfg["blockade_v"], "blockade-v"))
    rows = []
    for name, params in (("blockade", blk), ("geometric", geo)):
        payload = _report_payload(analyze_gate(protocol_sequence(params), target_phi=cfg["target_phi"]), omega)
        rows.append((name, *(payload[key] for key in _COMPARE_KEYS)))
    return _csv(COMPARE_HEADER, rows)


def cmd_robustness(cfg):
    """Monte-Carlo fidelity under parameter noise"""
    from rydgate.robustness import NoiseModel, monte_carlo_fidelity

    protocol, _ = _protocol(cfg)
    # Spacing noise is relative, so the nominal spacing only sets C6: any r0 gives
    # the same V = C6 / (r0 (1 + eps_R))**6, and at r0 = 1, C6 = V exactly.
    noise = NoiseModel.for_interaction(
        v=protocol.v, r0=1.0, seed=cfg["seed"],
        sigma_omega_rel=cfg["sigma_omega_rel"], sigma_r_rel=cfg["sigma_r_rel"],
    )
    stats = monte_carlo_fidelity(protocol, noise, cfg["samples"])
    return _json({
        "protocol": cfg["protocol"],
        "seed": cfg["seed"],
        **vars(stats),
        "percentiles": dict(zip(("p1", "p5", "p50", "p95", "p99"), stats.percentiles)),
    })


#: Options as ``(parse, default)`` pairs: ``parse`` is the flag's type and reads
#: a config-file value. ``_COMMON`` are every command's options.
_COMMON = {"config": (str, None), "output": (str, None)}
_PROTOCOL = {"protocol": (str, REQUIRED), "kappa": (float, None), "omega": (float, None), "v": (float, None)}

#: Each command's handler, whose docstring is its help, and its options in flag order.
COMMANDS = {
    "simulate": (cmd_simulate, {**_COMMON, **_PROTOCOL, "target_phi": (float, math.pi)}),
    "sweep": (cmd_sweep, {
        **_COMMON, "kappa_min": (float, REQUIRED), "kappa_max": (float, REQUIRED), "n": (int, REQUIRED),
    }),
    "calibrate": (cmd_calibrate, {
        **_COMMON, "target_phi": (float, REQUIRED), "bracket": (_parse_bracket, REQUIRED),
        "omega": (float, 1.0), "seed_kappa": (float, CZ_KAPPA_SEED),
    }),
    "compare": (cmd_compare, {
        **_COMMON, "omega": (float, REQUIRED), "kappa": (float, REQUIRED), "blockade_v": (float, REQUIRED),
        "target_phi": (float, math.pi),
    }),
    "robustness": (cmd_robustness, {
        **_COMMON, **_PROTOCOL, "sigma_omega_rel": (float, 0.0), "sigma_r_rel": (float, 0.0),
        "seed": (int, REQUIRED), "samples": (int, 1000),
    }),
}

#: argparse settings of the flags not parsed by their schema type.
FLAG_SETTINGS = {
    "config": {"help": "key = value config file; flags override it"},
    "output": {"help": "output path ('-' or omitted: stdout)"},
    "protocol": {"choices": ("geometric", "blockade")},
    "bracket": {"type": float, "nargs": 2, "metavar": ("LO", "HI")},
}


#: An argument that starts with a negative number as ``float`` reads one, exponents, -inf and
#: -nan included, is a value: argparse's own pattern takes -1e17 and -inf for flags. No
#: rydgate flag matches it, since the only short one is -h.
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser():
    """One subcommand per command, one ``--flag-name`` per option."""
    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Two-atom Rydberg gate simulator and calibration toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, options) in COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for key, (parse, _) in options.items():
            settings = FLAG_SETTINGS.get(key, {"type": parse})
            p.add_argument("--" + key.replace("_", "-"), dest=key, **settings)
    return parser


def main(argv=None):
    """Run one command line: the one place that writes output and picks the exit code."""
    args = build_parser().parse_args(argv)
    handler, options = COMMANDS[args.command]
    try:
        cfg = _merge(args, options)
        _write(handler(cfg), cfg["output"])
    except RuntimeError as exc:  # a CalibrationError, imported only when one may have been raised
        from rydgate.calibration import CalibrationError

        if not isinstance(exc, CalibrationError):
            raise
        sys.stderr.write(f"calibration failed: {exc}\n" + _csv("kappa,phi_c_wrapped_rad", exc.scan))
        return 3
    except (ValueError, MemoryError) as exc:  # a rejected value, or a count too large to allocate
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
