"""Packaging contract: NumPy is the only runtime dependency, the public names
are a fixed list, and the README's library example runs."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import rydgate

PROBE = """
import sys
before = set(sys.modules)
import rydgate
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(rydgate.BACKEND, sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "rydgate"}))
"""

PUBLIC_NAMES = [
    "BlockadeProtocolParams",
    "CalibrationError",
    "CalibrationResult",
    "DriveParams",
    "FidelityStats",
    "GateReport",
    "GeometricProtocolParams",
    "NoiseModel",
    "PulseSegment",
    "PulseSequence",
    "SweepRecord",
    "analyze_gate",
    "blockade_pdp_sequence",
    "calibrate_kappa",
    "controlled_phase",
    "fidelity_cphase",
    "gate_time_blockade",
    "gate_time_geometric",
    "geometric_sequence",
    "monte_carlo_fidelity",
    "phases_and_leakage",
    "pulse_area",
    "rydberg_time",
    "sequence_unitary",
    "sweep_kappa",
]

README = Path(__file__).resolve().parents[1] / "README.md"


def _fresh_interpreter(code):
    """stdout of ``code`` run in a fresh interpreter, because this test session has loaded more modules."""
    src = os.path.dirname(os.path.dirname(rydgate.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_loads_only_numpy():
    assert _fresh_interpreter(PROBE) == "pure []"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random adds about 20 ms to every command; only the Monte-Carlo draws import it.
    assert _fresh_interpreter("import sys, rydgate.cli; print('numpy.random' in sys.modules)") == "False"


def test_cli_import_leaves_the_ziggurat_tables_unloaded():
    # Only the Monte-Carlo draws read them; the other commands do not compile the module.
    assert _fresh_interpreter("import sys, rydgate.cli; print('rydgate._ziggurat' in sys.modules)") == "False"


def test_public_names_are_pinned_and_resolve():
    # A name added to or dropped from the public surface must be added here too.
    assert sorted(rydgate.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(rydgate, name) is not None, name


def test_readme_library_example_runs():
    (block,) = re.findall(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    report_line, kappa_line = out.getvalue().splitlines()
    controlled_phase, fidelity, gate_time = map(float, report_line.split())
    assert abs(controlled_phase) > 3.0 and fidelity > 0.99 and gate_time > 0
    assert round(float(kappa_line), 4) == 1.6451
