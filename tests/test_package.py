"""Packaging contract: NumPy is the only runtime dependency, the public names
are a fixed list that resolves on first use, a command loads only the modules
it runs, every import in the source is used, and the README's library example runs."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import COMMANDS, FAILING

import rydgate

PROBE = """
import sys
before = set(sys.modules)
import rydgate
for name in dir(rydgate):  # resolve every name, loading each submodule
    getattr(rydgate, name)
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
SOURCE = Path(__file__).resolve().parents[1] / "src" / "rydgate"


SUBMODULES = ["_kernels", "analysis", "calibration", "propagation", "protocols", "robustness"]

#: Each public name, BACKEND and each submodule is listed by dir() before first use, resolves to the
#: object its submodule defines, and is then kept in the package namespace.
RESOLVE = f"""
import rydgate
names = [*rydgate.__all__, "BACKEND", *{SUBMODULES}]
listed = set(dir(rydgate)) >= set(names)
kept = all(getattr(rydgate, name) is vars(rydgate)[name] for name in names)
homes = all(getattr(rydgate, n) is getattr(getattr(rydgate, m), n) for n, m in rydgate._HOMES.items())
print(listed, kept, homes, rydgate.robustness.SAMPLE_BLOCK)
"""

#: Run one command line (JSON argv) through ``rydgate.cli.main``; print its exit code and the rydgate modules loaded.
RUN_MAIN = """
import contextlib, io, json, sys
import rydgate.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = rydgate.cli.main(json.loads(sys.argv[1]))
print(code, *sorted(name for name in sys.modules if name.split(".")[0] == "rydgate"))
"""
#: What every command loads, and what each command loads beyond it.
CLI_CORE = {
    "rydgate", "rydgate.cli", "rydgate._kernels", "rydgate._kernels.pure",
    "rydgate.analysis", "rydgate.propagation", "rydgate.protocols",
}
COMMAND_MODULES = {
    "simulate": set(),
    "compare": set(),
    "sweep": {"rydgate.calibration"},
    "calibrate": {"rydgate.calibration"},
    "robustness": {"rydgate.robustness"},
}


def _fresh_interpreter(code, *args):
    """stdout of ``code`` run in a fresh interpreter, because this test session has loaded more modules."""
    src = os.path.dirname(os.path.dirname(rydgate.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_loads_only_numpy():
    assert _fresh_interpreter(PROBE) == "pure []"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random adds about 20 ms to every command; only the Monte-Carlo draws import it.
    assert _fresh_interpreter("import sys, rydgate.cli; print('numpy.random' in sys.modules)") == "False"


def test_bare_import_loads_no_submodule_and_not_numpy():
    probe = "import sys, rydgate; print(*sorted(n for n in sys.modules if n.startswith(('rydgate.', 'numpy'))))"
    assert _fresh_interpreter(probe) == ""


def test_names_resolve_on_first_use_and_are_kept():
    assert _fresh_interpreter(RESOLVE) == "True True True 4096"


def test_all_is_the_table_without_backend():
    assert rydgate.__all__ == sorted(rydgate._HOMES.keys() - {"BACKEND"})


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="^module 'rydgate' has no attribute 'nope'$"):
        rydgate.nope
    with pytest.raises(ImportError, match="^cannot import name 'nope' from 'rydgate'"):
        from rydgate import nope  # noqa: F401


@pytest.mark.parametrize("name, argv", [*sorted(COMMANDS.items()), FAILING], ids=[*sorted(COMMANDS), FAILING[0]])
def test_each_command_loads_only_the_modules_it_runs(name, argv):
    code, *loaded = _fresh_interpreter(RUN_MAIN, json.dumps(argv)).split()
    assert int(code) == (3 if (name, argv) == FAILING else 0)
    assert set(loaded) == CLI_CORE | COMMAND_MODULES[argv[0]]


def test_public_names_are_pinned_and_resolve():
    # A name added to or dropped from the public surface must be added here too.
    assert sorted(rydgate.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(rydgate, name) is not None, name


def test_every_imported_name_is_used_in_its_module():
    # perfbench wraps ``sequence_unitary`` where calibration and robustness import it: each of
    # those imports must stay a name the module calls, not one kept only for the benchmark.
    unused = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(SOURCE)}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_readme_library_example_runs():
    (block,) = re.findall(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    report_line, kappa_line = out.getvalue().splitlines()
    controlled_phase, fidelity, gate_time = map(float, report_line.split())
    assert abs(controlled_phase) > 3.0 and fidelity > 0.99 and gate_time > 0
    assert round(float(kappa_line), 4) == 1.6451
