"""README command lines against committed golden outputs.

``tests/golden/`` holds the stdout (or ``--output`` file) of each README
command, plus a blockade robustness run (and the stderr of a calibration
with no sign change, which ``tests/test_cli.py`` pins byte for byte). CSV
must match byte for byte.
JSON must have the same keys in the same order and every number within
1e-12 relative, because batched LAPACK calls may move a last digit.

Run as a script, ``python tests/test_golden.py COMMAND...`` runs every line of
``COMMANDS`` through an installed front end, say ``rydgate`` or
``python -m rydgate.cli``, requires it to exit 0 with empty stdout and stderr
(so a stray NumPy warning fails), and checks its ``--output`` file by the same rule.
It then runs ``FAILING``, a calibration with no sign change, and checks that
it exits 3 with empty stdout and the golden stderr, byte for byte.
With no front end it prints its usage and exits 2.
"""

import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import rydgate
from rydgate.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"
USAGE = "usage: python tests/test_golden.py COMMAND..."

COMMANDS = {
    "simulate_geometric.json": ["simulate", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1"],
    "simulate_blockade.json": ["simulate", "--protocol", "blockade", "--omega", "1", "--v", "100"],
    "sweep.csv": ["sweep", "--kappa-min", "0.2", "--kappa-max", "2.5", "--n", "200"],
    "calibrate.json": ["calibrate", "--target-phi", "-3.14159265358979", "--bracket", "1.0", "2.5"],
    "compare.csv": ["compare", "--omega", "1", "--kappa", "1.65", "--blockade-v", "100"],
    "robustness_geometric.json": [
        "robustness", "--protocol", "geometric", "--kappa", "1.65", "--omega", "1",
        "--sigma-omega-rel", "0.01", "--sigma-r-rel", "0.005", "--seed", "42", "--samples", "2000",
    ],
    "robustness_blockade.json": [
        "robustness", "--protocol", "blockade", "--omega", "1", "--v", "100",
        "--sigma-omega-rel", "0.01", "--sigma-r-rel", "0.005", "--seed", "7", "--samples", "500",
    ],
}

#: The golden stderr of a calibration with no sign change, and its command line.
FAILING = ("calibrate_no_sign_change.stderr", ["calibrate", "--target-phi", "10", "--bracket", "2.0", "2.5"])


def assert_same_json(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, path


def assert_matches_golden(name, got):
    """Check ``got``, the bytes a command wrote, against golden ``name``: CSV byte for
    byte, JSON by ``assert_same_json``."""
    want = (GOLDEN / name).read_bytes()
    if name.endswith(".csv"):
        assert got == want, name
    else:
        assert_same_json(json.loads(got), json.loads(want), name)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_matches_golden(name, tmp_path, capsys):
    out_path = tmp_path / name
    assert main([*COMMANDS[name], "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert_matches_golden(name, out_path.read_bytes())


def test_readme_command_lines_are_the_first_six():
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").replace(" --output sweep.csv", "").splitlines()
    readme = [shlex.split(line) for line in lines]
    assert all(argv[0] == "rydgate" for argv in readme)
    assert [argv[1:] for argv in readme] == list(COMMANDS.values())[:6]


def test_script_without_front_end_prints_usage():
    src = os.path.dirname(os.path.dirname(rydgate.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (2, "", USAGE + "\n")


def test_script_fails_a_command_that_writes_to_stderr(tmp_path):
    # A front end that warns on stderr, then runs the CLI: the output would match.
    warning = "import sys, runpy; sys.stderr.write('RuntimeWarning: stray\\n'); "
    warning += "runpy.run_module('rydgate.cli', run_name='__main__')"
    src = os.path.dirname(os.path.dirname(rydgate.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, __file__, sys.executable, "-c", warning],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert "AssertionError" in result.stderr and "RuntimeWarning: stray" in result.stderr
    assert result.stdout == ""  # it failed on the first command


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            out_path = Path(tmp) / name
            result = subprocess.run([*sys.argv[1:], *argv, "--output", str(out_path)], capture_output=True)
            assert (result.returncode, result.stdout, result.stderr) == (0, b"", b""), (name, result)
            assert_matches_golden(name, out_path.read_bytes())
            print(f"{name}: matches the golden")
    name, argv = FAILING
    result = subprocess.run([*sys.argv[1:], *argv], capture_output=True)
    assert (result.returncode, result.stdout) == (3, b""), (name, result.returncode, result.stdout)
    assert result.stderr == (GOLDEN / name).read_bytes(), name
    print(f"{name}: matches the golden")
