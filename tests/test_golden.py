"""README command lines against committed golden outputs.

``tests/golden/`` holds the stdout (or ``--output`` file) of each README
command, plus a blockade robustness run (and the stderr of a calibration
with no sign change, which ``tests/test_cli.py`` pins byte for byte). CSV
must match byte for byte.
JSON must have the same keys in the same order and every number within
1e-12 relative, because batched LAPACK calls may move a last digit.

Run as a script, ``python tests/test_golden.py COMMAND...`` runs every line of
``COMMANDS`` through an installed front end, say ``rydgate`` or
``python -m rydgate.cli``, and checks its ``--output`` file by the same rule.
"""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from rydgate.cli import main

GOLDEN = Path(__file__).parent / "golden"

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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            out_path = Path(tmp) / name
            subprocess.run([*sys.argv[1:], *argv, "--output", str(out_path)], check=True)
            assert_matches_golden(name, out_path.read_bytes())
            print(f"{name}: matches the golden")
