"""README command lines against committed golden outputs.

``tests/golden/`` holds the stdout (or ``--output`` file) of each README
command, plus a blockade robustness run. CSV must match byte for byte.
JSON must have the same keys in the same order and every number within
1e-12 relative, because batched LAPACK calls may move a last digit.
"""

import json
import math
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


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_matches_golden(name, tmp_path, capsys):
    out_path = tmp_path / name
    assert main([*COMMANDS[name], "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    got, want = out_path.read_bytes(), (GOLDEN / name).read_bytes()
    if name.endswith(".csv"):
        assert got == want
    else:
        assert_same_json(json.loads(got), json.loads(want))
