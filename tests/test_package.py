"""Packaging contract: NumPy is the only runtime dependency."""

import os
import subprocess
import sys

import rydgate

PROBE = """
import sys
before = set(sys.modules)
import rydgate
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(rydgate.BACKEND, sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "rydgate"}))
"""


def test_import_loads_only_numpy():
    # A fresh interpreter, because this test session has loaded more modules.
    src = os.path.dirname(os.path.dirname(rydgate.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "pure []"
