"""Starting a process imports no class-building machinery.

Every ``proxileak run``, ``sweep`` and ``serve`` is a fresh process, so
what the package imports is paid on each one. ``dataclasses`` pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, and compiles the methods
of every class it decorates; the value classes are written out instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
import proxileak.cli, proxileak.runner
from proxileak.config import parse_scenario
parse_scenario(sys.argv[1])
print(json.dumps(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)))
"""


def test_cli_and_runner_import_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", PROBE,
         str(ROOT / "scenarios" / "track_commuter.cfg")],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []
