"""Backend parity: the compiled and pure-Python kernels must agree bit for
bit, so the artifact's determinism does not depend on which one loads.

The compiled module is built from the tracked ``_kernels.c`` once per test
session, with ``setup.py``'s own recipe, into a temporary directory, and
loaded from there; nothing is written into the source tree.
"""

import importlib.util
import math
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from array import array
from pathlib import Path

import pytest

from proxileak.mlat import _kernels_py as pure

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    # The compiler build_ext runs: $CC if set, else the interpreter's own.
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled kernels")
    out = tmp_path_factory.mktemp("kernels")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out / "lib"),
         "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True, check=True)
    built = sorted((out / "lib" / "proxileak" / "mlat").glob("_kernels.*"))
    assert built, f"setup.py built no extension:\n{proc.stderr}"
    spec = importlib.util.spec_from_file_location("_kernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_instance(rng, n):
    xs = array("d", (rng.uniform(-3000, 3000) for _ in range(n)))
    ys = array("d", (rng.uniform(-3000, 3000) for _ in range(n)))
    ds = array("d", (rng.uniform(0, 4000) for _ in range(n)))
    return xs, ys, ds


def test_objective_bit_identical(rng, compiled):
    for _ in range(300):
        xs, ys, ds = random_instance(rng, rng.randrange(1, 40))
        px, py = rng.uniform(-3000, 3000), rng.uniform(-3000, 3000)
        for norm in (0, 1):
            assert (pure.objective_value(xs, ys, ds, px, py, norm)
                    == compiled.objective_value(xs, ys, ds, px, py, norm))


def test_solve_bit_identical(rng, compiled):
    for _ in range(100):
        xs, ys, ds = random_instance(rng, rng.randrange(3, 24))
        x0, y0 = rng.uniform(-500, 500), rng.uniform(-500, 500)
        zeros = array("d", [0.0]) * len(xs)
        # Observers and start on one axis make mirrored candidates tie
        # exactly, so the (x, y) tie-break decides the move.
        for args in ((xs, ys, ds, x0, y0), (xs, zeros, ds, x0, 0.0),
                     (zeros, ys, ds, 0.0, y0)):
            for norm in (0, 1):
                a = pure.solve_pattern(*args, 500.0, 0.01, 120, norm)
                b = compiled.solve_pattern(*args, 500.0, 0.01, 120, norm)
                assert a == b


def test_profiling_mode_runs_full_budget(compiled):
    xs = array("d", (1000.0 * math.cos(i) for i in range(8)))
    ys = array("d", (1000.0 * math.sin(i) for i in range(8)))
    ds = array("d", [900.0] * 8)
    for impl in (pure, compiled):
        *_, iters = impl.solve_pattern(xs, ys, ds, 0.0, 0.0, 500.0, 0.0, 333, 0)
        assert iters == 333


def test_objective_mean_normalization():
    xs = array("d", [0.0, 0.0])
    ys = array("d", [0.0, 100.0])
    ds = array("d", [50.0, 50.0])
    # residuals at origin: |0-50| and |100-50| -> mean 50
    assert pure.objective_value(xs, ys, ds, 0.0, 0.0, 0) == 50.0
    assert pure.objective_value(xs, ys, ds, 0.0, 0.0, 1) == 2500.0
