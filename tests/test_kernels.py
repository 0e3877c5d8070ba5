"""Backend parity: the compiled and pure-Python kernels must agree bit for
bit, so the artifact's determinism does not depend on which one loads. The
pure kernel must also agree bit for bit with the one-candidate-per-pass
loop it replaced (``tests/oracles.py``), which needs no compiler.

The compiled module is built from the tracked ``_kernels.c`` once per test
session, with ``setup.py``'s own recipe, into a temporary directory, and
loaded from there; nothing is written into the source tree.
"""

import importlib.util
import math
import os
import shutil
import struct
import subprocess
import sys
import sysconfig
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_objective_value, loop_solve_pattern
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


@pytest.fixture(params=["pure-python", "compiled"])
def kernel(request):
    if request.param == "pure-python":
        return pure
    return request.getfixturevalue("compiled")


@pytest.mark.parametrize("lengths", [(0, 0, 0), (3, 2, 3), (3, 3, 4), (2, 3, 3)])
def test_bad_sample_buffers_rejected(kernel, lengths):
    xs, ys, ds = (array("d", [1.0] * k) for k in lengths)
    message = "sample buffers must be non-empty and equally long"
    with pytest.raises(ValueError, match=message):
        kernel.objective_value(xs, ys, ds, 0.0, 0.0, 0)
    with pytest.raises(ValueError, match=message):
        kernel.solve_pattern(xs, ys, ds, 0.0, 0.0, 500.0, 0.01, 10, 0)


# Small integers make exactly tied residuals likely; -0.0 starts differ from
# 0.0 starts only in the first round's coordinates.
COORDS = st.one_of(st.integers(-50, 50).map(float),
                   st.floats(-3000.0, 3000.0), st.sampled_from((0.0, -0.0)))
DISTANCES = st.one_of(st.integers(0, 60).map(float), st.floats(0.0, 4000.0))


@st.composite
def solver_cases(draw):
    n = draw(st.integers(1, 40))
    xs = draw(st.lists(COORDS, min_size=n, max_size=n))
    ys = draw(st.lists(COORDS, min_size=n, max_size=n))
    ds = draw(st.lists(DISTANCES, min_size=n, max_size=n))
    x0, y0 = draw(COORDS), draw(COORDS)
    # Observers and start on one axis: mirrored candidates tie exactly, so
    # the (x, y) tie-break decides the move.
    axis = draw(st.sampled_from(("none", "x", "y")))
    if axis == "x":
        ys, y0 = [0.0] * n, draw(st.sampled_from((0.0, -0.0)))
    elif axis == "y":
        xs, x0 = [0.0] * n, draw(st.sampled_from((0.0, -0.0)))
    step = draw(st.one_of(st.sampled_from((1e-9, 1e9, math.inf)),
                          st.floats(1e-3, 1e4)))
    tol = draw(st.sampled_from((0.0, 0.01, 1.0)))  # 0: full iteration budget
    max_iter = draw(st.integers(1, 60))
    norm = draw(st.sampled_from((0, 1)))
    samples = tuple(array("d", v) for v in (xs, ys, ds))
    return samples, x0, y0, step, tol, max_iter, norm


def bits(values):
    """Floats as their IEEE bytes, so -0.0 != 0.0 and NaN == NaN."""
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


@settings(max_examples=300, deadline=None)
@given(solver_cases())
def test_pure_kernel_equals_per_candidate_loop(case):
    samples, x0, y0, step, tol, max_iter, norm = case
    assert (bits([pure.objective_value(*samples, x0, y0, norm)])
            == bits([loop_objective_value(*samples, x0, y0, norm)]))
    assert (bits(pure.solve_pattern(*samples, x0, y0, step, tol, max_iter, norm))
            == bits(loop_solve_pattern(*samples, x0, y0, step, tol, max_iter, norm)))
