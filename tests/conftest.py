import gc
import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import Phase, configuration, settings

from proxileak.geo import GeoPoint

ROOT = Path(__file__).resolve().parents[1]

# Hypothesis's explain phase re-runs a failing test's examples under a line
# tracer; with heavy examples that takes minutes, so a failure would stall
# the suite. Dropping it leaves the examples and the verdict as they are.
# No example database: a run replays no earlier run's failures and writes
# none into the working directory.
settings.register_profile(
    "proxileak", phases=[p for p in Phase if p is not Phase.explain],
    database=None)
settings.load_profile("proxileak")


def pytest_sessionstart(session):
    """Hypothesis's own cache under pytest's temporary base (the factory the
    ``tmp_path_factory`` fixture returns) instead of ``.hypothesis/`` in the
    working directory. Its plugin caches the constants it harvests from the
    test modules while pytest collects them, before any fixture runs."""
    configuration.set_hypothesis_home_dir(
        session.config._tmp_path_factory.mktemp("hypothesis"))


@pytest.fixture
def bcn() -> GeoPoint:
    return GeoPoint(41.3851, 2.1734)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    """The collector switched on or off for the test, restored after it."""
    was_enabled = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was_enabled else gc.disable()


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel module, built from the tracked ``_kernels.c``
    with ``setup.py``'s own recipe into a temporary directory and loaded
    from there; nothing is written into the source tree."""
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
