"""Byte-golden artifacts under pytest, under the pure-Python and the
compiled solver kernels; the cases and digests live in ``tests/golden.py``,
which also checks them without pytest.

The module-level tests run the pure kernels and ``TestCompiledKernels``
runs the same tests on the compiled ones, which skip only when no C
compiler is found.
"""

import pytest

from golden import (GOLDEN, OVERRIDE_GOLDEN, SWEEP_GOLDEN, parse_overrides,
                    run_digests, sweep_digests)
from proxileak import mlat
from proxileak.mlat import _kernels_py


@pytest.fixture(autouse=True)
def kernels(request, monkeypatch):
    compiled = getattr(request.cls, "compiled_kernels", False)
    monkeypatch.setattr(mlat, "_impl", request.getfixturevalue("compiled")
                        if compiled else _kernels_py)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_bundled_scenario_artifacts_are_byte_golden(scenario, tmp_path):
    assert run_digests(scenario, {}, tmp_path) == GOLDEN[scenario]


@pytest.mark.parametrize("scenario, overrides", sorted(OVERRIDE_GOLDEN))
def test_override_artifacts_are_byte_golden(scenario, overrides, tmp_path):
    assert (run_digests(scenario, parse_overrides(overrides), tmp_path)
            == OVERRIDE_GOLDEN[scenario, overrides])


def test_quantum_sweep_artifacts_are_byte_golden(tmp_path):
    assert sweep_digests(tmp_path) == SWEEP_GOLDEN


class TestCompiledKernels:
    compiled_kernels = True
    test_bundled_scenario_artifacts_are_byte_golden = staticmethod(
        test_bundled_scenario_artifacts_are_byte_golden)
    test_override_artifacts_are_byte_golden = staticmethod(
        test_override_artifacts_are_byte_golden)
    test_quantum_sweep_artifacts_are_byte_golden = staticmethod(
        test_quantum_sweep_artifacts_are_byte_golden)
