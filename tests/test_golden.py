"""Byte-golden artifacts under pytest; the cases and digests live in
``tests/golden.py``, which also checks them without pytest."""

import pytest

from golden import (GOLDEN, OVERRIDE_GOLDEN, SWEEP_GOLDEN, parse_overrides,
                    run_digests, sweep_digests)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_bundled_scenario_artifacts_are_byte_golden(scenario, tmp_path):
    assert run_digests(scenario, {}, tmp_path) == GOLDEN[scenario]


@pytest.mark.parametrize("scenario, overrides", sorted(OVERRIDE_GOLDEN))
def test_override_artifacts_are_byte_golden(scenario, overrides, tmp_path):
    assert (run_digests(scenario, parse_overrides(overrides), tmp_path)
            == OVERRIDE_GOLDEN[scenario, overrides])


def test_quantum_sweep_artifacts_are_byte_golden(tmp_path):
    assert sweep_digests(tmp_path) == SWEEP_GOLDEN
