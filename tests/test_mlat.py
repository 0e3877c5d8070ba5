import math
import random
import statistics
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import storage_directory

from oracles import grid_search_min
from proxileak.geo import EARTH_RADIUS_M, EnuPoint, GeoPoint
from proxileak.mlat import (SOLVER_NORMS, DegenerateGeometryError,
                            DistanceSample, SolverConfig,
                            UnderdeterminedError, multilaterate,
                            runtime_profile)
from proxileak.report import write_csv
from proxileak.world import quantize_distance


def sample_at(x, y, d, ref, t=0.0, q=0.0):
    return DistanceSample(EnuPoint(x, y, ref), d, t, q)


def ring_instance(ref, rng, count, radius, quantum, target_spread=300.0):
    """Target near the ring center, observers on the ring, quantized truth."""
    tx = rng.uniform(-target_spread, target_spread)
    ty = rng.uniform(-target_spread, target_spread)
    a0 = rng.uniform(0, 2 * math.pi)
    samples = []
    for i in range(count):
        a = a0 + 2 * math.pi * i / count
        ox, oy = radius * math.cos(a), radius * math.sin(a)
        d = quantize_distance(math.hypot(ox - tx, oy - ty), quantum)
        samples.append(sample_at(ox, oy, d, ref, t=float(i), q=quantum))
    return samples, (tx, ty)


# -- solver basics ------------------------------------------------------------

def test_three_circle_intersection(bcn):
    samples = [sample_at(1000, 0, 1000, bcn), sample_at(0, 1000, 1000, bcn),
               sample_at(-1000, 0, 1000, bcn)]
    est = multilaterate(samples, SolverConfig(seed=1))
    assert math.hypot(est.p_hat.x_m, est.p_hat.y_m) < 0.5
    assert est.residual < 0.5
    assert est.iterations_used <= 200


def test_underdetermined(bcn):
    samples = [sample_at(0, 0, 5, bcn), sample_at(10, 0, 5, bcn)]
    with pytest.raises(UnderdeterminedError):
        multilaterate(samples, SolverConfig())


def test_collinear_observers_rejected(bcn):
    samples = [sample_at(x, 2.0 * x + 1.0, 100, bcn) for x in (0.0, 500.0, 1000.0, 1500.0)]
    with pytest.raises(DegenerateGeometryError):
        multilaterate(samples, SolverConfig())


def test_determinism(bcn, rng):
    samples, _ = ring_instance(bcn, rng, 8, 1000, 50)
    cfg = SolverConfig(seed=99)
    a = multilaterate(samples, cfg)
    b = multilaterate(samples, cfg)
    assert a == b  # bit-identical estimates


def test_noiseless_identifiability(bcn, rng):
    for _ in range(20):
        samples, (tx, ty) = ring_instance(bcn, rng, 4, 1000, 0)
        cfg = SolverConfig(tol_m=0.01, seed=3)
        est = multilaterate(samples, cfg)
        assert math.hypot(est.p_hat.x_m - tx, est.p_hat.y_m - ty) < cfg.tol_m * 10


def test_translation_equivariance(bcn, rng):
    for trial in range(10):
        samples, (tx, ty) = ring_instance(bcn, rng, 8, 1000, 100)
        cfg = SolverConfig(seed=trial)
        base = multilaterate(samples, cfg)
        vx, vy = rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)
        moved = [DistanceSample(EnuPoint(s.observer.x_m + vx, s.observer.y_m + vy,
                                         bcn), s.reported_m, s.t, s.quantum_m)
                 for s in samples]
        shifted = multilaterate(moved, cfg)
        assert abs(shifted.p_hat.x_m - base.p_hat.x_m - vx) < cfg.tol_m
        assert abs(shifted.p_hat.y_m - base.p_hat.y_m - vy) < cfg.tol_m


def test_monotone_degradation_in_quantum(bcn):
    medians = []
    for quantum in (10.0, 50.0, 100.0, 500.0, 1000.0):
        errors = []
        for trial in range(100):
            # same geometry across quantum levels (common random numbers)
            t_rng = random.Random(trial)
            samples, (tx, ty) = ring_instance(bcn, t_rng, 16, 2000, quantum,
                                              target_spread=600.0)
            est = multilaterate(samples, SolverConfig(seed=trial))
            errors.append(math.hypot(est.p_hat.x_m - tx, est.p_hat.y_m - ty))
        medians.append(statistics.median(errors))
    assert medians == sorted(medians)


# -- grid-search oracle equivalence --------------------------------------------

def test_solver_never_loses_to_grid_oracle(bcn, rng):
    # Coarse sanity version of the acceptance criterion (10 instances, 2 m
    # cells); the acceptance suite runs the full 1 m / 100-instance version.
    cell = 2.0
    slack = cell * math.sqrt(2.0)
    for _ in range(10):
        n = rng.randrange(4, 10)
        samples = []
        tx, ty = rng.uniform(-1200, 1200), rng.uniform(-1200, 1200)
        for i in range(n):
            ox, oy = rng.uniform(-1500, 1500), rng.uniform(-1500, 1500)
            d = quantize_distance(math.hypot(ox - tx, oy - ty), 100.0)
            samples.append(sample_at(ox, oy, d, bcn, t=float(i), q=100.0))
        est = multilaterate(samples, SolverConfig(seed=7))
        grid_min, _ = grid_search_min(
            [s.observer.x_m for s in samples], [s.observer.y_m for s in samples],
            [s.reported_m for s in samples], "l1",
            -1500, 1500, -1500, 1500, cell=cell)
        assert est.residual <= grid_min + slack


# -- runtime profile -----------------------------------------------------------

def test_runtime_profile_shape():
    rows = runtime_profile([10, 100], [10, 50], min_time_s=0.002)
    assert len(rows) == 4
    by = {(n, i): s for n, i, s in rows}
    assert all(s > 0 for s in by.values())
    # iteration-dominated loop: 5x iterations should cost clearly more
    assert by[(100, 50)] > by[(100, 10)]


def test_runtime_profile_rejects_bad_counts():
    with pytest.raises(ValueError):
        runtime_profile([0], [10])
    with pytest.raises(ValueError):
        runtime_profile([10], [0])


# -- CSV round trip -------------------------------------------------------------

SAMPLES_HEADER = ("observer_x_m", "observer_y_m", "reported_m", "t_s", "quantum_m")
finite = st.floats(allow_nan=False, allow_infinity=False)


def float_bits(x):
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(*[finite] * 5), max_size=6))
@example([(-0.0, 5e-324, 1e308, -2.2250738585072014e-308, 0.1)])
def test_samples_csv_round_trip(tmp_path, rows):
    # Every float cell must parse back to the same bits, signed zero and
    # subnormals included.
    path = write_csv(tmp_path / "samples.csv", SAMPLES_HEADER, rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "observer_x_m,observer_y_m,reported_m,t_s,quantum_m"
    back = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
    assert [[float_bits(v) for v in row] for row in back] == \
        [[float_bits(v) for v in row] for row in rows]


def test_hypothesis_stores_nothing_in_the_repository():
    # Set by conftest.py's profile and its pytest_sessionstart hook.
    assert settings().database is None
    home = storage_directory(intent_to_write=False).path.resolve()
    assert not home.is_relative_to(Path(__file__).resolve().parents[1])


def test_sample_validation(bcn):
    with pytest.raises(ValueError):
        DistanceSample(EnuPoint(0, 0, bcn), -1.0, 0.0)
    with pytest.raises(ValueError):
        DistanceSample(EnuPoint(0, 0, bcn), 150.0, 0.0, quantum_m=100.0)
    DistanceSample(EnuPoint(0, 0, bcn), 300.0, 0.0, quantum_m=100.0)
    for reported, quantum, field in [
            (math.nan, 0.0, "reported_m"), (math.inf, 0.0, "reported_m"),
            (math.inf, 100.0, "reported_m"), (0.0, math.inf, "quantum_m"),
            (0.0, math.nan, "quantum_m"),
            (1e308, 1e-300, "reported_m")]:  # reported / quantum overflows
        with pytest.raises(ValueError, match=field):
            DistanceSample(EnuPoint(0, 0, bcn), reported, 0.0, quantum)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(d=st.floats(0.0, math.pi * EARTH_RADIUS_M),
       # Half the draws from quanta a distance can span 10^7 or more of.
       exponent=st.one_of(st.floats(-13.0, -3.0), st.floats(-300.0, 4.0)))
@example(d=1199.26653, exponent=-4.0)  # over 10^7 steps of 0.1 mm
def test_every_quantized_distance_is_a_valid_sample(d, exponent):
    quantum = 10.0 ** exponent
    DistanceSample(EnuPoint(0.0, 0.0, GeoPoint(41.39, 2.17)),
                   quantize_distance(d, quantum), 0.0, quantum)


@pytest.mark.parametrize("field", ["tol_m", "step_init_m"])
def test_solver_config_rejects_non_finite_steps(field):
    for value in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})


def test_unknown_norm_rejected_like_the_solver_config():
    assert SolverConfig(norm="L2").norm_code == SOLVER_NORMS["l2"]
    for bad in ("bogus", "l3", ""):
        with pytest.raises(ValueError, match="norm must be"):
            SolverConfig(norm=bad)
