"""The value classes that exist once per user, fix, probe or trace event
have a fixed layout, and the population they make up stays small."""

import gc
import tracemalloc
from datetime import date
from pathlib import Path

import pytest

from proxileak.config import parse_scenario
from proxileak.geo import EnuPoint, GeoPoint
from proxileak.mlat import DistanceSample, PositionEstimate
from proxileak.report import TraceEvent
from proxileak.service import NearbyEntry
from proxileak.world import (BoundingBox, SimUser, generate_population,
                             stationary_trajectory)

ROOT = Path(__file__).resolve().parents[1]

# Bytes that tracemalloc sees held per user after generating
# identify_zipf.cfg's population in a fresh process: 1,111-1,159 under
# CPython 3.10-3.13, against 1,315-1,575 when these classes kept a
# per-instance __dict__ and a trajectory kept a second list of its times.
MAX_BYTES_PER_USER = 1_240


def _instances():
    p = GeoPoint(41.3851, 2.1734)
    enu = EnuPoint(3.0, 4.0, p)
    traj = stationary_trajectory(p)
    return [
        p, enu, traj,
        SimUser("u1", "Ana", date(1990, 1, 1), traj, set(), "fb-u1"),
        DistanceSample(enu, 10.0, 0.0),
        PositionEstimate(enu, 0.5, 3),
        NearbyEntry("u1", 0.0),
        TraceEvent("probe", 0.0, "u1"),
    ]


@pytest.mark.parametrize("obj", _instances(), ids=lambda o: type(o).__name__)
def test_value_classes_have_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.undeclared = 1
    # object.__setattr__ passes a frozen dataclass's own guard, so only the
    # layout can refuse the name.
    with pytest.raises(AttributeError):
        object.__setattr__(obj, "undeclared", 1)


def test_population_bytes_per_user_are_bounded():
    cfg = parse_scenario(ROOT / "scenarios" / "identify_zipf.cfg")
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        world = generate_population(
            cfg.n_users, cfg.catalog_size, cfg.zipf_s, cfg.seed,
            bbox=BoundingBox(*cfg.bbox), mean_likes=cfg.mean_likes,
            n_categories=cfg.n_categories)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(world.users) == cfg.n_users == 2000
    assert held / cfg.n_users < MAX_BYTES_PER_USER
