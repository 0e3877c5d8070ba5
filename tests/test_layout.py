"""The value classes that exist once per user, fix, probe or trace event
have a fixed layout, and the population they make up stays small. The
frozen value classes keep the equality, hash, repr, immutability and
pickling that they had as frozen dataclasses."""

import copy
import gc
import inspect
import pickle
import tracemalloc
from datetime import date
from pathlib import Path

import pytest

from proxileak.attacker import Poi, ProbePlan
from proxileak.config import parse_scenario
from proxileak.geo import EnuPoint, GeoPoint
from proxileak.mlat import DistanceSample, PositionEstimate, SolverConfig
from proxileak.report import TraceEvent
from proxileak.service import NearbyEntry
from proxileak.socialgraph import GraphQuery
from proxileak.world import (BoundingBox, DisclosurePolicy, SimUser,
                             generate_population, stationary_trajectory)

ROOT = Path(__file__).resolve().parents[1]

# Bytes that tracemalloc sees held per user after generating
# identify_zipf.cfg's population in a fresh process: 1,111-1,159 under
# CPython 3.10-3.13, against 1,315-1,575 when these classes kept a
# per-instance __dict__ and a trajectory kept a second list of its times.
MAX_BYTES_PER_USER = 1_240


P = "GeoPoint(lat_deg=41.3851, lon_deg=2.1733999999999867)"
ENU = f"EnuPoint(x_m=3.0, y_m=4.0, ref={P})"


def _frozen():
    """An instance of each frozen value class, with the repr that the
    frozen dataclass printed for it."""
    p = GeoPoint(41.3851, 2.1734)
    enu = EnuPoint(3.0, 4.0, p)
    return [
        (p, P),
        (enu, ENU),
        (DistanceSample(enu, 100.0, 2.5, 50.0),
         f"DistanceSample(observer={ENU}, reported_m=100.0, t=2.5, "
         "quantum_m=50.0)"),
        (PositionEstimate(enu, 0.5, 3),
         f"PositionEstimate(p_hat={ENU}, residual=0.5, iterations_used=3)"),
        (SolverConfig("l2", 50, 250.0, 0.5, 7),
         "SolverConfig(norm='l2', max_iterations=50, step_init_m=250.0, "
         "tol_m=0.5, seed=7)"),
        (TraceEvent("probe", 1.5, "u1"),
         "TraceEvent(kind='probe', t=1.5, target_id='u1')"),
        (NearbyEntry("u1", 0.0, "Ana", 200.0, date(1990, 1, 2),
                     frozenset(["p1"]), "fb-u1"),
         "NearbyEntry(user_id='u1', last_active_t=0.0, first_name='Ana', "
         "distance_m=200.0, fuzzy_birthdate=datetime.date(1990, 1, 2), "
         "common_likes=frozenset({'p1'}), social_id='fb-u1')"),
        (ProbePlan("adaptive", 8, 500.0, p, 0.25),
         "ProbePlan(strategy='adaptive', count=8, ring_radius_m=500.0, "
         f"center={P}, angle0_rad=0.25)"),
        (Poi(enu, 3600.0, 0.0, 3600.0, 2),
         f"Poi(center={ENU}, dwell_s=3600.0, t_start=0.0, t_end=3600.0, "
         "n_fixes=2)"),
        (GraphQuery("ana", frozenset([1990]), frozenset(["p1"])),
         "GraphQuery(name='ana', birth_years=frozenset({1990}), "
         "liked_pages=frozenset({'p1'}))"),
        (BoundingBox(41.35, 2.1, 41.45, 2.25),
         "BoundingBox(lat_min=41.35, lon_min=2.1, lat_max=41.45, "
         "lon_max=2.25)"),
        (DisclosurePolicy(False, 0.0, False, "hidden", "categories", True),
         "DisclosurePolicy(share_distance=False, distance_quantum_m=0.0, "
         "share_first_name=False, birthdate_mode='hidden', "
         "interests_mode='categories', share_social_id=True)"),
        (GeoPoint(0.7278087826202082, 0.26954394731336606),
         "GeoPoint(lat_deg=0.7278087826202082, lon_deg=0.26954394731336606)"),
    ]


def _instances():
    p = GeoPoint(41.3851, 2.1734)
    traj = stationary_trajectory(p)
    return [
        traj,
        SimUser("u1", "Ana", date(1990, 1, 1), traj, set(), "fb-u1"),
        *(obj for obj, _ in _frozen()[:-1]),
    ]


def _id(obj):
    return type(obj).__name__


FROZEN = [obj for obj, _ in _frozen()]
FROZEN_IDS = [*map(_id, FROZEN[:-1]), "GeoPoint-near-origin"]


def _fields(obj):
    """The field names, in the order the constructor takes them."""
    return tuple(inspect.signature(type(obj)).parameters)


@pytest.mark.parametrize("obj", _instances(), ids=_id)
def test_value_classes_have_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.undeclared = 1
    # object.__setattr__ passes a frozen class's own guard, so only the
    # layout can refuse the name.
    with pytest.raises(AttributeError):
        object.__setattr__(obj, "undeclared", 1)


@pytest.mark.parametrize("obj, text", _frozen(), ids=FROZEN_IDS)
def test_frozen_repr_is_the_dataclass_repr(obj, text):
    assert repr(obj) == text


@pytest.mark.parametrize("obj", FROZEN, ids=FROZEN_IDS)
def test_frozen_equality_and_hash_follow_the_field_tuple(obj):
    values = tuple(getattr(obj, name) for name in _fields(obj))
    twin = type(obj)(*values)
    assert twin == obj and not twin != obj
    assert hash(twin) == hash(obj) == hash(values)
    assert obj != values and obj.__eq__(values) is NotImplemented
    for name in _fields(obj):
        variant = copy.copy(obj)
        object.__setattr__(variant, name, object())
        assert variant != obj, name


def test_frozen_instances_of_two_classes_differ_on_equal_fields():
    p = GeoPoint(41.3851, 2.1734)
    assert EnuPoint(3.0, 4.0, p) != PositionEstimate(3.0, 4.0, p)


@pytest.mark.parametrize("obj", FROZEN, ids=FROZEN_IDS)
def test_frozen_refuses_assignment_and_deletion(obj):
    for name in (*_fields(obj), "undeclared"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)


@pytest.mark.parametrize("obj", FROZEN, ids=FROZEN_IDS)
def test_frozen_pickle_and_copy_restore_the_fields_bit_exactly(
        obj, monkeypatch):
    fields = _fields(obj)
    pickles = [pickle.dumps(obj, protocol)
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    # A copy restores the fields as they are: it must not run a
    # constructor, which could recompute a field (GeoPoint normalizes
    # its longitude).
    for cls in {type(obj), GeoPoint, EnuPoint}:
        monkeypatch.setattr(cls, "__init__", _no_init)
    for twin in [*map(pickle.loads, pickles), copy.copy(obj),
                 copy.deepcopy(obj)]:
        assert type(twin) is type(obj)
        assert twin == obj and repr(twin) == repr(obj)
        assert hash(twin) == hash(obj)
        assert all(_same_bits(getattr(twin, name), getattr(obj, name))
                   for name in fields)


def _no_init(self, *args, **kwargs):
    raise AssertionError("a copy ran the constructor")


def _same_bits(a, b):
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


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
