import inspect
import math
import random
import statistics
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxileak.attacker as attacker_mod
from oracles import scan_extract_pois
from proxileak.attacker import (Attacker, Poi, PolicyBlockedError, ProbePlan,
                                TrackRecord, extract_pois, ring_points)
from proxileak.config import parse_scenario
from proxileak.geo import EnuPoint, GeoPoint, from_enu, haversine_m, to_enu
from proxileak.mlat import DistanceSample, PositionEstimate, SolverConfig
from proxileak.report import write_csv
from proxileak.runner import run_scenario
from proxileak.service import ProximityService
from proxileak.world import (DisclosurePolicy, POLICY_PRESETS, SimUser,
                             commuter_trajectory, generate_population,
                             quantize_distance, stationary_trajectory)

ATTACKER = "attacker"
TARGET = "u00000"


def build_scene(policy=None, target_traj=None, seed=6):
    world = generate_population(3, 100, 1.0, seed=seed)
    if target_traj is not None:
        world.set_trajectory(TARGET, target_traj)
    world.add_user(SimUser(ATTACKER, "Mallory", date(1990, 1, 1),
                           stationary_trajectory(world.bbox.center),
                           set(), "fb-attacker"))
    svc = ProximityService(world, policy or DisclosurePolicy())
    session = svc.login(ATTACKER)
    truth = world.true_position_of(TARGET)
    svc.nearby(session, 1e6)
    agent = Attacker(svc, session, ref=truth, advance=world.advance)
    return world, svc, agent, truth


def solver(seed=0, tol=0.01):
    return SolverConfig(max_iterations=250, step_init_m=500.0, tol_m=tol,
                        seed=seed)


# -- plans -------------------------------------------------------------------------

def test_plan_validation(bcn):
    with pytest.raises(ValueError):
        ProbePlan(strategy="ring", count=2, center=bcn)
    with pytest.raises(ValueError):
        ProbePlan(strategy="ring", count=8, center=None)
    for strategy in ("warp", "fixed_points"):
        with pytest.raises(ValueError):
            ProbePlan(strategy=strategy, count=8, center=bcn)


def test_ring_points_equally_spaced(bcn):
    pts = ring_points(bcn, 1000.0, 8)
    enu = [to_enu(p, bcn) for p in pts]
    for e in enu:
        assert math.hypot(e.x_m, e.y_m) == pytest.approx(1000.0, abs=0.5)
    angles = sorted(math.atan2(e.y_m, e.x_m) for e in enu)
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    assert all(g == pytest.approx(2 * math.pi / 8, abs=1e-6) for g in gaps)


# -- localize -----------------------------------------------------------------------

def test_noiseless_four_probe_fix():
    world, svc, agent, truth = build_scene(
        policy=DisclosurePolicy(distance_quantum_m=0.0))
    plan = ProbePlan(strategy="ring", count=4, ring_radius_m=1000.0, center=truth)
    est = agent.localize(TARGET, plan, solver(tol=0.005))
    assert haversine_m(from_enu(est.p_hat), truth) < 0.5


def test_quantized_ring_fix_accuracy():
    errors = []
    for seed in range(15):
        world, svc, agent, truth = build_scene(
            policy=DisclosurePolicy(distance_quantum_m=100.0), seed=seed)
        plan = ProbePlan(strategy="ring", count=16, ring_radius_m=1000.0,
                         center=from_enu(EnuPoint(150.0, -90.0, truth)),
                         angle0_rad=0.37 * seed)
        est = agent.localize(TARGET, plan, solver(seed=seed))
        errors.append(haversine_m(from_enu(est.p_hat), truth))
    assert statistics.median(errors) <= 50.0


def test_adaptive_plan_tightens():
    world, svc, agent, truth = build_scene(
        policy=DisclosurePolicy(distance_quantum_m=100.0))
    plan = ProbePlan(strategy="adaptive", count=16, ring_radius_m=2000.0,
                     center=from_enu(EnuPoint(900.0, -400.0, truth)))
    est = agent.localize(TARGET, plan, solver())
    assert haversine_m(from_enu(est.p_hat), truth) < 150.0


def test_policy_block_raises():
    world, svc, agent, truth = build_scene(policy=POLICY_PRESETS["grindr"])
    plan = ProbePlan(strategy="ring", count=4, center=truth)
    with pytest.raises(PolicyBlockedError):
        agent.localize(TARGET, plan, solver())


def test_trace_records_probes_polls_and_result():
    world, svc, agent, truth = build_scene()
    plan = ProbePlan(strategy="ring", count=5, center=truth)
    agent.localize(TARGET, plan, solver())
    kinds = [e.kind for e in agent.trace.events]
    assert kinds.count("probe") == 5
    assert kinds.count("profile_poll") == 5
    assert kinds[-1] == "localize_result"
    assert len(agent.last_samples) == 5


def test_samples_obtainable_under_policy_quantum():
    # Every sample the solver sees is exactly what the service disclosed.
    world, svc, agent, truth = build_scene(
        policy=DisclosurePolicy(distance_quantum_m=250.0))
    plan = ProbePlan(strategy="ring", count=6, center=truth)
    agent.localize(TARGET, plan, solver())
    for s in agent.last_samples:
        assert s.quantum_m == 250.0
        assert s.reported_m % 250.0 == 0.0


def test_attacker_module_never_touches_ground_truth():
    src = inspect.getsource(attacker_mod)
    assert "true_position" not in src
    assert "trajectory" not in src
    assert ".users" not in src


# -- track --------------------------------------------------------------------------

def test_track_stationary_clusters():
    world, svc, agent, truth = build_scene(
        policy=DisclosurePolicy(distance_quantum_m=100.0))
    plan = ProbePlan(strategy="ring", count=12, ring_radius_m=800.0,
                     center=from_enu(EnuPoint(120.0, 60.0, truth)))
    record = agent.track(TARGET, 600.0, 5400.0, plan, solver())
    assert len(record.estimates) == 10
    ts = [t for t, _ in record.estimates]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    xs = [e.p_hat.x_m for _, e in record.estimates]
    ys = [e.p_hat.y_m for _, e in record.estimates]
    cx, cy = statistics.fmean(xs), statistics.fmean(ys)
    assert all(math.hypot(x - cx, y - cy) < 120.0 for x, y in zip(xs, ys))


def test_track_single_fix_when_duration_short():
    world, svc, agent, truth = build_scene()
    plan = ProbePlan(strategy="ring", count=6, center=truth)
    record = agent.track(TARGET, 3600.0, 100.0, plan, solver())
    assert len(record.estimates) == 1


def test_track_commuter_two_clusters():
    home_world = generate_population(3, 100, 1.0, seed=21)
    home = home_world.true_position_of(TARGET)
    work = from_enu(EnuPoint(5000.0, 0.0, home))
    traj = commuter_trajectory(home, work, 28_800.0, 1800.0, 55_000.0)
    world, svc, agent, truth = build_scene(
        policy=DisclosurePolicy(distance_quantum_m=100.0), target_traj=traj,
        seed=21)
    plan = ProbePlan(strategy="ring", count=16, ring_radius_m=1000.0,
                     center=from_enu(EnuPoint(200.0, 100.0, home)))
    record = agent.track(TARGET, 3600.0, 57_600.0, plan, solver())
    assert len(record.estimates) == 17
    # brute-force dwell check against ground truth: fixes while dwelling must
    # cluster around home and work respectively
    home_e, work_e = to_enu(home, agent.ref), to_enu(work, agent.ref)
    near_home = [e for t, e in record.estimates
                 if t <= 28_800 and math.hypot(e.p_hat.x_m - home_e.x_m,
                                               e.p_hat.y_m - home_e.y_m) < 150.0]
    near_work = [e for t, e in record.estimates
                 if t >= 32_400 and math.hypot(e.p_hat.x_m - work_e.x_m,
                                               e.p_hat.y_m - work_e.y_m) < 150.0]
    assert len(near_home) >= 7
    assert len(near_work) >= 6


# -- solve memo ---------------------------------------------------------------------

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def solves(monkeypatch):
    """Counts the solver calls the attacker really makes."""
    calls = []
    real = attacker_mod.multilaterate

    def counting(samples, cfg):
        calls.append(len(samples))
        return real(samples, cfg)

    monkeypatch.setattr(attacker_mod, "multilaterate", counting)
    return calls


@pytest.mark.parametrize("overrides, fixes, real_solves", [
    ({}, 17, 10),
    ({"track_interval_s": "3600", "track_duration_s": "86400",
      "seed": "7919"}, 25, 12),
], ids=["bundled", "track_day-7919"])
def test_dwell_fixes_reuse_repeated_solves(tmp_path, solves, overrides,
                                           fixes, real_solves):
    cfg = parse_scenario(SCENARIOS / "track_commuter.cfg", overrides)
    assert run_scenario(cfg, tmp_path).metrics["n_fixes"] == fixes
    assert len(solves) == real_solves


def commuter_track(strategy, seed):
    home = generate_population(3, 100, 1.0, seed=seed).true_position_of(TARGET)
    work = from_enu(EnuPoint(5000.0, 0.0, home))
    traj = commuter_trajectory(home, work, 28_800.0, 1800.0, 55_000.0)
    world, svc, agent, truth = build_scene(
        policy=DisclosurePolicy(distance_quantum_m=100.0), target_traj=traj,
        seed=seed)
    plan = ProbePlan(strategy=strategy, count=16, ring_radius_m=1000.0,
                     center=from_enu(EnuPoint(200.0, 100.0, home)))
    record = agent.track(TARGET, 3600.0, 57_600.0, plan, solver(seed=seed))
    return record, agent.trace.events


@pytest.mark.parametrize("strategy", ["ring", "adaptive"])
def test_memo_leaves_the_track_unchanged(monkeypatch, solves, strategy):
    with_memo = [commuter_track(strategy, seed) for seed in (21, 22, 23)]
    memo_solves = len(solves)
    monkeypatch.setattr(Attacker, "_solve", lambda self, samples, cfg:
                        attacker_mod.multilaterate(samples, cfg))
    assert [commuter_track(strategy, seed) for seed in (21, 22, 23)] == with_memo
    assert memo_solves <= len(solves) - memo_solves
    if strategy == "ring":
        assert memo_solves < len(solves) - memo_solves


def triangle(ref, x0=0.0, t=0.0, quantum=0.0):
    return [DistanceSample(EnuPoint(x0, 0.0, ref), 1000.0, t, quantum),
            DistanceSample(EnuPoint(1000.0, 0.0, ref), 1000.0, t, quantum),
            DistanceSample(EnuPoint(0.0, 1000.0, ref), 1000.0, t, quantum)]


def test_memo_keys_are_bit_exact(bcn, solves):
    agent = Attacker(None, None, ref=bcn, advance=None)
    cfg = solver()
    first = agent._solve(triangle(bcn), cfg)
    # The solver never reads t or quantum_m.
    assert agent._solve(triangle(bcn, t=5.0, quantum=500.0), cfg) is first
    assert len(solves) == 1
    agent._solve(triangle(bcn, x0=-0.0), cfg)
    assert len(solves) == 2
    agent._solve(triangle(GeoPoint(41.3851, 2.1735)), cfg)
    assert len(solves) == 3
    agent._solve(triangle(bcn), solver(seed=1))
    assert len(solves) == 4


def test_memo_holds_at_most_eight_entries(bcn, solves):
    agent = Attacker(None, None, ref=bcn, advance=None)
    cfg = solver()
    for k in range(20):
        agent._solve(triangle(bcn, x0=float(k)), cfg)
        assert len(agent._solved) <= 8
    assert len(agent._solved) == attacker_mod.SOLVE_MEMO_SIZE == 8
    agent._solve(triangle(bcn, x0=19.0), cfg)  # newest: kept
    agent._solve(triangle(bcn, x0=11.0), cfg)  # ninth newest: evicted
    assert len(solves) == 21


def test_solver_errors_are_not_remembered(bcn, solves):
    agent = Attacker(None, None, ref=bcn, advance=None)
    collinear = [DistanceSample(EnuPoint(x, 0.0, bcn), 500.0, 0.0)
                 for x in (0.0, 100.0, 200.0)]
    for samples in (collinear, collinear[:2]):
        for _ in range(2):
            with pytest.raises(ValueError):
                agent._solve(samples, solver())
    assert len(solves) == 4 and agent._solved == {}


def _track(bcn, interval_s, duration_s):
    Attacker(None, None, ref=bcn, advance=None).track(
        TARGET, interval_s, duration_s, ProbePlan(center=bcn), solver())


@pytest.mark.parametrize("call, message", [
    (lambda bcn: generate_population(3, 100, 1.0, seed=6).advance(math.nan),
     "only moves forward"),
    (lambda bcn: ProbePlan(center=bcn, ring_radius_m=math.nan), "ring radius"),
    (lambda bcn: extract_pois(TrackRecord(), math.nan, 0.0), "radius_m"),
    (lambda bcn: extract_pois(TrackRecord(), 200.0, math.nan), "min_dwell_s"),
    (lambda bcn: _track(bcn, math.nan, 3600.0), "interval_s"),
    (lambda bcn: _track(bcn, 600.0, math.nan), "duration_s"),
    (lambda bcn: quantize_distance(math.nan, 100.0), "distance must be"),
    (lambda bcn: quantize_distance(100.0, math.nan), "quantum must be"),
], ids=["advance", "ring_radius", "poi_radius", "poi_dwell", "track_interval",
        "track_duration", "distance", "quantum"])
def test_nan_argument_raises_its_documented_error(bcn, call, message):
    with pytest.raises(ValueError, match=message):
        call(bcn)


# -- POI extraction --------------------------------------------------------------------

def fake_track(points, ref):
    """TrackRecord from bare (t, x, y) rows."""
    rec = TrackRecord()
    for t, x, y in points:
        rec.add(t, PositionEstimate(EnuPoint(x, y, ref), 0.0, 1))
    return rec


def test_pois_stationary_single(bcn):
    rec = fake_track([(i * 600.0, 10.0 + (i % 3), -5.0) for i in range(10)], bcn)
    pois = extract_pois(rec, radius_m=50.0, min_dwell_s=1800.0)
    assert len(pois) == 1
    assert pois[0].center.x_m == pytest.approx(11.0, abs=1.5)
    assert pois[0].dwell_s == 5400.0


def test_poi_centroid_is_left_to_right_sum(bcn):
    # Ten 0.1 m fixes sum to 0.9999999999999999 left to right; a compensated
    # sum (Python 3.12's sum()) would give 1.0 and a centroid of exactly 0.1.
    rec = fake_track([(i * 600.0, 0.1, 0.0) for i in range(10)], bcn)
    (poi,) = extract_pois(rec, radius_m=50.0, min_dwell_s=1800.0)
    assert poi.center.x_m == 0.9999999999999999 / 10
    assert poi.center.x_m != 0.1


def test_pois_moving_track_empty(bcn):
    rec = fake_track([(i * 600.0, 500.0 * i, 0.0) for i in range(10)], bcn)
    assert extract_pois(rec, radius_m=100.0, min_dwell_s=1200.0) == []


def test_pois_commuter_two(bcn):
    rows = [(i * 3600.0, 0.0 + 10 * (i % 2), 0.0) for i in range(8)]
    rows += [(8 * 3600.0 + 1800.0, 2500.0, 0.0)]  # travel fix
    rows += [((9 + i) * 3600.0, 5000.0 + 10 * (i % 2), 0.0) for i in range(8)]
    rec = fake_track(rows, bcn)
    pois = extract_pois(rec, radius_m=200.0, min_dwell_s=7200.0)
    assert len(pois) == 2
    assert pois[0].center.x_m == pytest.approx(5.0, abs=10)
    assert pois[1].center.x_m == pytest.approx(5005.0, abs=10)


def test_poi_monotonicity_in_parameters(bcn):
    rows = [(i * 3600.0, 30.0 * (i % 2), 0.0) for i in range(8)]
    rows += [((9 + i) * 3600.0, 5000.0 + 30.0 * (i % 2), 0.0) for i in range(8)]
    rec = fake_track(rows, bcn)
    # count non-increasing in min_dwell
    counts = [len(extract_pois(rec, 200.0, dwell))
              for dwell in (0.0, 3600.0, 7200.0, 30_000.0)]
    assert counts == sorted(counts, reverse=True)
    # count non-decreasing in radius (below the cluster separation)
    counts = [len(extract_pois(rec, r, 7200.0)) for r in (10.0, 60.0, 200.0, 400.0)]
    assert counts == sorted(counts)


def test_poi_dwell_at_least_minimum(bcn):
    rec = fake_track([(i * 1000.0, 0.0, 0.0) for i in range(12)], bcn)
    for dwell in (1000.0, 5000.0, 11_000.0):
        for p in extract_pois(rec, 100.0, dwell):
            assert p.dwell_s >= dwell


def test_track_csv(tmp_path, bcn):
    rec = fake_track([(0.0, 1.0, 2.0), (10.0, 3.0, 4.0)], bcn)
    out = write_csv(tmp_path / "track.csv",
                    ("t_s", "est_x_m", "est_y_m", "residual_m"),
                    ((t, e.p_hat.x_m, e.p_hat.y_m, e.residual)
                     for t, e in rec.estimates))
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,est_x_m,est_y_m,residual_m"
    assert lines[1].startswith("0.0,1.0,2.0")


REF = GeoPoint(41.3851, 2.1734)
# Distances from the origin in radii, crowded just around the radius and
# around the bounding-box test's margin.
NEAR_RADIUS = [0.0, 0.5, 1.0 - 2e-9, 1.0 - 1e-9, 1.0 - 1e-12, 1.0,
               1.0 + 1e-12, 1.0 + 1e-9, 1.5, 3.0]


@settings(max_examples=400, deadline=None)
@given(radius=st.sampled_from([1.0, 150.0, 2.0e4]),
       fixes=st.lists(st.tuples(
           st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi]),
                     st.floats(0.0, 2.0 * math.pi)),
           st.sampled_from(NEAR_RADIUS), st.booleans()),
           min_size=1, max_size=30),
       min_dwell=st.sampled_from([0.0, 600.0, 3000.0]))
def test_pois_equal_the_full_scan(radius, fixes, min_dwell):
    # A mirrored fix follows its twin, so the running sums return exactly to
    # the origin and a window's centroid sits on it.
    rows = []
    for angle, scale, mirrored in fixes:
        x = radius * scale * math.cos(angle)
        y = radius * scale * math.sin(angle)
        rows.append((x, y))
        if mirrored:
            rows.append((-x, -y))
    rec = fake_track([(k * 600.0, x, y) for k, (x, y) in enumerate(rows)], REF)
    assert (extract_pois(rec, radius, min_dwell)
            == scan_extract_pois(rec, radius, min_dwell))


def test_long_stay_equals_the_full_scan(bcn):
    rng = random.Random(5)
    rec = fake_track([(k * 60.0, rng.gauss(0.0, 20.0), rng.gauss(0.0, 20.0))
                      for k in range(1500)], bcn)
    pois = extract_pois(rec, 60.0, 3600.0)
    assert len(pois) > 1
    assert pois == scan_extract_pois(rec, 60.0, 3600.0)
