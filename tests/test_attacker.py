import inspect
import math
import statistics
from datetime import date

import pytest

import proxileak.attacker as attacker_mod
from proxileak.attacker import (Attacker, Poi, PolicyBlockedError, ProbePlan,
                                TrackRecord, extract_pois, ring_points,
                                track_to_csv)
from proxileak.geo import EnuPoint, enu_distance_m, from_enu, haversine_m, to_enu
from proxileak.mlat import PositionEstimate, SolverConfig
from proxileak.service import ProximityService
from proxileak.world import (DisclosurePolicy, POLICY_PRESETS, SimUser,
                             commuter_trajectory, generate_population,
                             stationary_trajectory)

ATTACKER = "attacker"
TARGET = "u00000"


def build_scene(policy=None, target_traj=None, seed=6, span=90_000.0):
    world = generate_population(3, 100, 1.0, seed=seed, duration_s=span)
    if target_traj is not None:
        world.user(TARGET).trajectory = target_traj
    world.add_user(SimUser(ATTACKER, "Mallory", date(1990, 1, 1),
                           stationary_trajectory(world.bbox.center, span),
                           set(), "fb-attacker"))
    svc = ProximityService(world, policy or DisclosurePolicy())
    session = svc.login(ATTACKER)
    truth = world.true_position_of(TARGET)
    agent = Attacker(svc, session, ref=truth, advance=world.advance)
    agent.discover(1e6)
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
    with pytest.raises(ValueError):
        ProbePlan(strategy="warp", count=8, center=bcn)
    plan = ProbePlan(strategy="fixed_points", points=tuple(
        ring_points(bcn, 500.0, 4)))
    assert len(plan.points) == 4


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
    assert agent.trace.events[-1].detail["n_samples"] == 5


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
    home_world = generate_population(3, 100, 1.0, seed=21, duration_s=90_000.0)
    home = home_world.true_position_of(TARGET, 0.0)
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
                 if t <= 28_800 and enu_distance_m(e.p_hat, home_e) < 150.0]
    near_work = [e for t, e in record.estimates
                 if t >= 32_400 and enu_distance_m(e.p_hat, work_e) < 150.0]
    assert len(near_home) >= 7
    assert len(near_work) >= 6


# -- POI extraction --------------------------------------------------------------------

def fake_track(points, ref):
    """TrackRecord from bare (t, x, y) rows."""
    rec = TrackRecord("t")
    for t, x, y in points:
        rec.add(t, PositionEstimate(EnuPoint(x, y, ref), 0.0, 1, 3))
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
    out = tmp_path / "track.csv"
    with open(out, "w") as fp:
        track_to_csv(rec, fp)
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,est_x_m,est_y_m,residual_m"
    assert lines[1].startswith("0.0,1.0,2.0")
