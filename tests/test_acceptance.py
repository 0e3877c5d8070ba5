"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Artifacts that the criteria require published (the runtime grid)
are written to the test's temporary directory, named in its PASS line.
"""

import math
import random
import statistics
import threading
import time
from datetime import date

import pytest

from oracles import grid_search_min
from proxileak import mlat, report
from proxileak.attacker import Attacker, ProbePlan, extract_pois
from proxileak.geo import EnuPoint, GeoPoint, from_enu, to_enu
from proxileak.mlat import DistanceSample, SolverConfig, multilaterate
from proxileak.service import ProximityService
from proxileak.socialgraph import SocialGraph, identify
from proxileak.tcp import ServiceClient, ServiceServer
from proxileak.world import (DisclosurePolicy, SimUser, commuter_trajectory,
                             derive_seed, generate_population,
                             quantize_distance, stationary_trajectory)

REF = GeoPoint(41.3851, 2.1734)

ATTACKER = "attacker"
TARGET = "u00000"


def ok(name: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {name}: {detail}")


def ring_instance(rng, count, radius, quantum, target_spread=300.0):
    tx = rng.uniform(-target_spread, target_spread)
    ty = rng.uniform(-target_spread, target_spread)
    a0 = rng.uniform(0, 2 * math.pi)
    samples = []
    for i in range(count):
        a = a0 + 2 * math.pi * i / count
        ox, oy = radius * math.cos(a), radius * math.sin(a)
        d = quantize_distance(math.hypot(ox - tx, oy - ty), quantum)
        samples.append(DistanceSample(EnuPoint(ox, oy, REF), d, float(i), quantum))
    return samples, (tx, ty)


def attack_world(seed, *, n=2, policy=None, mean_likes=3.0, catalog=100,
                 attacker_likes=()):
    world = generate_population(n, catalog, 1.0, seed=seed,
                                mean_likes=mean_likes)
    world.add_user(SimUser(ATTACKER, "Mallory", date(1990, 1, 1),
                           stationary_trajectory(world.bbox.center),
                           set(attacker_likes), "fb-attacker"))
    svc = ProximityService(world, policy or DisclosurePolicy())
    return world, svc


# 1 ---------------------------------------------------------------------------

def test_noiseless_multilateration():
    """100 seeded instances, 4 ring probes, exact distances: error < 0.5 m
    on every instance and under a second per solve."""
    worst = 0.0
    slowest = 0.0
    for seed in range(100):
        rng = random.Random(derive_seed(seed, "noiseless"))
        samples, (tx, ty) = ring_instance(rng, 4, 1000.0, 0.0)
        cfg = SolverConfig(max_iterations=300, tol_m=0.01, seed=seed)
        t0 = time.perf_counter()
        est = multilaterate(samples, cfg)
        dt = time.perf_counter() - t0
        err = math.hypot(est.p_hat.x_m - tx, est.p_hat.y_m - ty)
        worst = max(worst, err)
        slowest = max(slowest, dt)
        assert err < 0.5, f"seed {seed}: error {err:.3f} m"
        assert dt < 1.0, f"seed {seed}: solve took {dt:.3f} s"
    ok("noiseless-multilateration",
       f"worst error {worst * 1000:.1f} mm, slowest solve {slowest * 1000:.2f} ms")


# 2 ---------------------------------------------------------------------------

def test_oracle_equivalence():
    """Solver objective never exceeds the exhaustive 1 m-grid minimum by
    more than one grid-cell of slack, on 100 seeded quantized instances over
    a 3 km field."""
    slack = math.sqrt(2.0)  # cell diagonal x Lipschitz bound 1.0
    margin = math.inf
    for seed in range(100):
        rng = random.Random(derive_seed(seed, "oracle"))
        n = rng.randrange(4, 11)
        tx, ty = rng.uniform(-1200, 1200), rng.uniform(-1200, 1200)
        xs, ys, ds, samples = [], [], [], []
        for i in range(n):
            ox, oy = rng.uniform(-1500, 1500), rng.uniform(-1500, 1500)
            d = quantize_distance(math.hypot(ox - tx, oy - ty), 100.0)
            xs.append(ox)
            ys.append(oy)
            ds.append(d)
            samples.append(DistanceSample(EnuPoint(ox, oy, REF), d, float(i), 100.0))
        est = multilaterate(samples, SolverConfig(seed=seed))
        gmin, _ = grid_search_min(xs, ys, ds, "l1",
                                  -1500.0, 1500.0, -1500.0, 1500.0, cell=1.0)
        assert est.residual <= gmin + slack, \
            f"seed {seed}: solver {est.residual:.4f} vs grid {gmin:.4f}"
        margin = min(margin, gmin + slack - est.residual)
    ok("oracle-equivalence", f"100/100 instances, tightest margin {margin:.3f} m")


# 3 ---------------------------------------------------------------------------

def test_quantized_localization_median():
    """16 ring probes at quantum 100 m: median error over 100 trials
    stays at or below 50 m."""
    errors = []
    for seed in range(100):
        rng = random.Random(derive_seed(seed, "quantized"))
        samples, (tx, ty) = ring_instance(rng, 16, 1000.0, 100.0)
        est = multilaterate(samples, SolverConfig(seed=seed))
        errors.append(math.hypot(est.p_hat.x_m - tx, est.p_hat.y_m - ty))
    med = statistics.median(errors)
    assert med <= 50.0, f"median error {med:.1f} m"
    ok("quantized-localization", f"median error {med:.1f} m over 100 trials")


# 4 ---------------------------------------------------------------------------

def test_mitigation_monotonicity():
    """Median error is non-decreasing in the quantization step (100 trials
    per level) and the whole sweep finishes well inside five minutes."""
    t0 = time.perf_counter()
    medians = []
    for quantum in (10.0, 50.0, 100.0, 500.0, 1000.0):
        errors = []
        for trial in range(100):
            # common random numbers: identical geometry per trial across
            # quantum levels isolates the quantization effect
            rng = random.Random(derive_seed(trial, "mitigation"))
            samples, (tx, ty) = ring_instance(rng, 16, 2000.0, quantum,
                                              target_spread=600.0)
            est = multilaterate(samples, SolverConfig(seed=trial))
            errors.append(math.hypot(est.p_hat.x_m - tx, est.p_hat.y_m - ty))
        medians.append(statistics.median(errors))
    elapsed = time.perf_counter() - t0
    assert medians == sorted(medians), f"medians not monotone: {medians}"
    assert elapsed < 300.0, f"sweep took {elapsed:.0f} s"
    ok("mitigation-monotonicity",
       "medians " + " <= ".join(f"{m:.0f}" for m in medians)
       + f" m, {elapsed:.1f} s total")


# 5 ---------------------------------------------------------------------------

def test_runtime_grid_fig1(tmp_path):
    """Timing grid over samples x iterations: at fixed iterations the cost
    grows at most linearly in sample count; at fixed samples it grows at
    least 5x from 10 to 1000 iterations. Grid published as CSV + SVG."""
    counts = [10, 100, 1000]
    rows = mlat.runtime_profile(counts, counts, min_time_s=0.02)
    cell = {(n, it): s for n, it, s in rows}
    for it in counts:
        base = cell[(10, it)]
        assert cell[(100, it)] <= 10.0 * base * 1.6, \
            f"superlinear in samples at iterations={it}"
        assert cell[(1000, it)] <= 100.0 * base * 1.6, \
            f"superlinear in samples at iterations={it}"
    for n in counts:
        growth = cell[(n, 1000)] / cell[(n, 10)]
        assert growth >= 5.0, f"iteration scaling only {growth:.1f}x at n={n}"
    report.write_runtime_grid(rows, tmp_path)
    grid_csv = tmp_path / "runtime_grid.csv"
    assert grid_csv.exists() and (tmp_path / "runtime_grid.svg").exists()
    ok("runtime-grid-fig1",
       f"linear-in-samples and >=5x-in-iterations hold; grid at {grid_csv}")


# 6 ---------------------------------------------------------------------------

def test_graph_search_refinement():
    """1000 seeded identification runs on 10^4-user rank-skewed populations:
    candidate pools never grow, and the true account is in the pool at every
    round under truthful disclosure."""
    runs = sound = monotone = identified = 0
    for pop_seed in range(5):
        world, svc = attack_world(pop_seed, n=10_000, catalog=2000,
                                  mean_likes=6.0,
                                  attacker_likes=[])
        world.users[ATTACKER].likes = set(world.catalog.page_ids[:10])
        initial = set(world.users[ATTACKER].likes)
        session = svc.login(ATTACKER)
        svc.nearby(session, 1e9)
        population = [u for u in world.users.values() if u.user_id != ATTACKER]
        graph = SocialGraph(population)
        for u in population[:200]:
            vid = u.user_id
            world.users[ATTACKER].likes = set(initial)
            view = svc.profile(session, vid)

            def refresh(pages, _vid=vid):
                world.add_likes(ATTACKER, pages)
                return svc.profile(session, _vid)

            res = identify(view, graph, like_and_refresh=refresh)
            runs += 1
            truth_sid = world.users[vid].social_id
            sound += all(truth_sid in p for p in res.pools)
            monotone += res.pool_sizes == sorted(res.pool_sizes, reverse=True)
            identified += int(res.identified and res.social_id == truth_sid)
    assert runs == 1000
    assert monotone == runs, f"monotone in {monotone}/{runs} runs"
    assert sound == runs, f"sound in {sound}/{runs} runs"
    ok("graph-search-refinement",
       f"1000/1000 monotone and sound; identified {identified / 10:.1f}%")


# 7 ---------------------------------------------------------------------------

def test_interest_overlap_calibration():
    """Synthetic populations against a top-10 attacker land in the 10-35%
    share-at-least-one-like band (50 seeds, n=250, catalog 1000)."""
    sharing = total = 0
    per_seed = []
    for seed in range(50):
        world = generate_population(250, 1000, 1.0, seed=derive_seed(seed, "overlap"),
                                    mean_likes=0.7)
        top10 = set(world.catalog.page_ids[:10])
        hits = sum(1 for u in world.users.values() if u.likes & top10)
        per_seed.append(hits / 250)
        sharing += hits
        total += 250
    pooled = sharing / total
    assert 0.10 <= pooled <= 0.35, f"pooled share fraction {pooled:.3f}"
    assert 0.10 <= min(per_seed) and max(per_seed) <= 0.35, \
        f"per-seed range [{min(per_seed):.3f}, {max(per_seed):.3f}]"
    ok("interest-overlap-calibration",
       f"pooled {pooled:.1%}, per-seed range {min(per_seed):.1%}..{max(per_seed):.1%}")


# 8 ---------------------------------------------------------------------------

def test_category_mitigation():
    """Identification rate with category-level interests is strictly below
    page-level interests on at least 45 of 50 paired seeds."""

    def rate(world, graph, initial, mode, victims):
        svc = ProximityService(world, DisclosurePolicy(interests_mode=mode))
        session = svc.login(ATTACKER)
        svc.nearby(session, 1e9)
        hits = 0
        for u in victims:
            world.users[ATTACKER].likes = set(initial)
            view = svc.profile(session, u.user_id)

            def refresh(pages, _vid=u.user_id):
                world.add_likes(ATTACKER, pages)
                return svc.profile(session, _vid)

            res = identify(view, graph, like_and_refresh=refresh,
                           interests_are_pages=(mode == "pages"))
            hits += int(res.identified
                        and res.social_id == world.users[u.user_id].social_id)
        return hits

    strict = 0
    for seed in range(50):
        world = generate_population(3000, 500, 1.0,
                                    seed=derive_seed(seed, "mitigation-pair"),
                                    mean_likes=5.0)
        world.add_user(SimUser(ATTACKER, "Mallory", date(1990, 1, 1),
                               stationary_trajectory(world.bbox.center),
                               set(world.catalog.page_ids[:10]), "fb-attacker"))
        population = [u for u in world.users.values() if u.user_id != ATTACKER]
        initial = set(world.users[ATTACKER].likes)
        victims = population[:12]
        graph = SocialGraph(population)
        pages_hits = rate(world, graph, initial, "pages", victims)
        cat_hits = rate(world, graph, initial, "categories", victims)
        strict += int(cat_hits < pages_hits)
    assert strict >= 45, f"strictly lower on only {strict}/50 seeds"
    ok("category-mitigation", f"strictly lower on {strict}/50 paired seeds")


# 10 --------------------------------------------------------------------------

def test_poi_extraction_commuter():
    """Commuter with two 8 h dwells 5 km apart, hourly fixes at quantum
    100 m: exactly two POIs, each within 200 m of truth, on >= 95/100 seeds."""
    good = 0
    for seed in range(100):
        rng = random.Random(derive_seed(seed, "poi"))
        world, svc = attack_world(seed, n=2,
                                  policy=DisclosurePolicy(distance_quantum_m=100.0))
        home = world.true_position_of(TARGET)
        ang = rng.uniform(0, 2 * math.pi)
        work = from_enu(EnuPoint(5000.0 * math.cos(ang),
                                 5000.0 * math.sin(ang), home))
        world.set_trajectory(TARGET, commuter_trajectory(
            home, work, 28_800.0, 1800.0, 60_000.0))
        session = svc.login(ATTACKER)
        prior = from_enu(EnuPoint(rng.uniform(-250, 250),
                                  rng.uniform(-250, 250), home))
        svc.nearby(session, 1e9)
        agent = Attacker(svc, session, ref=prior, advance=world.advance)
        plan = ProbePlan(strategy="ring", count=16, ring_radius_m=1000.0,
                         center=prior, angle0_rad=rng.uniform(0, 2 * math.pi))
        record = agent.track(TARGET, 3600.0, 57_600.0, plan,
                             SolverConfig(max_iterations=250, seed=seed))
        pois = extract_pois(record, radius_m=200.0, min_dwell_s=7200.0)
        if len(pois) != 2:
            continue
        he, we = to_enu(home, prior), to_enu(work, prior)
        home_err = min(math.hypot(p.center.x_m - he.x_m, p.center.y_m - he.y_m)
                       for p in pois)
        work_err = min(math.hypot(p.center.x_m - we.x_m, p.center.y_m - we.y_m)
                       for p in pois)
        if home_err <= 200.0 and work_err <= 200.0:
            good += 1
    assert good >= 95, f"only {good}/100 seeds recovered both POIs"
    ok("poi-extraction", f"{good}/100 seeds: exactly 2 POIs within 200 m")


# 11 --------------------------------------------------------------------------

def test_protocol_differential_and_policy_soundness():
    """10^3 random request sequences produce identical results over TCP and
    in-process, and 10^4 policy x query fuzz cases never leak a disabled
    field."""
    from test_tcp import random_requests, reference_responses, make_service

    rng = random.Random(0xACCE97)
    sequences_checked = 0
    for batch in range(20):
        world_a, svc_a = make_service(n=12, seed=batch)
        world_b, svc_b = make_service(n=12, seed=batch)
        ids = sorted(world_a.users)
        srv = ServiceServer(svc_b)
        thread = threading.Thread(
            target=lambda: srv.serve_forever(poll_interval=0.02), daemon=True)
        thread.start()
        try:
            for _ in range(50):
                requests = random_requests(rng, ids)
                expected = reference_responses(svc_a, requests)
                with ServiceClient("127.0.0.1", srv.port) as client:
                    got = [client.request(r) for r in requests]
                assert got == expected
                sequences_checked += 1
        finally:
            srv.shutdown()
            thread.join()
            srv.server_close()
    assert sequences_checked == 1000

    # policy x query fuzz
    cases = 0
    policy_rng = random.Random(0x50FD)
    while cases < 10_000:
        policy = DisclosurePolicy(
            share_distance=policy_rng.random() < 0.5,
            distance_quantum_m=policy_rng.choice([0.0, 10.0, 100.0, 500.0]),
            share_first_name=policy_rng.random() < 0.5,
            birthdate_mode=policy_rng.choice(["exact", "fuzzy_15d", "hidden"]),
            interests_mode=policy_rng.choice(["pages", "categories", "hidden"]),
            share_social_id=policy_rng.random() < 0.5,
        )
        world = generate_population(25, 60, 1.0, seed=cases, mean_likes=3.0)
        svc = ProximityService(world, policy)
        uid = sorted(world.users)[policy_rng.randrange(25)]
        session = svc.login(uid)
        entries = svc.nearby(session, policy_rng.uniform(2000, 1e6))
        some = [svc.profile(session, e.user_id)
                for e in entries[:3]] if entries else []
        for e in entries + some:
            if not policy.share_distance:
                assert e.distance_m is None
            if not policy.share_first_name:
                assert e.first_name is None
            if not policy.share_social_id:
                assert e.social_id is None
            if policy.birthdate_mode == "hidden":
                assert e.fuzzy_birthdate is None
            if policy.interests_mode == "hidden":
                assert e.common_likes is None
            cases += 1
    ok("protocol-differential",
       f"1000 sequences identical over TCP; {cases} soundness cases clean")
