"""Scenario execution: build a world from a config, run an attack pipeline,
emit artifacts.

Every run writes the attack's CSV/SVG artifacts, the trace's violation
classification, ``summary.csv`` and, last, ``manifest.cfg`` (the fully
resolved configuration) into the output directory, so a directory without
a manifest holds a run that did not finish. Every artifact is a pure
function of (config, seed).
"""

from __future__ import annotations

import gc
import math
import random
import statistics
from datetime import date
from pathlib import Path

from . import report
from .attacker import Attacker, ProbePlan, extract_pois
from .config import (POLICY_FIELDS, SWEEPABLE_PARAMS, ConfigError,
                     ScenarioConfig, convert_value, render_manifest, validate)
from .geo import EnuPoint, GeoPoint, from_enu, haversine_m, to_enu
from .mlat import SolverConfig
from .report import AttackTrace
from .service import ProximityService
from .socialgraph import SocialGraph, identify
from .world import (BoundingBox, DisclosurePolicy, SimUser, World,
                    commuter_trajectory, derive_seed, gc_paused,
                    generate_population, random_walk_trajectory,
                    stationary_trajectory)

__all__ = ["RunResult", "build_policy", "build_service", "build_world",
           "run_scenario", "run_sweep"]

ATTACKER_ID = "attacker"
TARGET_ID = "u00000"

class RunResult:
    def __init__(self, metrics: dict[str, float]):
        self.metrics = metrics


def build_policy(cfg: ScenarioConfig) -> DisclosurePolicy:
    return DisclosurePolicy(**{f: getattr(cfg, f) for f in POLICY_FIELDS})


def build_world(cfg: ScenarioConfig, seed: int | None = None) -> World:
    """Population, the target's trajectory, and the attacker account."""
    seed = cfg.seed if seed is None else seed
    bbox = BoundingBox(*cfg.bbox)
    world = generate_population(cfg.n_users, cfg.catalog_size, cfg.zipf_s,
                                seed, bbox=bbox, mean_likes=cfg.mean_likes,
                                n_categories=cfg.n_categories)
    rng = random.Random(derive_seed(seed, "target-trajectory"))
    home = world.true_position_of(TARGET_ID)
    if cfg.trajectory == "commuter":
        ang = rng.uniform(0.0, 2.0 * math.pi)
        work = from_enu(EnuPoint(cfg.commute_distance_m * math.cos(ang),
                                 cfg.commute_distance_m * math.sin(ang), home))
        world.set_trajectory(TARGET_ID, commuter_trajectory(
            home, work, cfg.dwell_home_s, cfg.travel_s, cfg.dwell_work_s))
    elif cfg.trajectory == "random_walk":
        # Long enough for the track; the target holds its last waypoint.
        n_steps = max(1, math.ceil(cfg.track_duration_s / cfg.walk_interval_s))
        world.set_trajectory(TARGET_ID, random_walk_trajectory(
            home, cfg.walk_step_m, cfg.walk_interval_s, n_steps, rng, bbox))
    world.add_user(SimUser(
        user_id=ATTACKER_ID,
        first_name="Mallory",
        true_birthdate=date(1990, 1, 1),
        trajectory=stationary_trajectory(bbox.center),
        likes=set(world.catalog.page_ids[:cfg.attacker_top_likes]),
        social_id="fb-attacker",
    ))
    return world


def build_service(cfg: ScenarioConfig, seed: int) -> ProximityService:
    """The service over a fresh ``build_world(cfg, seed)``, under cfg's policy.

    The world is built with the cyclic garbage collector paused (its users
    form no reference cycle, so a pass would free nothing) and frozen into
    the permanent generation before the pause ends, so no later collection
    walks it; frozen after the collector resumed, it would be walked once
    first. The freeze is process-wide: every object alive at that moment
    is frozen with the world. ``run_scenario`` thaws it when its run ends;
    ``serve`` keeps it for the life of the server. Reference counting
    still frees frozen objects; only cyclic garbage among them waits for
    the thaw.
    """
    with gc_paused():
        world = build_world(cfg, seed)
        gc.freeze()
    return ProximityService(world, build_policy(cfg),
                            teleport_limit_m=cfg.teleport_limit_m,
                            teleport_cooldown_s=cfg.teleport_cooldown_s)


def _solver_config(cfg: ScenarioConfig, seed: int) -> SolverConfig:
    return SolverConfig(norm=cfg.solver_norm,
                        max_iterations=cfg.solver_max_iterations,
                        step_init_m=cfg.solver_step_init_m,
                        tol_m=cfg.solver_tol_m,
                        seed=derive_seed(seed, "solver"))


def _probe_plan(cfg: ScenarioConfig, center: GeoPoint, seed: int) -> ProbePlan:
    rng = random.Random(derive_seed(seed, "plan"))
    return ProbePlan(strategy=cfg.probe_strategy, count=cfg.probe_count,
                     ring_radius_m=cfg.ring_radius_m, center=center,
                     angle0_rad=rng.uniform(0.0, 2.0 * math.pi))


def _coarse_prior(truth: GeoPoint, offset_m: float, seed: int) -> GeoPoint:
    # The scenario hands the attacker an imperfect starting point, standing
    # in for whatever coarse acquisition preceded the attack.
    rng = random.Random(derive_seed(seed, "prior"))
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return from_enu(EnuPoint(offset_m * math.cos(ang),
                             offset_m * math.sin(ang), truth))


def _open_attack(cfg: ScenarioConfig, seed: int,
                 trace: AttackTrace | None) -> Attacker:
    """The attacker logged in to a fresh ``build_service(cfg, seed)``, after
    its discovery sweep over the whole world.

    The attacker anchors its working plane at its coarse prior of the
    target, which keeps the flat-plane model tight around the scene.
    """
    service = build_service(cfg, seed)
    world = service.world
    session = service.login(ATTACKER_ID)
    prior = _coarse_prior(world.true_position_of(TARGET_ID),
                          cfg.probe_center_offset_m, seed)
    service.discover(session)
    return Attacker(service, session, ref=prior, trace=trace,
                    advance=world.advance)


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path) -> RunResult:
    """Run the scenario's attack and write its artifacts into ``out_dir``.

    The run thaws the garbage collector freeze that ``build_service`` makes
    for each of its worlds: it calls ``gc.unfreeze()`` on the way out,
    whether it returns or raises, so a sweep or any other caller does not
    keep one run's frozen garbage into the next. The unfreeze is
    process-wide, so it also thaws whatever was frozen before the run
    (CPython 3.12 starts with a few hundred frozen objects).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.cfg"
    manifest.unlink(missing_ok=True)
    try:
        if cfg.attack == "localize":
            metrics = _run_localize(cfg, out)
        elif cfg.attack == "track":
            metrics = _run_track(cfg, out)
        else:
            metrics = _run_identify(cfg, out)
    finally:
        gc.unfreeze()
    report.write_csv(out / "summary.csv", ("metric", "value"),
                     ((k, metrics[k]) for k in sorted(metrics)))
    report._write(manifest, (render_manifest(cfg),))
    return RunResult(metrics)


def _run_localize(cfg: ScenarioConfig, out: Path) -> dict[str, float]:
    rows = []
    trace = AttackTrace()  # only trial 0 is traced
    for trial in range(cfg.trials):
        tseed = derive_seed(cfg.seed, "trial", trial)
        agent = _open_attack(cfg, tseed, trace if trial == 0 else None)
        truth = agent.service.world.true_position_of(TARGET_ID)
        est = agent.localize(TARGET_ID, _probe_plan(cfg, agent.ref, tseed),
                             _solver_config(cfg, tseed))
        err = haversine_m(from_enu(est.p_hat), truth)
        rows.append((trial, tseed, err, est.residual, est.iterations_used))
        if trial == 0:
            t_enu = to_enu(truth, agent.ref)
            report.write_probe_map(agent.last_samples, est,
                                   (t_enu.x_m, t_enu.y_m), out)
    report.write_csv(out / "localize_trials.csv",
                     ("trial", "seed", "error_m", "residual_m", "iterations"),
                     rows)
    report.emit(out, trace)
    errors = [r[2] for r in rows]
    return {
        "trials": cfg.trials,
        "median_error_m": statistics.median(errors),
        "mean_error_m": statistics.fmean(errors),
        "max_error_m": max(errors),
    }


def _run_track(cfg: ScenarioConfig, out: Path) -> dict[str, float]:
    trace = AttackTrace()
    agent = _open_attack(cfg, cfg.seed, trace)
    record = agent.track(TARGET_ID, cfg.track_interval_s, cfg.track_duration_s,
                         _probe_plan(cfg, agent.ref, cfg.seed),
                         _solver_config(cfg, cfg.seed))
    pois = extract_pois(record, cfg.poi_radius_m, cfg.poi_min_dwell_s)
    report.write_csv(out / "track.csv",
                     ("t_s", "est_x_m", "est_y_m", "residual_m"),
                     ((t, e.p_hat.x_m, e.p_hat.y_m, e.residual)
                      for t, e in record.estimates))
    report.write_csv(out / "pois.csv",
                     ("x_m", "y_m", "dwell_s", "t_start", "t_end", "n_fixes"),
                     ((p.center.x_m, p.center.y_m, p.dwell_s, p.t_start,
                       p.t_end, p.n_fixes) for p in pois))
    report.emit(out, trace)
    metrics = {
        "n_fixes": len(record.estimates),
        "n_gaps": len(record.gaps),
        "n_pois": len(pois),
    }
    # Distance of each POI to the nearest trajectory waypoint (ground truth)
    # the target had reached by the last fix.
    if pois:
        t_last = record.estimates[-1][0]
        waypoints = [wp for t, wp in
                     agent.service.world.users[TARGET_ID].trajectory.waypoints
                     if t <= t_last]
        errs = [min(haversine_m(from_enu(p.center), wp) for wp in waypoints)
                for p in pois]
        metrics["poi_error_max_m"] = max(errs)
    return metrics


def _run_identify(cfg: ScenarioConfig, out: Path) -> dict[str, float]:
    trace = AttackTrace()
    agent = _open_attack(cfg, cfg.seed, trace)
    service, session, world = agent.service, agent.session, agent.service.world
    # Indexed once: only the attacker's likes change during the run.
    population = SocialGraph(u for u in world.users.values()
                             if u.user_id != ATTACKER_ID)
    initial_likes = set(world.users[ATTACKER_ID].likes)
    victim_ids = [u.user_id for u in population.users[:cfg.identify_victims]]
    rows, pool_rows, hits = [], [], 0
    for vid in victim_ids:
        world.users[ATTACKER_ID].likes = set(initial_likes)
        view = service.profile(session, vid)

        def like_and_refresh(pages: set[str], _vid=vid):
            world.add_likes(ATTACKER_ID, pages)
            return service.profile(session, _vid)

        res = identify(view, population,
                       max_rounds=cfg.identify_max_rounds,
                       batch_size=cfg.identify_batch_size,
                       like_and_refresh=like_and_refresh,
                       interests_are_pages=(cfg.interests_mode == "pages"),
                       birthdate_is_fuzzy=(cfg.birthdate_mode == "fuzzy_15d"),
                       trace=trace)
        vseed = derive_seed(cfg.seed, "victim", vid)
        rows.append((vseed, res))
        pool_rows += [(vid, rnd, size) for rnd, size in enumerate(res.pool_sizes)]
        hits += int(res.identified and res.social_id == world.users[vid].social_id)
    report.write_csv(out / "identification.csv",
                     ("seed", "rounds_used", "final_pool", "identified"),
                     ((seed, r.rounds_used, r.pool_sizes[-1], int(r.identified))
                      for seed, r in rows))
    report.write_pool_curve(pool_rows, out)
    report.emit(out, trace)
    return {
        "victims": len(victim_ids),
        "identification_rate": hits / len(victim_ids),
        "mean_rounds": statistics.fmean(r.rounds_used for _, r in rows),
        "mean_final_pool": statistics.fmean(r.pool_sizes[-1] for _, r in rows),
    }


def run_sweep(cfg: ScenarioConfig, param: str, values: list[str],
              out_dir: str | Path, parallel: int = 1) -> None:
    """Run the scenario once per value, aggregate headline metrics.

    Each value must be distinct; at most ``min(parallel, len(values))``
    worker processes run the values."""
    if param not in SWEEPABLE_PARAMS:
        raise ConfigError(f"not sweepable (choose from {', '.join(SWEEPABLE_PARAMS)})",
                          field=param)
    if parallel < 1:
        raise ConfigError(f"must be >= 1: {parallel}", field="--parallel")
    out = Path(out_dir)
    jobs, seen = [], {}
    for v in values:
        value = convert_value(param, v)
        if value in seen:
            raise ConfigError(f"{v!r} repeats {seen[value]!r}", field="--values")
        seen[value] = v
        jobs.append((validate(ScenarioConfig(**{**vars(cfg), param: value})),
                     out / f"{param}={v}"))
    out.mkdir(parents=True, exist_ok=True)
    workers = min(parallel, len(jobs))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.starmap(run_scenario, jobs)
    else:
        results = [run_scenario(*j) for j in jobs]

    metrics = [r.metrics for r in results]
    metric_keys = sorted({k for m in metrics for k in m})
    report.write_csv(
        out / "sweep.csv", ("param", "value", *metric_keys),
        ((param, v, *(m.get(k, "") for k in metric_keys))
         for v, m in zip(values, metrics)))
    if param == "distance_quantum_m" and cfg.attack == "localize":
        rows = [(float(v), m["median_error_m"], m["mean_error_m"], int(m["trials"]))
                for v, m in zip(values, metrics)]
        report.write_error_vs_quantum(rows, out)
