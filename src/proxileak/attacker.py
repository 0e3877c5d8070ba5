"""The adversary agent.

The attacker is an ordinary service client: it moves its own account
around, polls a target's profile for the quantized distance, and feeds the
collected samples to the position solver. Longitudinal tracking repeats
the fix at a fixed cadence and extracts stay points (POIs) from the
estimate series. Everything here sees the world only through the service
API; ground truth is never consulted (tests assert this by scanning the
module source).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .geo import EnuPoint, GeoPoint, from_enu, to_enu
from .mlat import (DegenerateGeometryError, DistanceSample, PositionEstimate,
                   SolverConfig, UnderdeterminedError, multilaterate)
from .report import AttackTrace, TraceEvent
from .service import ProximityService, Session

__all__ = [
    "ProbePlan", "TrackRecord", "Poi", "PolicyBlockedError", "Attacker",
    "extract_pois", "track_to_csv", "PROBE_STRATEGIES",
]

PROBE_STRATEGIES = ("ring", "adaptive", "fixed_points")

TRACK_CSV_HEADER = "t_s,est_x_m,est_y_m,residual_m"


class PolicyBlockedError(RuntimeError):
    """The service does not disclose what this attack needs."""


@dataclass(frozen=True)
class ProbePlan:
    """Where the attacker stands while sampling the target's distance.

    ``ring`` places ``count`` equally spaced probes on a circle around
    ``center`` (rotated by ``angle0_rad``); ``adaptive`` spends the same
    budget over ``adaptive_rounds`` rings, re-centering and halving the
    radius on the running estimate; ``fixed_points`` uses ``points`` as-is.
    """

    strategy: str = "ring"
    count: int = 16
    ring_radius_m: float = 1000.0
    center: GeoPoint | None = None
    points: tuple[GeoPoint, ...] = ()
    angle0_rad: float = 0.0
    adaptive_rounds: int = 2

    def __post_init__(self) -> None:
        if self.strategy not in PROBE_STRATEGIES:
            raise ValueError(f"unknown probe strategy {self.strategy!r}")
        n = len(self.points) if self.strategy == "fixed_points" else self.count
        if n < 3:
            raise ValueError("localization plans need at least 3 probes")
        if self.strategy in ("ring", "adaptive"):
            if self.center is None:
                raise ValueError("ring plans need a center")
            if self.ring_radius_m <= 0.0:
                raise ValueError("ring radius must be > 0")
        if self.strategy == "adaptive" and self.adaptive_rounds < 1:
            raise ValueError("adaptive plans need >= 1 round")


def ring_points(center: GeoPoint, radius_m: float, count: int,
                angle0_rad: float = 0.0) -> list[GeoPoint]:
    out = []
    for i in range(count):
        a = angle0_rad + 2.0 * math.pi * i / count
        out.append(from_enu(EnuPoint(radius_m * math.cos(a),
                                     radius_m * math.sin(a), center)))
    return out


@dataclass(frozen=True)
class Poi:
    center: EnuPoint
    dwell_s: float
    t_start: float
    t_end: float
    n_fixes: int


@dataclass
class TrackRecord:
    target_id: str
    estimates: list[tuple[float, PositionEstimate]] = field(default_factory=list)
    pois: list[Poi] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)

    def add(self, t: float, est: PositionEstimate) -> None:
        if self.estimates and t <= self.estimates[-1][0]:
            raise ValueError("estimate timestamps must be strictly increasing")
        self.estimates.append((t, est))


class Attacker:
    """A sequential attacking client bound to one service session.

    ``ref`` anchors the attacker's working plane (any point near the scene
    works). ``advance`` is the scenario's clock hook: tracking calls it to
    let simulated time pass between fixes.
    """

    def __init__(self, service: ProximityService, session: Session,
                 ref: GeoPoint, trace: AttackTrace | None = None,
                 advance: Callable[[float], float] | None = None):
        self.service = service
        self.session = session
        self.ref = ref
        self.trace = trace if trace is not None else AttackTrace()
        self._advance = advance
        self.last_samples: list[DistanceSample] = []

    # -- acquisition -------------------------------------------------------

    def discover(self, radius_m: float):
        """Initial sweep; targets must appear here before they can be polled."""
        return self.service.nearby(self.session, radius_m)

    def sample_distance(self, target_id: str, probe: GeoPoint) -> DistanceSample:
        """Move to ``probe``, poll the target, return the observation."""
        self.service.update_location(self.session, probe)
        entry = self.service.profile(self.session, target_id)
        if entry.distance_m is None:
            raise PolicyBlockedError(
                "service does not share distances; localization is impossible")
        obs = to_enu(probe, self.ref)
        t = entry.last_active_t
        self.trace.append(TraceEvent("probe", t, target_id,
                                     {"x_m": obs.x_m, "y_m": obs.y_m}))
        self.trace.append(TraceEvent("profile_poll", t, target_id,
                                     {"distance_m": entry.distance_m}))
        return DistanceSample(obs, entry.distance_m, t,
                              self.service.policy.distance_quantum_m)

    def collect_samples(self, target_id: str,
                        points: Sequence[GeoPoint]) -> list[DistanceSample]:
        return [self.sample_distance(target_id, p) for p in points]

    # -- attacks -----------------------------------------------------------

    def localize(self, target_id: str, plan: ProbePlan,
                 cfg: SolverConfig) -> PositionEstimate:
        """One position fix: execute the plan, solve over all samples."""
        if plan.strategy == "fixed_points":
            samples = self.collect_samples(target_id, plan.points)
        elif plan.strategy == "ring":
            pts = ring_points(plan.center, plan.ring_radius_m, plan.count,
                              plan.angle0_rad)
            samples = self.collect_samples(target_id, pts)
        else:  # adaptive: re-center and tighten round by round
            samples = []
            center = plan.center
            radius = plan.ring_radius_m
            rounds = min(plan.adaptive_rounds, plan.count // 3)
            per_round = max(3, plan.count // rounds)
            remaining = plan.count
            for r in range(rounds):
                n = per_round if r < rounds - 1 else remaining
                samples += self.collect_samples(
                    target_id, ring_points(center, radius, n, plan.angle0_rad))
                remaining -= n
                est = multilaterate(samples, cfg)
                center = from_enu(est.p_hat)
                radius = max(radius / 2.0, 50.0)
        est = multilaterate(samples, cfg)
        self.last_samples = samples
        self.trace.append(TraceEvent(
            "localize_result", samples[-1].t, target_id,
            {"x_m": est.p_hat.x_m, "y_m": est.p_hat.y_m,
             "residual": est.residual, "n_samples": est.samples_used}))
        return est

    def track(self, target_id: str, interval_s: float, duration_s: float,
              plan: ProbePlan, cfg: SolverConfig) -> TrackRecord:
        """Fix the target every ``interval_s`` of simulated time.

        Ring plans re-center each fix on the previous estimate, so the
        attacker keeps touch with a moving target without any outside help.
        A fix lost to degenerate solver geometry is recorded as a gap and
        tracking continues; a policy block aborts the whole track.
        """
        if interval_s <= 0.0:
            raise ValueError("interval_s must be > 0")
        if duration_s < 0.0:
            raise ValueError("duration_s must be >= 0")
        if self._advance is None:
            raise ValueError("tracking needs the scenario clock hook")
        record = TrackRecord(target_id)
        n_fixes = 1 + int(duration_s // interval_s) if duration_s >= interval_s else 1
        current = plan
        for k in range(n_fixes):
            if k > 0:
                self._advance(interval_s)
            try:
                est = self.localize(target_id, current, cfg)
            except (UnderdeterminedError, DegenerateGeometryError):
                record.gaps.append(k * interval_s)
                continue
            record.add(self._fix_time(), est)
            if current.strategy in ("ring", "adaptive"):
                current = ProbePlan(strategy=current.strategy,
                                    count=current.count,
                                    ring_radius_m=current.ring_radius_m,
                                    center=from_enu(est.p_hat),
                                    angle0_rad=current.angle0_rad,
                                    adaptive_rounds=current.adaptive_rounds)
        return record

    def _fix_time(self) -> float:
        # Session-visible time of the latest poll.
        return self.trace.events[-1].t if self.trace.events else 0.0


def extract_pois(track: TrackRecord, radius_m: float,
                 min_dwell_s: float) -> list[Poi]:
    """Stay-point detection over the estimate series.

    The track is partitioned into maximal windows whose fixes all lie
    within ``radius_m`` of the window centroid; each window spanning at
    least ``min_dwell_s`` yields one POI at that centroid.
    """
    if radius_m <= 0.0 or min_dwell_s < 0.0:
        raise ValueError("radius_m must be > 0 and min_dwell_s >= 0")
    pts = [(t, est.p_hat) for t, est in track.estimates]
    if not pts:
        return []
    ref = pts[0][1].ref
    pois: list[Poi] = []
    i = 0
    while i < len(pts):
        # Left-to-right running sums of the window pts[i:j + 1], started
        # from 0.0 like sum(). Not sum() itself: since Python 3.12 it
        # compensates float rounding, so centroids would depend on the
        # Python version.
        sx = 0.0 + pts[i][1].x_m
        sy = 0.0 + pts[i][1].y_m
        j = i
        while j + 1 < len(pts):
            p = pts[j + 1][1]
            tx = sx + p.x_m
            ty = sy + p.y_m
            size = j + 2 - i
            cx = tx / size
            cy = ty / size
            if all(math.hypot(q.x_m - cx, q.y_m - cy) <= radius_m
                   for _, q in pts[i:j + 2]):
                sx = tx
                sy = ty
                j += 1
            else:
                break
        window = pts[i:j + 1]
        cx = sx / len(window)
        cy = sy / len(window)
        span = window[-1][0] - window[0][0]
        if span >= min_dwell_s and len(window) > 1:
            pois.append(Poi(EnuPoint(cx, cy, ref), span,
                            window[0][0], window[-1][0], len(window)))
        i = j + 1
    return pois


def track_to_csv(track: TrackRecord, fp) -> None:
    """Write the estimate series (``t_s,est_x_m,est_y_m,residual_m``)."""
    fp.write(TRACK_CSV_HEADER + "\n")
    for t, est in track.estimates:
        fp.write(f"{t!r},{est.p_hat.x_m!r},{est.p_hat.y_m!r},{est.residual!r}\n")
