"""Scenario configuration: a flat ``key = value`` text format.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
``seed`` is mandatory; every other key has a documented default. Unknown
keys, unparsable values and a key set a second time fail with the
offending line and field named; overrides (``--set``) replace file keys.
Out-of-range values fail with the field named, and when several keys are
out of range the first in the list below is reported. Numbers must be
finite: ``inf`` is accepted only for ``teleport_limit_m`` and
``teleport_cooldown_s``, and ``nan`` nowhere. The geometric distances
``commute_distance_m``, ``walk_step_m``, ``ring_radius_m`` and
``probe_center_offset_m`` must stay below the 100 km tangent-plane range
of ``geo``. The bounding box must have positive extent, latitudes in
[-90, 90] and longitudes in [-180, 180]. ``track_duration_s`` must be
below 366 days, and may span at most ``MAX_TRACK_STEPS`` intervals of
``walk_interval_s`` and of ``track_interval_s``; a finer interval is
reported on its own key.
The fully resolved configuration (defaults included) can be rendered back
out as a manifest, byte-stable for fixed inputs. The configuration holds
no output path, so a manifest parses back to the run it records.

Keys (defaults in parentheses):

  seed                  int, required; master seed for everything random
  attack                localize | track | identify (localize)
  bbox                  lat_min,lon_min,lat_max,lon_max (41.35,2.10,41.45,2.25)
  n_users               population size (25)
  catalog_size          pages in the catalog (1000)
  zipf_s                rank-weight exponent for like sampling (1.0)
  mean_likes            mean per-user like count (3.0)
  n_categories          page categories (25)
  policy_preset         tinder|happn|lovoo|grindr|badoo|custom (custom)
  share_distance        bool (true)
  distance_quantum_m    floor-quantization step, 0 = exact (100); a
                        positive step must keep pi * 6371008.8 m / step
                        finite (>= ~1.1e-301)
  share_first_name      bool (true)
  birthdate_mode        exact|fuzzy_15d|hidden (fuzzy_15d)
  interests_mode        pages|categories|hidden (pages)
  share_social_id       bool (false)
  teleport_limit_m      max single move, inf = unlimited (inf)
  teleport_cooldown_s   wait that re-allows a long move (inf)
  trajectory            stationary|commuter|random_walk (stationary)
  commute_distance_m    home-work separation (5000)
  dwell_home_s / dwell_work_s / travel_s   commuter timing (28800/28800/1800)
  walk_step_m / walk_interval_s            random-walk parameters (500/600)
  trials                Monte Carlo repetitions for localize (1)
  probe_strategy        ring|adaptive (ring)
  probe_count           probes per fix (16)
  ring_radius_m         probe ring radius (1000)
  probe_center_offset_m distance of the attack's coarse prior from the
                        target (250)
  solver_norm           l1|l2 (l1)
  solver_max_iterations / solver_step_init_m / solver_tol_m  (200/500/0.01)
  track_interval_s / track_duration_s      fix cadence and span (3600/57600)
  poi_radius_m / poi_min_dwell_s           stay-point parameters (200/7200)
  identify_max_rounds / identify_batch_size / identify_victims (10/10/10)
  attacker_top_likes    attacker's initial likes = top-N pages (10)
"""

from __future__ import annotations

import math
from pathlib import Path

from .attacker import PROBE_STRATEGIES
from .geo import MAX_TANGENT_RANGE_M
from .mlat import SOLVER_NORMS
from .world import (BIRTHDATE_MODES, INTERESTS_MODES, POLICY_PRESETS,
                    BoundingBox, DisclosurePolicy)

__all__ = ["ConfigError", "KEYS", "ScenarioConfig", "parse_scenario",
           "parse_scenario_text", "render_manifest",
           "convert_value", "validate", "POLICY_FIELDS", "SWEEPABLE_PARAMS"]

SWEEPABLE_PARAMS = ("distance_quantum_m", "probe_count", "identify_batch_size",
                    "interests_mode")

# Most intervals track_duration_s may span: a track takes at most one fix
# more, a random walk at most this many steps.
MAX_TRACK_STEPS = 10**6


class ConfigError(ValueError):
    """Invalid scenario configuration; carries field and line context."""

    def __init__(self, message: str, field: str | None = None,
                 line: int | None = None):
        self.field = field
        self.line = line
        where = ""
        if line is not None:
            where += f"line {line}: "
        if field is not None:
            where += f"field {field!r}: "
        super().__init__(where + message)


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _float(raw: str) -> float:
    v = float(raw)
    if math.isnan(v):
        raise ValueError("NaN is not a valid value")
    return v


def _bbox(raw: str) -> tuple[float, float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 4:
        raise ValueError("bbox needs lat_min,lon_min,lat_max,lon_max")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


_PARSERS = {"int": int, "float": _float, "bool": _bool, "bbox": _bbox}


class Key:
    """One config key: its type, its default and its constraint.

    ``type`` is ``int``, ``float``, ``bool``, ``bbox`` or ``str``; a ``str``
    key accepts exactly its ``choices``. ``ge``/``gt``/``lt`` bound a
    number; float keys must be finite unless ``allow_inf``.
    """

    __slots__ = ("type", "default", "choices", "ge", "gt", "lt", "allow_inf")

    def __init__(self, type: str, default=None, *,
                 choices: tuple[str, ...] = (), ge=None, gt=None, lt=None,
                 allow_inf: bool = False):
        self.type = type
        self.default = default
        self.choices = choices
        self.ge = ge
        self.gt = gt
        self.lt = lt
        self.allow_inf = allow_inf

    def check(self, v) -> None:
        """Raise ``ValueError`` unless ``v`` meets this key's bounds."""
        if self.ge is not None and not v >= self.ge:
            raise ValueError(f"must be >= {self.ge}, got {v!r}")
        if self.gt is not None and not v > self.gt:
            raise ValueError(f"must be > {self.gt}, got {v!r}")
        if self.lt is not None and not v < self.lt:
            raise ValueError(f"must be < {self.lt}, got {v!r}")
        if self.type == "float" and not (math.isfinite(v) or self.allow_inf):
            raise ValueError(f"must be finite, got {v!r}")


# Every key, in the order validate checks them; seed has no default.
KEYS: dict[str, Key] = {
    "seed": Key("int"),
    "attack": Key("str", "localize",
                  choices=("localize", "track", "identify")),
    "bbox": Key("bbox", (41.35, 2.10, 41.45, 2.25)),
    "n_users": Key("int", 25, ge=1),
    "catalog_size": Key("int", 1000, ge=1),
    "zipf_s": Key("float", 1.0, gt=0),
    "mean_likes": Key("float", 3.0, ge=0),
    "n_categories": Key("int", 25, ge=1),
    "policy_preset": Key("str", "custom",
                         choices=(*POLICY_PRESETS, "custom")),
    "share_distance": Key("bool", True),
    "distance_quantum_m": Key("float", 100.0, ge=0),
    "share_first_name": Key("bool", True),
    "birthdate_mode": Key("str", "fuzzy_15d", choices=BIRTHDATE_MODES),
    "interests_mode": Key("str", "pages", choices=INTERESTS_MODES),
    "share_social_id": Key("bool", False),
    "teleport_limit_m": Key("float", math.inf, gt=0, allow_inf=True),
    "teleport_cooldown_s": Key("float", math.inf, ge=0, allow_inf=True),
    "trajectory": Key("str", "stationary",
                      choices=("stationary", "commuter", "random_walk")),
    "commute_distance_m": Key("float", 5000.0, gt=0, lt=MAX_TANGENT_RANGE_M),
    "dwell_home_s": Key("float", 28_800.0, gt=0),
    "dwell_work_s": Key("float", 28_800.0, gt=0),
    "travel_s": Key("float", 1800.0, gt=0),
    "walk_step_m": Key("float", 500.0, gt=0, lt=MAX_TANGENT_RANGE_M),
    "walk_interval_s": Key("float", 600.0, gt=0),
    "trials": Key("int", 1, ge=1),
    "probe_strategy": Key("str", "ring", choices=PROBE_STRATEGIES),
    "probe_count": Key("int", 16, ge=3),
    "ring_radius_m": Key("float", 1000.0, gt=0, lt=MAX_TANGENT_RANGE_M),
    "probe_center_offset_m": Key("float", 250.0, ge=0,
                                 lt=MAX_TANGENT_RANGE_M),
    "solver_norm": Key("str", "l1", choices=tuple(SOLVER_NORMS)),
    "solver_max_iterations": Key("int", 200, ge=1),
    "solver_step_init_m": Key("float", 500.0, gt=0),
    "solver_tol_m": Key("float", 0.01, gt=0),
    "track_interval_s": Key("float", 3600.0, gt=0),
    "track_duration_s": Key("float", 57_600.0, ge=0, lt=366 * 86_400.0),
    "poi_radius_m": Key("float", 200.0, gt=0),
    "poi_min_dwell_s": Key("float", 7200.0, ge=0),
    "identify_max_rounds": Key("int", 10, ge=1),
    "identify_batch_size": Key("int", 10, ge=1),
    "identify_victims": Key("int", 10, ge=1),
    "attacker_top_likes": Key("int", 10, ge=0),
}


class ScenarioConfig:
    """One attribute per key of ``KEYS``; keys not given take their default."""

    def __init__(self, seed: int, **values):
        self.seed = seed
        for name, key in KEYS.items():
            if name != "seed":
                setattr(self, name, values.pop(name, key.default))
        if values:
            raise TypeError(f"unknown config keys: {', '.join(sorted(values))}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented


POLICY_FIELDS = DisclosurePolicy.__slots__


def convert_value(key: str, raw: str, line: int | None = None):
    """Parse one raw string value for a known config key."""
    k = KEYS.get(key)
    if k is None:
        raise ConfigError(f"unknown key {key!r}", field=key, line=line)
    try:
        if k.choices:
            if raw not in k.choices:
                raise ValueError(f"must be one of {', '.join(k.choices)}: {raw!r}")
            return raw
        return _PARSERS[k.type](raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field=key, line=line) from None


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every key's constraint in ``KEYS`` order, then the step count
    of the track and of the walk; the first failure raises."""
    for name, key in KEYS.items():
        v = getattr(cfg, name)
        try:
            key.check(v)
            if key.type == "bbox":
                BoundingBox(*v)
            if name == "distance_quantum_m":
                DisclosurePolicy(distance_quantum_m=v)
        except ValueError as exc:
            raise ConfigError(str(exc), field=name) from None
    for key in ("walk_interval_s", "track_interval_s"):
        steps = cfg.track_duration_s / getattr(cfg, key)
        if not steps <= MAX_TRACK_STEPS:
            raise ConfigError(f"track_duration_s / {key} must be <= "
                              f"{MAX_TRACK_STEPS}, got {steps!r}", field=key)
    return cfg


def parse_scenario(path: str | Path, overrides: dict[str, str] | None = None
                   ) -> ScenarioConfig:
    """Parse the scenario file at ``path`` and apply CLI overrides."""
    return parse_scenario_text(Path(path).read_text(encoding="utf-8"), overrides)


def parse_scenario_text(text: str, overrides: dict[str, str] | None = None
                        ) -> ScenarioConfig:
    """Parse scenario text and apply CLI overrides."""
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError("key is set twice", field=key, line=lineno)
        raw[key] = convert_value(key, value.split("#", 1)[0].strip(), lineno)
    for key, value in (overrides or {}).items():
        raw[key] = convert_value(key, value)
    if "seed" not in raw:
        raise ConfigError("mandatory field is missing", field="seed")
    cfg = ScenarioConfig(**raw)  # type: ignore[arg-type]
    # Resolve the policy preset: it supplies defaults for any policy field
    # the file or overrides did not set explicitly, so the manifest echoes
    # effective values.
    if cfg.policy_preset != "custom":
        preset = POLICY_PRESETS[cfg.policy_preset]
        for name in POLICY_FIELDS:
            if name not in raw:
                setattr(cfg, name, getattr(preset, name))
    return validate(cfg)


def render_manifest(cfg: ScenarioConfig) -> str:
    """The fully resolved configuration, one sorted ``key = value`` per line."""
    lines = []
    for name in sorted(KEYS):
        v = getattr(cfg, name)
        if isinstance(v, tuple):
            v = ",".join(repr(float(x)) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{name} = {v}")
    return "\n".join(lines) + "\n"
