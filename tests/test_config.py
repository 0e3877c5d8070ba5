import math
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxileak import config
from proxileak.config import (ConfigError, ScenarioConfig, parse_scenario,
                              parse_scenario_text, render_manifest,
                              SWEEPABLE_PARAMS)
from proxileak.world import BoundingBox

MINIMAL = "seed = 3\n"


def test_minimal_and_defaults():
    cfg = parse_scenario_text(MINIMAL)
    assert cfg.seed == 3
    assert cfg.attack == "localize"
    assert cfg.distance_quantum_m == 100.0
    assert math.isinf(cfg.teleport_limit_m)


def test_missing_seed_names_field():
    with pytest.raises(ConfigError) as err:
        parse_scenario_text("attack = track\n")
    assert err.value.field == "seed"


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_scenario_text("seed = 1\nflux_capacitance = 9\n")
    assert err.value.line == 2
    assert err.value.field == "flux_capacitance"


def test_bad_value_reports_line_and_field():
    with pytest.raises(ConfigError) as err:
        parse_scenario_text("seed = 1\nprobe_count = lots\n")
    assert err.value.line == 2 and err.value.field == "probe_count"
    with pytest.raises(ConfigError) as err:
        parse_scenario_text("seed = 1\nprobe_count = 2\n")
    assert err.value.field == "probe_count"  # range check


def test_repeated_key_reports_second_line():
    with pytest.raises(ConfigError) as err:
        parse_scenario_text("seed = 1\nprobe_count = 2\n\nprobe_count = 8\n")
    assert err.value.field == "probe_count" and err.value.line == 4
    with pytest.raises(ConfigError) as err:
        parse_scenario_text("seed = 1\nseed = 2\n")
    assert err.value.field == "seed" and err.value.line == 2
    # an override still replaces a key the file sets
    assert parse_scenario_text("seed = 1\nn_users = 5\n",
                               {"n_users": "7"}).n_users == 7


def test_comments_and_blank_lines():
    cfg = parse_scenario_text("# scenario\nseed = 4\n\nn_users = 7  # inline\n")
    assert cfg.n_users == 7


def test_preset_resolution_and_override():
    cfg = parse_scenario_text("seed = 1\npolicy_preset = grindr\n")
    assert cfg.share_distance is False
    cfg = parse_scenario_text(
        "seed = 1\npolicy_preset = grindr\nshare_distance = true\n")
    assert cfg.share_distance is True  # explicit key beats the preset


def test_overrides_applied_and_validated():
    cfg = parse_scenario_text(MINIMAL, {"n_users": "50"})
    assert cfg.n_users == 50
    with pytest.raises(ConfigError):
        parse_scenario_text(MINIMAL, {"n_users": "0"})
    with pytest.raises(ConfigError):
        parse_scenario_text(MINIMAL, {"warp": "9"})


def test_track_step_cap():
    at_cap = {"track_duration_s": str(config.MAX_TRACK_STEPS),
              "track_interval_s": "1", "walk_interval_s": "1"}
    parse_scenario_text(MINIMAL, at_cap)
    for key in ("walk_interval_s", "track_interval_s"):
        with pytest.raises(ConfigError) as exc:
            parse_scenario_text(MINIMAL, {**at_cap, key: "0.999"})
        assert exc.value.field == key


def test_manifest_round_trip_stable():
    cfg = parse_scenario(Path("scenarios/localize_bcn.cfg"))
    m1 = render_manifest(cfg)
    m2 = render_manifest(parse_scenario(Path("scenarios/localize_bcn.cfg")))
    assert m1 == m2
    # the manifest itself parses back to the same config
    reparsed = parse_scenario_text(m1)
    assert render_manifest(reparsed) == m1


def test_bundled_scenarios_parse():
    # A path given as a str is read like a Path, never taken as the text.
    for name in ("localize_bcn", "track_commuter", "identify_zipf"):
        path = Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.cfg"
        cfg = parse_scenario(path)
        assert cfg.seed is not None
        assert parse_scenario(str(path)) == cfg
        assert parse_scenario_text(path.read_text(encoding="utf-8")) == cfg


def test_sweepable_params_documented():
    assert set(SWEEPABLE_PARAMS) == {"distance_quantum_m", "probe_count",
                                     "identify_batch_size", "interests_mode"}


def test_config_pickles_equal():
    # sweep --parallel sends each value's config to a pool worker.
    cfg = parse_scenario(Path("scenarios/localize_bcn.cfg"))
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert parse_scenario_text(MINIMAL, {"n_users": "26"}) != parse_scenario_text(
        MINIMAL)


def test_config_has_one_attribute_per_key():
    cfg = ScenarioConfig(seed=1)
    assert list(vars(cfg)) == list(config.KEYS)
    assert all(getattr(cfg, name) == k.default
               for name, k in config.KEYS.items() if name != "seed")
    with pytest.raises(TypeError):
        ScenarioConfig(seed=1, warp=9)


def test_every_key_documented():
    for name in config.KEYS:
        assert re.search(rf"\b{name}\b", config.__doc__), name


# -- property: every input is either rejected for its key or sane -------------

UNLIMITED_KEYS = {"teleport_limit_m", "teleport_cooldown_s"}
numbers = (st.floats() | st.integers(-10**6, 10**6)).map(repr)
raw_values = (st.text()
              | numbers
              | st.sampled_from(["inf", "-inf", "nan", "1e309", "-0", "true",
                                 "no", "custom", "grindr", "l2", "hidden"])
              | st.lists(st.floats() | st.floats(-200.0, 200.0), min_size=3,
                         max_size=5).map(lambda xs: ",".join(map(repr, xs))))


@settings(max_examples=1000, deadline=None)
@given(key=st.sampled_from(list(config.KEYS)),
       raw=raw_values)
def test_any_single_value_is_rejected_for_its_key_or_usable(key, raw):
    try:
        cfg = parse_scenario_text("seed = 1\n", {key: raw})
    except ConfigError as exc:
        assert exc.field == key
        return
    for name, k in config.KEYS.items():
        if k.type == "float" and name not in UNLIMITED_KEYS:
            assert math.isfinite(getattr(cfg, name)), name
    BoundingBox(*cfg.bbox)
