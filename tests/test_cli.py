import gc
import json
import os
import signal
import socket
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from oracles import DISCOVER_RADIUS_M
from proxileak import runner
from proxileak.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from proxileak.config import parse_scenario
from proxileak.geo import EnuPoint, GeoPoint, from_enu, haversine_m
from proxileak.service import ProximityService
from proxileak.world import gc_paused

ROOT = Path(__file__).resolve().parent.parent

FAST_LOCALIZE = """\
seed = 5
attack = localize
n_users = 3
catalog_size = 50
trials = 3
probe_count = 8
solver_max_iterations = 150
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_run_and_reproducibility(tmp_path):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["run", str(cfg), "--out", str(out2)]) == EXIT_OK
    for name in ("manifest.cfg", "localize_trials.csv", "summary.csv",
                 "samples.csv", "violations.csv", "probe_map.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_seed_override_changes_results(tmp_path):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["run", str(cfg), "--seed", "99", "--out", str(out2)]) == EXIT_OK
    a = (out1 / "localize_trials.csv").read_text()
    b = (out2 / "localize_trials.csv").read_text()
    assert a != b


def test_missing_seed_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "attack = localize\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_bad_key_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE + "bogus = 1\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG


def test_fixed_points_strategy_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out),
                 "--set", "probe_strategy=fixed_points"]) == EXIT_CONFIG
    assert "field 'probe_strategy'" in capsys.readouterr().err
    assert not out.exists()


def test_set_overrides(tmp_path):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out),
                 "--set", "trials=2", "--set", "probe_count=6"]) == EXIT_OK
    manifest = (out / "manifest.cfg").read_text()
    assert "trials = 2" in manifest
    assert "probe_count = 6" in manifest


def test_out_env_var(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    target = tmp_path / "from-env"
    monkeypatch.setenv("PROXILEAK_OUT", str(target))
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (target / "manifest.cfg").exists()


def test_default_out_dir_is_out_slash_config_stem(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE, name="fast.cfg")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PROXILEAK_OUT", raising=False)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out" / "fast" / "manifest.cfg").is_file()


def test_out_dir_is_not_a_config_key(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", str(ROOT / "scenarios" / "localize_bcn.cfg"),
                 "--out", str(out), "--set", "out_dir=x"]) == EXIT_CONFIG
    assert "field 'out_dir'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario",
                         ["identify_zipf", "localize_bcn", "track_commuter"])
def test_manifest_reruns_byte_for_byte(tmp_path, scenario):
    # A run's manifest is a scenario file: run from another directory, it
    # repeats every artifact, the manifest included.
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", str(ROOT / "scenarios" / f"{scenario}.cfg"),
                 "--out", str(first)]) == EXIT_OK
    assert main(["run", str(first / "manifest.cfg"),
                 "--out", str(second)]) == EXIT_OK
    names = sorted(p.name for p in first.iterdir())
    assert "manifest.cfg" in names
    assert sorted(p.name for p in second.iterdir()) == names
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_sweep_quantum(tmp_path):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE.replace("trials = 3", "trials = 10"))
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--param", "distance_quantum_m",
                 "--values", "50,500", "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("param,value,")
    assert len(lines) == 3
    assert (out / "distance_quantum_m=50" / "manifest.cfg").exists()
    # error-vs-quantum artifact, sorted ascending, median non-decreasing
    rows = (out / "error_vs_quantum.csv").read_text().splitlines()[1:]
    quanta = [float(r.split(",")[0]) for r in rows]
    medians = [float(r.split(",")[1]) for r in rows]
    assert quanta == sorted(quanta)
    assert medians == sorted(medians)


FAST_IDENTIFY = """\
seed = 9
attack = identify
n_users = 300
catalog_size = 300
mean_likes = 5
identify_victims = 8
"""


def test_identify_run_reproducible_and_mode_sweep(tmp_path):
    cfg = write_cfg(tmp_path, FAST_IDENTIFY, name="ident.cfg")
    out1, out2 = tmp_path / "i1", tmp_path / "i2"
    assert main(["run", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["run", str(cfg), "--out", str(out2)]) == EXIT_OK
    for name in ("identification.csv", "pool_sizes.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    sweep_out = tmp_path / "modes"
    assert main(["sweep", str(cfg), "--param", "interests_mode",
                 "--values", "pages,categories", "--out", str(sweep_out)]) == EXIT_OK
    lines = (sweep_out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rate_col = header.index("identification_rate")
    rates = {line.split(",")[1]: float(line.split(",")[rate_col])
             for line in lines[1:]}
    assert rates["categories"] <= rates["pages"]


def test_bundled_localize_scenario_golden(tmp_path):
    out = tmp_path / "bcn"
    assert main(["run", str(ROOT / "scenarios" / "localize_bcn.cfg"),
                 "--out", str(out), "--set", "trials=5"]) == EXIT_OK
    # probe-circle map artifacts, one circle per sample
    svg = (out / "probe_map.svg").read_text()
    assert svg.count("sample-circle-") == 16
    assert 'id="estimate-marker"' in svg and 'id="truth-marker"' in svg
    samples = (out / "samples.csv").read_text().splitlines()
    assert len(samples) == 17  # header + 16 probes
    summary = dict(line.split(",") for line in
                   (out / "summary.csv").read_text().splitlines()[1:])
    assert float(summary["median_error_m"]) < 100.0


def test_poi_error_scored_over_tracked_period(tmp_path):
    # poi_error_max_m measures each POI against the waypoints the target
    # had reached by the last fix in track.csv.
    scenario = ROOT / "scenarios" / "track_commuter.cfg"
    for sets, expected in [
        # Scored against waypoints after the track as well, this read 10.029.
        ({"walk_step_m": "40", "track_interval_s": "1800", "seed": "7"},
         12.044),
        # The walk's last waypoint (60000 s) comes after the last fix.
        ({"walk_step_m": "300", "walk_interval_s": "20000", "seed": "2"},
         183.690),
    ]:
        sets = {"trajectory": "random_walk", **sets}
        out = tmp_path / sets["seed"]
        args = ["run", str(scenario), "--out", str(out)]
        for kv in sets.items():
            args += ["--set", "=".join(kv)]
        assert main(args) == EXIT_OK

        def rows(name):
            return [line.split(",") for line in
                    (out / name).read_text().splitlines()[1:]]

        cfg = parse_scenario(scenario, sets)
        world = runner.build_world(cfg)
        ref = runner._coarse_prior(world.true_position_of(runner.TARGET_ID),
                                   cfg.probe_center_offset_m, cfg.seed)
        t_last = float(rows("track.csv")[-1][0])
        reached = [p for t, p in
                   world.users[runner.TARGET_ID].trajectory.waypoints
                   if t <= t_last]
        want = max(min(haversine_m(from_enu(EnuPoint(float(x), float(y), ref)),
                                   p) for p in reached)
                   for x, y, *_ in rows("pois.csv"))
        assert float(dict(rows("summary.csv"))["poi_error_max_m"]) == want
        assert want == pytest.approx(expected, abs=1e-3)


def test_sweep_single_value_matches_plain_run(tmp_path):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    out_run, out_sweep = tmp_path / "plain", tmp_path / "sw"
    assert main(["run", str(cfg), "--out", str(out_run),
                 "--set", "distance_quantum_m=100"]) == EXIT_OK
    assert main(["sweep", str(cfg), "--param", "distance_quantum_m",
                 "--values", "100", "--out", str(out_sweep)]) == EXIT_OK
    sub = out_sweep / "distance_quantum_m=100"
    assert ((sub / "localize_trials.csv").read_bytes()
            == (out_run / "localize_trials.csv").read_bytes())


def test_steep_zipf_population_builds(tmp_path):
    # Under zipf_s=40 only the top two pages can be drawn; once a user's
    # draw budget runs out, the best-ranked pages fill the user's likes.
    out = tmp_path / "o"
    assert main(["run", str(ROOT / "scenarios" / "identify_zipf.cfg"),
                 "--out", str(out), "--set", "zipf_s=40",
                 "--set", "mean_likes=30", "--set", "catalog_size=100"]) == EXIT_OK
    assert (out / "identification.csv").is_file()


def test_discovery_covers_a_bbox_around_the_pole(tmp_path):
    # Spanning every longitude, the bbox's two corners lie on one meridian
    # 11 km apart, while users in it can be 22 km apart across the pole.
    assert (haversine_m(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
            <= DISCOVER_RADIUS_M)
    out = tmp_path / "o"
    assert main(["run", str(ROOT / "scenarios" / "track_commuter.cfg"),
                 "--out", str(out), "--set", "bbox=89.9,-180,90,180"]) == EXIT_OK
    assert (out / "track.csv").is_file()


def test_failed_run_leaves_no_manifest(tmp_path, capsys):
    # A target within ring_radius_m of the pole puts a probe point past it.
    out = tmp_path / "o"
    args = ["run", str(ROOT / "scenarios" / "localize_bcn.cfg"),
            "--out", str(out), "--set", "bbox=89.995,-180,90,180",
            "--set", "trials=1"]
    assert main(args) == EXIT_RUNTIME
    assert "latitude out of range" in capsys.readouterr().err
    assert not (out / "manifest.cfg").exists()
    # Nor does a failed run keep the manifest of a finished one.
    (out / "manifest.cfg").write_text("seed = 1\n", encoding="utf-8")
    assert main(args) == EXIT_RUNTIME
    assert not (out / "manifest.cfg").exists()


class _Node:
    pass


@pytest.mark.parametrize("overrides, code", [
    ([], EXIT_OK),
    # A probe point past the pole fails the run after its world is built.
    (["--set", "bbox=89.995,-180,90,180"], EXIT_RUNTIME),
], ids=["ok", "runtime-error"])
def test_a_run_leaves_nothing_frozen(tmp_path, overrides, code):
    # The collector stays off until the explicit collection, so the cycle
    # is still alive when the run's world build freezes the process.
    with gc_paused():
        a, b = _Node(), _Node()
        a.other, b.other = b, a
        cycle = weakref.ref(a)
        del a, b
        assert main(["run", str(ROOT / "scenarios" / "localize_bcn.cfg"),
                     "--out", str(tmp_path), "--set", "trials=1",
                     *overrides]) == code
        assert gc.get_freeze_count() == 0
        gc.collect()
        assert cycle() is None


def test_identify_run_renders_only_the_profiles_it_polls(tmp_path, monkeypatch):
    # The discovery sweep marks users discoverable without rendering them.
    calls = {"_render": 0, "profile": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(ProximityService, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(ProximityService, name, counted)
    runner.run_scenario(parse_scenario(ROOT / "scenarios" / "identify_zipf.cfg"),
                        tmp_path)
    assert calls["profile"] > 0
    assert calls["_render"] == calls["profile"]


def test_sweep_unknown_param(tmp_path):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    assert main(["sweep", str(cfg), "--param", "n_users",
                 "--values", "1,2"]) == EXIT_CONFIG


def test_sweep_out_of_range_value_is_config_error(tmp_path, capsys):
    # Sweep values pass the same range checks as --set, before any run starts.
    out = tmp_path / "sweep"
    assert main(["sweep", str(ROOT / "scenarios" / "localize_bcn.cfg"),
                 "--param", "probe_count", "--values", "8,2",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "probe_count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sets, field", [
    (["attack=track", "track_duration_s=inf"], "track_duration_s"),
    (["mean_likes=inf"], "mean_likes"),
    (["trajectory=random_walk", "walk_interval_s=inf"], "walk_interval_s"),
    (["bbox=41,2,91,3"], "bbox"),
    (["probe_center_offset_m=2e7"], "probe_center_offset_m"),
    (["ring_radius_m=2e7"], "ring_radius_m"),
    (["attack=track", "trajectory=commuter", "commute_distance_m=2e7"],
     "commute_distance_m"),
    (["attack=track", "trajectory=random_walk", "walk_step_m=2e7"],
     "walk_step_m"),
    # Intervals so fine that the track or the walk would need more steps
    # than fit in memory or time.
    (["attack=track", "track_interval_s=5e-324"], "track_interval_s"),
    (["attack=track", "trajectory=random_walk", "walk_interval_s=5e-324"],
     "walk_interval_s"),
    (["attack=track", "track_duration_s=1000000", "track_interval_s=0.5"],
     "track_interval_s"),
    (["track_duration_s=1e9"], "track_duration_s"),
    # A quantum so small that a distance over it overflows.
    (["distance_quantum_m=5e-324"], "distance_quantum_m"),
])
def test_non_finite_and_off_globe_values_are_config_errors(tmp_path, capsys,
                                                           sets, field):
    args = ["run", str(ROOT / "scenarios" / "localize_bcn.cfg"),
            "--out", str(tmp_path / "o")]
    for item in sets:
        args += ["--set", item]
    assert main(args) == EXIT_CONFIG
    assert f"field {field!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_subnormal_quantum_is_config_error_in_files_and_sweeps(tmp_path,
                                                              capsys):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE + "distance_quantum_m = 5e-324\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "field 'distance_quantum_m'" in capsys.readouterr().err
    out = tmp_path / "sweep"
    assert main(["sweep", str(ROOT / "scenarios" / "localize_bcn.cfg"),
                 "--param", "distance_quantum_m", "--values", "100,5e-324",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "field 'distance_quantum_m'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not out.exists()


def test_sweep_parallel_matches_sequential(tmp_path):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["sweep", str(cfg), "--param", "probe_count",
                 "--values", "6,10", "--out", str(seq)]) == EXIT_OK
    assert main(["sweep", str(cfg), "--param", "probe_count",
                 "--values", "6,10", "--out", str(par),
                 "--parallel", "2"]) == EXIT_OK
    assert (seq / "sweep.csv").read_bytes() == (par / "sweep.csv").read_bytes()


@pytest.mark.parametrize("parallel", ["0", "-5"])
def test_sweep_parallel_below_one_is_config_error(tmp_path, capsys, parallel):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--param", "probe_count", "--values", "6",
                 "--parallel", parallel, "--out", str(out)]) == EXIT_CONFIG
    assert "field '--parallel'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", ["8,8", "6,8,6"])
def test_sweep_repeated_value_is_config_error(tmp_path, capsys, values):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--param", "probe_count",
                 "--values", values, "--out", str(out)]) == EXIT_CONFIG
    assert "field '--values'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_pool_never_exceeds_job_count(tmp_path, monkeypatch):
    # A stand-in pool records its size and runs the jobs in this process.
    import itertools
    import multiprocessing

    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, jobs):
            return list(itertools.starmap(func, jobs))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    assert main(["sweep", str(cfg), "--param", "probe_count", "--values", "6,10",
                 "--parallel", "64", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["sweep", str(cfg), "--param", "probe_count", "--values", "6",
                 "--parallel", "64", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert sizes == [2]  # one value runs in-process, without a pool


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_serve_round_trip_and_signal_shutdown(tmp_path):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    port = free_port()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "proxileak", "serve", str(cfg),
         "--port", str(port)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        text=True)
    try:
        assert "listening" in proc.stdout.readline()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            f = sock.makefile("rw", encoding="utf-8", newline="\n")
            f.write(json.dumps({"op": "login", "token": "u00000"}) + "\n")
            f.flush()
            assert json.loads(f.readline()) == {"ok": True, "user_id": "u00000"}
            f.write("garbage\n")
            f.flush()
            assert json.loads(f.readline())["error"] == "bad_request"
            f.write(json.dumps({"op": "nearby", "radius_m": 1e6}) + "\n")
            f.flush()
            assert json.loads(f.readline())["ok"] is True
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()


def test_serve_has_no_out_option(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    with pytest.raises(SystemExit) as exc:
        main(["serve", str(cfg), "--port", "0", "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("port", ["70000", "65536", "-1"])
def test_serve_port_out_of_range_is_config_error(tmp_path, capsys, port):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    assert main(["serve", str(cfg), "--port", port]) == EXIT_CONFIG
    assert "field '--port'" in capsys.readouterr().err


def test_serve_bind_failure_is_runtime_error(tmp_path):
    cfg = write_cfg(tmp_path, FAST_LOCALIZE)
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "proxileak", "serve", str(cfg),
             "--port", str(port)],
            capture_output=True, env=env, cwd=ROOT, timeout=30)
        assert proc.returncode == 3
