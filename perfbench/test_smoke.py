"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent),
                str(Path(__file__).resolve().parent.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402

TINY = {
    "track_day": {"overrides": {"track_interval_s": "3600",
                                "track_duration_s": "21600"}},
    "identify_crowd": {"overrides": {"n_users": "300", "identify_victims": "3"}},
    "serve_mix": {"overrides": {"n_users": "300"}, "requests": 130},
}
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_printed_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, sizes=TINY[workload]) == 0
    *_, info_line, result_line = capsys.readouterr().out.splitlines()
    info, result = json.loads(info_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert set(info["env"]) == {"backend", "python", "cpu_count", "commit"}


def test_perturbed_artifact_fails_output_check(tmp_path):
    from proxileak.config import parse_scenario
    from proxileak.runner import run_scenario

    spec = {**run.WORKLOADS["track_day"], **TINY["track_day"]}
    cfg = parse_scenario(run.ROOT / spec["scenario"],
                         {**spec["overrides"], "seed": "3"})
    run_scenario(cfg, tmp_path)
    good = worker.artifact_digest(tmp_path, spec["artifacts"])
    track = tmp_path / "track.csv"
    body = bytearray(track.read_bytes())
    body[-2] ^= 1
    track.write_bytes(bytes(body))
    bad = worker.artifact_digest(tmp_path, spec["artifacts"])
    assert bad != good

    tally = run.Tally()
    assert run._account(tally, {"ops": 7, "failed": 0, "digest": good}, good)
    assert not run._account(tally, {"ops": 7, "failed": 0, "digest": bad}, good)
    assert (tally.attempted, tally.failed, tally.mismatches) == (14, 7, 1)


def test_perturbed_response_fails_output_check():
    from proxileak import runner
    from proxileak.config import parse_scenario

    import tracing

    spec = {**run.WORKLOADS["serve_mix"], **TINY["serve_mix"]}
    cfg = parse_scenario(run.ROOT / spec["scenario"],
                         {**spec["overrides"], "seed": "3"})
    streams = run.make_streams(runner.build_world(cfg), spec["requests"])
    expected, _ = run.replay(cfg, streams, tracing.Tracer())
    results = [[(1e-3, json.loads(json.dumps(r))) for r in conn]
               for conn in expected]
    assert run.check_phase(run.Tally(), expected, results)

    results[1][-1][1]["entry"]["distance_m"] += 100.0
    tally = run.Tally()
    assert not run.check_phase(tally, expected, results)
    assert tally.failed == 1 and tally.mismatches == 1
