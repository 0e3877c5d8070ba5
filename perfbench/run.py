#!/usr/bin/env python3
"""proxileak benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/proxileak`` and ``scenarios``);
the program runs from that source, nothing is installed. Workloads:

* ``track_day``, ``identify_crowd``: ``runner.run_scenario`` on a bundled
  scenario. Each run ("unit") is a fresh worker process with its own config
  seed derived from ``--seed``; units repeat until ``--seconds`` have passed.
  Different seeds give the solver and the identification loop very
  different amounts of work, so a run reports medians over many seeds.
* ``serve_mix``: ``proxileak serve`` plus two closed-loop
  ``tcp.ServiceClient`` connections. Each load phase starts a fresh server.

Output checks: every scenario run first runs the scenario file's own seed
and compares the digest of its artifacts with ``perfbench/digests.json``; a
traced unit must give the same digest as the untraced unit of the same
seed; every ``serve_mix`` response must equal an in-process
``WireHandler`` replay of the same request stream. A mismatch fails every
op of its unit.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics, measured by spans around the calls into each layer
(see ``tracing.py``) plus the tracing overhead. The line before the last
records the environment (kernel backend, Python version, CPU count,
commit) and the sample counts; compare results only with ``compare.py``,
which refuses mixed environments. Artifacts go to a temporary directory
inside the tree that is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
DIGESTS = BENCH_DIR / "digests.json"

# Workload sizes, and the artifacts whose digest is checked. ``manifest.cfg``
# is left out: it echoes the input config and changes whenever a config key
# is added. track_day uses hourly fixes so that a run covers ~40 commuters:
# the solver's work per commuter varies 2-3x with the seed.
WORKLOADS = {
    "track_day": {
        "scenario": "scenarios/track_commuter.cfg",
        "overrides": {"track_interval_s": "3600", "track_duration_s": "86400"},
        "artifacts": ["track.csv", "pois.csv", "summary.csv", "violations.csv",
                      "trace_labels.csv"],
    },
    "identify_crowd": {
        "scenario": "scenarios/identify_zipf.cfg",
        "overrides": {"n_users": "20000", "identify_victims": "20"},
        "artifacts": ["identification.csv", "pool_sizes.csv", "pool_sizes.svg",
                      "summary.csv", "violations.csv", "trace_labels.csv"],
    },
    "serve_mix": {
        "scenario": "scenarios/identify_zipf.cfg",
        "overrides": {"n_users": "2000"},
        "requests": 1500,
    },
}

MIN_UNITS = 3
UNIT_TIMEOUT_S = 120.0
NEARBY_EVERY = 64
NEARBY_RADIUS_M = 500.0
DISCOVER_RADIUS_M = 1e6
# Clients move within PROBE_RADIUS_M of their own home, and their homes are
# farther apart than CLIENT_SEPARATION_M, so no 500 m ``nearby`` of one
# client can see the other: every response is then independent of how the
# two connections interleave, and a sequential replay must reproduce it.
PROBE_RADIUS_M = 150.0
PROBE_POINTS = 8
CLIENT_SEPARATION_M = 3000.0
TRACED_REPLAYS = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source tree or config)."""


def unit_seed(seed: int, k: int) -> int:
    """Config seed of unit ``k`` of a run; unit 0 uses ``seed`` itself."""
    if k == 0:
        return seed
    h = hashlib.sha256(f"perfbench/{seed}/{k}".encode()).digest()
    return int.from_bytes(h[:4], "big")


def latency_ms(per_run: list[list[float]]) -> dict:
    """Op latency percentiles pooled over every op of the run: fixes,
    victims or requests. Only the median is gated in BENCHMARK.json; p90 and
    p99 go to the detail line. A victim's time is set by how many of the 1
    to 10 refinement rounds it needs, so with 20 victims a unit the tail of
    a run jumps between round counts depending on the seeds it drew."""
    pooled = [x for run in per_run for x in run]
    cuts = statistics.quantiles(pooled, n=100, method="inclusive")
    return {"op_ms_p50": statistics.median(pooled), "op_ms_p90": cuts[89],
            "op_ms_p99": cuts[98], "op_samples": len(pooled)}


def _env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def _last_error(stderr: str) -> str:
    lines = stderr.strip().splitlines()
    return lines[-1] if lines else "no output"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0

    def unit(self, ops: int, failed: int, mismatch: bool = False) -> None:
        self.attempted += ops
        self.failed += ops if mismatch else failed
        self.mismatches += int(mismatch)


# -- scenario workloads --------------------------------------------------------

def run_unit(spec: dict, seed: int | None, trace: bool, tmp: Path) -> dict:
    """One ``run_scenario`` in a fresh worker; ``seed=None`` keeps the file's."""
    out = Path(tempfile.mkdtemp(dir=tmp))
    overrides = dict(spec["overrides"])
    if seed is not None:
        overrides["seed"] = str(seed)
    job = {"mode": "scenario", "scenario": spec["scenario"],
           "overrides": overrides, "out": str(out), "trace": trace,
           "artifacts": spec["artifacts"]}
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(job)],
                            cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        stdout, stderr = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "timeout"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(out, ignore_errors=True)
    if ready.strip() != "ready" or proc.returncode != 0:
        return {"error": _last_error(stderr)}
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def _account(tally: Tally, unit: dict, expected_digest: str | None = None) -> bool:
    """Count a unit's ops; False when it crashed or its digest differs."""
    if "error" in unit:
        tally.unit(1, 1, mismatch=True)
        return False
    mismatch = expected_digest is not None and unit["digest"] != expected_digest
    tally.unit(unit["ops"], unit["failed"], mismatch)
    return not mismatch


def scenario_workload(name: str, spec: dict, seed: int, seconds: float,
                      trace: bool, tmp: Path, golden: dict | None):
    tally = Tally()
    detail: dict = {}
    start = time.perf_counter()
    ref = run_unit(spec, None, False, tmp)
    expected = None
    if golden is not None:
        recorded = golden.get(name, {})
        expected = recorded.get(str(ref.get("seed")), "<none recorded>")
    ok = _account(tally, ref, expected)
    detail["golden"] = {"seed": ref.get("seed"), "digest": ref.get("digest"),
                        "ok": ok}
    setups = [ref["setup_s"]] if "setup_s" in ref else []

    units, pairs = [], []
    k = 0
    while k < MIN_UNITS or time.perf_counter() - start < seconds:
        sub = unit_seed(seed, k)
        if trace:
            # Same seed untraced and traced, alternating which goes first.
            order = (False, True) if k % 2 == 0 else (True, False)
            pair = {t: run_unit(spec, sub, t, tmp) for t in order}
            plain, traced = pair[False], pair[True]
            _account(tally, plain)
            _account(tally, traced, plain.get("digest"))
            if "error" not in plain and "error" not in traced:
                pairs.append((plain, traced))
        else:
            unit = run_unit(spec, sub, False, tmp)
            _account(tally, unit)
            if "error" not in unit:
                units.append(unit)
            if "setup_s" in unit:
                setups.append(unit["setup_s"])
        k += 1

    if trace:
        if not pairs:
            raise BenchError("no traced unit completed")
        measured = _median_layers([t["layers"] for _, t in pairs])
        measured["trace.overhead_s"] = statistics.median(
            t["run_s"] - p["run_s"] for p, t in pairs)
        measured["tcp.transport_us"] = 0.0
        detail["units"] = len(pairs)
    else:
        if not units:
            raise BenchError("no unit completed")
        measured = {
            "run_s": statistics.median(u["run_s"] for u in units),
            "ops_per_s": statistics.median(u["ops"] / u["run_s"] for u in units),
            **latency_ms([u["op_ms"] for u in units]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        }
        detail.update(units=len(units), ops_per_unit=units[0]["ops"],
                      setup_samples=len(setups),
                      unit_run_s=[u["run_s"] for u in units])
    return tally, measured, detail


def _median_layers(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# -- serve_mix -----------------------------------------------------------------

@dataclass
class Stream:
    prologue: list[dict]
    loop: list[dict]


def make_streams(world, n_requests: int) -> list[Stream]:
    """Request streams of the two connections, as wire attackers send them.

    Each connection logs in as its own user and discovers everyone, then
    alternates moves near its home with profile polls of the target; every
    NEARBY_EVERY-th request is a NEARBY_RADIUS_M ``nearby``.
    """
    from proxileak.geo import EnuPoint, from_enu, haversine_m
    from proxileak.runner import ATTACKER_ID, TARGET_ID

    users = [u for u in sorted(world.users) if u not in (TARGET_ID, ATTACKER_ID)]
    first = users[0]
    home = world.position_of(first)
    second = next((u for u in users[1:] if haversine_m(
        home, world.position_of(u)) > CLIENT_SEPARATION_M), None)
    if second is None:
        raise BenchError("no two users far enough apart for serve_mix")
    streams = []
    for uid in (first, second):
        home = world.position_of(uid)
        probes = [from_enu(EnuPoint(
            PROBE_RADIUS_M * math.cos(2 * math.pi * j / PROBE_POINTS),
            PROBE_RADIUS_M * math.sin(2 * math.pi * j / PROBE_POINTS), home))
            for j in range(PROBE_POINTS)]
        loop = []
        for i in range(n_requests):
            if i % NEARBY_EVERY == NEARBY_EVERY - 1:
                loop.append({"op": "nearby", "radius_m": NEARBY_RADIUS_M})
            elif i % 2 == 0:
                p = probes[(i // 2) % PROBE_POINTS]
                loop.append({"op": "update_location", "lat": p.lat_deg,
                             "lon": p.lon_deg})
            else:
                loop.append({"op": "profile", "user_id": TARGET_ID})
        streams.append(Stream(
            [{"op": "login", "token": uid},
             {"op": "nearby", "radius_m": DISCOVER_RADIUS_M}], loop))
    return streams


def replay(cfg, streams: list[Stream], tracer) -> tuple[list[list[dict]], float]:
    """Serve the streams in process, one connection after the other.

    Builds the service exactly as ``proxileak serve`` does. Returns each
    connection's responses (prologue then loop) as they read on the wire,
    and the wall time of the replay including the world build.
    """
    from proxileak import runner
    from proxileak.service import ProximityService
    from proxileak.tcp import WireHandler

    lines = [([json.dumps(r) for r in s.prologue], [json.dumps(r) for r in s.loop])
             for s in streams]
    with tracer:
        t0 = time.perf_counter()
        world = runner.build_world(cfg)
        service = ProximityService(world, runner.build_policy(cfg),
                                   teleport_limit_m=cfg.teleport_limit_m,
                                   teleport_cooldown_s=cfg.teleport_cooldown_s,
                                   scenario_seed=cfg.seed)
        lock = threading.Lock()
        handlers = [WireHandler(service, lock) for _ in streams]
        responses = [[h.handle_line(line) for line in prologue]
                     for h, (prologue, _) in zip(handlers, lines)]
        for h, (_, loop), out in zip(handlers, lines, responses):
            out += [h.handle_line(line) for line in loop]
        elapsed = time.perf_counter() - t0
    return json.loads(json.dumps(responses)), elapsed


def load_phase(port: int, streams: list[Stream]):
    """Both connections in a closed loop; returns (phase_s, per-connection
    [(latency_s, response)] or the exception that stopped it)."""
    from proxileak.tcp import ServiceClient

    barrier = threading.Barrier(len(streams) + 1)
    results: list = [None] * len(streams)

    def client(i: int) -> None:
        timed = []

        def send(conn, requests):
            for req in requests:
                t = time.perf_counter()
                resp = conn.request(req)
                timed.append((time.perf_counter() - t, resp))

        try:
            with ServiceClient("127.0.0.1", port, timeout_s=60.0) as conn:
                send(conn, streams[i].prologue)
                barrier.wait()
                send(conn, streams[i].loop)
            results[i] = timed
        except Exception as exc:  # counted as failed requests by the caller
            barrier.abort()
            results[i] = exc

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(streams))]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, results


def serve_phase(spec: dict, seed: int, streams: list[Stream]):
    """Start ``proxileak serve``, run one load phase, stop the server."""
    cmd = [sys.executable, "-m", "proxileak", "serve", spec["scenario"],
           "--port", "0", "--seed", str(seed)]
    for key, value in spec["overrides"].items():
        cmd += ["--set", f"{key}={value}"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not line.startswith("listening on port"):
            raise BenchError(f"server did not start: {line.strip()!r}")
        phase_s, results = load_phase(int(line.split()[-1]), streams)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            _, stderr = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, stderr = proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"server exited {proc.returncode}: {_last_error(stderr)}")
    return setup_s, phase_s, results


def check_phase(tally: Tally, expected: list[list[dict]], results: list) -> bool:
    """Count one load phase's requests; True when every response is ``ok``
    and equals the replay's."""
    clean = True
    for want, got in zip(expected, results):
        if isinstance(got, Exception):
            tally.unit(len(want), len(want), mismatch=True)
            clean = False
            continue
        wrong = sum(1 for w, (_, g) in zip(want, got) if g != w)
        refused = sum(1 for _, g in got if not g.get("ok"))
        tally.unit(len(want), max(wrong, refused))
        tally.mismatches += int(wrong > 0)
        clean = clean and wrong == refused == 0
    return clean


def serve_workload(spec: dict, seed: int, seconds: float, trace: bool):
    from proxileak import runner
    from proxileak.config import parse_scenario

    import tracing

    start = time.perf_counter()
    cfg = parse_scenario(ROOT / spec["scenario"],
                         {**spec["overrides"], "seed": str(seed)})
    streams = make_streams(runner.build_world(cfg), spec["requests"])
    expected, _ = replay(cfg, streams, tracing.Tracer())
    n_loop = sum(len(s.loop) for s in streams)

    tally = Tally()
    setups, phases, latencies = [], [], []
    while len(setups) < MIN_UNITS or time.perf_counter() - start < seconds:
        setup_s, phase_s, results = serve_phase(spec, seed, streams)
        setups.append(setup_s)
        check_phase(tally, expected, results)
        if not any(isinstance(r, Exception) for r in results):
            phases.append(phase_s)
            latencies.append([lat * 1e3 for conn in results for lat, _ in conn])
    if not phases:
        raise BenchError("no load phase completed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    detail = {"phases": len(phases), "requests_per_phase": len(latencies[0]),
              "setup_samples": len(setups), "phase_s": phases}

    if not trace:
        measured = {
            "run_s": statistics.median(phases),
            "ops_per_s": statistics.median(n_loop / s for s in phases),
            **latency_ms(latencies),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        return tally, measured, detail

    plain_s, traced = [], []
    for k in range(TRACED_REPLAYS):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            tracer = tracing.Tracer(tracing.TARGETS if on else ())
            responses, elapsed = replay(cfg, streams, tracer)
            if responses != expected:
                tally.mismatches += 1
                tally.failed += 1
            (traced if on else plain_s).append((elapsed, tracer))
    measured = _median_layers([tracing.layer_metrics(t.by_name())
                               for _, t in traced])
    measured["trace.overhead_s"] = (statistics.median(s for s, _ in traced)
                                    - statistics.median(s for s, _ in plain_s))
    measured["tcp.transport_us"] = (
        statistics.fmean(x for phase in latencies for x in phase) * 1e3
        - measured["tcp.handle_line_us"])
    detail["replays"] = len(traced)
    return tally, measured, detail


# -- kernels and environment ---------------------------------------------------

def kernel_metrics() -> dict:
    """Solver kernel cost per iteration for every importable backend."""
    from proxileak.mlat._backend import available_backends

    out = {}
    for backend in available_backends():
        env = _env({"PROXILEAK_PURE": "1" if backend == "pure-python" else "0"})
        proc = subprocess.run([sys.executable, str(WORKER),
                               json.dumps({"mode": "kernel"})],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=UNIT_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"kernel timing failed: {_last_error(proc.stderr)}")
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        if row["backend"] != backend:
            raise BenchError(f"asked for the {backend} kernel, got {row['backend']}")
        out[f"mlat.kernel_us_per_iter.{backend}"] = row["us_per_iter"]
    return out


def environment() -> dict:
    from proxileak.mlat import backend_name

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"backend": backend_name(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "commit": commit}


# -- entry point ---------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, environment and detail line).

    ``sizes`` replaces the workload's size settings (the smoke test runs tiny
    sizes); the golden digest is checked only at the benchmark's own sizes.
    """
    if not (SRC / "proxileak").is_dir() or not (ROOT / "scenarios").is_dir():
        raise BenchError(f"no proxileak source tree at {ROOT}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    spec = {**WORKLOADS[workload], **(sizes or {})}
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if workload == "serve_mix":
            tally, measured, detail = serve_workload(spec, seed, seconds, trace)
        else:
            golden = None if sizes else json.loads(DIGESTS.read_text())
            tally, measured, detail = scenario_workload(
                workload, spec, seed, seconds, trace, Path(tmp), golden)
        if trace:
            measured.update(kernel_metrics())
    if not trace:
        measured["ok_share"] = 1.0 - tally.failed / tally.attempted

    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    names = {m["name"] for m in wanted}
    detail["other_metrics"] = {k: v for k, v in measured.items() if k not in names}
    result = {
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    info = {"env": environment(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": int(trace), "detail": detail}
    return result, info


def main(argv: list[str] | None = None, sizes: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), sizes)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Turn a termination request into SystemExit, so that every ``finally``
    # stops the processes it started and the temporary directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
