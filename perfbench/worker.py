"""One unit of benchmark work in a fresh process.

    python3 perfbench/worker.py '<job as JSON>'

A ``scenario`` job imports the program, parses the scenario, prints
``ready`` (the harness times set-up up to that line), runs it once with
``runner.run_scenario`` into the job's output directory, and prints one
JSON line: wall time, per-op latencies, failed ops, the digest of the
attack's artifacts, peak RSS and, when traced, the per-layer metrics.

A ``kernel`` job times the solver kernel of the active backend with
``mlat.runtime_profile`` at 16 samples and prints its cost per iteration.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

KERNEL_SAMPLES = 16
KERNEL_ITERATIONS = 200

# The span that times one op of each scenario workload: a fix, a victim.
OP_SPANS = {"track": "attacker.localize", "identify": "socialgraph.identify"}


def artifact_digest(out_dir: Path, names: list[str]) -> str:
    """sha256 over the named files' contents, in the given order."""
    h = hashlib.sha256()
    for name in names:
        path = Path(out_dir) / name
        body = path.read_bytes() if path.is_file() else b"<missing>"
        h.update(name.encode() + b"\0" + hashlib.sha256(body).digest())
    return h.hexdigest()


def _misidentified(notes) -> int:
    """Victims whose account was named but is not theirs."""
    if not notes:
        return 0
    truth = {u.user_id: u.social_id for u in notes[0][4]}
    return sum(1 for uid, sid, identified, _, _ in notes
               if identified and sid != truth[uid])


def run_scenario_job(job: dict) -> dict:
    from proxileak import runner
    from proxileak.config import parse_scenario

    cfg = parse_scenario(Path(job["scenario"]), job["overrides"])
    print("ready", flush=True)

    import tracing

    op_span = OP_SPANS[cfg.attack]
    names = list(tracing.TARGETS) if job["trace"] else [op_span]
    with tracing.Tracer(names) as tracer:
        t0 = time.perf_counter()
        result = runner.run_scenario(cfg, job["out"])
        run_s = time.perf_counter() - t0
    spans = tracer.by_name()
    ops = spans[op_span]
    if cfg.attack == "track":
        failed = result.metrics["n_gaps"]
    else:
        failed = _misidentified([note for _, _, note in ops])
    out = {
        "seed": cfg.seed,
        "run_s": run_s,
        "ops": len(ops),
        "failed": failed,
        "op_ms": [duration * 1e3 for duration, _, _ in ops],
        "digest": artifact_digest(Path(job["out"]), job["artifacts"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if job["trace"]:
        out["layers"] = tracing.layer_metrics(spans)
    return out


def run_kernel_job(job: dict) -> dict:
    from proxileak import mlat

    rows = mlat.runtime_profile([KERNEL_SAMPLES] * 3, [KERNEL_ITERATIONS],
                                min_time_s=0.1)
    return {"backend": mlat.backend_name(),
            "us_per_iter": statistics.median(sec for _, _, sec in rows)
            / KERNEL_ITERATIONS * 1e6}


def main() -> None:
    job = json.loads(sys.argv[1])
    run = run_scenario_job if job["mode"] == "scenario" else run_kernel_job
    print(json.dumps(run(job)), flush=True)


if __name__ == "__main__":
    main()
