#!/usr/bin/env python3
"""Compare two sets of benchmark results, refusing mixed environments.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding the standard output of any number of
``perfbench/run.py`` calls, appended one after another. For each workload,
trace mode and metric this prints both sides' median and quartiles and the
change of the median; an end-to-end metric whose median is worse than the
base by more than its bound in BENCHMARK.json is marked ``REGRESSION``.

The kernel backends differ by about 100x, so results taken with different
backends, Python versions or CPU counts are not compared: the script exits
with status 2 instead.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("backend", "python", "cpu_count")


def load(path: str) -> tuple[set, dict]:
    """(environments seen, {(workload, trace): {metric: [values]}})."""
    envs, groups, info = set(), {}, None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "env" in obj:
            info = obj
        elif "metrics" in obj and info is not None:
            envs.add(tuple(info["env"][k] for k in ENV_KEYS))
            group = groups.setdefault((info["workload"], info["trace"]), {})
            for name, m in obj["metrics"].items():
                group.setdefault(name, []).append(m["value"])
            info = None
    return envs, groups


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_envs, base), (new_envs, new) = load(argv[0]), load(argv[1])
    envs = base_envs | new_envs
    if len(envs) != 1:
        print("refused: results come from different environments "
              f"({', '.join(ENV_KEYS)}): {sorted(envs)}", file=sys.stderr)
        return 2
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
    gates = {m["name"]: m for m in bench["end_to_end"]}
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} (trace {key[1]})")
        for name in base[key]:
            if name not in new[key]:
                continue
            b_q1, b_med, b_q3 = summary(base[key][name])
            n_q1, n_med, n_q3 = summary(new[key][name])
            change = (n_med - b_med) / b_med if b_med else 0.0
            flag = ""
            gate = gates.get(name) if key[1] == 0 else None
            if gate is not None:
                worse = change if gate["better"] == "lower" else -change
                flag = "REGRESSION" if worse > gate["bound"] else ""
            print(f"{name:40s} base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
                  f"new {n_med:.6g} [{n_q1:.6g}, {n_q3:.6g}]  "
                  f"{change:+.1%} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
