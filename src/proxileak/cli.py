"""Command-line entry points.

  proxileak run <cfg> [--seed N] [--out DIR] [--set key=value ...]
  proxileak serve <cfg> --port P [--seed N] [--set key=value ...]
  proxileak sweep <cfg> --param K --values a,b,c [--parallel N] [...]

Exit codes: 0 success, 2 configuration error, 3 attack/runtime error.
The output directory of run and sweep resolves as --out, else
$PROXILEAK_OUT, else ``out/<config file stem>``. A run's ``manifest.cfg``
is a scenario file: ``proxileak run <dir>/manifest.cfg`` repeats the run
byte for byte.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig, parse_scenario
from .runner import build_service, run_scenario, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

OUT_ENV = "PROXILEAK_OUT"


def _parse_sets(values: list[str]) -> dict[str, str]:
    out = {}
    for item in values:
        if "=" not in item:
            raise ConfigError("expected key=value", field=item)
        key, _, val = item.partition("=")
        out[key.strip()] = val.strip()
    return out


def _load(args) -> ScenarioConfig:
    overrides = _parse_sets(args.set or [])
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return parse_scenario(Path(args.config), overrides)


def _out_dir(args) -> Path:
    return Path(args.out or os.environ.get(OUT_ENV)
                or Path("out") / Path(args.config).stem)


def _cmd_run(args) -> int:
    out = _out_dir(args)
    result = run_scenario(_load(args), out)
    for key in sorted(result.metrics):
        print(f"{key} = {result.metrics[key]}")
    print(f"artifacts written to {out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("no sweep values given", field="--values")
    out = _out_dir(args)
    run_sweep(cfg, args.param, values, out, parallel=args.parallel)
    print(f"swept {args.param} over {len(values)} values; "
          f"aggregate at {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_serve(args) -> int:
    from .tcp import ServiceServer

    if not 0 <= args.port <= 65535:
        raise ConfigError(f"must be in 0..65535: {args.port}", field="--port")
    cfg = _load(args)
    try:
        server = ServiceServer(build_service(cfg, cfg.seed), port=args.port)
    except OSError as exc:
        print(f"bind failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    def _stop(signum, frame):
        server.shutdown()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    print(f"listening on port {server.port}", flush=True)
    server.serve_forever(poll_interval=0.1)
    server.server_close()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="proxileak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one attack scenario")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser("serve", help="serve the JSON-lines protocol")
    p_serve.add_argument("config")
    p_serve.add_argument("--port", type=int, required=True)
    p_serve.add_argument("--seed", type=int)
    p_serve.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_serve.set_defaults(func=_cmd_serve)

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--parallel", type=int, default=1)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
