"""The names the benchmark in ``perfbench/`` reaches into the package by.

``perfbench/tracing.py`` patches functions and methods by dotted name, and
``perfbench/run.py`` builds a ``ProximityService`` with keyword arguments,
a ``WireHandler`` per replayed connection and a ``ServiceClient`` per load
connection.
Its own tests sit outside the default test paths, so these checks keep a
renamed or deleted name from breaking the benchmark unnoticed, and check
that a patched name still sees the calls the benchmark counts.
"""

import ast
import importlib.util
import inspect
import time
from pathlib import Path

import pytest

from proxileak.config import parse_scenario
from proxileak.runner import run_scenario
from proxileak.service import ProximityService
from proxileak.socialgraph import SocialGraph
from proxileak.tcp import ServiceClient, WireHandler

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


_spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                               PERFBENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span", sorted(tracing.TARGETS))
def test_every_traced_target_resolves(span):
    module_name, path, _ = tracing.TARGETS[span]
    owner, attr = tracing._resolve(module_name, path)
    assert callable(getattr(owner, attr))


def test_population_size_is_the_first_parameter_of_the_build():
    # The span note of world.generate_population reads args[0] or kwargs["n"].
    module_name, path, _ = tracing.TARGETS["world.generate_population"]
    owner, attr = tracing._resolve(module_name, path)
    first = next(iter(inspect.signature(getattr(owner, attr)).parameters))
    assert first == "n"


def bind_the_call(function: str, callee) -> None:
    """Bind the arguments of the one call of ``callee`` in ``perfbench/run.py``'s
    ``function`` to ``callee``'s signature; raises TypeError if they no longer fit."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    calls = [node for node in ast.walk(body)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == callee.__name__]
    assert len(calls) == 1
    call = calls[0]
    inspect.signature(callee).bind(
        *[None] * len(call.args), **{k.arg: None for k in call.keywords})


def test_service_accepts_the_arguments_of_the_serve_replay():
    bind_the_call("replay", ProximityService)


def test_wire_handler_accepts_the_arguments_of_the_serve_replay():
    bind_the_call("replay", WireHandler)


def test_client_accepts_the_arguments_of_the_load_phase():
    bind_the_call("load_phase", ServiceClient)


def test_the_solver_span_counts_real_solves_only(tmp_path):
    # The bundled track scenario makes 17 fixes; 7 of them repeat an earlier
    # fix's solver inputs and reuse its estimate (see test_attacker.py).
    # Were the attacker to bind the solver at import time, the patched name
    # would see no solve at all; were memo hits counted, it would see 17.
    cfg = parse_scenario(ROOT / "scenarios" / "track_commuter.cfg")
    with tracing.Tracer(["mlat.multilaterate", "attacker.localize"]) as tracer:
        run_scenario(cfg, tmp_path)
    spans = tracer.by_name()
    assert len(spans["attacker.localize"]) == 17
    assert len(spans["mlat.multilaterate"]) == 10


def test_every_pool_query_runs_inside_an_identify_span(tmp_path, monkeypatch):
    # The benchmark's identify_crowd op time is the socialgraph.identify
    # span, so a pool query made outside identify would go untimed.
    calls = []
    matching = SocialGraph.matching

    def counting(self, q):
        calls.append(time.perf_counter())
        return matching(self, q)

    monkeypatch.setattr(SocialGraph, "matching", counting)
    cfg = parse_scenario(ROOT / "scenarios" / "identify_zipf.cfg")
    with tracing.Tracer(["socialgraph.identify"]) as tracer:
        run_scenario(cfg, tmp_path)
    spans = [(t0, t1) for name, t0, t1, _, _ in tracer.spans
             if name == "socialgraph.identify"]
    assert len(spans) == cfg.identify_victims == 20
    assert calls
    assert all(any(t0 <= t <= t1 for t0, t1 in spans) for t in calls)
