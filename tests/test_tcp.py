"""Wire protocol contract plus the in-process/TCP differential."""

import contextlib
import json
import math
import random
import selectors
import socket
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proxileak.geo import EnuPoint, GeoPoint, from_enu, haversine_m
from proxileak.service import (AuthError, NotFoundError, ProximityService,
                               RateError)
from proxileak import tcp
from proxileak.tcp import (MAX_LINE_BYTES, ServiceClient, ServiceServer,
                           WireHandler, _dump, entry_to_wire)
from proxileak.world import DisclosurePolicy, generate_population


def make_service(n=15, seed=2, policy=None):
    world = generate_population(n, 100, 1.0, seed=seed, mean_likes=3.0)
    return world, ProximityService(world, policy or DisclosurePolicy())


def send_raw(client, line):
    """Write ``line`` and a newline to ``client``'s socket, unencoded."""
    client._sock.sendall((line + "\n").encode("utf-8"))


@contextlib.contextmanager
def running(svc):
    """A server for ``svc`` and the thread running its ``serve_forever``."""
    srv = ServiceServer(svc)
    thread = threading.Thread(target=lambda: srv.serve_forever(poll_interval=0.02),
                              daemon=True)
    thread.start()
    try:
        yield srv, thread
    finally:
        srv.shutdown()
        thread.join(timeout=5)
        stopped = not thread.is_alive()
        srv.server_close()
    assert stopped


@pytest.fixture
def serving():
    """A server on a 15-user world and the thread running ``serve_forever``."""
    with running(make_service()[1]) as served:
        yield served


@pytest.fixture
def server(serving):
    return serving[0]


def test_login_nearby_round_trip(server):
    world = server.service.world
    uid = sorted(world.users)[0]
    with ServiceClient("127.0.0.1", server.port) as c:
        assert c.login(uid) == {"ok": True, "user_id": uid}
        resp = c.nearby(1e6)
        assert resp["ok"] is True
        assert len(resp["entries"]) == len(world.users) - 1
        target = resp["entries"][0]["user_id"]
        prof = c.profile(target)
        assert prof["ok"] is True and prof["entry"]["user_id"] == target


def test_malformed_line_keeps_connection(server):
    uid = sorted(server.service.world.users)[0]
    with ServiceClient("127.0.0.1", server.port) as c:
        # Deep nesting used to kill the connection thread without a response.
        for line in ("this is not json", "[" * 50000):
            send_raw(c, line)
            assert c.read_response() == {"ok": False, "error": "bad_request"}
        # connection still usable
        assert c.login(uid)["ok"] is True


def test_error_codes(server):
    with ServiceClient("127.0.0.1", server.port) as c:
        assert c.nearby(100)["error"] == "auth"  # before login
        assert c.login("ghost") == {"ok": False, "error": "auth"}
        uid = sorted(server.service.world.users)[0]
        c.login(uid)
        assert c.profile("ghost")["error"] == "not_found"
        assert c.request({"op": "nope"})["error"] == "bad_request"
        assert c.request({"op": "nearby"})["error"] == "bad_request"
        assert c.request({"op": "update_location", "lat": 95.0, "lon": 0.0}
                         )["error"] == "bad_request"
        assert c.request({"op": "login"})["error"] == "bad_request"


def test_unknown_fields_ignored(server):
    uid = sorted(server.service.world.users)[0]
    with ServiceClient("127.0.0.1", server.port) as c:
        resp = c.request({"op": "login", "token": uid, "shoe_size": 44})
        assert resp["ok"] is True


def test_sessions_are_per_connection(server):
    world = server.service.world
    ids = sorted(world.users)
    with ServiceClient("127.0.0.1", server.port) as c1, \
         ServiceClient("127.0.0.1", server.port) as c2:
        c1.login(ids[0])
        c1.nearby(1e6)
        # c2 never discovered anyone: profile must fail there
        c2.login(ids[1])
        assert c2.profile(ids[2])["error"] == "not_found"
        assert c1.profile(ids[2])["ok"] is True


# -- differential: in-process API vs wire ------------------------------------------

def random_requests(rng, ids):
    """A random request sequence mixing valid and invalid calls."""
    seq = [{"op": "login", "token": rng.choice(ids + ["ghost"])}]
    for _ in range(rng.randrange(2, 8)):
        roll = rng.random()
        if roll < 0.3:
            seq.append({"op": "nearby",
                        "radius_m": rng.choice([500.0, 3000.0, 1e6, -1.0])})
        elif roll < 0.55:
            seq.append({"op": "update_location",
                        "lat": 41.35 + rng.random() * 0.1,
                        "lon": 2.10 + rng.random() * 0.15})
        elif roll < 0.8:
            seq.append({"op": "profile", "user_id": rng.choice(ids + ["ghost"])})
        elif roll < 0.9:
            seq.append({"op": "login", "token": rng.choice(ids)})
        else:
            seq.append({"op": rng.choice(["nope", "nearby"])})
    return seq


def reference_responses(service, requests):
    """Drive the Python API directly and re-encode results independently."""
    session = None
    out = []
    for req in requests:
        op = req.get("op")
        try:
            if op == "login":
                token = req.get("token")
                if not isinstance(token, str):
                    out.append({"ok": False, "error": "bad_request"})
                    continue
                session = service.login(token)
                out.append({"ok": True, "user_id": session.user_id})
            elif session is None:
                out.append({"ok": False, "error": "auth"})
            elif op == "nearby":
                r = req.get("radius_m")
                if not isinstance(r, (int, float)) or r <= 0:
                    out.append({"ok": False, "error": "bad_request"})
                    continue
                entries = service.nearby(session, float(r))
                out.append({"ok": True,
                            "entries": [entry_to_wire(e) for e in entries]})
            elif op == "update_location":
                service.update_location(session, GeoPoint(req["lat"], req["lon"]))
                out.append({"ok": True})
            elif op == "profile":
                uid = req.get("user_id")
                if not isinstance(uid, str):
                    out.append({"ok": False, "error": "bad_request"})
                    continue
                out.append({"ok": True,
                            "entry": entry_to_wire(service.profile(session, uid))})
            else:
                out.append({"ok": False, "error": "bad_request"})
        except AuthError:
            out.append({"ok": False, "error": "auth"})
        except NotFoundError:
            out.append({"ok": False, "error": "not_found"})
        except RateError:
            out.append({"ok": False, "error": "rate"})
    return out


def test_differential_wire_vs_inprocess():
    rng = random.Random(31337)
    for trial in range(30):
        # identical twin worlds, one behind TCP, one driven directly
        world_a, svc_a = make_service(seed=trial)
        world_b, svc_b = make_service(seed=trial)
        ids = sorted(world_a.users)
        requests = random_requests(rng, ids)
        expected = reference_responses(svc_a, requests)

        with running(svc_b) as (srv, _), \
             ServiceClient("127.0.0.1", srv.port) as c:
            got = [c.request(r) for r in requests]
        assert got == expected


def canonical(ref: dict) -> bytes:
    """The wire bytes of ``ref``, spelled out independently of tcp.py."""
    return (json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_every_reply_kind_has_the_canonical_bytes(monkeypatch):
    # One user gets a non-ASCII name, so the entries pin the \uXXXX escapes.
    policy = DisclosurePolicy(share_social_id=True)
    worlds = [make_service(policy=policy) for _ in range(2)]
    for world, svc in worlds:
        world.users[sorted(world.users)[3]].first_name = "N\u00faria"
        svc.teleport_limit_m = 1000.0
        svc.teleport_cooldown_s = float("inf")
    (world, twin), (_, served) = worlds
    ids = sorted(world.users)
    home = world.position_of(ids[0])
    requests = [
        {"op": "nearby", "radius_m": 500.0},
        {"op": "login", "token": "ghost"},
        {"op": "login", "token": ids[0]},
        {"op": "update_location", "lat": home.lat_deg + 0.001, "lon": home.lon_deg},
        {"op": "update_location", "lat": home.lat_deg + 0.1, "lon": home.lon_deg},
        {"op": "nearby", "radius_m": 1e7},
        {"op": "profile", "user_id": ids[3]},
        {"op": "profile", "user_id": "ghost"},
        {"op": "nearby", "radius_m": -1.0},
    ]
    expected = [canonical({"ok": False, "error": "bad_request"})]
    expected += [canonical(r) for r in reference_responses(twin, requests)]
    assert [json.loads(e).get("error", "ok") for e in expected] == [
        "bad_request", "auth", "auth", "ok", "ok", "rate", "ok", "ok",
        "not_found", "bad_request"]
    assert b"N\\u00faria" in expected[6] and b"N\\u00faria" in expected[7]
    with running(served) as (srv, _):
        monkeypatch.setattr(tcp, "MAX_CONNECTIONS", 1)
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as s, \
             s.makefile("rb") as replies:
            got = []
            for line in ["not json"] + [json.dumps(r) for r in requests]:
                s.sendall(line.encode() + b"\n")
                got.append(replies.readline())
            assert got == expected
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as busy:
                assert read_to_eof(busy) == canonical({"ok": False, "error": "busy"})
            s.sendall(b"x" * (MAX_LINE_BYTES + 10))
            assert replies.readline() == canonical({"ok": False, "error": "bad_request"})


def test_reply_cut_off_by_eof_raises_connection_error():
    # As when the server closes a stalled connection with its reply half sent.
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def half_a_reply():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b'{"ok":true,"us')

        thread = threading.Thread(target=half_a_reply, daemon=True)
        thread.start()
        with ServiceClient("127.0.0.1", listener.getsockname()[1],
                           timeout_s=5.0) as c:
            with pytest.raises(ConnectionError):
                c.login("anyone")
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_concurrent_clients_match_a_sequential_replay():
    # Two closed-loop clients, as in a small serve_mix: moves within 60 m of
    # their own homes, profile polls of a third user, and 500 m nearby calls
    # that find a neighbour. The two homes lie kilometres apart, so neither
    # client's moves change what the other is told, and each connection's
    # replies must equal a sequential in-process replay of its own requests.
    world, _ = make_service(n=200, seed=6)
    ids = sorted(world.users)

    def neighboured(uid):
        return any(0 < haversine_m(world.position_of(uid), world.position_of(v)) < 400
                   for v in ids)

    first = next(filter(neighboured, ids))
    second = next(u for u in ids if neighboured(u) and haversine_m(
        world.position_of(first), world.position_of(u)) > 3000.0)
    target = next(u for u in ids if u not in (first, second))
    streams = []
    for uid in (first, second):
        home = world.position_of(uid)
        loop = []
        for i in range(160):
            if i % 8 == 7:
                loop.append({"op": "nearby", "radius_m": 500.0})
            elif i % 2 == 0:
                angle = i * 0.7
                p = from_enu(EnuPoint(60.0 * math.cos(angle), 60.0 * math.sin(angle),
                                      home))
                loop.append({"op": "update_location", "lat": p.lat_deg,
                             "lon": p.lon_deg})
            else:
                loop.append({"op": "profile", "user_id": target})
        streams.append(([{"op": "login", "token": uid},
                         {"op": "nearby", "radius_m": 1e7}], loop))

    _, twin = make_service(n=200, seed=6)
    handlers = [WireHandler(twin) for _ in streams]
    expected = [[h.handle_line(json.dumps(r)) for r in prologue]
                for h, (prologue, _) in zip(handlers, streams)]
    for h, (_, loop), out in zip(handlers, streams, expected):
        out += [h.handle_line(json.dumps(r)) for r in loop]
    assert all(r["ok"] for out in expected for r in out)
    assert all(r["entries"] for out in expected for r in out if "entries" in r)

    barrier = threading.Barrier(len(streams))
    got = [None] * len(streams)

    def client(i, port):
        prologue, loop = streams[i]
        with ServiceClient("127.0.0.1", port, timeout_s=10.0) as c:
            replies = [c.request(r) for r in prologue]
            barrier.wait(timeout=10)
            got[i] = replies + [c.request(r) for r in loop]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with running(make_service(n=200, seed=6)[1]) as (srv, _):
            threads = [threading.Thread(target=client, args=(i, srv.port), daemon=True)
                       for i in range(len(streams))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_handler_without_network():
    # WireHandler is usable directly; malformed JSON handled in place.
    _, svc = make_service()
    h = WireHandler(svc)
    assert h.handle_line("{") == {"ok": False, "error": "bad_request"}
    assert h.handle_line(json.dumps({"op": "nearby", "radius_m": 5}))["error"] == "auth"


@pytest.mark.parametrize("line", [
    '{"op": "nearby", "radius_m": NaN}',
    '{"op": "nearby", "radius_m": Infinity}',
    '{"op": "nearby", "radius_m": true}',
    '{"op": "nearby", "radius_m": 1' + "0" * 400 + '}',
    '{"op": "update_location", "lat": true, "lon": 2.15}',
    '{"op": "update_location", "lat": 41.4, "lon": false}',
    '{"op": "update_location", "lat": 41.4, "lon": Infinity}',
    '{"op": "update_location", "lat": -Infinity, "lon": 2.15}',
    '{"op": "update_location", "lat": NaN, "lon": 2.15}',
    '{"op": "update_location", "lat": 41.4, "lon": 1' + "0" * 400 + '}',
], ids=["radius-nan", "radius-inf", "radius-bool", "radius-huge-int",
        "lat-bool", "lon-bool", "lon-inf", "lat-neg-inf", "lat-nan",
        "lon-huge-int"])
def test_non_finite_and_boolean_numbers_rejected(line):
    world, svc = make_service()
    h = WireHandler(svc)
    uid = sorted(world.users)[0]
    assert h.handle_line(json.dumps({"op": "login", "token": uid}))["ok"] is True
    before = world.position_of(uid)
    assert h.handle_line(line) == {"ok": False, "error": "bad_request"}
    assert world.position_of(uid) == before


@pytest.mark.parametrize("line", [
    "[" * 100000,
    '{"op": "nearby", "radius_m": ' + "[" * 5000 + "1" + "]" * 5000 + "}",
    '{"op": "nearby", "radius_m": 1' + "0" * 5000 + "}",
], ids=["deep-list", "deep-field", "int-over-digit-limit"])
def test_undecodable_json_is_bad_request(line):
    # These used to raise RecursionError / ValueError out of handle_line.
    world, svc = make_service()
    h = WireHandler(svc)
    assert h.handle_line(line) == {"ok": False, "error": "bad_request"}
    uid = sorted(world.users)[0]
    assert h.handle_line(json.dumps({"op": "login", "token": uid}))["ok"] is True


def test_overlong_line_refused_and_connection_closed(server):
    uid = sorted(server.service.world.users)[0]
    login = _dump({"op": "login", "token": uid})
    with ServiceClient("127.0.0.1", server.port) as c:
        # Exactly MAX_LINE_BYTES with the newline: still served.
        send_raw(c, login.ljust(MAX_LINE_BYTES - 1))
        assert c.read_response() == {"ok": True, "user_id": uid}
        send_raw(c, login.ljust(2 * MAX_LINE_BYTES))
        assert c.read_response() == {"ok": False, "error": "bad_request"}
        with pytest.raises(ConnectionError):
            c.read_response()
    with ServiceClient("127.0.0.1", server.port) as c:
        assert c.login(uid) == {"ok": True, "user_id": uid}


def test_idle_and_stalled_connections_closed_quietly(server, monkeypatch, capsys):
    monkeypatch.setattr(tcp, "IDLE_TIMEOUT_S", 0.2)
    uid = sorted(server.service.world.users)[0]
    with ServiceClient("127.0.0.1", server.port) as c:
        assert c.login(uid) == {"ok": True, "user_id": uid}
        start = time.monotonic()
        with pytest.raises(ConnectionError):  # EOF once the idle timeout fires
            c.read_response()
        assert time.monotonic() - start < 5.0
    # A peer that sends but never reads: the server's write times out and
    # the connection is reset, so the sender eventually fails.
    burst = ((_dump({"op": "login", "token": uid}) + "\n")
             + (_dump({"op": "nearby", "radius_m": 1e7}) + "\n") * 200).encode()
    with socket.create_connection(("127.0.0.1", server.port), timeout=0.5) as s:
        deadline = time.monotonic() + 30.0
        with pytest.raises((ConnectionResetError, BrokenPipeError)):
            while time.monotonic() < deadline:
                try:
                    s.sendall(burst)
                except TimeoutError:
                    pass
    with ServiceClient("127.0.0.1", server.port) as c:
        assert c.login(uid) == {"ok": True, "user_id": uid}
    assert "Traceback" not in capsys.readouterr().err


# -- one serving thread: pipelining, backpressure, caps, faults ----------------

def read_to_eof(sock) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def connection_of(srv, sock):
    """The server's state for the client socket ``sock``."""
    return next(c for c in srv._conns if c.address == sock.getsockname())


def test_pipelined_requests_answered_in_order(serving):
    srv, _ = serving
    ids = sorted(srv.service.world.users)
    requests = [{"op": "login", "token": ids[0]}, {"op": "nearby", "radius_m": 1e6}]
    for k in range(48):
        requests.append({"op": "profile", "user_id": ids[k % len(ids)]} if k % 3
                        else {"op": "update_location", "lat": 41.38 + k * 1e-4,
                              "lon": 2.17})
    _, twin = make_service()
    expected = reference_responses(twin, requests)
    assert len(expected) == 50 and len(set(map(_dump, expected))) > 10
    with ServiceClient("127.0.0.1", srv.port) as c:
        c._sock.sendall("".join(_dump(r) + "\n" for r in requests).encode())
        assert [c.read_response() for _ in requests] == expected


def test_unterminated_last_line_answered_before_eof(serving):
    srv, _ = serving
    uid = sorted(srv.service.world.users)[0]
    with socket.create_connection(("127.0.0.1", srv.port), timeout=2) as s:
        s.sendall(("garbage\n\n" + _dump({"op": "login", "token": uid})).encode())
        s.shutdown(socket.SHUT_WR)
        assert read_to_eof(s).decode().splitlines() == [
            _dump({"ok": False, "error": "bad_request"}),
            _dump({"ok": True, "user_id": uid})]


def test_stalled_reader_holds_one_line_and_one_response(serving):
    srv, _ = serving
    ids = sorted(srv.service.world.users)
    burst = ((_dump({"op": "login", "token": ids[0]}) + "\n")
             + (_dump({"op": "nearby", "radius_m": 1e7}) + "\n") * 4000).encode()
    with socket.create_connection(("127.0.0.1", srv.port), timeout=2) as a, \
         ServiceClient("127.0.0.1", srv.port, timeout_s=2.0) as b:
        a.sendall(burst)  # and never read
        start = time.monotonic()
        assert b.login(ids[1]) == {"ok": True, "user_id": ids[1]}
        assert time.monotonic() - start < 2.0
        # Once the reader's socket buffers are full the server holds one
        # unsent response and at most one line of input for it, and it
        # watches that connection for writability only.
        deadline = time.monotonic() + 5.0
        while not connection_of(srv, a).out:
            assert time.monotonic() < deadline, "the burst never filled the buffers"
            time.sleep(0.02)
        held = connection_of(srv, a)
        assert held.out and len(held.inbuf) <= MAX_LINE_BYTES + 1
        assert srv._selector.get_key(held.sock).events == selectors.EVENT_WRITE
        assert b.nearby(1e7)["ok"] is True
        other = connection_of(srv, b._sock)
        assert srv._selector.get_key(other.sock).events == selectors.EVENT_READ


def test_overlong_line_closes_only_its_connection(serving):
    srv, _ = serving
    ids = sorted(srv.service.world.users)
    with ServiceClient("127.0.0.1", srv.port) as c1, \
         ServiceClient("127.0.0.1", srv.port) as c2:
        assert c1.login(ids[0])["ok"] is True
        send_raw(c2, "x" * (MAX_LINE_BYTES + 10))
        assert c2.read_response() == {"ok": False, "error": "bad_request"}
        with pytest.raises(ConnectionError):
            c2.read_response()
        entries = c1.nearby(1e6)["entries"]
        assert c1.profile(entries[0]["user_id"])["ok"] is True


def test_connections_beyond_the_cap_are_told_busy(serving, monkeypatch):
    srv, _ = serving
    monkeypatch.setattr(tcp, "MAX_CONNECTIONS", 2)
    ids = sorted(srv.service.world.users)
    with ServiceClient("127.0.0.1", srv.port) as c2:
        with ServiceClient("127.0.0.1", srv.port) as c1:
            assert c1.login(ids[0])["ok"] is True
            assert c2.login(ids[1])["ok"] is True
            with socket.create_connection(("127.0.0.1", srv.port), timeout=2) as c3:
                assert read_to_eof(c3) == b'{"error":"busy","ok":false}\n'
        # c1 has hung up, so its slot is free again.
        with ServiceClient("127.0.0.1", srv.port) as c4:
            assert c4.login(ids[2]) == {"ok": True, "user_id": ids[2]}
        assert c2.nearby(1e6)["ok"] is True


def test_unexpected_error_ends_only_its_connection(serving, monkeypatch, capsys):
    srv, thread = serving
    ids = sorted(srv.service.world.users)
    profile = ProximityService.profile
    raised = []

    def flaky(self, session, user_id):
        if not raised:
            raised.append(user_id)
            raise RuntimeError("injected fault")
        return profile(self, session, user_id)

    monkeypatch.setattr(ProximityService, "profile", flaky)
    with ServiceClient("127.0.0.1", srv.port) as c1, \
         ServiceClient("127.0.0.1", srv.port) as c2:
        for c, uid in ((c1, ids[0]), (c2, ids[1])):
            assert c.login(uid)["ok"] is True
            assert c.nearby(1e6)["ok"] is True
        with pytest.raises(ConnectionError):
            c1.profile(ids[2])
        assert c2.profile(ids[2])["ok"] is True
    assert raised == [ids[2]]
    assert thread.is_alive()
    err = capsys.readouterr().err
    assert "Exception occurred during processing of request from" in err
    assert "Traceback" in err and "RuntimeError: injected fault" in err


def test_shutdown_from_the_serving_thread_returns(monkeypatch):
    # As a signal handler does when the signal arrives during select: the
    # serving thread itself asks the loop it runs to stop.
    _, svc = make_service()
    srv = ServiceServer(svc)
    uid = sorted(svc.world.users)[0]
    login = ProximityService.login

    def stopping(self, token):
        srv.shutdown()
        return login(self, token)

    monkeypatch.setattr(ProximityService, "login", stopping)
    thread = threading.Thread(target=lambda: srv.serve_forever(poll_interval=0.02),
                              daemon=True)
    thread.start()
    with ServiceClient("127.0.0.1", srv.port, timeout_s=2.0) as c:
        assert c.login(uid) == {"ok": True, "user_id": uid}
    thread.join(timeout=5)
    assert not thread.is_alive()
    srv.server_close()


def test_shutdown_before_the_loop_starts_stops_it():
    _, svc = make_service()
    srv = ServiceServer(svc)
    asking = threading.Thread(target=srv.shutdown, daemon=True)
    asking.start()
    asking.join(timeout=2)
    assert not asking.is_alive(), "shutdown() waited for a loop not yet started"
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    srv.server_close()


def test_handler_holds_a_shared_lock_around_each_request(monkeypatch):
    _, svc = make_service()
    lock = threading.Lock()
    held = []
    nearby = ProximityService.nearby

    def watched(self, session, radius_m):
        held.append(lock.locked())
        return nearby(self, session, radius_m)

    monkeypatch.setattr(ProximityService, "nearby", watched)
    h = WireHandler(svc, lock)
    uid = sorted(svc.world.users)[0]
    assert h.handle_line(_dump({"op": "login", "token": uid}))["ok"] is True
    assert h.handle_line(_dump({"op": "nearby", "radius_m": 1e6}))["ok"] is True
    assert held == [True] and not lock.locked()


# -- fuzz: every line gets exactly one well-formed response ---------------------

ERROR_CODES = {"auth", "not_found", "rate", "bad_request"}
FUZZ_IDS = sorted(make_service()[0].users)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=16)
requests = st.fixed_dictionaries({}, optional={
    "op": st.sampled_from(["login", "nearby", "update_location", "profile", "nope"])
          | json_values,
    "token": st.sampled_from(FUZZ_IDS + ["ghost"]) | json_values,
    "user_id": st.sampled_from(FUZZ_IDS + ["ghost"]) | json_values,
    "radius_m": st.floats(-10.0, 1e7) | json_values,
    "lat": st.floats(-100.0, 100.0) | json_values,
    "lon": st.floats(-200.0, 200.0) | json_values,
})
lines = (requests.map(json.dumps)
         | json_values.map(json.dumps)
         | st.integers(1, 3000).map(lambda depth: "[" * depth)
         | st.text())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(lines, min_size=1, max_size=6))
def test_fuzz_handle_line_always_answers_well_formed(batch):
    _, svc = make_service()
    h = WireHandler(svc)
    for line in batch:
        resp = h.handle_line(line)
        assert type(resp) is dict and type(resp["ok"]) is bool
        if not resp["ok"]:
            assert resp.keys() == {"ok", "error"} and resp["error"] in ERROR_CODES
        assert json.loads(_dump(resp)) == resp
