"""Newline-delimited JSON protocol over TCP.

One request object per line, one response object per line, UTF-8. Requests
carry ``op`` plus op-specific fields (``token``, ``radius_m``, ``lat``,
``lon``, ``user_id``); unknown fields are ignored. Responses are either
``{"ok": true, ...payload}`` or ``{"ok": false, "error": code}`` with code
one of ``auth``, ``not_found``, ``rate``, ``bad_request``, ``busy``. A
malformed line yields one ``bad_request`` response and the connection stays
open. A line longer than ``MAX_LINE_BYTES`` (newline included) yields one
``bad_request`` and the server closes the connection. A last line without a
newline is answered before the server closes on EOF. Each connection holds
its own session (login binds it).

One thread serves every connection, one request at a time in arrival
order, so a slow request (a whole-world ``nearby``) delays the other
connections. A connection holds at most one line's worth of unread input
(``MAX_LINE_BYTES`` + 1 bytes, enough to tell an overlong line) and one
unsent response: nothing more is read from it while a whole line waits,
and its next line is answered only once its previous response is sent. A
connection that moves no byte either way (sends nothing, or stops reading)
for ``IDLE_TIMEOUT_S`` is closed. A connection accepted while
``MAX_CONNECTIONS`` are open gets the single line
``{"error":"busy","ok":false}`` and is closed.

``ServiceServer.shutdown`` never waits, so any thread may call it, the
serving one included (a signal handler). Whoever runs ``serve_forever`` on
a thread joins that thread before ``server_close``.
"""

from __future__ import annotations

import contextlib
import json
import math
import selectors
import socket
import sys
import time
from collections import deque

from .geo import CoordinateError, GeoPoint
from .service import AuthError, NearbyEntry, NotFoundError, ProximityService, RateError

__all__ = ["entry_to_wire", "WireHandler", "ServiceServer", "ServiceClient"]

# Longest request line the server reads, newline included; this bounds the
# input one connection makes the server hold.
MAX_LINE_BYTES = 64 * 1024

# Seconds a connection may go without moving a byte either way, neither
# sending a request nor reading a response, before the server closes it.
IDLE_TIMEOUT_S = 300.0

# Connections served at once; one accepted beyond it is told ``busy`` and
# closed.
MAX_CONNECTIONS = 64


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _finite_number(value) -> bool:
    """A JSON number (not a boolean) that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def entry_to_wire(entry: NearbyEntry) -> dict:
    """Entry as a JSON-safe dict; policy-disabled fields are simply absent."""
    out: dict = {"user_id": entry.user_id, "last_active_t": entry.last_active_t}
    if entry.first_name is not None:
        out["first_name"] = entry.first_name
    if entry.distance_m is not None:
        out["distance_m"] = entry.distance_m
    if entry.fuzzy_birthdate is not None:
        out["fuzzy_birthdate"] = entry.fuzzy_birthdate.isoformat()
    if entry.common_likes is not None:
        out["common_likes"] = sorted(entry.common_likes)
    if entry.social_id is not None:
        out["social_id"] = entry.social_id
    return out


class WireHandler:
    """Maps one connection's JSON requests onto a service.

    A ``lock`` shared by several handlers is held around each request; with
    none, the handler takes no lock (one thread serves every connection)."""

    def __init__(self, service: ProximityService,
                 lock: contextlib.AbstractContextManager | None = None):
        self.service = service
        self.session = None
        self._lock = lock or contextlib.nullcontext()

    def handle_line(self, line: str) -> dict:
        try:
            req = json.loads(line)
        except (ValueError, RecursionError):
            # Not JSON, an integer beyond the interpreter's digit limit, or
            # nesting deeper than the parser's recursion limit.
            return {"ok": False, "error": "bad_request"}
        if not isinstance(req, dict):
            return {"ok": False, "error": "bad_request"}
        with self._lock:
            return self._dispatch(req)

    def _dispatch(self, req: dict) -> dict:
        op = req.get("op")
        try:
            if op == "login":
                token = req.get("token")
                if not isinstance(token, str):
                    return {"ok": False, "error": "bad_request"}
                self.session = self.service.login(token)
                return {"ok": True, "user_id": self.session.user_id}
            if self.session is None:
                return {"ok": False, "error": "auth"}
            if op == "update_location":
                lat, lon = req.get("lat"), req.get("lon")
                if not (_finite_number(lat) and _finite_number(lon)):
                    return {"ok": False, "error": "bad_request"}
                self.service.update_location(self.session, GeoPoint(lat, lon))
                return {"ok": True}
            if op == "nearby":
                radius = req.get("radius_m")
                if not _finite_number(radius) or radius <= 0:
                    return {"ok": False, "error": "bad_request"}
                entries = self.service.nearby(self.session, float(radius))
                return {"ok": True, "entries": [entry_to_wire(e) for e in entries]}
            if op == "profile":
                uid = req.get("user_id")
                if not isinstance(uid, str):
                    return {"ok": False, "error": "bad_request"}
                entry = self.service.profile(self.session, uid)
                return {"ok": True, "entry": entry_to_wire(entry)}
            return {"ok": False, "error": "bad_request"}
        except AuthError:
            return {"ok": False, "error": "auth"}
        except NotFoundError:
            return {"ok": False, "error": "not_found"}
        except RateError:
            return {"ok": False, "error": "rate"}
        except CoordinateError:
            return {"ok": False, "error": "bad_request"}


class _Connection:
    """One client: its session, unread input, unsent output, last progress."""

    __slots__ = ("sock", "address", "handler", "inbuf", "out", "last", "eof",
                 "queued")

    def __init__(self, sock: socket.socket, address, handler: WireHandler,
                 now: float):
        self.sock = sock
        self.address = address
        self.handler = handler
        self.inbuf = bytearray()  # at most MAX_LINE_BYTES + 1 bytes
        self.out = b""  # the unsent tail of one response
        self.last = now  # monotonic time of the last byte moved either way
        self.eof = False  # no more input will be read
        self.queued = False  # waiting in the server's ready queue


_BUSY = (_dump({"ok": False, "error": "busy"}) + "\n").encode("utf-8")
_OVERLONG = (_dump({"ok": False, "error": "bad_request"}) + "\n").encode("utf-8")


class ServiceServer:
    """Serves every connection from one thread, one request at a time.

    ``serve_forever`` runs a ``selectors`` loop on the calling thread. A
    connection's next line is answered only once its previous response is
    fully sent, and nothing is read from it while a complete line waits in
    its buffer; a connection with a line to answer waits its turn in a
    queue, one line per turn, so a pipelining client cannot starve the
    others. Only this thread touches the service.
    """

    def __init__(self, service: ProximityService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._conns: set[_Connection] = set()
        self._ready: deque[_Connection] = deque()
        self._now = time.monotonic()
        self._shutdown_request = False

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until ``shutdown``, returning within ``poll_interval``
        seconds of it; idle connections are looked for once per
        ``poll_interval`` seconds."""
        try:
            sweep_at = time.monotonic() + poll_interval
            while not self._shutdown_request:
                events = self._selector.select(0 if self._ready else poll_interval)
                self._now = now = time.monotonic()
                accept = False
                for key, mask in events:
                    conn = key.data
                    if conn is None:
                        accept = True
                        continue
                    try:
                        if conn.out:
                            self._send(conn, conn.out)
                        elif not conn.queued:
                            self._receive(conn)
                    except Exception:
                        self._fail(conn)
                for _ in range(len(self._ready)):
                    conn = self._ready.popleft()
                    if conn.queued:
                        conn.queued = False
                        try:
                            self._advance(conn)
                        except Exception:
                            self._fail(conn)
                # After the connections' events, so a slot freed by a peer
                # that hung up is free for a connection accepted with it.
                if accept:
                    self._accept()
                if now >= sweep_at:
                    sweep_at = now + poll_interval
                    limit = IDLE_TIMEOUT_S  # the module's value at each sweep
                    for conn in [c for c in self._conns if now - c.last > limit]:
                        self._close(conn)
        finally:
            self._shutdown_request = False

    def shutdown(self) -> None:
        """Ask ``serve_forever`` to stop, and return without waiting; safe
        from any thread, the serving one included. Asked before the loop
        starts, it stops the loop at once."""
        self._shutdown_request = True

    def server_close(self) -> None:
        for conn in list(self._conns):
            self._close(conn)
        self._selector.close()
        self._listener.close()

    def _accept(self) -> None:
        try:
            sock, address = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        if len(self._conns) >= MAX_CONNECTIONS:
            try:
                sock.send(_BUSY)
            except OSError:
                pass
            sock.close()
            return
        conn = _Connection(sock, address, WireHandler(self.service), self._now)
        self._conns.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(MAX_LINE_BYTES + 1 - len(conn.inbuf))
        except BlockingIOError:
            return
        except OSError:  # reset by the peer
            self._close(conn)
            return
        conn.last = self._now
        if data:
            conn.inbuf += data
        else:
            conn.eof = True
        self._advance(conn)

    def _advance(self, conn: _Connection) -> None:
        """Answer the connection's next buffered line, if it has a whole one
        (or a last one before EOF); close it once its input is used up."""
        buf = conn.inbuf
        while True:
            end = buf.find(b"\n", 0, MAX_LINE_BYTES) + 1
            if not end:
                if len(buf) > MAX_LINE_BYTES:
                    # Refuse the line and close, leaving the rest unread.
                    buf.clear()
                    conn.eof = True
                    self._send(conn, _OVERLONG)
                    return
                if not conn.eof:
                    return  # wait for the rest of the line
                if not buf:
                    self._close(conn)
                    return
                end = len(buf)
            line = buf[:end].decode("utf-8", errors="replace").strip()
            del buf[:end]
            if line:
                break
        resp = conn.handler.handle_line(line)
        self._send(conn, (_dump(resp) + "\n").encode("utf-8"))

    def _send(self, conn: _Connection, data) -> None:
        """Send a new response, or the unsent tail in ``conn.out``. The
        socket is watched for writing exactly while ``conn.out`` holds a
        tail, and the next line is queued once nothing is left to send."""
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return
        if sent:
            conn.last = self._now
        if sent < len(data):
            if not conn.out:
                self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
            conn.out = memoryview(data)[sent:]
            return
        if conn.out:
            conn.out = b""
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
        if conn.inbuf or conn.eof:
            self._queue(conn)

    def _queue(self, conn: _Connection) -> None:
        conn.queued = True
        self._ready.append(conn)

    def _fail(self, conn: _Connection) -> None:
        """Report the exception being handled and close its connection."""
        import traceback  # only on this path, to keep the server's imports small

        print("-" * 40, file=sys.stderr)
        print("Exception occurred during processing of request from",
              conn.address, file=sys.stderr)
        traceback.print_exc()
        print("-" * 40, file=sys.stderr)
        self._close(conn)

    def _close(self, conn: _Connection) -> None:
        if conn not in self._conns:
            return
        self._conns.remove(conn)
        conn.queued = False
        self._selector.unregister(conn.sock)
        conn.sock.close()


class ServiceClient:
    """Small line-oriented client for the protocol above."""

    def __init__(self, host: str, port: int, timeout_s: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._rfile = self._sock.makefile("r", encoding="utf-8", newline="\n")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def request(self, req: dict) -> dict:
        self.send_raw(_dump(req))
        return self.read_response()

    def send_raw(self, line: str) -> None:
        self._sock.sendall((line + "\n").encode("utf-8"))

    def read_response(self) -> dict:
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    # convenience wrappers
    def login(self, token: str) -> dict:
        return self.request({"op": "login", "token": token})

    def update_location(self, lat: float, lon: float) -> dict:
        return self.request({"op": "update_location", "lat": lat, "lon": lon})

    def nearby(self, radius_m: float) -> dict:
        return self.request({"op": "nearby", "radius_m": radius_m})

    def profile(self, user_id: str) -> dict:
        return self.request({"op": "profile", "user_id": user_id})
