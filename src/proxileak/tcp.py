"""Newline-delimited JSON protocol over TCP.

One request object per line, one response object per line, UTF-8. Requests
carry ``op`` plus op-specific fields (``token``, ``radius_m``, ``lat``,
``lon``, ``user_id``); unknown fields are ignored. Responses are either
``{"ok": true, ...payload}`` or ``{"ok": false, "error": code}`` with code
one of ``auth``, ``not_found``, ``rate``, ``bad_request``. A malformed line
yields one ``bad_request`` response and the connection stays open. A line
longer than ``MAX_LINE_BYTES`` (newline included) yields one ``bad_request``
and the server closes the connection. A connection that sends nothing, or
stops reading, for ``IDLE_TIMEOUT_S`` is closed. Each connection holds its
own session (login binds it).
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading

from .geo import CoordinateError, GeoPoint
from .service import AuthError, NearbyEntry, NotFoundError, ProximityService, RateError

__all__ = ["entry_to_wire", "WireHandler", "ServiceServer", "ServiceClient"]

# Longest request line the server reads, newline included; this bounds what
# one client can make a connection thread hold.
MAX_LINE_BYTES = 64 * 1024

# Seconds a connection may wait on its peer, to read a request or to write a
# response, before the server closes it; this bounds how long an idle or
# stalled client holds a connection thread.
IDLE_TIMEOUT_S = 300.0


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
    """Maps one connection's JSON requests onto a service."""

    def __init__(self, service: ProximityService, lock: threading.Lock | None = None):
        self.service = service
        self.session = None
        self._lock = lock or threading.Lock()

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


class _ConnectionHandler(socketserver.StreamRequestHandler):
    def setup(self):
        # Read per connection; the base setup() sets it on the socket.
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    def handle(self):
        handler = WireHandler(self.server.service, self.server.world_lock)
        try:
            while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
                if len(raw) > MAX_LINE_BYTES:
                    self._send({"ok": False, "error": "bad_request"})
                    return
                line = raw.decode("utf-8", errors="replace").strip()
                if line:
                    self._send(handler.handle_line(line))
        except TimeoutError:
            return  # idle or stalled peer: finish() closes the connection

    def _send(self, resp: dict) -> None:
        self.wfile.write((_dump(resp) + "\n").encode("utf-8"))
        self.wfile.flush()


class ServiceServer(socketserver.ThreadingTCPServer):
    """Threaded server; all service access is serialized through one lock."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: ProximityService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self.world_lock = threading.Lock()
        super().__init__((host, port), _ConnectionHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]


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
