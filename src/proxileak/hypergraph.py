"""Event hypergraph: user activity as nodes, selectors as hyperedges.

Every observed action (a location update, a page like, an opaque app
interaction) becomes an event node owned by an identity. A selector is a
predicate over events — spatial/temporal radius, page like, or identity —
and its hyperedge holds exactly the events that satisfy it. Hyperedges are
never empty: a selector with no matching events yet is held as *pending*
and only joins the edge set once an event satisfies it.

Single-writer: ingest and selector definition mutate the graph; queries
read a consistent snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .geo import GeoPoint, haversine_m

__all__ = [
    "EventNode", "Selector", "Hypergraph",
    "DuplicateEventError", "DuplicateSelectorError", "UnknownSelectorError",
]

EVENT_KINDS = ("location_update", "like", "app_interaction")


class DuplicateEventError(ValueError):
    pass


class DuplicateSelectorError(ValueError):
    pass


class UnknownSelectorError(KeyError):
    pass


@dataclass(frozen=True)
class EventNode:
    """One user action. Payload type depends on ``kind``:
    location_update -> GeoPoint, like -> page id, app_interaction -> opaque.
    """

    event_id: str
    identity_id: str
    kind: str
    payload: object
    t: float

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == "location_update" and not isinstance(self.payload, GeoPoint):
            raise ValueError("location_update payload must be a GeoPoint")
        if self.kind == "like" and not isinstance(self.payload, str):
            raise ValueError("like payload must be a page id")


@dataclass(frozen=True)
class Selector:
    """A predicate over events; build via the class methods."""

    selector_id: str
    kind: str  # within_radius | likes_page | identity
    center: GeoPoint | None = None
    radius_m: float | None = None
    t_start: float | None = None
    t_end: float | None = None
    page_id: str | None = None
    identity_id: str | None = None

    @classmethod
    def within_radius(cls, selector_id: str, center: GeoPoint, radius_m: float,
                      t_start: float, t_end: float) -> "Selector":
        if radius_m <= 0.0:
            raise ValueError("radius_m must be > 0")
        if t_end < t_start:
            raise ValueError("time window must be well-ordered")
        return cls(selector_id, "within_radius", center=center,
                   radius_m=radius_m, t_start=t_start, t_end=t_end)

    @classmethod
    def likes_page(cls, selector_id: str, page_id: str) -> "Selector":
        return cls(selector_id, "likes_page", page_id=page_id)

    @classmethod
    def identity(cls, selector_id: str, identity_id: str) -> "Selector":
        return cls(selector_id, "identity", identity_id=identity_id)

    def matches(self, event: EventNode) -> bool:
        if self.kind == "within_radius":
            return (event.kind == "location_update"
                    and self.t_start <= event.t <= self.t_end
                    and haversine_m(self.center, event.payload) <= self.radius_m)
        if self.kind == "likes_page":
            return event.kind == "like" and event.payload == self.page_id
        return event.identity_id == self.identity_id


class Hypergraph:
    """Nodes plus selector-defined hyperedges over them."""

    def __init__(self):
        self._events: dict[str, EventNode] = {}
        self._selectors: dict[str, Selector] = {}
        self._members: dict[str, set[str]] = {}  # selector -> event ids

    @property
    def nodes(self) -> dict[str, EventNode]:
        return dict(self._events)

    @property
    def edges(self) -> dict[str, frozenset[str]]:
        """Active hyperedges only; pending (empty) selectors are excluded."""
        return {sid: frozenset(m) for sid, m in self._members.items() if m}

    def ingest(self, event: EventNode) -> None:
        """Add an event; it joins every selector it satisfies."""
        if event.event_id in self._events:
            raise DuplicateEventError(event.event_id)
        self._events[event.event_id] = event
        for sid, sel in self._selectors.items():
            if sel.matches(event):
                self._members[sid].add(event.event_id)

    def define_selector(self, selector: Selector) -> frozenset[str]:
        """Add a selector; returns its (possibly empty, then pending) members."""
        if selector.selector_id in self._selectors:
            raise DuplicateSelectorError(selector.selector_id)
        members = {eid for eid, ev in self._events.items() if selector.matches(ev)}
        self._selectors[selector.selector_id] = selector
        self._members[selector.selector_id] = members
        return frozenset(members)

    def query(self, selector_ids: Iterable[str], combine: str = "and") -> set[str]:
        """Identities owning events in the intersection/union of the edges."""
        if combine not in ("and", "or"):
            raise ValueError(f"combine must be 'and' or 'or': {combine!r}")
        ids = list(selector_ids)
        if not ids:
            raise ValueError("query needs at least one selector")
        identity_sets = []
        for sid in ids:
            if sid not in self._selectors:
                raise UnknownSelectorError(sid)
            identity_sets.append({self._events[eid].identity_id
                                  for eid in self._members[sid]})
        out = identity_sets[0]
        for s in identity_sets[1:]:
            out = (out & s) if combine == "and" else (out | s)
        return out
