"""Simulated social-platform search and the identification attack.

``SocialGraph`` indexes a population once: postings map ``lower(first_name)``,
``(lower(first_name), birth year)`` and each liked page to the users holding
them, and every query starts from its smallest applicable posting.
``forward_search`` finds accounts matching profile attributes;
``reverse_search`` lists the interests those accounts hold. ``identify`` runs
the refinement loop an attacker can drive from a proximity-app view of a
victim: start from the disclosed first name, birth-year window and common
likes, then repeatedly like promising pages, re-poll the victim's profile to
see which became common, and re-filter the candidate pool with the confirmed
likes until it collapses to a single account.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from datetime import date, timedelta
from itertools import chain
from typing import Callable, Iterable, Iterator

from .geo import Frozen, _set
from .report import AttackTrace, TraceEvent
from .service import NearbyEntry
from .world import FUZZ_WINDOW_DAYS, SimUser

__all__ = [
    "GraphQuery", "SocialGraph", "IdentificationResult",
    "forward_search", "reverse_search", "candidate_birth_years", "identify",
]


class GraphQuery(Frozen):
    """Conjunctive profile filter; unset fields do not constrain.

    ``birth_years`` admits a user born in any of its years. The empty query
    is the documented match-all case.
    """

    __slots__ = ("name", "birth_years", "liked_pages")

    def __init__(self, name: str | None = None,
                 birth_years: frozenset[int] | None = None,
                 liked_pages: frozenset[str] = frozenset()) -> None:
        _set(self, "name", name)
        _set(self, "birth_years", birth_years)
        _set(self, "liked_pages", liked_pages)


def _matches(user: SimUser, name: str | None, q: GraphQuery) -> bool:
    """Whether ``user`` satisfies ``q``; ``name`` is ``q.name`` lower-cased."""
    if name is not None and user.first_name.lower() != name:
        return False
    if (q.birth_years is not None
            and user.true_birthdate.year not in q.birth_years):
        return False
    return q.liked_pages <= user.likes


class SocialGraph:
    """Inverted index over a population, built once and queried many times.

    Postings map ``lower(first_name)``, ``(lower(first_name), birth year)``
    and each liked page to the users holding them; iteration yields the
    users in input order. A name-and-year cell holds input positions, so the
    cells of a multi-year query merge back into input order.
    The index is a snapshot of the population's names and likes when it is
    built: later changes to those users' likes are not seen. During an
    identification run only the attacker's likes change, and the attacker
    is not part of the indexed population.
    """

    def __init__(self, population: Iterable[SimUser]):
        self.users = list(population)
        by_name: dict[str, list[SimUser]] = defaultdict(list)
        by_name_year: dict[tuple[str, int], list[int]] = defaultdict(list)
        by_page: dict[str, list[SimUser]] = defaultdict(list)
        for i, u in enumerate(self.users):
            name = u.first_name.lower()
            by_name[name].append(u)
            by_name_year[name, u.true_birthdate.year].append(i)
            for page in u.likes:
                by_page[page].append(u)
        self._by_name, self._by_name_year, self._by_page = (
            by_name, by_name_year, by_page)

    def __iter__(self) -> Iterator[SimUser]:
        return iter(self.users)

    def matching(self, q: GraphQuery) -> list[SimUser]:
        """Users matching ``q``, in input order.

        Candidates come from the shortest posting the query's pages or name
        select (the whole population when it sets neither); a name with
        birth years selects the union of its cells for those years instead
        of the whole-name posting. Each candidate is then checked against
        every field of the query.
        """
        name = None if q.name is None else q.name.lower()
        postings = [self._by_page.get(p, ()) for p in q.liked_pages]
        if name is not None and q.birth_years is None:
            postings.append(self._by_name.get(name, ()))
        elif name is not None:
            # Cells are disjoint and ascending: one is ready, more merge by
            # position (sorted finds their runs and merges them).
            cells = [c for y in q.birth_years
                     if (c := self._by_name_year.get((name, y)))]
            positions = cells[0] if len(cells) == 1 else sorted(chain(*cells))
            postings.append([self.users[i] for i in positions])
        start = min(postings, key=len) if postings else self.users
        return [u for u in start if _matches(u, name, q)]


def forward_search(graph: SocialGraph, q: GraphQuery) -> set[str]:
    """Social ids of every account matching all set fields."""
    return {u.social_id for u in graph.matching(q)}


def reverse_search(graph: SocialGraph, q: GraphQuery) -> set[str]:
    """Pages liked by matching accounts, minus the query's own pages."""
    return set().union(*(u.likes for u in graph.matching(q))) - q.liked_pages


def candidate_birth_years(disclosed: date, fuzzy: bool) -> frozenset[int]:
    """Years the true birthdate may fall in, given the disclosed one."""
    if not fuzzy:
        return frozenset([disclosed.year])
    return frozenset((disclosed + timedelta(days=d)).year
                     for d in range(-FUZZ_WINDOW_DAYS, FUZZ_WINDOW_DAYS + 1))


class IdentificationResult:
    """``pools[r]`` holds the candidate social ids after round ``r``."""

    def __init__(self, pools: list[frozenset[str]]):
        self.pools = pools

    @property
    def pool_sizes(self) -> list[int]:
        return [len(p) for p in self.pools]

    @property
    def rounds_used(self) -> int:
        return len(self.pools) - 1

    @property
    def identified(self) -> bool:
        return len(self.pools[-1]) == 1

    @property
    def social_id(self) -> str | None:
        """The one remaining candidate when identified, else None."""
        return next(iter(self.pools[-1])) if self.identified else None


def identify(victim_view: NearbyEntry, graph: SocialGraph,
             max_rounds: int = 10, batch_size: int = 10,
             like_and_refresh: Callable[[set[str]], NearbyEntry] | None = None,
             interests_are_pages: bool = True,
             birthdate_is_fuzzy: bool = True, *,
             trace: AttackTrace) -> IdentificationResult:
    """Narrow the victim's social account from their proximity-app view.

    ``like_and_refresh(pages)`` must make the attacker like ``pages`` and
    return a fresh view of the victim; without it (or when the app shows
    interest categories instead of pages) the attack stops at the
    attribute-only pool. A view that shows neither a name nor common pages
    starts from the whole population, still filtered by the birth year when
    one is shown. The true account is never dropped from the pool as
    long as the disclosed fields are truthful, and pools only ever shrink.
    One ``graph`` serves any number of victims. The attribute match and
    every later round each log an ``identify_round`` event in ``trace``; a
    view that shows the social id is answered at once and logs nothing.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    if victim_view.social_id is not None:
        return IdentificationResult([frozenset([victim_view.social_id])])

    name = victim_view.first_name
    known: set[str] = set(victim_view.common_likes or ()) if interests_are_pages else set()
    years = None
    if victim_view.fuzzy_birthdate is not None:
        years = candidate_birth_years(victim_view.fuzzy_birthdate, birthdate_is_fuzzy)

    matched = graph.matching(GraphQuery(name, years, frozenset(known)))
    pools = [frozenset(u.social_id for u in matched)]
    trace.append(TraceEvent("identify_round", victim_view.last_active_t,
                            victim_view.user_id))

    tried = set(known)
    for _ in range(max_rounds):
        if (len(pools[-1]) <= 1 or not interests_are_pages
                or like_and_refresh is None):
            break
        # The pool was matched against the current ``known``, so the pages
        # its users like are exactly what reverse search would return.
        freq = Counter(p for u in matched for p in u.likes
                       if p not in known and p not in tried)
        if not freq:
            break
        # Prefer pages that split the pool most evenly; deterministic ties.
        half = len(pools[-1]) / 2.0
        batch = set(sorted(freq, key=lambda p: (abs(freq[p] - half), p))
                    [:batch_size])
        tried |= batch
        view = like_and_refresh(batch)
        confirmed = set(view.common_likes or ())  # full intersection, fresh
        known |= confirmed
        matched = graph.matching(GraphQuery(name, years, frozenset(known)))
        pools.append(frozenset(u.social_id for u in matched))
        trace.append(TraceEvent("identify_round", view.last_active_t,
                                victim_view.user_id))

    return IdentificationResult(pools)
