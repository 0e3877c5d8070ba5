"""Attack-trace classification and artifact emission.

Traces are append-only logs of attacker actions. ``classify`` labels every
trace event with privacy-violation categories from a fixed four-category
taxonomy (collection / processing / dissemination / invasion, each with a
closed activity vocabulary). ``emit`` ends an attack run: it logs the export
and writes the violation tables, the labels and their counts per
(category, activity). The ``write_*`` functions render deterministic CSV
files and small self-contained SVG plots (fixed 800x600 canvas, stable
element ids). Every CSV goes through ``write_csv``, every curve plot (axes
and polylines) through ``_write_curves``, every file through ``_write``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .geo import Frozen, _set
from .mlat import DistanceSample, PositionEstimate

__all__ = [
    "TraceEvent", "AttackTrace", "TAXONOMY",
    "DEFAULT_EVENT_LABELS", "classify", "emit",
]

# Category -> closed activity vocabulary.
TAXONOMY: dict[str, tuple[str, ...]] = {
    "Collection": ("Surveillance", "Information probing", "Interrogation"),
    "Processing": ("Aggregation", "Identification", "Insecurity",
                   "Secondary use", "Exclusion"),
    "Dissemination": ("Breach of confidentiality", "Disclosure", "Exposure",
                      "Increased accessibility", "Appropriation", "Distortion"),
    "Invasion": ("Intrusion of someone's private life",),
}

# Trace event kind -> the labels every event of that kind gets. Its keys
# are the whole event vocabulary.
DEFAULT_EVENT_LABELS: dict[str, tuple[tuple[str, str], ...]] = {
    "probe": (("Collection", "Surveillance"),),
    "profile_poll": (("Collection", "Surveillance"),),
    "localize_result": (("Processing", "Identification"),
                        ("Processing", "Aggregation")),
    "identify_round": (("Processing", "Identification"),
                       ("Processing", "Aggregation")),
    "export": (("Dissemination", "Increased accessibility"),),
}

INTRUSION_LABEL = ("Invasion", "Intrusion of someone's private life")


class TraceEvent(Frozen):
    __slots__ = ("kind", "t", "target_id")

    def __init__(self, kind: str, t: float, target_id: str | None = None) -> None:
        if kind not in DEFAULT_EVENT_LABELS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "t", t)
        _set(self, "target_id", target_id)


class AttackTrace:
    """Ordered attack log; timestamps must be non-decreasing."""

    def __init__(self):
        self.events: list[TraceEvent] = []
        self._probed: set[str | None] = set()  # targets of appended probes

    def append(self, event: TraceEvent) -> None:
        if self.events and event.t < self.events[-1].t:
            raise ValueError("trace timestamps must be non-decreasing")
        if event.kind == "localize_result" and event.target_id not in self._probed:
            raise ValueError("localize_result without prior probes")
        if event.kind == "probe":
            self._probed.add(event.target_id)
        self.events.append(event)


def classify(trace: AttackTrace) -> list[tuple[int, str, str, str]]:
    """Label every trace event; pure function of the trace.

    Returns one ``(event index, event kind, category, activity)`` row per
    assigned label, in event order. On top of the per-kind mapping, a
    target localized two or more times counts as followed over time, which
    additionally labels those events as intrusion.
    """
    labels: list[tuple[int, str, str, str]] = []
    seen_localizations: dict[str, int] = {}
    for idx, ev in enumerate(trace.events):
        ev_labels = list(DEFAULT_EVENT_LABELS[ev.kind])
        if ev.kind == "localize_result" and ev.target_id is not None:
            seen_localizations[ev.target_id] = seen_localizations.get(ev.target_id, 0) + 1
            if seen_localizations[ev.target_id] >= 2:
                ev_labels.append(INTRUSION_LABEL)
        for cat, act in ev_labels:
            labels.append((idx, ev.kind, cat, act))
    return labels


# -- artifact emission -------------------------------------------------------

CANVAS_W, CANVAS_H = 800, 600
MARGIN = 60.0


def _svg(elements: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
            f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">')
    return head + "\n" + "\n".join(elements) + "\n</svg>\n"


class _Scale:
    """Affine data->canvas mapping with equal margins."""

    def __init__(self, xs, ys, keep_aspect=False):
        self.xmin, self.xmax = min(xs), max(xs)
        self.ymin, self.ymax = min(ys), max(ys)
        dx = self.xmax - self.xmin or 1.0
        dy = self.ymax - self.ymin or 1.0
        sx = (CANVAS_W - 2 * MARGIN) / dx
        sy = (CANVAS_H - 2 * MARGIN) / dy
        if keep_aspect:
            sx = sy = min(sx, sy)
        self.sx, self.sy = sx, sy

    def x(self, v: float) -> float:
        return MARGIN + (v - self.xmin) * self.sx

    def y(self, v: float) -> float:
        return CANVAS_H - MARGIN - (v - self.ymin) * self.sy

    def r(self, v: float) -> float:
        return v * self.sx


def _write(path: Path, chunks: Iterable[str]) -> Path:
    """Write ``chunks`` to ``path`` one after another, as UTF-8 with
    ``\\n`` line ends."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(chunks)
    return path


def _write_curves(path: Path, curves: dict[str, list]) -> None:
    """Axes plus one polyline per entry of ``curves`` (id -> (x, y) points),
    in order, on one scale fitted over every point; an empty axis spans [0, 1]."""
    pts = [p for ps in curves.values() for p in ps] or [(0, 0), (1, 1)]
    sc = _Scale([x for x, _ in pts], [y for _, y in pts])
    x0, y0, x1, y1 = MARGIN, CANVAS_H - MARGIN, CANVAS_W - MARGIN, MARGIN
    elements = [
        f'<line id="axis-x" x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" stroke="black"/>',
        f'<line id="axis-y" x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" stroke="black"/>',
    ]
    for element_id, ps in curves.items():
        coords = " ".join(f"{sc.x(x):.2f},{sc.y(y):.2f}" for x, y in ps)
        elements.append(f'<polyline id="{element_id}" points="{coords}" '
                        f'fill="none" stroke="black"/>')
    _write(path, (_svg(elements),))


def write_csv(path: Path, header: Sequence[str],
              rows: Iterable[Sequence]) -> Path:
    """The header, then one comma-joined line per row, written as the rows
    come. A float cell is written as ``repr`` (it parses back bit for bit),
    any other cell as ``str``."""
    lines = (",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
             + "\n" for row in rows)
    return _write(path, chain((",".join(header) + "\n",), lines))


def write_runtime_grid(rows: list[tuple[int, int, float]], out_dir: Path) -> None:
    """(samples, iterations, seconds) grid as CSV plus a log-log SVG."""
    write_csv(out_dir / "runtime_grid.csv", ("samples", "iterations", "seconds"),
              ((n, it, float(sec)) for n, it, sec in rows))

    curves: dict[str, list[tuple[float, float]]] = {}
    for n, it, sec in sorted(rows):
        curves.setdefault(f"series-s{n}", []).append(
            (math.log10(it), math.log10(max(sec, 1e-9))))
    _write_curves(out_dir / "runtime_grid.svg", curves)


def write_probe_map(samples: list[DistanceSample], estimate: PositionEstimate,
                    truth_xy: tuple[float, float], out_dir: Path) -> None:
    """Map of probe circles (one per sample) plus estimate/truth markers."""
    # float() keeps a column's format when a caller passes integer values.
    write_csv(
        out_dir / "samples.csv",
        ("observer_x_m", "observer_y_m", "reported_m", "t_s", "quantum_m"),
        (map(float, (s.observer.x_m, s.observer.y_m, s.reported_m, s.t,
                     s.quantum_m)) for s in samples))
    xs, ys = [], []
    for s in samples:
        xs += [s.observer.x_m - s.reported_m, s.observer.x_m + s.reported_m]
        ys += [s.observer.y_m - s.reported_m, s.observer.y_m + s.reported_m]
    xs += [estimate.p_hat.x_m, truth_xy[0]]
    ys += [estimate.p_hat.y_m, truth_xy[1]]
    sc = _Scale(xs, ys, keep_aspect=True)
    elements = []
    for i, s in enumerate(samples):
        elements.append(
            f'<circle id="sample-circle-{i}" cx="{sc.x(s.observer.x_m):.2f}" '
            f'cy="{sc.y(s.observer.y_m):.2f}" r="{sc.r(s.reported_m):.2f}" '
            f'fill="none" stroke="steelblue"/>')
    elements.append(f'<circle id="truth-marker" cx="{sc.x(truth_xy[0]):.2f}" '
                    f'cy="{sc.y(truth_xy[1]):.2f}" r="4" fill="green"/>')
    elements.append(f'<circle id="estimate-marker" '
                    f'cx="{sc.x(estimate.p_hat.x_m):.2f}" '
                    f'cy="{sc.y(estimate.p_hat.y_m):.2f}" r="4" fill="red"/>')
    _write(out_dir / "probe_map.svg", (_svg(elements),))


def write_pool_curve(pool_rows: list[tuple[str, int, int]], out_dir: Path) -> None:
    """Identification pool sizes per round (long form) plus a median curve."""
    write_csv(out_dir / "pool_sizes.csv", ("run", "round", "pool_size"),
              pool_rows)

    by_round: dict[int, list[int]] = {}
    for _, rnd, size in pool_rows:
        by_round.setdefault(rnd, []).append(size)
    _write_curves(out_dir / "pool_sizes.svg", {"pool-curve": [
        (rnd, math.log10(max(sorted(sizes)[len(sizes) // 2], 1)))
        for rnd, sizes in sorted(by_round.items())]})


def write_error_vs_quantum(rows: list[tuple[float, float, float, int]],
                           out_dir: Path) -> None:
    """(quantum, median error, mean error, trials) rows, ascending quantum."""
    rows = sorted(rows)
    write_csv(out_dir / "error_vs_quantum.csv",
              ("quantum_m", "median_error_m", "mean_error_m", "trials"), rows)
    _write_curves(out_dir / "error_vs_quantum.svg", {
        "error-curve": [(q, med) for q, med, *_ in rows]})


def emit(out_dir: Path, trace: AttackTrace) -> None:
    """End an attack run: log the export in ``trace``, then write the
    trace's violation tables into ``out_dir``: the per-event labels of
    ``classify`` (``trace_labels.csv``) and their count per (category,
    activity) over the full closed vocabulary (``violations.csv``;
    activities never produced stay visible as count 0)."""
    t = trace.events[-1].t if trace.events else 0.0
    trace.append(TraceEvent("export", t))
    labels = classify(trace)
    counts = Counter((cat, act) for _, _, cat, act in labels)
    write_csv(out_dir / "violations.csv", ("category", "activity", "count"),
              ((cat, act, counts[cat, act])
               for cat, acts in TAXONOMY.items() for act in acts))
    write_csv(out_dir / "trace_labels.csv",
              ("event_index", "event_kind", "category", "activity"), labels)
