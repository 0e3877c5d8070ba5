import hashlib
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxileak.geo import EnuPoint
from proxileak.mlat import DistanceSample, PositionEstimate
from proxileak.report import (AttackTrace, DEFAULT_EVENT_LABELS, TAXONOMY,
                              TraceEvent, classify, emit, write_error_vs_quantum,
                              write_pool_curve, write_probe_map,
                              write_runtime_grid)


def trace_of(*events):
    tr = AttackTrace()
    for e in events:
        tr.append(e)
    return tr


def test_trace_ordering_enforced():
    tr = AttackTrace()
    tr.append(TraceEvent("probe", 5.0, "u1"))
    with pytest.raises(ValueError):
        tr.append(TraceEvent("probe", 4.0, "u1"))


def test_localize_requires_prior_probe():
    tr = AttackTrace()
    with pytest.raises(ValueError):
        tr.append(TraceEvent("localize_result", 0.0, "u1"))
    tr.append(TraceEvent("probe", 0.0, "u1"))
    with pytest.raises(ValueError):  # probes of another target do not count
        tr.append(TraceEvent("localize_result", 0.5, "u2"))
    tr.append(TraceEvent("localize_result", 1.0, "u1"))


def test_probe_only_trace_is_collection_only():
    tr = trace_of(TraceEvent("probe", 0.0, "u1"),
                  TraceEvent("probe", 1.0, "u1"))
    labels = classify(tr)
    assert Counter((cat, act) for *_, cat, act in labels) == {
        ("Collection", "Surveillance"): 2}


def test_full_attack_trace_hits_all_categories():
    tr = trace_of(
        TraceEvent("probe", 0.0, "u1"),
        TraceEvent("profile_poll", 0.0, "u1"),
        TraceEvent("localize_result", 1.0, "u1"),
        TraceEvent("probe", 2.0, "u1"),
        TraceEvent("localize_result", 3.0, "u1"),
        TraceEvent("identify_round", 4.0, "u1"),
        TraceEvent("export", 5.0),
    )
    labels = classify(tr)
    assert {cat for _, _, cat, _ in labels} == set(TAXONOMY)
    # the second fix of the same target is the intrusion
    invasion_rows = [r for r in labels if r[2] == "Invasion"]
    assert len(invasion_rows) == 1
    assert invasion_rows[0][0] == 4


def test_empty_trace_all_zero():
    assert classify(AttackTrace()) == []


def test_every_event_gets_a_label():
    tr = trace_of(TraceEvent("probe", 0.0, "u1"),
                  TraceEvent("identify_round", 1.0, "u2"),
                  TraceEvent("export", 2.0))
    assert {idx for idx, *_ in classify(tr)} == {0, 1, 2}


def test_label_vocabulary_closed():
    for labels in DEFAULT_EVENT_LABELS.values():
        for cat, act in labels:
            assert act in TAXONOMY[cat]


def test_emit_deterministic_and_ids(tmp_path, bcn):
    samples = [DistanceSample(EnuPoint(0, 0, bcn), 100.0, 0.0),
               DistanceSample(EnuPoint(200, 0, bcn), 150.0, 1.0),
               DistanceSample(EnuPoint(0, 250, bcn), 200.0, 2.0)]
    est = PositionEstimate(EnuPoint(40.0, 30.0, bcn), 3.5, 17)
    grid = [(10, 10, 0.001), (10, 100, 0.01), (100, 10, 0.002)]
    pool = [("v0", 0, 40), ("v0", 1, 4), ("v1", 0, 8), ("v1", 1, 1)]
    quantum_rows = [(100.0, 30.0, 33.0, 10), (10.0, 4.0, 4.2, 10),
                    (500.0, 120.0, 130.0, 10)]

    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        tr = trace_of(TraceEvent("probe", 0.0, "u1"))
        emit(out, tr)
        assert tr.events[-1] == TraceEvent("export", 0.0)
        write_probe_map(samples, est, (35.0, 25.0), out)
        write_pool_curve(pool, out)
        write_runtime_grid(grid, out)
        write_error_vs_quantum(quantum_rows, out)
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["error_vs_quantum.csv", "error_vs_quantum.svg",
                     "pool_sizes.csv", "pool_sizes.svg", "probe_map.svg",
                     "runtime_grid.csv", "runtime_grid.svg", "samples.csv",
                     "trace_labels.csv", "violations.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    svg = (out1 / "probe_map.svg").read_text()
    assert 'width="800" height="600"' in svg
    for i in range(len(samples)):
        assert f'id="sample-circle-{i}"' in svg
    assert 'id="estimate-marker"' in svg and 'id="truth-marker"' in svg

    quantum_csv = (out1 / "error_vs_quantum.csv").read_text().splitlines()
    quanta = [float(line.split(",")[0]) for line in quantum_csv[1:]]
    assert quanta == sorted(quanta)

    violations = (out1 / "violations.csv").read_text().splitlines()
    n_vocab = sum(len(a) for a in TAXONOMY.values())
    assert len(violations) == 1 + n_vocab  # full closed vocabulary, zeros kept


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_curve_svgs_are_byte_golden(tmp_path):
    # No scenario writes runtime_grid.svg, so these rows pin it: three
    # series, given out of order, with one time of 0.0 and one repeated
    # iteration count.
    grid = [(100, 1000, 0.5), (10, 10, 0.0), (1000, 100, 0.25),
            (10, 1000, 0.03), (100, 10, 0.004), (1000, 10, 0.02),
            (10, 100, 0.003), (100, 100, 0.04), (1000, 1000, 2.5),
            (10, 100, 0.002)]
    write_runtime_grid(grid, tmp_path)
    write_pool_curve([], tmp_path / "empty")
    assert _sha256(tmp_path / "runtime_grid.svg") == (
        "fd16943b2f0c84370c40b1a7875caf8eb531d078b852b53a0d15b611989b143c")
    assert _sha256(tmp_path / "empty" / "pool_sizes.svg") == (
        "9c1dd600c573e7591f74cee8ec00f2e57fdd6e0d723ca397ee8f83c439bb2bfd")


# (kind, target) steps; a localize_result with no earlier probe of its
# target is appended as a probe instead, so every trace is valid.
TRACE_STEPS = st.lists(st.tuples(
    st.sampled_from(sorted(DEFAULT_EVENT_LABELS)),
    st.sampled_from(("u1", "u2", None)), st.booleans()), max_size=30)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(TRACE_STEPS)
def test_violation_counts_equal_label_rows(steps):
    tr, probed, t = AttackTrace(), set(), 0.0
    for kind, target, later in steps:
        if kind == "localize_result" and target not in probed:
            kind = "probe"
        if kind == "probe":
            probed.add(target)
        t += later
        tr.append(TraceEvent(kind, t, target))
    with tempfile.TemporaryDirectory() as tmp:
        emit(Path(tmp), tr)
        violations = (Path(tmp) / "violations.csv").read_text().splitlines()
        labels = (Path(tmp) / "trace_labels.csv").read_text().splitlines()
    rows = Counter(tuple(line.split(",")[2:]) for line in labels[1:])
    vocabulary = [(cat, act) for cat, acts in TAXONOMY.items() for act in acts]
    assert [tuple(line.split(",")[:2]) for line in violations[1:]] == vocabulary
    assert rows.keys() <= set(vocabulary)
    for line in violations[1:]:
        cat, act, count = line.split(",")
        assert int(count) == rows[cat, act]  # 0 when no row has the label
