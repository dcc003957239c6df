"""Tests for the serve benchmark's own helpers.

    PYTHONPATH=src python -m pytest servebench/tests -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import WriteStream, fixed_rate_schedule, twig_queries  # noqa: E402
from loadgen import Sample  # noqa: E402
from reference import admission_groups  # noqa: E402
from stats import (  # noqa: E402
    MIN_TAIL_SAMPLES,
    Lateness,
    Tally,
    covered_length,
    median,
    percentile,
    self_time,
    tail_or_none,
    thirds_drift,
)


# -- percentiles -------------------------------------------------------------

def test_p99_refused_below_min_samples():
    values = [float(i) for i in range(MIN_TAIL_SAMPLES - 1)]
    with pytest.raises(ValueError, match="p99 needs"):
        percentile(values, 99)
    assert tail_or_none(values, 99) is None


def test_p99_allowed_at_min_samples():
    values = [float(i) for i in range(MIN_TAIL_SAMPLES)]
    assert percentile(values, 99) == pytest.approx(0.99 * (MIN_TAIL_SAMPLES - 1))
    assert tail_or_none(values, 99) == percentile(values, 99)


def test_median_of_small_sample():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_thirds_drift_shows_a_growing_backlog():
    steady = [1.0] * 30
    assert thirds_drift(steady) == (1.0, 1.0)
    growing = [float(i) for i in range(30)]
    first, last = thirds_drift(growing)
    assert last > first


# -- schedules and inputs ------------------------------------------------------

def _tag_counts():
    return {"article": 10, "inproceedings": 5, "book": 2, "author": 30, "cite": 20,
            "title": 17, "year": 17, "pages": 17, "url": 15, "volume": 10}


def test_write_stream_is_deterministic_per_seed():
    first = WriteStream(_tag_counts(), seed=5)
    second = WriteStream(_tag_counts(), seed=5)
    other = WriteStream(_tag_counts(), seed=6)
    ops_a = [first.next() for _ in range(50)]
    assert ops_a == [second.next() for _ in range(50)]
    assert ops_a != [other.next() for _ in range(50)]


def test_write_stream_never_overdraws_a_tag():
    counts = _tag_counts()
    stream = WriteStream(counts, seed=1)
    deletes: dict[str, int] = {}
    for _ in range(120):
        op = stream.next()
        if op["op"] == "delete":
            tag, ordinal = op["node"]["tag"], op["node"]["ordinal"]
            deletes[tag] = deletes.get(tag, 0) + 1
            # Valid against the original elements left, whatever grouping.
            assert 1 <= ordinal <= counts[tag] - deletes[tag] + 1
        else:
            parent = op["parent"]
            assert 1 <= parent["ordinal"] <= counts[parent["tag"]]


def test_schedule_is_deterministic_per_seed():
    def build(seed):
        rng = random.Random(seed)
        return fixed_rate_schedule(50.0, 2.0, lambda: {"n": rng.random()})

    assert build(3) == build(3)
    assert build(3) != build(4)
    times = [a.at for a in build(3)]
    assert len(times) == 100 and times == sorted(times) and times[-1] < 2.0


def test_twig_queries_are_deterministic_per_seed():
    from repro.datasets import paper_example_document
    from repro.labeling import label_document

    tree = label_document(paper_example_document())
    assert twig_queries(tree, 9, 20) == twig_queries(tree, 9, 20)
    assert twig_queries(tree, 9, 20) != twig_queries(tree, 10, 20)


# -- counting failures -----------------------------------------------------------

def test_tally_counts_failed_and_refused():
    tally = Tally()
    assert tally.reply({"ok": True, "value": 1.0})
    assert not tally.reply(None)  # no reply at all
    assert not tally.reply({"ok": False, "error": {"code": "overloaded", "retryable": True}})
    assert not tally.reply({"ok": False, "error": "malformed target"})
    tally.attempted += 1
    tally.mismatch("estimate differs from the reference")
    assert (tally.attempted, tally.refused, tally.errors, tally.wrong) == (5, 2, 1, 1)
    assert tally.failed == 4
    assert tally.failed_frac == pytest.approx(0.8)


def test_tally_merge():
    a, b = Tally(attempted=3, errors=1), Tally(attempted=2, refused=1, wrong=1)
    a.merge(b)
    assert (a.attempted, a.failed) == (5, 3)


def test_generator_lateness():
    on_time = Lateness.of([0.5] * 99 + [30.0], limit_ms=20.0)
    assert not on_time.fell_behind(0.05)
    behind = Lateness.of([0.5] * 90 + [30.0] * 10, limit_ms=20.0)
    assert behind.fell_behind(0.05)
    assert behind.max_ms == 30.0


# -- span self time -------------------------------------------------------------

def test_self_time_without_children():
    assert self_time(0, 10, []) == 10


def test_self_time_with_overlapping_children():
    # [1,4] and [3,6] overlap: together they cover [1,6]; [8,12] is
    # clipped to the parent's end at 10.
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert self_time(0, 10, [(1, 4), (3, 6), (8, 12)]) == 3


def test_self_time_with_nested_and_outside_children():
    # A child inside another child counts once; one outside counts not at all.
    assert self_time(0, 10, [(2, 8), (3, 4), (11, 15), (-5, -1)]) == 4


# -- admission groups --------------------------------------------------------------

def _ack(coalesced, ok=True):
    sample = Sample("write", {"op": "delete"}, 0.0)
    sample.response = {"ok": ok, "coalesced": coalesced, "nodes": 1}
    return sample


def test_admission_groups_tile_by_coalesced():
    writes = [_ack(1), _ack(3), _ack(3), _ack(3), _ack(2), _ack(2)]
    tally = Tally()
    groups = admission_groups(writes, tally)
    assert [len(g) for g in groups] == [1, 3, 2]
    assert tally.failed == 0


def test_admission_groups_flag_acks_that_do_not_tile():
    tally = Tally()
    groups = admission_groups([_ack(3), _ack(3), _ack(1)], tally)
    assert tally.wrong >= 1
    assert sum(len(g) for g in groups) == 3


# -- the traced launcher ------------------------------------------------------------

def test_traced_launcher_wraps_names_imported_by_other_modules(tmp_path):
    """``repro.cli`` imports parse_document by name; its call must show."""
    from repro.datasets import paper_example_document
    from repro.xmltree import write_document

    data = tmp_path / "doc.xml"
    data.write_text(write_document(paper_example_document()))
    out = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(BENCH / "traced_serve.py"), "--trace-out", str(out), "--",
         "estimate", str(data), "//a//b"],
        check=True, capture_output=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    names = {span[0] for span in json.loads(out.read_text())["spans"]}
    assert "xmltree.parse_document" in names
    assert "xpath.parse_xpath" in names


# -- the recorded manifest -------------------------------------------------------------

def test_manifest_matches_the_code():
    import run

    recorded = json.loads((BENCH / "manifest.json").read_text())
    recorded.pop("environment")
    assert recorded == run.manifest()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in benchmark["workloads"]} == {
        name: spec.why for name, spec in run.WORKLOADS.items()
    }
    assert [m["name"] for m in benchmark["per_layer"]] == list(recorded["per_layer_targets"])
    assert {m["name"] for m in benchmark["end_to_end"]} == set(run.UNITS)
