"""Per-layer metrics from the span files of a traced run.

Each traced server (``primary``, ``recovered``, ``follower``) writes
its spans; the metrics below come from them, from the window the
benchmark drove load in (warm-up to the end of the durability tail,
on the primary) or from a whole process (set-up, recovery, follower
bootstrap).  The self-time table lists every span name with calls,
total, self and mean times, and is exported as CSV.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path
from typing import Optional

from stats import median, self_time

#: Per-layer metric -> (unit, the end-to-end metric it should move).
#: End-to-end names are this benchmark's; the workload is the one
#: whose foreground op the metric sits on (see BENCHMARK.json).
LAYER_METRICS = {
    "protocol.decode_frame_us": ("us", "p50_ms, capacity_per_s / read_serve"),
    "protocol.encode_frame_us": ("us", "p50_ms, capacity_per_s / read_serve"),
    "server.admission_wait_ms_p50": ("ms", "p50_ms / write_serve"),
    "server.group_ops_mean": ("count", "capacity_per_s / write_serve"),
    "server.read_unattributed_ms_mean": ("ms", "p50_ms / read_serve"),
    "server.write_unattributed_ms_mean": ("ms", "p50_ms / write_serve"),
    "xmltree.parse_calls_per_write": ("count", "p50_ms / write_serve"),
    "xmltree.parse_us": ("us", "p50_ms / write_serve"),
    "xpath.parse_us": ("us", "p50_ms / read_serve"),
    "estimation.estimate_us": ("us", "capacity_per_s / read_serve"),
    "estimation.twig_us": ("us", "capacity_per_s / read_serve"),
    "estimation.ph_join_calls_per_query": ("count", "capacity_per_s / read_serve"),
    "histograms.merge_page_calls": ("count", "p50_ms / write_serve"),
    "histograms.build_statistics_s": ("s", "setup_s / all"),
    "batch.apply_ms_per_group": ("ms", "p50_ms, capacity_per_s / write_serve"),
    "labeling.plan_insert_us": ("us", "p50_ms / write_serve"),
    "labeling.rebalance_calls": ("count", "p50_ms / write_serve"),
    "service.snapshot_ms": ("ms", "p50_ms / write_serve"),
    "service.rebuild_calls": ("count", "p50_ms / write_serve"),
    "service.checkpoint_calls": ("count", "p50_ms / write_serve; wal.dir_mb"),
    "service.checkpoint_ms": ("ms", "p50_ms / write_serve"),
    "wal.encode_ops_ms_per_group": ("ms", "p50_ms / write_serve"),
    "wal.log_batch_ms": ("ms", "p50_ms / write_serve"),
    "wal.fsyncs_per_write": ("count", "p50_ms / write_serve"),
    "wal.log_bytes_per_write": ("B", "wal.dir_mb / write_serve"),
    "wal.checkpoint_bytes_per_write": ("B", "wal.dir_mb / write_serve"),
    "wal.dir_mb": ("MB", "durable directory size at the end of the run"),
    "wal.open_durable_s": ("s", "recover_s / write_serve"),
    "wal.apply_logged_batch_ms": ("ms", "recover_s / write_serve"),
    "wal.records_replayed": ("count", "recover_s / write_serve"),
    "pagefile.write_ms": ("ms", "p50_ms / write_serve"),
    "pagefile.bytes_written": ("B", "wal.dir_mb / write_serve"),
    "replica.bootstrap_s": ("s", "replica_catchup_s / write_serve"),
    "replica.records_applied": ("count", "replica_catchup_s / write_serve"),
    "replica.tailer_poll_ms": ("ms", "replica_catchup_s / write_serve"),
    "trace.p50_overhead_ratio": ("ratio", "p50_ms (traced over untraced) / all"),
}

#: Span names every workload must record at least once, by process.
#: The durability tail gives every workload writes, a recovery replay
#: and a follower.  Not expected: label rebalances and rebuilds (the
#: writes stay far below the gap and dirty-fraction limits), page
#: merges (no served path seals enough overlay layers), the stand-alone
#: page-file writer, and the sharded build (one worker).
EXPECTED = {
    "primary": [
        "protocol.decode_frame", "protocol.encode_frame", "server.submit",
        "server.resolve", "service.apply_batch", "service.snapshot",
        "xmltree.parse_document", "xpath.parse_xpath", "estimation.snapshot_estimate",
        "estimation.twig_estimate", "histograms.build_position",
        "batch.apply", "labeling.plan_insert", "wal.encode_ops", "wal.log_batch",
        "os.fsync", "wal.write_checkpoint", "wal.open_durable", "pagefile.encode",
        "service.checkpoint",
    ],
    "recovered": ["wal.open_durable", "wal.apply_logged_batch", "wal.tailer_poll"],
    "follower": ["replica.bootstrap_follower", "wal.apply_logged_batch"],
}


#: Statistics builds, whichever path the server takes.
BUILDS = ("histograms.build_statistics", "histograms.build_position", "histograms.build_coverage")


#: Span files behind each process role.
SOURCES = {"primary": ("primary", "settled"), "recovered": ("recovered",), "follower": ("follower",)}


class Spans:
    """The spans of one or more processes, with self times."""

    def __init__(self, *paths: Path) -> None:
        raw = []
        for path in paths:
            rows = json.loads(path.read_text())["spans"]
            offset = len(raw)
            raw += [[*r[:4], r[4] + offset if r[4] >= 0 else -1, r[5]] for r in rows]
        self.rows = raw
        children = defaultdict(list)
        for i, (_, _, start, end, parent, _) in enumerate(raw):
            if parent >= 0 and end >= start:
                children[parent].append((start, end))
        self.self_ns = [
            self_time(start, end, children.get(i, ())) for i, (_, _, start, end, _, _) in enumerate(raw)
        ]

    def select(self, name: str, window: Optional[tuple[int, int]] = None) -> list[int]:
        lo, hi = window or (float("-inf"), float("inf"))
        return [i for i, r in enumerate(self.rows)
                if r[0] == name and r[3] >= r[2] and lo <= r[2] <= hi]

    def durations_ms(self, name: str, window=None) -> list[float]:
        return [(self.rows[i][3] - self.rows[i][2]) / 1e6 for i in self.select(name, window)]

    def count(self, name: str, window=None) -> int:
        return len(self.select(name, window))

    def total_ms(self, name: str, window=None) -> float:
        return sum(self.durations_ms(name, window))

    def mean_ms(self, name: str, window=None) -> float:
        durations = self.durations_ms(name, window)
        return sum(durations) / len(durations) if durations else 0.0

    def outer_total_ms(self, names: tuple[str, ...], window) -> float:
        """Total time in spans named ``names`` not inside another one."""
        total = 0.0
        for r in self.rows:
            if r[0] not in names or r[3] < r[2] or not window[0] <= r[2] <= window[1]:
                continue
            parent = r[4]
            while parent >= 0 and self.rows[parent][0] not in names:
                parent = self.rows[parent][4]
            if parent < 0:
                total += (r[3] - r[2]) / 1e6
        return total

    def table(self, role: str) -> list[dict]:
        rows: dict[str, dict] = {}
        for i, r in enumerate(self.rows):
            if r[3] < r[2]:
                continue  # open when the process dumped
            row = rows.setdefault(r[0], {"process": role, "span": r[0], "calls": 0,
                                         "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (r[3] - r[2]) / 1e6
            row["self_ms"] += self.self_ns[i] / 1e6
        for row in rows.values():
            row["mean_us"] = row["total_ms"] * 1000.0 / row["calls"]
            row["self_mean_us"] = row["self_ms"] * 1000.0 / row["calls"]
        return sorted(rows.values(), key=lambda row: -row["self_ms"])

    def write_tickets(self, window) -> list[tuple[int, int, Optional[int], object]]:
        """``(submit_start, resolve_start, apply_start, request_id)`` per
        insert or delete; ``apply_start`` is the start of the
        ``apply_batch`` its group ran in (the last one to finish before
        its resolve)."""
        events = []
        for i in self.select("server.submit", window):
            events.append((self.rows[i][2], 0, self.rows[i][5]))
        for i in self.select("service.apply_batch", window):
            events.append((self.rows[i][3], 1, self.rows[i][2]))
        for i in self.select("server.resolve", window):
            ticket, op = self.rows[i][5]
            if op in ("insert", "delete"):
                events.append((self.rows[i][2], 2, ticket))
        events.sort(key=lambda e: (e[0], e[1]))
        submitted: dict[int, list] = defaultdict(list)
        apply_start: Optional[int] = None
        out = []
        for t, kind, value in events:
            if kind == 0:
                ticket, request_id = value
                submitted[ticket].append((t, request_id))
            elif kind == 1:
                apply_start = value
            elif submitted.get(value):
                submit, request_id = submitted[value].pop(0)
                out.append((submit, t, apply_start, request_id))
        return out


def per(value: float, n: int) -> float:
    return value / n if n else 0.0


def layer_metrics(trace_dir: Path, traced, untraced) -> tuple[dict, list[dict], list[str]]:
    """``(metrics, table, missing)`` for one traced run; ``missing``
    lists the expected entry points that recorded no call.

    ``traced``/``untraced`` are the two runs' results; the metrics map
    name -> (value, unit) in the order of :data:`LAYER_METRICS`.
    """
    # The serving primary and the server recovered from its crash that
    # takes the durability tail are one primary for the metrics.
    procs = {role: Spans(*(trace_dir / f"{r}.json" for r in SOURCES[role])) for role in EXPECTED}
    table = [row for role, spans in procs.items() for row in spans.table(role)]
    missing = [f"{role}:{name}" for role, names in EXPECTED.items()
               for name in names if procs[role].count(name) == 0]

    p, rec, fol = procs["primary"], procs["recovered"], procs["follower"]
    ns = lambda window: tuple(int(t * 1e9) for t in window)  # noqa: E731
    w = ns(traced.phase_window)
    writes = traced.write_count
    groups = p.count("service.apply_batch", w)
    queries = p.count("estimation.snapshot_estimate", w)
    decode, encode = p.mean_ms("protocol.decode_frame", w), p.mean_ms("protocol.encode_frame", w)
    # A call that raised (a rolled-back group) recorded no op count.
    group_ops = [p.rows[i][5] for i in p.select("service.apply_batch", w) if p.rows[i][5] is not None]
    waits = [(a - s) / 1e6 for s, _, a, _ in p.write_tickets(w) if a is not None and a >= s]
    # Unattributed: a client mean minus the server spans of the same
    # requests' window, both over unqueued requests.
    rw, ww = ns(traced.read_window), ns(traced.write_window)
    read_server = (p.mean_ms("protocol.decode_frame", rw) + p.mean_ms("estimation.snapshot_estimate", rw)
                   + p.mean_ms("protocol.encode_frame", rw))
    in_server = [(r - s) / 1e6 for s, r, _, rid in p.write_tickets(ww)
                 if rid in traced.unqueued_write_ids]
    write_server = (p.mean_ms("protocol.decode_frame", ww) + per(sum(in_server), len(in_server))
                    + p.mean_ms("protocol.encode_frame", ww))
    page_bytes_window = sum(p.rows[i][5] or 0 for i in p.select("pagefile.encode", w))
    values = {
        "protocol.decode_frame_us": decode * 1000,
        "protocol.encode_frame_us": encode * 1000,
        "server.admission_wait_ms_p50": median(waits) if waits else 0.0,
        "server.group_ops_mean": per(sum(group_ops), len(group_ops)),
        "server.read_unattributed_ms_mean": traced.client_read_ms_mean - read_server,
        "server.write_unattributed_ms_mean": traced.client_write_ms_mean - write_server,
        "xmltree.parse_calls_per_write": per(p.count("xmltree.parse_document", w), writes),
        "xmltree.parse_us": p.mean_ms("xmltree.parse_document", w) * 1000,
        "xpath.parse_us": p.mean_ms("xpath.parse_xpath", w) * 1000,
        "estimation.estimate_us": p.mean_ms("estimation.snapshot_estimate", w) * 1000,
        "estimation.twig_us": p.mean_ms("estimation.twig_estimate", w) * 1000,
        "estimation.ph_join_calls_per_query": per(
            p.count("estimation.ph_join", w) + p.count("estimation.ph_join_coefficients", w), queries),
        "histograms.merge_page_calls": p.count("histograms.merge_page", w),
        "histograms.build_statistics_s": p.outer_total_ms(BUILDS, ns(traced.setup_window)) / 1000,
        "batch.apply_ms_per_group": per(p.total_ms("batch.apply", w), groups),
        "labeling.plan_insert_us": p.mean_ms("labeling.plan_insert", w) * 1000,
        "labeling.rebalance_calls": p.count("labeling.rebalance_for_insert", w),
        "service.snapshot_ms": p.mean_ms("service.snapshot", w),
        "service.rebuild_calls": p.count("service.rebuild", w),
        "service.checkpoint_calls": p.count("service.checkpoint", w),
        "service.checkpoint_ms": p.mean_ms("service.checkpoint", w),
        "wal.encode_ops_ms_per_group": per(p.total_ms("wal.encode_ops", w), groups),
        "wal.log_batch_ms": p.mean_ms("wal.log_batch", w),
        "wal.fsyncs_per_write": per(p.count("os.fsync", w), writes),
        "wal.log_bytes_per_write": per(sum(p.rows[i][5] or 0 for i in p.select("wal.log_batch", w)), writes),
        "wal.checkpoint_bytes_per_write": per(page_bytes_window, writes),
        "wal.dir_mb": traced.disk_mb,
        "wal.open_durable_s": rec.total_ms("wal.open_durable") / 1000,
        "wal.apply_logged_batch_ms": rec.mean_ms("wal.apply_logged_batch"),
        "wal.records_replayed": rec.count("wal.apply_logged_batch"),
        "pagefile.write_ms": p.mean_ms("pagefile.encode", w),
        "pagefile.bytes_written": sum(p.rows[i][5] or 0 for i in p.select("pagefile.encode")),
        "replica.bootstrap_s": fol.total_ms("replica.bootstrap_follower") / 1000,
        "replica.records_applied": fol.count("wal.apply_logged_batch"),
        "replica.tailer_poll_ms": rec.mean_ms("wal.tailer_poll"),
        "trace.p50_overhead_ratio": traced.metrics["p50_ms"] / untraced.metrics["p50_ms"],
    }
    metrics = {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}
    return metrics, table, missing


def write_table(table: list[dict], path: Path) -> None:
    fields = ["process", "span", "calls", "total_ms", "self_ms", "mean_us", "self_mean_us"]
    with open(path, "w", newline="") as out:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        for row in table:
            writer.writerow({k: round(v, 3) if isinstance(v, float) else v for k, v in row.items()})
    print(f"{'process':<10} {'span':<32} {'calls':>7} {'total_ms':>10} {'self_ms':>10} {'mean_us':>10}")
    for row in table:
        print(f"{row['process']:<10} {row['span']:<32} {row['calls']:>7} {row['total_ms']:>10.1f} "
              f"{row['self_ms']:>10.1f} {row['mean_us']:>10.1f}")
