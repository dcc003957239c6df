"""End-to-end serve benchmark: real ``serve --listen`` processes driven by
a seeded, open-loop asyncio generator.

    python3 servebench/run.py --workload read_serve --seed 1 --seconds 16 --trace 0

Run from the root of a checkout (it needs ``src/repro``).  Every run
starts fresh servers on a durable directory under ``.servebench/``,
checks every reply against an in-process reference, and prints a
report followed by one JSON line: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run
(plus the trace overhead against an untraced run of the same seed).
Exit codes: 0 ok, 1 a reply or check was wrong, 2 not a checkout,
3 the generator fell behind its schedule (the run is invalid).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import Lateness, Tally, median, tail_or_none, thirds_drift  # noqa: E402


@dataclass(frozen=True)
class Workload:
    why: str
    read_rate: float = 0.0  # open-loop weak estimates per second
    write_rate: float = 0.0  # open-loop durable writes per second
    read_window: int = 0  # closed-loop reads in flight per connection
    write_window: int = 0  # closed-loop writes in flight


WORKLOADS = {
    "read_serve": Workload(
        "weak estimates only while timed: the read path (protocol, dispatch, "
        "XPath, estimator, epoch views) with the write path idle",
        read_rate=100.0, read_window=8,
    ),
    "write_serve": Workload(
        "durable inserts and deletes only: admission, batch apply, labels, "
        "WAL, checkpoints, recovery and replica catch-up",
        write_rate=16.0, write_window=32,
    ),
}

#: Elements of the seeded dataset; a run on another count is refused.
DATASET_NODES = 42_528
#: Rounds of (open-loop slice, capacity slice) that ``--seconds`` is
#: split into; capacity is the median over the rounds.
ROUNDS = 8
#: Servers launched to time set-up (the last one serves the run), and
#: recovery + follower pairs launched; each metric is the median of its
#: launches.
SETUP_LAUNCHES, REPEATS = 5, 5
#: Writes every workload sends one at a time after its timed phases
#: (to a server recovered from the crash that ends them), then more
#: until exactly TAIL_LAG log records follow the last checkpoint:
#: recovery and replica catch-up replay the same amount of log on every
#: run, and every workload writes, logs and checkpoints.
TAIL_WRITES, TAIL_LAG = 64, 16
#: Distinct twigs a run draws its reads from, and the fixed check set.
QUERY_POOL, CHECK_QUERIES = 1024, 24
#: Twigs from the pool added to the warm-up pairs.
WARM_TWIGS = 64
#: The generator fell behind when more than this share of open-loop
#: sends left later than this after their intended time.
LATE_LIMIT_MS, MAX_BEHIND_FRAC = 20.0, 0.05


@dataclass
class RunResult:
    metrics: dict[str, float]
    report: dict[str, object]
    tally: Tally
    lateness: list[Lateness] = field(default_factory=list)
    #: Monotonic seconds from the warm-up to the end of the write tail,
    #: and from the first launch to the end of the warm-up.
    phase_window: tuple[float, float] = (0.0, 0.0)
    setup_window: tuple[float, float] = (0.0, 0.0)
    write_count: int = 0
    #: Mean client latency from the actual send over unqueued requests
    #: (open-loop, else warm-up reads / tail writes), and the monotonic
    #: window those requests span.
    client_read_ms_mean: float = 0.0
    client_write_ms_mean: float = 0.0
    read_window: tuple[float, float] = (0.0, 0.0)
    write_window: tuple[float, float] = (0.0, 0.0)
    unqueued_write_ids: frozenset = frozenset()
    #: Durable directory size at the end of the run.  Reported per layer:
    #: it flips between one and two full checkpoints with the retention
    #: cycle, too bimodal for an end-to-end bound.
    disk_mb: float = 0.0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path) -> None:
        from inputs import twig_queries, make_document
        from reference import Reference
        from repro.xmltree import write_document

        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        xml = write_document(make_document(), indent=1)
        self.xml_path = work / "dblp.xml"
        self.xml_path.write_text(xml)
        self.xml = xml
        reference = Reference(xml)
        tree = reference.service.tree
        self.tag_counts: dict[str, int] = {}
        for element in tree.elements:
            self.tag_counts[element.tag] = self.tag_counts.get(element.tag, 0) + 1
        self.nodes = len(reference)
        if self.nodes != DATASET_NODES:
            raise RuntimeError(f"dataset has {self.nodes} nodes, expected {DATASET_NODES}")
        pool = twig_queries(tree, seed, QUERY_POOL + CHECK_QUERIES)
        self.pool, self.check_queries = pool[:QUERY_POOL], pool[QUERY_POOL:]
        self.probe = "//article//author"

    # -- one run ------------------------------------------------------------

    def run(self, trace_dir: Optional[Path]) -> RunResult:
        from inputs import WriteStream, warmup_queries
        from loadgen import Sample
        from procs import SERVE_FLAGS, Fleet, dir_size_mb
        from reference import Reference, admission_groups, replay

        tag = "traced" if trace_dir else "plain"
        fleet = Fleet(ROOT, self.work, trace_dir)
        tally = Tally()
        reference = Reference(self.xml)
        probe_value = reference.estimate(self.probe)
        rng = random.Random(self.seed)
        writes_gen = WriteStream(self.tag_counts, self.seed)
        try:
            # Set-up: launch to the first correct reply, several times.
            setup_start = time.monotonic()
            setups = []
            for i in range(SETUP_LAUNCHES):
                wal = self.work / f"wal-{tag}-{i}"
                last = i == SETUP_LAUNCHES - 1
                proc = fleet.launch(
                    [str(self.xml_path), "--wal-dir", str(wal), *SERVE_FLAGS],
                    role="primary" if last else f"setup{i}",
                )
                setups.append(self._first_correct(proc, probe_value, None, tally))
                if not last:
                    proc.kill()
                    shutil.rmtree(wal)
            primary, primary_wal = proc, wal

            # Warm the derived histograms, checking every reply.
            tags = sorted(self.tag_counts)
            client = primary.client()
            warm = []
            try:
                for query in warmup_queries(tags) + self.pool[:WARM_TWIGS]:
                    sample = Sample("read", {"op": "estimate", "query": query}, time.monotonic())
                    sample.sent = sample.intended
                    sample.response = client.request(sample.request)
                    sample.received = time.monotonic()
                    warm.append(sample)
                    if tally.reply(sample.response) and sample.response["value"] != reference.estimate(query):
                        tally.mismatch(f"warm-up {query!r}: {sample.response['value']}")
            finally:
                client.close()

            # Timed phases.
            make_read = lambda: {"op": "estimate", "query": rng.choice(self.pool)}  # noqa: E731
            timed = asyncio.run(self._timed_phases(primary.port, make_read, writes_gen))
            rss_mb = primary.peak_rss_mb()

            # Crash after the timed phases; check every reply, replaying
            # the acked writes into the reference.
            fleet.dump_trace(primary, "primary")
            primary.kill()
            reads = timed["reads_open"] + timed["reads_cap"]
            # Send order is the order the server queued them in.
            writes = sorted(timed["writes_open"] + timed["writes_cap"], key=lambda s: s.sent)
            for sample in reads + writes:
                tally.reply(sample.response)
            expected: dict[str, float] = {}
            for sample in reads:
                if sample.response is not None and sample.response.get("ok"):
                    query = sample.request["query"]
                    if query not in expected:
                        expected[query] = reference.estimate(query)
                    if sample.response["value"] != expected[query]:
                        tally.mismatch(f"read {query!r} = {sample.response['value']}, "
                                       f"reference {expected[query]}")
            replay(reference, admission_groups(writes, tally), tally)

            # Recover once (untimed, but checked), then the durability
            # tail.  A recovered server starts a fresh checkpoint chain,
            # so the timed recoveries below load the same shape of
            # checkpoint and log on every run, whatever the phases did.
            settled = fleet.launch(
                [str(self.xml_path), "--wal-dir", str(primary_wal), *SERVE_FLAGS], role="settled"
            )
            recover_after_phases_s = self._first_correct(
                settled, reference.estimate(self.probe), len(reference), tally
            )
            tail = self._tail(settled, writes_gen, tally)
            tail_end = time.monotonic()
            fleet.dump_trace(settled, "settled")
            settled.kill()
            replay(reference, admission_groups(tail, tally), tally)
            writes += tail

            # Recover the killed directory, then catch a follower up to
            # it, several times over; the last pair stays up for checks.
            probe_value = reference.estimate(self.probe)
            recoveries, catchups = [], []
            for i in range(REPEATS):
                last = i == REPEATS - 1
                recovered = fleet.launch(
                    [str(self.xml_path), "--wal-dir", str(primary_wal), *SERVE_FLAGS],
                    role="recovered" if last else f"recovered{i}",
                )
                recoveries.append(self._first_correct(recovered, probe_value, len(reference), tally))
                follower = fleet.launch(
                    ["--replica-of", f"127.0.0.1:{recovered.port}",
                     "--wal-dir", str(self.work / f"follower-{tag}-{i}"), *SERVE_FLAGS],
                    role="follower" if last else f"follower{i}",
                )
                catchups.append(self._caught_up(follower, recovered, probe_value, tally))
                if not last:
                    follower.kill()
                    recovered.kill()
            self._check_state(recovered, reference, tally, "recovered primary", exact=True)
            self._check_state(follower, reference, tally, "follower", exact=False)
            disk_mb = dir_size_mb(primary_wal)
            follower.shutdown()
            recovered.shutdown()
        finally:
            fleet.close()

        result = self._result(tally, setups, timed, rss_mb, recoveries, catchups, disk_mb)
        result.report["recover_after_phases_s"] = recover_after_phases_s
        result.phase_window = (warm[0].sent, tail_end)
        result.setup_window = (setup_start, warm[-1].received)
        result.disk_mb = disk_mb
        result.write_count = len(writes)
        reads_unqueued = timed["reads_open"] or warm
        writes_unqueued = timed["writes_open"] or tail
        result.client_read_ms_mean, result.read_window = _unqueued(reads_unqueued)
        result.client_write_ms_mean, result.write_window = _unqueued(writes_unqueued)
        result.unqueued_write_ids = frozenset(s.request["id"] for s in writes_unqueued)
        return result

    def _first_correct(self, proc, probe_value: float, nodes: Optional[int], tally: Tally) -> float:
        """Seconds from launch to the first reply that is right: the
        probe estimate (and node count, when given) equal the reference."""
        client = proc.client()
        try:
            response = client.request({"op": "estimate", "query": self.probe})
            right = response.get("ok") and response["value"] == probe_value
            if right and nodes is not None:
                right = client.request({"op": "stats"}).get("nodes") == nodes
            elapsed = time.monotonic() - proc.launched
        finally:
            client.close()
        tally.attempted += 1
        if not right:
            tally.mismatch(f"first reply after launch is wrong: {response!r}, "
                           f"reference {probe_value} with {nodes} nodes")
        return elapsed

    def _caught_up(self, follower, primary, probe_value: float, tally: Tally) -> float:
        """Seconds from the follower's launch until its committed LSN is
        the primary's and its probe estimate is the reference's."""
        client, pclient = follower.client(), primary.client()
        try:
            target = pclient.request({"op": "health"})["last_committed_lsn"]
            deadline = follower.launched + 120.0
            while time.monotonic() < deadline:
                health = client.request({"op": "health"})
                if health.get("last_committed_lsn") == target:
                    response = client.request({"op": "estimate", "query": self.probe})
                    tally.attempted += 1
                    if response.get("value") != probe_value:
                        tally.mismatch(f"follower probe {response!r}, reference {probe_value}")
                    return time.monotonic() - follower.launched
                time.sleep(0.005)
            tally.attempted += 1
            tally.mismatch(f"follower never reached lsn {target}")
            return time.monotonic() - follower.launched
        finally:
            client.close()
            pclient.close()

    def _check_state(self, proc, reference, tally: Tally, who: str, exact: bool) -> None:
        """The fixed query set (and node count) against the reference."""
        client = proc.client()
        try:
            stats = client.request({"op": "stats"})
            tally.attempted += 1
            if stats.get("nodes") != len(reference):
                tally.mismatch(f"{who}: {stats.get('nodes')} nodes, reference {len(reference)}")
            for query in self.check_queries:
                response = client.request({"op": "estimate", "query": query})
                if tally.reply(response) and response["value"] != reference.estimate(query):
                    tally.mismatch(f"{who}: estimate {query!r} = {response['value']}, "
                                   f"reference {reference.estimate(query)}")
                if exact:
                    response = client.request({"op": "exact", "query": query})
                    if tally.reply(response) and response["value"] != reference.exact(query):
                        tally.mismatch(f"{who}: exact {query!r} = {response['value']}, "
                                       f"reference {reference.exact(query)}")
        finally:
            client.close()

    async def _timed_phases(self, port, make_read, writes_gen) -> dict:
        """ROUNDS rounds of an open-loop slice then a closed-loop capacity
        slice, so both measures span the whole timed period and a burst
        of host noise moves one round, not the run.

        Open-loop reads use the first connection and capacity reads
        every connection.  Writes go over one connection, so the server
        queues them in the order they are generated and sent.
        """
        from inputs import fixed_rate_schedule
        from loadgen import Connection, closed_loop, open_loop

        spec = self.spec
        slice_s = self.seconds / (2 * ROUNDS)
        conns = [await Connection.open(port) for _ in range(min(2, os.cpu_count() or 1))]
        out: dict = {"reads_open": [], "reads_cap": [], "writes_open": [], "writes_cap": [],
                     "capacity_rounds": []}
        try:
            for _ in range(ROUNDS):
                t0 = time.monotonic()
                if spec.read_rate:
                    out["reads_open"] += await open_loop(
                        conns[0], "read", fixed_rate_schedule(spec.read_rate, slice_s, make_read), t0)
                else:
                    out["writes_open"] += await open_loop(
                        conns[0], "write", fixed_rate_schedule(spec.write_rate, slice_s, writes_gen.next), t0)
                start = time.monotonic()
                if spec.read_rate:
                    jobs = [closed_loop(c, "read", make_read, spec.read_window, start + slice_s)
                            for c in conns]
                else:
                    jobs = [closed_loop(conns[0], "write", writes_gen.next, spec.write_window,
                                        start + slice_s)]
                done = []
                for samples, times in await asyncio.gather(*jobs):
                    out[f"{samples[0].kind}s_cap"] += samples
                    done += times
                out["capacity_rounds"].append(len(done) / (max(done) - start))
        finally:
            for c in conns:
                await c.close()
        out["capacity"] = median(out["capacity_rounds"])
        return out

    def _tail(self, proc, writes_gen, tally: Tally) -> list:
        from loadgen import Sample, next_request_id
        from procs import CHECKPOINT_EVERY

        samples = []
        client = proc.client()

        def write() -> None:
            sample = Sample("write", dict(writes_gen.next(), id=next_request_id()), time.monotonic())
            sample.sent = sample.intended
            sample.response = client.request(sample.request)
            sample.received = time.monotonic()
            samples.append(sample)

        try:
            for _ in range(TAIL_WRITES):
                write()
            lag = client.request({"op": "health"})["wal"]["lag"]
            for _ in range((TAIL_LAG - lag) % CHECKPOINT_EVERY):
                write()
            lag = client.request({"op": "health"})["wal"]["lag"]
        finally:
            client.close()
        tally.attempted += 1
        if lag != TAIL_LAG:
            tally.mismatch(f"{lag} log records after the last checkpoint, wanted {TAIL_LAG}")
        return samples

    def _result(self, tally, setups, timed, rss_mb, recoveries, catchups, disk_mb) -> RunResult:
        spec = self.spec
        report: dict[str, object] = {}
        lateness = []
        for kind in ("read", "write"):
            samples = [s for s in timed[f"{kind}s_open"] if s.response is not None]
            if not samples:
                continue
            lat = [s.latency_ms for s in samples]
            lateness.append(Lateness.of([s.late_ms for s in samples], LATE_LIMIT_MS))
            report[f"{kind}_p50_ms"] = median(lat)
            report[f"{kind}_p99_ms"] = tail_or_none(lat, 99)
            report[f"{kind}_samples"] = len(lat)
            first, last = thirds_drift(lat)
            report[f"{kind}_p50_first_third_ms"] = first
            report[f"{kind}_p50_last_third_ms"] = last
            report[f"{kind}_generator_late_p50_ms"] = lateness[-1].p50_ms
            report[f"{kind}_generator_late_max_ms"] = lateness[-1].max_ms
        capacity = timed["capacity"]
        report["capacity_rounds"] = timed["capacity_rounds"]
        if spec.read_window:
            report["read_capacity_rps"] = capacity
        if spec.write_window:
            report["write_capacity_ops_s"] = capacity
            acks = [s.response.get("coalesced", 1) for s in timed["writes_cap"]
                    if s.response is not None and s.response.get("ok")]
            report["write_capacity_group_mean"] = sum(acks) / len(acks)
        foreground = "read" if spec.read_rate else "write"
        metrics = {
            "setup_s": median(setups),
            "p50_ms": report[f"{foreground}_p50_ms"],
            "capacity_per_s": capacity,
            "recover_s": median(recoveries),
            "replica_catchup_s": median(catchups),
            "server_rss_mb": rss_mb,
        }
        report.update(
            setup_s_each=setups, recover_s_each=recoveries, replica_catchup_s_each=catchups,
            server_rss_mb=rss_mb, disk_mb=disk_mb, failed_frac=tally.failed_frac,
            attempted=tally.attempted, errors=tally.errors, refused=tally.refused,
            wrong=tally.wrong,
        )
        return RunResult(metrics, report, tally, lateness)


def _unqueued(samples) -> tuple[float, tuple[float, float]]:
    """Mean latency from the actual send, and the window the samples span."""
    done = [s for s in samples if s.received is not None]
    mean = sum((s.received - s.sent) * 1000 for s in done) / len(done)
    return mean, (min(s.sent for s in done), max(s.received for s in done))


UNITS = {
    "setup_s": "s", "p50_ms": "ms", "capacity_per_s": "1/s", "recover_s": "s",
    "replica_catchup_s": "s", "server_rss_mb": "MB",
}


#: What each end-to-end metric measures; "foreground" is the op a
#: workload times (weak estimates on read_serve, durable writes on
#: write_serve).
END_TO_END = {
    "setup_s": "median over the set-up launches of process launch to first correct reply "
               "(XML parse, labels, first checkpoint, probe statistics)",
    "p50_ms": "median open-loop foreground latency from the intended send time",
    "capacity_per_s": "closed-loop foreground completions per second at the fixed window, "
                      "median over the rounds",
    "recover_s": "SIGKILL, relaunch on the same directory, first correct reply "
                 f"(replays {TAIL_LAG} log records)",
    "replica_catchup_s": "follower launch until its last_committed_lsn equals the idle "
                         "primary's and its probe estimate is the reference's",
    "server_rss_mb": "peak RSS (VmHWM) of the serving primary after the timed phases",
}


def manifest() -> dict:
    """What ``manifest.json`` records beside the environment."""
    from inputs import DATASET
    from procs import SERVE_FLAGS
    from spans import LAYER_METRICS

    return {
        "dataset": dict(DATASET, nodes=DATASET_NODES),
        "serve_flags": ["serve", "DATA.xml", "--wal-dir", "DIR", *SERVE_FLAGS,
                        "--listen", "127.0.0.1:0"],
        "follower_flags": ["serve", "--replica-of", "HOST:PORT", "--wal-dir", "DIR",
                           *SERVE_FLAGS, "--listen", "127.0.0.1:0"],
        "phases": {
            "setup_launches": SETUP_LAUNCHES,
            "recovery_follower_pairs": REPEATS,
            "warmup": f"every tag pair plus {WARM_TWIGS} twigs, one at a time",
            "rounds": f"{ROUNDS} x (open-loop slice, closed-loop capacity slice), "
                      "each slice --seconds / (2 x rounds)",
            "tail": f"{TAIL_WRITES} writes one at a time, then more until {TAIL_LAG} "
                    "log records follow the last checkpoint; SIGKILL; recovery; one follower",
            "query_pool": QUERY_POOL,
            "check_queries": CHECK_QUERIES,
            "late_limit_ms": LATE_LIMIT_MS,
            "max_behind_frac": MAX_BEHIND_FRAC,
        },
        "workloads": {
            name: {
                "why": spec.why,
                "foreground": "weak estimate" if spec.read_rate else "durable write",
                "open_loop_reads_per_s": spec.read_rate,
                "open_loop_writes_per_s": spec.write_rate,
                "closed_loop_read_window": spec.read_window,
                "closed_loop_write_window": spec.write_window,
            }
            for name, spec in WORKLOADS.items()
        },
        "end_to_end": END_TO_END,
        "per_layer_targets": {name: target for name, (_, target) in LAYER_METRICS.items()},
    }


def environment() -> dict:
    import platform

    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT} holds no src/repro to serve", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".servebench"
    work = out_dir / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        print(f"workload {args.workload} seed {args.seed}: dblp {bench.nodes:,} nodes; "
              f"{json.dumps(environment())}")
        result = bench.run(None)
        print_report("untraced", result)
        if result.tally.failed:
            print_result(result.tally, {k: (v, UNITS[k]) for k, v in result.metrics.items()})
            return 1
        if any(late.fell_behind(MAX_BEHIND_FRAC) for late in result.lateness):
            print(f"invalid run: more than {MAX_BEHIND_FRAC:.0%} of sends left over "
                  f"{LATE_LIMIT_MS} ms late", file=sys.stderr)
            return 3
        if not args.trace:
            print_result(result.tally, {k: (v, UNITS[k]) for k, v in result.metrics.items()})
            return 0

        from spans import layer_metrics, write_table

        trace_dir = work / "spans"
        trace_dir.mkdir()
        traced = bench.run(trace_dir)
        print_report("traced", traced)
        layers, table, missing = layer_metrics(trace_dir, traced, result)
        csv_path = out_dir / f"layers-{args.workload}-{args.seed}.csv"
        write_table(table, csv_path)
        print(f"per-layer table written to {csv_path.relative_to(ROOT)}")
        tally = result.tally
        tally.merge(traced.tally)
        if missing:
            tally.attempted += 1
            tally.mismatch(f"wrapped entry points that recorded no call: {missing}")
            print(f"[traced] check: {tally.notes[-1]}")
        print_result(tally, layers)
        return 1 if tally.failed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(label: str, result: RunResult) -> None:
    print(f"[{label}] " + json.dumps(
        {k: (round(v, 4) if isinstance(v, float) else v) for k, v in result.report.items()}
    ))
    for note in result.tally.notes:
        print(f"[{label}] check: {note}")


def print_result(tally: Tally, metrics: dict) -> None:
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
