"""Run ``repro serve`` with spans recorded around public entry points.

    PYTHONPATH=src python servebench/traced_serve.py --trace-out spans.json -- serve ARGS...

Before calling ``repro.cli.main`` it imports every ``repro`` module and
replaces each function in :data:`TARGETS` with a recording wrapper: at
its class attribute for methods, and for plain functions at the
defining module *and* every module that imported it by name, so no
call path bypasses the wrapper.  Spans stay in memory; they are written
to ``--trace-out`` when the server exits and whenever the process gets
``SIGUSR1`` (the benchmark asks for a dump before it SIGKILLs a server).
Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import signal
import sys
import threading
import time

#: (module, attribute path, span name).
TARGETS = [
    ("repro.service.protocol", "decode_frame", "protocol.decode_frame"),
    ("repro.service.protocol", "encode_frame", "protocol.encode_frame"),
    ("repro.service.server", "ServiceEngine.submit", "server.submit"),
    ("repro.service.server", "Ticket.resolve", "server.resolve"),
    ("repro.service.service", "EstimationService.apply_batch", "service.apply_batch"),
    ("repro.service.service", "EstimationService.snapshot", "service.snapshot"),
    ("repro.service.service", "EstimationService.rebuild", "service.rebuild"),
    ("repro.service.service", "EstimationService.checkpoint", "service.checkpoint"),
    ("repro.xmltree.parser", "parse_document", "xmltree.parse_document"),
    ("repro.query.xpath", "parse_xpath", "xpath.parse_xpath"),
    ("repro.service.snapshot", "ServiceSnapshot.estimate", "estimation.snapshot_estimate"),
    ("repro.estimation.twig", "TwigEstimator.estimate", "estimation.twig_estimate"),
    # The twig cascade's overlap step calls the pH-join coefficient
    # kernel directly; ph_join is the two-node entry point.
    ("repro.estimation.phjoin", "ph_join", "estimation.ph_join"),
    ("repro.estimation.phjoin", "ancestor_based_coefficients", "estimation.ph_join_coefficients"),
    ("repro.histograms.epoch", "merge_page", "histograms.merge_page"),
    # Statistics build: sharded with --workers > 1, else per histogram
    # on first use.
    ("repro.histograms.parallel", "build_statistics_parallel", "histograms.build_statistics"),
    ("repro.histograms.position", "build_position_histogram", "histograms.build_position"),
    ("repro.histograms.coverage", "build_coverage_histogram", "histograms.build_coverage"),
    ("repro.service.batch", "BatchApplier.apply", "batch.apply"),
    ("repro.labeling.dynamic", "plan_insert", "labeling.plan_insert"),
    ("repro.labeling.dynamic", "rebalance_for_insert", "labeling.rebalance_for_insert"),
    ("repro.service.wal", "encode_ops", "wal.encode_ops"),
    ("repro.service.wal", "WriteAheadLog.log_batch", "wal.log_batch"),
    ("os", "fsync", "os.fsync"),
    ("repro.service.wal", "write_checkpoint", "wal.write_checkpoint"),
    ("repro.service.wal", "open_durable", "wal.open_durable"),
    ("repro.service.wal", "apply_logged_batch", "wal.apply_logged_batch"),
    ("repro.service.wal", "WalTailer.poll", "wal.tailer_poll"),
    # Checkpoint writes encode through encode_page_file inside the WAL
    # module; write_page_file is the stand-alone writer.
    ("repro.storage.pagefile", "encode_page_file", "pagefile.encode"),
    ("repro.storage.pagefile", "write_page_file", "pagefile.write"),
    ("repro.service.replica", "bootstrap_follower", "replica.bootstrap_follower"),
]


def _wal_size(log) -> int:
    handle = getattr(log, "_fh", None)
    return os.fstat(handle.fileno()).st_size if handle is not None else 0


class Recorder:
    """Spans as ``[name, thread, start_ns, end_ns, parent, extra]``;
    ``parent`` is the index of the enclosing span on the same thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn, name: str):
        spans, local = self.spans, self._stack
        extra_of = _EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            before = _wal_size(args[0]) if name == "wal.log_batch" else None
            record = [name, threading.get_ident(), time.monotonic_ns(), 0,
                      stack[-1] if stack else -1, None]
            with self._lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.monotonic_ns()
                stack.pop()
            if before is not None:
                record[5] = _wal_size(args[0]) - before
            elif extra_of is not None:
                record[5] = extra_of(args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with self._lock:
            spans = [list(s) for s in self.spans]  # still-open spans have end 0
        tmp = f"{path}.tmp"
        with open(tmp, "w") as out:
            json.dump({"pid": os.getpid(), "spans": spans}, out)
        os.replace(tmp, path)


#: What a span records beyond its times: the ticket a submit returned
#: (matched by identity) with its request id, the ticket a resolve
#: settles, the ops in a batch, the bytes a page file encodes to.
_EXTRAS = {
    "server.submit": lambda args, result: [id(result), args[1].get("id")],
    "server.resolve": lambda args, result: [id(args[0]), args[0].request.get("op")],
    "service.apply_batch": lambda args, result: len(args[1]),
    "pagefile.encode": lambda args, result: len(result),
}


def install(recorder: Recorder) -> int:
    """Wrap every target everywhere it is bound; returns the number of
    bindings replaced."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    replaced = 0
    for module_name, path, name in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(recorder.wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, recorder.wrap(raw, name))
            replaced += 1
            continue
        raw = getattr(owner, attr)
        wrapped = recorder.wrap(raw, name)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is raw:
                    setattr(module, key, wrapped)
                    replaced += 1
    return replaced


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: traced_serve.py --trace-out FILE -- REPRO-ARGS...", file=sys.stderr)
        return 2
    out, repro_args = argv[1], argv[3:]
    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda signum, frame: recorder.dump(out))
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
