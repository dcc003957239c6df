"""``serve --listen`` subprocesses and a blocking client for probes.

Every server the benchmark starts is a separate ``python -m repro
serve`` process (or, for a traced run, the same command under
``traced_serve.py``).  :class:`Fleet` owns them all and kills and
reaps any still running when the run ends, however it ends.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

#: Log records (admission groups) between checkpoints.
CHECKPOINT_EVERY = 32
#: Serve flags shared by every workload: coalescing admission, a
#: durable directory, and checkpoints often enough for several
#: checkpoint + compaction cycles per write phase.
SERVE_FLAGS = [
    "--batch-size", "64",
    "--linger-ms", "2",
    "--checkpoint-every", str(CHECKPOINT_EVERY),
    "--keep-checkpoints", "2",
]

LAUNCH_TIMEOUT_S = 60.0


class ServeError(RuntimeError):
    pass


class SyncClient:
    """One blocking connection for probes and checks (not for load).

    The benchmark speaks the wire protocol itself rather than through
    ``repro.service.client``, so a change to the program's client cannot
    move the benchmark's numbers."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, obj: dict) -> dict:
        self._file.write(json.dumps(obj).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


class ServeProcess:
    """One server process; ``port`` is known once it printed its
    ``listening on`` line."""

    def __init__(self, argv: list[str], env: dict, cwd: Path, log: Path) -> None:
        self.log = log
        self.launched = time.monotonic()
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=subprocess.STDOUT,
            )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = self.launched + LAUNCH_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log.read_text(errors="replace")
            for line in text.splitlines():
                if line.startswith("listening on "):
                    return int(line.split()[2].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise ServeError(f"server exited with {self.proc.returncode}:\n{text[-2000:]}")
            time.sleep(0.002)
        raise ServeError(f"server printed no listening line in {LAUNCH_TIMEOUT_S} s")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def client(self) -> SyncClient:
        return SyncClient(self.port)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the process: its peak resident set so far."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM in /proc status")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful stop through the wire ``shutdown`` op; SIGKILL if it
        does not exit in time."""
        if self.proc.poll() is None:
            try:
                client = self.client()
                try:
                    client.request({"op": "shutdown"})
                finally:
                    client.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()


class Fleet:
    """Launches servers from one checkout and reaps them all on exit."""

    def __init__(self, root: Path, work: Path, trace_dir: Optional[Path]) -> None:
        self.root = root
        self.work = work
        self.trace_dir = trace_dir
        self._procs: list[ServeProcess] = []
        self._launches = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def launch(self, args: list[str], role: str) -> ServeProcess:
        """Start ``repro serve <args> --listen 127.0.0.1:0``.

        ``role`` names the span file of a traced server
        (``<trace_dir>/<role>.json``).
        """
        self._launches += 1
        serve = ["serve", *args, "--listen", "127.0.0.1:0"]
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = Path(__file__).with_name("traced_serve.py")
            out = self.trace_dir / f"{role}.json"
            argv = [sys.executable, str(launcher), "--trace-out", str(out), "--", *serve]
        log = self.work / f"serve-{self._launches}-{role}.log"
        proc = ServeProcess(argv, self.env, self.work, log)
        self._procs.append(proc)
        return proc

    def dump_trace(self, proc: ServeProcess, role: str, timeout: float = 30.0) -> None:
        """Ask a traced server to write its spans now (before a SIGKILL)."""
        if self.trace_dir is None:
            return
        out = self.trace_dir / f"{role}.json"
        proc.signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not out.exists():
            if time.monotonic() > deadline:
                raise ServeError(f"traced server wrote no {out.name}")
            time.sleep(0.01)

    def close(self) -> None:
        for proc in self._procs:
            try:
                proc.kill()
            except (OSError, subprocess.TimeoutExpired):
                pass
        self._procs.clear()


def dir_size_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / (1 << 20)
