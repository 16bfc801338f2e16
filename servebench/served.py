"""Drive ``repro serve`` subprocesses with closed-loop keep-alive clients.

One :class:`ServerProcess` per replica: launched fresh with
``--jobs 1``, so no replica inherits another's caches and every request
meets the same single worker.  Clients are closed loops over the
program's own HTTP client; a request's latency runs from the start of
encoding its body to the end of decoding the answer.  Response bodies
are kept and checked only after the timed phase.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import Call

READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0
HEADERS = {"Content-Type": "application/json"}
_READY = re.compile(r"serving on http://[^:]+:(\d+) ")


def server_argv() -> list[str]:
    """The server's command line (identical for every seed)."""
    return [
        sys.executable, "-m", "repro", "serve",
        "--jobs", "1", "--host", "127.0.0.1", "--port", "0",
    ]


def vmhwm_kib(status_text: str) -> int:
    """``VmHWM`` (peak resident set, KiB) from a ``/proc/<pid>/status``."""
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status_text, re.MULTILINE)
    if match is None:
        raise ValueError("no VmHWM line in status text")
    return int(match.group(1))


def parent_pid(stat_text: str) -> int:
    """The parent pid field of a ``/proc/<pid>/stat`` line."""
    # The command name may hold spaces and parentheses; fields resume
    # after its last closing parenthesis.
    return int(stat_text[stat_text.rindex(")") + 2:].split()[1])


def process_tree(pid: int) -> list[int]:
    """``pid`` followed by all its live descendants (Linux ``/proc``)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            ppid = parent_pid((entry / "stat").read_text())
        except (OSError, ValueError, IndexError):
            continue  # exited while scanning
        children.setdefault(ppid, []).append(int(entry.name))
    tree, todo = [], [pid]
    while todo:
        current = todo.pop(0)
        tree.append(current)
        todo.extend(sorted(children.get(current, ())))
    return tree


def peak_rss_mib(pid: int) -> tuple[float, float]:
    """``(server, workers)`` peak RSS in MiB: ``VmHWM`` of ``pid`` and
    the sum over its descendants."""
    values = []
    for p in process_tree(pid):
        try:
            values.append(vmhwm_kib(Path(f"/proc/{p}/status").read_text()))
        except (OSError, ValueError):
            values.append(0)
    return values[0] / 1024.0, sum(values[1:]) / 1024.0


class ServerProcess:
    """One ``repro serve`` subprocess, its stderr in ``log_path``."""

    def __init__(self, env: dict[str, str], cwd: Path, log_path: Path) -> None:
        self.env = env
        self.cwd = cwd
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._tree: list[int] = []

    def start(self) -> None:
        """Launch and block until the server prints its address."""
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                server_argv(), cwd=self.cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _READY.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                self._tree = process_tree(self.proc.pid)
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        tail = self.log_path.read_text(errors="replace")[-2000:]
        self.stop()
        raise RuntimeError(f"server did not start:\n{tail}")

    def peak_rss(self) -> tuple[float, float]:
        assert self.proc is not None
        return peak_rss_mib(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; reap every worker."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in self._tree[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            deadline = time.monotonic() + 5.0
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        self.proc = None
        self.log_path.unlink(missing_ok=True)


@dataclass
class Sample:
    """One timed request as the client saw it."""

    index: int
    t0: float
    t1: float
    status: int
    request_bytes: int
    body: bytes = field(repr=False)

    @property
    def latency_s(self) -> float:
        return self.t1 - self.t0


async def _open(port: int):
    from repro.server.client import Connection

    return await Connection.open("127.0.0.1", port)


async def _stream(port: int, calls: list[tuple[int, Call]], out: list[Sample]) -> None:
    conn = None
    try:
        for index, call in calls:
            t0 = perf_counter()
            body = json.dumps(call.wire).encode("utf-8")
            try:
                if conn is None:
                    conn = await _open(port)
                resp = await asyncio.wait_for(
                    conn.request("POST", call.route, body, HEADERS),
                    REQUEST_TIMEOUT_S,
                )
                if resp.status == 200:
                    json.loads(resp.body)
                status, payload = resp.status, resp.body
            except (OSError, EOFError, ValueError, asyncio.TimeoutError) as exc:
                status, payload = 0, repr(exc).encode()
                if conn is not None:
                    await conn.close()
                    conn = None
            out.append(Sample(index, t0, perf_counter(), status, len(body), payload))
    finally:
        if conn is not None:
            await conn.close()


def drive(port: int, streams: list[list[tuple[int, Call]]]) -> tuple[list[Sample], float]:
    """Replay each stream on its own keep-alive connection, concurrently.

    Returns the samples and the wall time of the phase.
    """
    samples: list[Sample] = []

    async def main() -> float:
        t0 = perf_counter()
        await asyncio.gather(*(_stream(port, s, samples) for s in streams))
        return perf_counter() - t0

    wall = asyncio.run(main())
    return samples, wall


def fetch_text(port: int, path: str) -> str:
    """One GET on a fresh connection; the body as text."""

    async def main() -> str:
        conn = await _open(port)
        try:
            resp = await conn.request("GET", path)
        finally:
            await conn.close()
        if resp.status != 200:
            raise RuntimeError(f"GET {path} answered {resp.status}")
        return resp.body.decode("utf-8")

    return asyncio.run(main())


_SAMPLE_LINE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_prometheus(text: str) -> dict[tuple[str, tuple], float]:
    """``{(name, sorted label items): value}`` of a text exposition."""
    out = {}
    for line in text.splitlines():
        match = _SAMPLE_LINE.match(line.strip())
        if match is None:
            continue
        name, labels, value = match.groups()
        items = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', labels or "")))
        out[(name, items)] = float(value)
    return out


def counters(port: int) -> dict[str, float]:
    """The program's own counters, flattened for before/after deltas."""
    prom = parse_prometheus(fetch_text(port, "/metrics"))
    cache = json.loads(fetch_text(port, "/debug/vars"))["cache"]
    out = {
        "cache.memory_hits": cache["memory_hits"],
        "cache.disk_hits": cache["disk_hits"],
        "cache.misses": cache["misses"],
        "repartition_cache.hits": 0.0,
    }
    for (name, labels), value in prom.items():
        lab = dict(labels)
        if name == "stage_cache_total":
            key = f"stage_cache.{lab['stage']}.{lab['outcome']}"
        elif name in ("service_requests_total", "server_repartition_total"):
            key = f"source.{lab['source']}"
        elif name == "server_repartition_cache_hits":
            key = "repartition_cache.hits"
        else:
            continue
        out[key] = out.get(key, 0.0) + value
    return out


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}
