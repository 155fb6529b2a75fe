"""Server processes of one benchmark fleet: one home, N DSSP nodes.

Each server is its own OS process started through the public CLI
(``python -m repro serve-home`` / ``serve-dssp``), or through the traced
launcher with the same arguments.  The fleet reads nothing private: it
parses the listening banner, polls the public STATS frame, and takes CPU
time and peak RSS from ``/proc/<pid>``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.net.client import RetryPolicy, WireClient

_BANNER = re.compile(rb"listening on (\S+):(\d+)")
#: Seconds a server may take to print its banner or to subscribe.
READY_TIMEOUT_S = 60.0
#: Seconds a server may take to exit after SIGTERM before it is killed.
STOP_TIMEOUT_S = 5.0


@dataclass
class Server:
    """One running server process and a client for its STATS frame."""

    name: str
    role: str
    process: asyncio.subprocess.Process
    host: str
    port: int
    stats_client: WireClient
    #: Where the traced launcher writes this server's spans, if traced.
    span_path: Path | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def stats(self) -> dict:
        return await self.stats_client.stats()

    def cpu_s(self) -> float:
        """CPU seconds the process has used so far."""
        return process_cpu_s(self.process.pid)

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the process's peak resident set size, in MB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.process.pid}")


def process_cpu_s(pid: int) -> float:
    """CPU seconds the threads of process ``pid`` have run, to the nanosecond.

    Summed over ``/proc/<pid>/task/*/schedstat``; the clock-tick fields of
    ``/proc/<pid>/stat`` are too coarse for a set-up of a few tenths of a
    second.
    """
    total = 0
    for path in Path(f"/proc/{pid}/task").glob("*/schedstat"):
        with contextlib.suppress(FileNotFoundError, ProcessLookupError):
            total += int(path.read_text().split()[0])
    return total / 1e9


def host_steal() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while a virtual CPU
    wanted to run: it slows every wall-clock figure but no process's own
    CPU time.
    """
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    return fields[7], sum(fields)


@dataclass(frozen=True)
class FleetSpec:
    """What to start: the application, its nodes and the home's storage."""

    app: str
    nodes: int
    capacity: int | None
    backend: str
    seed: int
    scale: float = 0.2
    strategy: str = "MVIS"
    master: str = "perfbench"


@dataclass
class Fleet:
    """A started fleet; :meth:`stop` ends every process it started."""

    spec: FleetSpec
    workdir: Path
    home: Server | None = None
    dssps: list[Server] = field(default_factory=list)
    #: Seconds from the first spawn until every node had subscribed.
    setup_wall_s: float = 0.0
    #: CPU seconds the servers used until every node had subscribed.
    setup_cpu_s: float = 0.0
    #: Seconds :meth:`stop` took.
    stop_s: float = 0.0

    @property
    def servers(self) -> list[Server]:
        return ([self.home] if self.home else []) + self.dssps

    async def stop(self) -> None:
        """SIGTERM every server, wait for each to exit, kill stragglers."""
        started = time.perf_counter()
        for server in self.servers:
            await server.stats_client.aclose()
            if server.process.returncode is None:
                with contextlib.suppress(ProcessLookupError):
                    server.process.send_signal(signal.SIGTERM)
        for server in self.servers:
            try:
                await asyncio.wait_for(server.process.wait(), STOP_TIMEOUT_S)
            except (asyncio.TimeoutError, TimeoutError):
                # SIGABRT makes the interpreter's fault handler write every
                # thread's stack to the log before the process is killed.
                with contextlib.suppress(ProcessLookupError):
                    server.process.send_signal(signal.SIGABRT)
                try:
                    await asyncio.wait_for(server.process.wait(), 2.0)
                except (asyncio.TimeoutError, TimeoutError):
                    with contextlib.suppress(ProcessLookupError):
                        server.process.kill()
                    await server.process.wait()
                log = (self.workdir / f"{server.name}.log").read_text(errors="replace")
                print(
                    f"[stop] {server.name} did not exit {STOP_TIMEOUT_S:g}s "
                    f"after SIGTERM; killed. Log tail:\n"
                    + "\n".join(log.splitlines()[-40:]),
                    flush=True,
                )
        self.stop_s = time.perf_counter() - started


def _stats_client(host: str, port: int) -> WireClient:
    return WireClient(
        host, port, pool_size=1, request_timeout_s=10.0,
        retry=RetryPolicy(attempts=1),
    )


async def _spawn(
    name: str,
    role: str,
    argv: list[str],
    workdir: Path,
    src: Path,
    traced: bool,
) -> Server:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONFAULTHANDLER"] = "1"
    span_path = None
    if traced:
        span_path = workdir / f"{name}.spans.json"
        env["PERFBENCH_SPANS"] = str(span_path)
        command = [sys.executable, str(Path(__file__).with_name("launch.py"))]
    else:
        command = [sys.executable, "-m", "repro"]
    with open(workdir / f"{name}.log", "wb") as log:
        process = await asyncio.create_subprocess_exec(
            *command, *argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=log,
            stdin=asyncio.subprocess.DEVNULL,
            env=env,
        )
    try:
        line = await asyncio.wait_for(
            process.stdout.readline(), READY_TIMEOUT_S
        )
        match = _BANNER.search(line)
        if match is None:
            raise RuntimeError(
                f"{name} printed no banner (exit {await process.wait()}); "
                f"see {workdir / (name + '.log')}"
            )
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            process.kill()
        await process.wait()
        raise
    host, port = match.group(1).decode(), int(match.group(2))
    return Server(
        name, role, process, host, port, _stats_client(host, port), span_path
    )


async def _await_subscribed(server: Server) -> None:
    """Poll STATS until the node's invalidation stream has connected."""
    deadline = time.perf_counter() + READY_TIMEOUT_S
    while True:
        snapshot = await server.stats()
        if snapshot.get("stream_flushes", 0) >= 1:
            return
        if time.perf_counter() > deadline:
            raise RuntimeError(f"{server.name} never subscribed to its home")
        await asyncio.sleep(0.005)


async def start_fleet(
    spec: FleetSpec, workdir: Path, src: Path, *, traced: bool = False
) -> Fleet:
    """Start the home, then its DSSP nodes; measure until all are subscribed.

    A fleet that fails half-way is stopped before the error propagates.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    fleet = Fleet(spec, workdir)
    started = time.perf_counter()
    try:
        home_argv = [
            "serve-home", spec.app,
            "--strategy", spec.strategy,
            "--scale", str(spec.scale),
            "--seed", str(spec.seed),
            "--master", spec.master,
            "--backend", spec.backend,
        ]
        if spec.backend == "sqlite":
            home_argv += ["--db-path", str(workdir / "home.sqlite")]
        fleet.home = await _spawn(
            "home", "home", home_argv, workdir, src, traced
        )
        spawns = []
        for index in range(spec.nodes):
            argv = [
                "serve-dssp", spec.app,
                "--home", fleet.home.address,
                "--node-id", f"dssp-{index}",
            ]
            if spec.capacity is not None:
                argv += ["--capacity", str(spec.capacity)]
            spawns.append(
                _spawn(f"dssp-{index}", "dssp", argv, workdir, src, traced)
            )
        results = await asyncio.gather(*spawns, return_exceptions=True)
        fleet.dssps = [r for r in results if isinstance(r, Server)]
        for result in results:
            if isinstance(result, BaseException):
                raise result
        await asyncio.gather(*(_await_subscribed(s) for s in fleet.dssps))
        fleet.setup_wall_s = time.perf_counter() - started
        fleet.setup_cpu_s = sum(s.cpu_s() for s in fleet.servers)
    except BaseException:
        await fleet.stop()
        raise
    return fleet
