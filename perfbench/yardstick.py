"""The yardstick: prices of fixed work, read beside every measurement.

On a shared virtual machine the CPU time a server spends on the same
request moves by half between quiet and busy hours: neighbours cool the
caches while a virtual CPU idles, and the hypervisor steals time.  So the
benchmark runs :mod:`perfbench.reference`, a fixed server that needs no
code from the program, beside the fleet, and scales the fleet's CPU time
by the reference's: :func:`start_cost` prices a server start next to each
fleet set-up, and :class:`Reference` prices a request while the fleet's
windows run.  A scaled figure reads as the CPU time on a machine where a
reference start costs :data:`NOMINAL_START_S` and a reference request
:data:`NOMINAL_REQUEST_MS`.  The fleet's own load slows the reference a
little too (its requests cost a few percent more at the heavy rate than
at the light one), so a change that cuts the fleet's CPU time shows
slightly less than that cut in the scaled figures.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import sys
from pathlib import Path

from perfbench.fleet import process_cpu_s

#: Requests per second the client of :class:`Reference` sends.
RATE = 100.0
#: CPU seconds a reference start, and CPU milliseconds a reference
#: request, cost on the machine scaled figures are expressed for.
NOMINAL_START_S = 0.1
NOMINAL_REQUEST_MS = 0.5


async def _spawn() -> tuple[asyncio.subprocess.Process, str, int]:
    process = await asyncio.create_subprocess_exec(
        sys.executable, str(Path(__file__).with_name("reference.py")),
        stdout=asyncio.subprocess.PIPE, stdin=asyncio.subprocess.DEVNULL,
    )
    try:
        line = await asyncio.wait_for(process.stdout.readline(), 30.0)
        host, port = line.decode().split()[-1].rsplit(":", 1)
        return process, host, int(port)
    except BaseException:
        await _stop(process)
        raise


async def _stop(process: asyncio.subprocess.Process) -> None:
    if process.returncode is None:
        with contextlib.suppress(ProcessLookupError):
            process.terminate()
    try:
        await asyncio.wait_for(process.wait(), 5.0)
    except (asyncio.TimeoutError, TimeoutError):
        with contextlib.suppress(ProcessLookupError):
            process.kill()
        await process.wait()


async def start_cost() -> float:
    """CPU seconds a fresh reference server takes to start listening."""
    process, _, _ = await _spawn()
    try:
        return process_cpu_s(process.pid)
    finally:
        await _stop(process)


class Reference:
    """A reference server kept busy at :data:`RATE` requests per second."""

    async def __aenter__(self) -> "Reference":
        self.answered = 0
        self._process, host, port = await _spawn()
        try:
            self._reader, self._writer = await asyncio.open_connection(host, port)
        except BaseException:
            await _stop(self._process)
            raise
        self._task = asyncio.create_task(self._drive())
        return self

    async def _drive(self) -> None:
        while True:
            self._writer.write(json.dumps({"start": self.answered}).encode() + b"\n")
            await self._writer.drain()
            reply = json.loads(await self._reader.readline())
            if reply["start"] != self.answered:
                raise RuntimeError(f"reference server answered {reply}")
            self.answered += 1
            await asyncio.sleep(1.0 / RATE)

    def reading(self) -> tuple[float, int]:
        """(CPU seconds the server has used, requests it has answered)."""
        if self._task.done():
            self._task.result()  # raises what stopped the client
            raise RuntimeError("reference client stopped")
        return process_cpu_s(self._process.pid), self.answered

    async def __aexit__(self, *exc) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            if asyncio.current_task().cancelling():
                raise
        except (OSError, ValueError, RuntimeError):
            pass  # a failed client already failed the reading of its window
        finally:
            self._writer.close()
            await _stop(self._process)
