"""A fixed reference server: the yardstick for the machine's speed.

    python3 perfbench/reference.py

Listens on a loopback port (printing ``listening on HOST:PORT``) and
answers each newline-terminated request with a fixed piece of work of
the kind a request handler does (decode, look up, sort, encode a reply),
in plain Python with no code from the program.  It is an asyncio server
woken per request, like the program's servers, so a host that slows them
(steal, caches cooled by neighbours while a virtual CPU idles) slows it
alike; its CPU time per request measures how fast the machine was while
a window ran.  It never changes, so it is the same yardstick for every
version of the program.

:mod:`perfbench.yardstick` starts it and reads it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys

#: Rows each request looks up, sorts and encodes.
ROWS = 64
TABLE = {
    f"item:{index}": {
        "id": index,
        "title": f"title {index * 7919 % 1009}",
        "price": index * 1.25,
        "tags": [f"t{index % 7}", f"t{index % 11}"],
    }
    for index in range(ROWS * 16)
}


def answer(line: bytes) -> bytes:
    """The fixed work of one request."""
    start = json.loads(line)["start"]
    rows = [TABLE[f"item:{(start + step * 17) % len(TABLE)}"] for step in range(ROWS)]
    rows.sort(key=lambda row: (row["price"], row["title"]))
    body = json.dumps({"rows": rows, "count": len(rows)}, sort_keys=True)
    digest = hashlib.sha256(body.encode()).hexdigest()
    return json.dumps({"start": start, "digest": digest}).encode() + b"\n"


async def _serve(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while line := await reader.readline():
            writer.write(answer(line))
            await writer.drain()
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(_serve, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"listening on {host}:{port}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        sys.exit(0)
