"""Run one repro server with the benchmark's timing wrappers installed.

Usage: ``python perfbench/launch.py serve-dssp bboard --home HOST:PORT``
(any ``python -m repro`` arguments).  ``PERFBENCH_SPANS`` names the file
the recorded spans are written to when SIGTERM starts the server's
shutdown, before anything in that shutdown can stall.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.tracing import Recorder, install

    recorder = Recorder()
    # Load the server modules first so that every module importing a
    # wrapped function by name is in ``sys.modules`` when it is patched.
    import repro.cli
    import repro.net.dssp_server
    import repro.net.service

    absent = install(recorder)
    path = os.environ["PERFBENCH_SPANS"]
    written = []

    def write() -> None:
        if not written:
            recorder.dump(path, absent)
            written.append(path)

    for server in (repro.net.dssp_server.DsspNetServer, repro.net.service.WireServer):
        stop = server.__dict__.get("stop")
        if stop is None:
            continue

        async def stop_after_writing(self, _stop=stop):
            write()
            await _stop(self)

        server.stop = stop_after_writing
    try:
        return repro.cli.main(sys.argv[1:])
    finally:
        write()


if __name__ == "__main__":
    sys.exit(main())
