"""Benchmark entry point.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the servers are started from ``src/``.
Prints a human-readable report, then, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
``--workload all`` runs every workload in turn, each report followed by
its own JSON line.
"""

from __future__ import annotations

import argparse
import asyncio
import compileall
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for server logs, SQLite files and span files; removed
#: when the run ends.
WORK_ROOT = ROOT / ".perfbench-work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.bench import Run, end_to_end, traced
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # The servers start from compiled bytecode, as an installed program
    # does.  Without it every start compiles the whole source tree, and
    # set-up time depends on whether some earlier run left a cache behind.
    compileall.compile_dir(SRC, quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        WORK_ROOT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK_ROOT))
        run = Run(WORKLOADS[name], args.seed, args.seconds, workdir, SRC)
        try:
            asyncio.run(measure(run, traced if args.trace else end_to_end))
        except asyncio.CancelledError:
            print("error: run interrupted", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass  # another run still uses it
        for problem in run.problems:
            print(f"INCORRECT: {problem}")
        print(json.dumps(run.result()), flush=True)
    return 0


async def measure(run, body) -> None:
    """Run ``body(run)``; SIGTERM or SIGINT cancel it cleanly.

    Cancelling still stops and waits for every server the run started.
    """
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, asyncio.current_task().cancel)
    await body(run)


if __name__ == "__main__":
    sys.exit(main())
