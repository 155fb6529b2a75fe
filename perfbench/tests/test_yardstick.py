"""The yardstick: a fixed reference server and the readings taken of it."""

import asyncio
import os

from perfbench.reference import answer
from perfbench.yardstick import Reference, start_cost


def test_reference_work_is_fixed():
    assert answer(b'{"start": 5}\n') == answer(b'{"start": 5}\n')
    assert answer(b'{"start": 5}\n') != answer(b'{"start": 6}\n')


def test_start_cost_is_cpu_time_of_a_stopped_process():
    cost = asyncio.run(start_cost())
    assert 0.0 < cost < 30.0


def test_reference_readings_grow_and_the_server_stops():
    async def body():
        async with Reference() as reference:
            cpu, answered = reference.reading()
            await asyncio.sleep(0.3)
            later_cpu, later_answered = reference.reading()
            pid = reference._process.pid
        return cpu, answered, later_cpu, later_answered, pid

    cpu, answered, later_cpu, later_answered, pid = asyncio.run(body())
    assert later_answered > answered
    assert later_cpu > cpu
    assert not os.path.exists(f"/proc/{pid}")
