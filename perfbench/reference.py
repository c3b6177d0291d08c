"""A fixed piece of work that measures how fast the host runs at the moment.

The benchmark's hosts share cores with other tenants, and the same Python
code runs up to twice as slow for seconds or minutes at a time. The
benchmark times this reference work between its timed steps, and rescales
each step's time to the host speed at which the reference takes
``NOMINAL_S``. The reference never changes with the program, so a change to
dynsync moves the rescaled times as much as the raw ones, while a slow spell
of the host slows the step and the reference alike, and cancels.

The work resembles the program's, whose steps are dominated by JSON lines
and per-node dicts: it parses 10,000 JSON lines shaped like trace events,
indexes them per node, and writes a quarter of them back. Allocation-heavy
work like this followed the program's steps more closely than a short
arithmetic loop or a smaller JSON pass did. It parses one line at a time,
so that it adds little to the benchmark's peak memory.
"""
from __future__ import annotations

import gc
import json
import random
import time

# About the seconds the reference takes on a calm 2-vCPU x86-64 VM with
# CPython 3.11; rescaled times are those the step would take at that speed.
NOMINAL_S = 0.080


def _event_lines() -> list[bytes]:
    rng = random.Random(0)
    lines = []
    for i in range(10_000):
        event = {
            "kind": "action",
            "t": i // 12,
            "node": rng.randrange(12),
            "phase": i // 40,
            "committed_map": [[port, rng.randrange(12)] for port in range(3)],
            "obs": {
                "msgs": [format(rng.getrandbits(64), "x") for _ in range(3)],
                "bits": [rng.randrange(2) for _ in range(6)],
            },
        }
        lines.append(json.dumps(event, sort_keys=True).encode())
    return lines


_LINES = _event_lines()


def time_s() -> float:
    """Seconds one pass of the reference work takes now. The garbage
    collector is held off, so that the program's heap does not slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        per_node: dict[int, list] = {}
        for i, line in enumerate(_LINES):
            event = json.loads(line)
            per_node.setdefault(event["node"], []).append({v: p for p, v in event["committed_map"]})
            if i % 4 == 0:
                json.dumps(event, sort_keys=True)
        return time.perf_counter() - start
    finally:
        gc.enable()


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal host speed, given the reference times
    measured just before and just after them."""
    return seconds * NOMINAL_S / ((before + after) / 2)
