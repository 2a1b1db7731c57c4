"""Thread-pool map over the trial blocks of `sim.estimate_ms`.

`estimate_ms` gives it one block of trials per core. A block's step loop
spends most of its time in numpy calls that release the GIL, so two blocks
on two threads measured faster than one block of all trials. The per-agent
scopes run serially (see `stability`): a pool over them measured slower.
Results come back in input order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def parallel_map(fn, items) -> list:
    """map(fn, items) across one worker per core, preserving input order."""
    items = list(items)
    workers = min(os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
