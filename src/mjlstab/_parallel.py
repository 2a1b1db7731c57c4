"""Thread-pool map over the Monte Carlo trials of `sim.estimate_ms`.

The trial step loop releases the GIL in numpy, so a pool beats a loop there.
The per-agent scopes run serially (see `stability`): a pool over them
measured slower. Results come back in input order.
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
