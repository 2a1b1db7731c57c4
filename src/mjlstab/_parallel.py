"""Thread-pool map used by the per-agent tests and the simulation trials.

numpy releases the GIL inside the heavy kernels, so threads give real
parallelism for the eigensolves; results always come back in input order, so
callers stay deterministic regardless of scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def resolve_threads(threads: int | None) -> int:
    """Normalize a thread-count request: None means all available cores."""
    if threads is None:
        env = os.environ.get("MJLS_STAB_THREADS")
        if env is not None and env.strip():
            try:
                threads = int(env)
            except ValueError:
                raise ValueError(f"MJLS_STAB_THREADS is not an integer: {env!r}")
    if threads is None:
        threads = os.cpu_count() or 1
    return max(1, int(threads))


def parallel_map(fn, items, threads: int | None = None) -> list:
    """map(fn, items) across a thread pool, preserving input order."""
    items = list(items)
    workers = min(resolve_threads(threads), max(1, len(items)))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
