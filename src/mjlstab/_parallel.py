"""Map over the trial blocks of `sim.estimate_ms` in forked worker processes.

`estimate_ms` gives it one block of trials per core. The parent forks one
child for each block but the first, runs the first block itself, and reads
each child's pickled result back from a pipe. In process on 2 cores, two
blocks of 50 trials on 200 pendulums over 400 steps took 0.248 s one after
the other, 0.217 s on two threads (the step loop's short numpy calls hold
the GIL often enough that the threads wait on each other) and 0.136 s in
forked processes. A child shares the parent's arrays copy-on-write, so
nothing but the result is pickled, and the function may be a closure.
OpenBLAS stops its thread pool before a fork (the parent goes from 2 OS
threads to 1, and a child starts with 1) and starts it again at its next
BLAS call; the step loop makes none.

Each child leaves through `os._exit`: it neither flushes the stdio buffers
it inherited nor runs atexit handlers, so the parent's output is written
once. Every child is reaped on every path; one that the parent no longer
waits for (because an item raised) is killed first. Where `os.fork` does
not exist, the items run serially in the parent. Results come back in input
order, so a caller that combines them in that order gets the same bits for
any number of workers.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback


def _child(fn, item, read_fd: int, write_fd: int) -> None:
    """Run fn(item) in a forked child, send (ok, value) to the parent, exit."""
    code = 1
    try:
        os.close(read_fd)
        try:
            payload = (True, fn(item))
        except BaseException as exc:  # the parent re-raises it
            if hasattr(exc, "add_note"):  # Python 3.11+
                exc.add_note("in the worker process:\n"
                             + "".join(traceback.format_exception(exc)))
            payload = (False, exc)
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            failure = RuntimeError(f"result not picklable: {exc!r}")
            data = pickle.dumps((False, failure), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _decode(data: bytes, status: int, index: int):
    """The value of item `index` from its child's output and exit status."""
    if status != 0 or not data:
        how = (f"was killed by {signal.Signals(-status).name}" if status < 0
               else f"exited with status {status}")
        raise RuntimeError(f"parallel_map item {index}: its worker process {how}")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def parallel_map(fn, items) -> list:
    """map(fn, items) with every item but the first in a forked child,
    preserving input order."""
    items = list(items)
    if len(items) <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    children, outputs, statuses = [], [], []  # children: (pid, read end)
    try:
        for item in items[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(fn, item, read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        first = fn(items[0])
        for _, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                outputs.append(pipe.read())
    finally:
        for index, (pid, read_fd) in enumerate(children):
            os.close(read_fd)
            if index >= len(outputs):  # not read to its end: no longer wanted
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    return [first] + [
        _decode(data, status, index)
        for index, (data, status) in enumerate(zip(outputs, statuses), 1)
    ]
