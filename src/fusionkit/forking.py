"""Independent pieces of one command's work, run in forked processes.

``run_groups`` runs the first group of pieces in the calling process and
each other group in a forked child, which sends its results back
pickled through a pipe. ``worker_count`` decides how many workers to use:
never more than the CPUs this process may run on, and one where the OS
offers no ``sched_getaffinity`` (Windows, macOS) or while another thread
is alive, because a forked child gets a copy of every lock another thread
may hold. Callers rerun their work serially when ``run_groups`` raises, so
a worker's failure never changes what a command prints or writes.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import BinaryIO, Callable, NoReturn


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the OS offers no
    ``sched_getaffinity`` (Windows, macOS), so nothing forks there."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def worker_count(useful: int) -> int:
    """Workers for work that ``useful`` workers can share: at most the
    CPU count, and 1 while another thread is alive."""
    if threading.active_count() > 1:
        return 1
    return min(_cpu_count(), useful)


def _child(run: Callable, group: list[int], pipe_fd: int) -> NoReturn:
    # Sends [(piece, run(piece))] and exits without running the parent's
    # cleanup; any failure is a non-zero exit.
    code = 1
    try:
        payload = pickle.dumps([(i, run(i)) for i in group],
                               pickle.HIGHEST_PROTOCOL)
        with os.fdopen(pipe_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def run_groups(run: Callable, groups: list[list[int]]) -> dict:
    """``{piece: run(piece)}`` for every piece in ``groups``.

    Runs ``groups[0]`` here and each other group in a forked child. Raises
    if any worker fails: an exception, a non-zero exit, or a reply that
    does not unpickle. Every child is reaped on every path.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for group in groups[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _child(run, group, w)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = {i: run(i) for i in groups[0]}
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0:
                raise ChildProcessError(f"worker exited with status {status}")
            results.update(pickle.loads(data))
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
