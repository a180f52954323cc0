"""Independent pieces of one command's work, run in forked processes.

``run_pieces(run, costs)`` returns ``[run(i) for i in range(len(costs))]``
and is the one place that decides how. It uses
``min(CPUs, ceil(sum(costs) / max(costs)))`` workers: no more than the
CPUs this process may run on, nor than it takes for the largest piece
alone to bound the wall time. It uses one where the OS offers no
``sched_getaffinity`` (Windows, macOS), and while another Python thread is
alive, since a forked child gets a copy of every lock that thread may
hold. Pieces go largest first to the least-loaded worker (Graham's LPT
rule). The calling process runs the first group; each other group runs in
a forked child that pipes its results back pickled. A piece runs the same
code wherever it runs, so results do not depend on the grouping. If any
worker fails, every piece reruns here in piece order, so the error raised
is the first failing piece's, as in a serial run.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings
from typing import BinaryIO, Callable, NoReturn, Sequence


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the OS offers no
    ``sched_getaffinity`` (Windows, macOS), so nothing forks there."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _split(costs: Sequence[int]) -> list[list[int]]:
    """Piece indices per worker, the calling process's group first."""
    workers = 1
    if threading.active_count() == 1 and any(costs):
        workers = min(_cpu_count(), -(-sum(costs) // max(costs)))
    if workers < 2:
        return [list(range(len(costs)))]
    groups: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        g = loads.index(min(loads))
        groups[g].append(i)
        loads[g] += costs[i]
    return [sorted(g) for g in groups if g]


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


def _run_groups(run: Callable, groups: list[list[int]]) -> dict:
    """``{piece: run(piece)}`` for every piece in ``groups``.

    Runs ``groups[0]`` here and each other group in a forked child. Raises
    if any worker fails. Every child is reaped on every path.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for group in groups[1:]:
            r, w = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns on a fork while the process has other
                    # OS threads. Python threads were refused in _split; what
                    # is left are native pools such as OpenBLAS's, which
                    # quiesce through pthread_atfork.
                    warnings.filterwarnings(
                        "ignore", r"This process .* is multi-threaded",
                        DeprecationWarning)
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


def run_pieces(run: Callable[[int], object], costs: Sequence[int]) -> list:
    """``[run(i) for i in range(len(costs))]``, split over forked workers
    by the pieces' relative ``costs``."""
    groups = _split(costs)
    if len(groups) > 1:
        try:
            results = _run_groups(run, groups)
            return [results[i] for i in range(len(costs))]
        except Exception:  # noqa: BLE001 - any failing worker: rerun serially
            pass
    return [run(i) for i in range(len(costs))]
