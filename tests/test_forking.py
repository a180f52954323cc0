"""forking.run_pieces: the one fork policy behind fuse and refine.

Each test records, in the calling process, which pieces ran here; a
forked child's records stay in the child.
"""

from __future__ import annotations

import _thread
import os
import threading
import warnings

import pytest

from fusionkit import forking
from fusionkit.forking import run_pieces

from conftest import (
    _crash,
    _in_child,
    _raise,
    _truncate,
    assert_no_child_left,
    cpus,
)

# three workers take [[0, 3], [1, 4], [2, 5]]: no group is contiguous
COSTS = [5, 5, 5, 5, 4, 1]


def recorder(fail=frozenset()):
    """``run`` returning ``(piece, pid)``, and the pieces it ran here;
    pieces in ``fail`` raise ``ValueError`` naming themselves."""
    ran: list[int] = []

    def run(i: int) -> tuple[int, int]:
        ran.append(i)
        if i in fail:
            raise ValueError(f"piece {i}")
        return i, os.getpid()
    return run, ran


def test_results_come_back_in_piece_order(monkeypatch, forks):
    cpus(monkeypatch, 3)
    run, ran = recorder()
    results = run_pieces(run, COSTS)
    assert [i for i, _ in results] == list(range(len(COSTS)))
    here = [i for i, pid in results if pid == os.getpid()]
    assert here == ran == [0, 3]  # the calling process runs the first group
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("costs", [[], [0], [0, 0, 0]])
def test_no_fork_without_work_to_share(monkeypatch, forks, costs):
    cpus(monkeypatch, 4)
    run, ran = recorder()
    assert run_pieces(run, costs) == [(i, os.getpid()) for i in range(len(costs))]
    assert ran == list(range(len(costs)))
    assert not forks


@pytest.mark.parametrize("fail", [_crash, _raise, _truncate])
def test_failed_worker_reruns_every_piece_in_order(monkeypatch, forks, fail):
    cpus(monkeypatch, 3)
    run, ran = recorder()
    if fail is _truncate:
        monkeypatch.setattr(forking.pickle, "dumps",
                            _in_child(forking.pickle.dumps, fail))
    else:
        run = _in_child(run, fail)
    results = run_pieces(run, COSTS)
    assert results == [(i, os.getpid()) for i in range(len(COSTS))]
    assert ran == [0, 3, *range(len(COSTS))]
    assert forks
    assert_no_child_left()


def test_the_first_failing_pieces_error_is_raised(monkeypatch, forks):
    # piece 3 fails here and piece 1 in a child; a serial run fails at 1
    cpus(monkeypatch, 3)
    run, ran = recorder(fail={1, 3})
    with pytest.raises(ValueError, match="^piece 1$"):
        run_pieces(run, COSTS)
    assert ran == [0, 3, 0, 1]
    assert forks
    assert_no_child_left()


def test_one_group_passes_the_error_through_without_forking(monkeypatch,
                                                            forks):
    cpus(monkeypatch, 1)
    run, ran = recorder(fail={1, 3})
    with pytest.raises(ValueError, match="^piece 1$"):
        run_pieces(run, COSTS)
    assert ran == [0, 1]
    assert not forks


def test_fork_beside_a_native_thread_raises_no_warning(monkeypatch, forks):
    # a thread started outside the threading module, like a native BLAS
    # pool, is not counted by threading.active_count(); Python 3.12 warns
    # on a fork while such a thread runs
    release, done = _thread.allocate_lock(), _thread.allocate_lock()
    release.acquire()
    done.acquire()

    def wait():
        with release:
            pass
        done.release()

    _thread.start_new_thread(wait, ())
    cpus(monkeypatch, 3)
    try:
        assert threading.active_count() == 1
        run, _ = recorder()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_pieces(run, COSTS)
    finally:
        release.release()
        assert done.acquire(timeout=10)
    assert [i for i, _ in results] == list(range(len(COSTS)))
    assert len(forks) == 2
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert_no_child_left()
