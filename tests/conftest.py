import os
import sys
import threading
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).resolve().parent))

from fusionkit import forking  # noqa: E402


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail a test that leaves a thread it started alive: while a second
    Python thread runs, ``forking.run_pieces`` forks nothing, so later
    fork tests would silently run serial."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"test left threads alive: {', '.join(left)}")


# ------------------------------------------- pieces split over processes
# forking.run_pieces runs its first group of pieces here and each other
# group in a forked child; the CPU probe is patched to force either path


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made while the test runs."""
    calls = []
    real = os.fork

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def cpus(monkeypatch, n):
    monkeypatch.setattr(forking, "_cpu_count", lambda: n)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_child(real, fail):
    # `real`, except that a forked child calls `fail` in its place
    parent = os.getpid()

    def wrapped(*a, **kw):
        if os.getpid() != parent:
            return fail(real, *a, **kw)
        return real(*a, **kw)
    return wrapped


def _crash(real, *a, **kw):
    os._exit(3)


def _raise(real, *a, **kw):
    raise RuntimeError("worker failed")


def _truncate(real, *a, **kw):
    return real(*a, **kw)[:-5]


# ------------------------------------------- where runs of lines are cut
# the line ends of the run-cut cases, each with and without a last one


EDGE_EOLS = [(b"\n", True), (b"\r\n", True), (b"\r", True), (b"\n", False),
             (b"\r\n", False), (b"\r", False)]
EDGE_IDS = ["lf", "crlf", "cr", "lf-no-last-eol", "crlf-no-last-eol",
            "cr-no-last-eol"]


def edge_file(lines: list[bytes], eol: bytes, last_eol: bool) -> bytes:
    """``lines`` ended by ``eol``, the last one only if ``last_eol``, with
    as many spaces after the first line (up to seven) as put the file's
    byte midpoint inside a four-byte character of a long line of them."""
    for pad in range(8):
        data = (eol.join([lines[0] + b" " * pad, *lines[1:]])
                + (eol if last_eol else b""))
        middle = data[len(data) // 2 - 3:len(data) // 2 + 4]
        if middle[3] & 0xC0 == 0x80 and "🚗".encode() in middle:
            return data
    raise AssertionError("no padding puts the midpoint inside a character")
