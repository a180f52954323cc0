import os
import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).resolve().parent))

from fusionkit import forking  # noqa: E402

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
