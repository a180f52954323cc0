"""refine split over forked workers: the same bytes as a serial run.

``cmd_refine`` cuts its input into runs of lines that
``forking.run_pieces`` shares between workers; the CPU probe, and for
small inputs the lines per run, are patched to force either path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import threading
import warnings

import pytest

from fusionkit import cli, forking
from fusionkit.refinery import RefineReport

from conftest import (
    _crash,
    _in_child,
    _raise,
    _truncate,
    assert_no_child_left,
    cpus,
)

RECORDS = 2400


def _record(rnd: random.Random, i: int) -> dict | None:
    # every 60th record is invalid (a null turn value or a list id) and is
    # returned as None
    if i % 60 == 7:
        return None
    x1, y1 = rnd.randint(0, 1500), rnd.randint(0, 800)
    x2 = x1 + rnd.randint(-20, 300)  # some inverted, some past the image
    y2 = y1 + rnd.randint(1, 120)
    question = (f"<|camera_front|> Where is <ref>the car</ref> "
                f"{rnd.randint(1, 60)}.{rnd.randint(0, 99):02d} m away?")
    if i % 13 == 0:
        question += " (café   façade)"  # valid UTF-8 beyond ASCII
    answer = (f"At <box>({x1},{y1}),({x2},{y2})</box>, moving at "
              f"{rnd.uniform(0, 20):.2f} m/s.")
    return {"id": f"r{i:05d}", "conversation": [
        {"role": "human", "value": question},
        {"role": "assistant", "value": answer}]}


def _corpus_bytes(records: int) -> tuple[bytes, list[int]]:
    """CRLF-terminated JSONL with a blank line before every 25th record,
    and the 1-based line numbers of its invalid records."""
    rnd = random.Random(17)
    lines, invalid = [], []
    for i in range(records):
        if i % 25 == 24:
            lines.append("")
        row = _record(rnd, i)
        if row is None:
            invalid.append(len(lines) + 1)
            row = ({"id": i, "conversation": [{"role": "human", "value": None}]}
                   if i % 120 == 7 else
                   {"id": [i], "conversation": [{"role": "human", "value": "Hi"}]})
        lines.append(json.dumps(row, ensure_ascii=False))
    return "".join(line + "\r\n" for line in lines).encode("utf-8"), invalid


def refine(path, out_dir) -> tuple:
    """Exit code, stdout, stderr, refined.jsonl and refine.json of one run."""
    out_dir.mkdir(exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(["refine", "--input", str(path),
                       "--output", str(out_dir / "refined.jsonl"),
                       "--report", str(out_dir / "refine.json"),
                       "--image-size", "1600x900", "--quantize-decimals"])
    outputs = [(out_dir / name).read_bytes() if (out_dir / name).exists()
               else None for name in ("refined.jsonl", "refine.json")]
    return (rc, stdout.getvalue(), stderr.getvalue(), *outputs)


def serial_refine(path, out_dir) -> tuple:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forking, "_cpu_count", lambda: 1)
        return refine(path, out_dir)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The corpus path, its invalid records' line numbers, and the result
    of refining it serially."""
    d = tmp_path_factory.mktemp("corpus")
    data, invalid = _corpus_bytes(RECORDS)
    path = d / "records.jsonl"
    path.write_bytes(data)
    return path, invalid, serial_refine(path, d / "serial")


def test_corpus_is_what_the_tests_need(corpus):
    path, invalid, serial = corpus
    rc, stdout, stderr, _, report = serial
    assert rc == 3 and stderr == ""
    assert stdout.endswith(f" {len(invalid)} invalid of {RECORDS} records\n")
    assert b'"out_of_range"' in report and b'"inverted"' in report
    assert b"grounding_lost_all_boxes" in report


@pytest.mark.parametrize("n_cpus", [2, 4])
def test_forked_refine_matches_serial(monkeypatch, forks, tmp_path, corpus,
                                      n_cpus):
    path, invalid, serial = corpus
    lines = cli._read_lines(str(path))
    runs = cli._line_runs(lines, len(lines) // cli._MIN_LINES_PER_WORKER)
    assert len(runs) == 9
    for start, stop in runs:  # each run holds invalid records
        assert any(start < line <= stop for line in invalid)
    cpus(monkeypatch, n_cpus)
    assert refine(path, tmp_path) == serial
    assert len(forks) == n_cpus - 1
    assert_no_child_left()


@pytest.mark.parametrize("bad, message", [
    (b'{"id": "x", "conversation": [', "not valid JSON: "),
    (b'\xff\xfe{"id": "x"}', "not valid UTF-8\n"),
], ids=["not-json", "not-utf8"])
def test_bad_line_in_the_last_run_exits_2_naming_its_line(
        monkeypatch, forks, tmp_path, corpus, bad, message):
    path, _, _ = corpus
    lines = path.read_bytes().split(b"\r\n")
    lineno = len(lines) - 3  # the last run, as line numbers count from 1
    lines[lineno - 1] = bad
    broken = tmp_path / "broken.jsonl"
    broken.write_bytes(b"\r\n".join(lines))
    serial = serial_refine(broken, tmp_path / "serial")
    assert serial[0] == 2
    assert serial[2].startswith(f"error: {broken}:{lineno}: {message}")
    cpus(monkeypatch, 2)
    assert refine(broken, tmp_path / "forked") == serial
    assert forks
    assert_no_child_left()


@pytest.mark.parametrize("owner, name, fail", [
    (cli, "refine_records", _crash),
    (cli, "refine_records", _raise),
    (forking.pickle, "dumps", _truncate),
])
def test_failed_worker_falls_back_to_serial(monkeypatch, forks, tmp_path,
                                            corpus, owner, name, fail):
    path, _, serial = corpus
    cpus(monkeypatch, 2)
    monkeypatch.setattr(owner, name, _in_child(getattr(owner, name), fail))
    assert refine(path, tmp_path) == serial
    assert forks
    assert_no_child_left()


# small inputs: the minimum is patched so that 40 lines make two workers


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_MIN_LINES_PER_WORKER", 20)
    data, _ = _corpus_bytes(39)  # 39 records and one blank line
    assert data.count(b"\r\n") == 40
    path = tmp_path / "small.jsonl"
    path.write_bytes(data)
    return path, serial_refine(path, tmp_path / "serial")


def test_small_input_forks_at_twice_the_minimum(monkeypatch, forks, tmp_path,
                                                small):
    path, serial = small
    cpus(monkeypatch, 2)
    assert refine(path, tmp_path / "forked") == serial
    assert len(forks) == 1
    monkeypatch.setattr(cli, "_MIN_LINES_PER_WORKER", 21)
    assert refine(path, tmp_path / "below") == serial
    assert len(forks) == 1
    assert_no_child_left()


def test_no_fork_while_another_thread_is_alive(monkeypatch, forks, tmp_path,
                                               small):
    path, serial = small
    cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert refine(path, tmp_path / "threaded") == serial
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not forks


def test_no_fork_on_one_cpu_or_without_sched_getaffinity(monkeypatch, forks,
                                                         tmp_path, small):
    path, serial = small
    probe = forking._cpu_count
    cpus(monkeypatch, 1)
    assert refine(path, tmp_path / "one") == serial
    monkeypatch.setattr(forking, "_cpu_count", probe)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert probe() == 1
    assert refine(path, tmp_path / "none") == serial
    assert not forks


def test_forked_refine_raises_no_warning(monkeypatch, forks, tmp_path, small):
    # Python 3.12 warns on a fork while the process runs other threads
    path, serial = small
    cpus(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert refine(path, tmp_path / "forked") == serial
    assert forks
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


# ------------------------------------------------------------- the pieces


def test_line_runs_cut_whole_lines_of_about_equal_size():
    lines = [f"{'x' * (i % 7)}\n" for i in range(1000)]
    total = sum(map(len, lines))
    for runs in (2, 3, 8):
        got = cli._line_runs(lines, runs)
        assert len(got) == runs
        assert got[0][0] == 0 and got[-1][1] == len(lines)
        assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
        for start, stop in got:
            size = sum(map(len, lines[start:stop]))
            assert abs(size - total / runs) <= 8
    assert cli._line_runs(lines, 1) == [(0, 1000)]
    assert cli._line_runs(lines, 0) == [(0, 1000)]
    assert cli._line_runs([], 0) == [(0, 0)]


def test_refine_report_merge_adds_every_count():
    a = RefineReport(input_count=3, kept=2, dropped=1,
                     box_drops={"inverted": 1, "zero_area": 2},
                     record_drops={"grounding_lost_all_boxes": 1},
                     boxes_normalized=4, decimals_converted=5)
    b = RefineReport(input_count=2, kept=2, box_drops={"inverted": 3,
                                                       "out_of_range": 1},
                     boxes_normalized=1, decimals_converted=1)
    a.merge(b)
    assert a.to_dict() == {
        "input_count": 5, "kept": 4, "dropped": 1,
        "box_drops": {"inverted": 4, "out_of_range": 1, "zero_area": 2},
        "record_drops": {"grounding_lost_all_boxes": 1},
        "boxes_normalized": 5, "decimals_converted": 6,
    }
    assert b.box_drops == {"inverted": 3, "out_of_range": 1}
