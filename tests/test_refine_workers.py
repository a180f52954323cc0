"""refine split over forked workers: the same bytes as a serial run.

``cmd_refine`` cuts its input into runs of lines that
``forking.run_pieces`` shares between workers; the CPU probe, and for
small inputs the lines per run, are patched to force either path.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import threading
import tracemalloc
import warnings

import pytest

from fusionkit import cli, forking
from fusionkit.refinery import RefineReport

from conftest import (
    EDGE_EOLS,
    EDGE_IDS,
    PAST_PARSER_LIMITS,
    PAST_PARSER_LIMITS_IDS,
    _crash,
    _in_child,
    _raise,
    _truncate,
    assert_no_child_left,
    cpus,
    edge_file,
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
    # the generator's invalid records: an int id every 120th, a list id
    # (listed as null) in between
    assert [(e["record_index"], e["id"])
            for e in json.loads(report)["validation_errors"]] == [
        (i, str(i) if i % 120 == 7 else None)
        for i in range(RECORDS) if i % 60 == 7]


@pytest.mark.parametrize("n_cpus", [2, 4])
def test_forked_refine_matches_serial(monkeypatch, forks, tmp_path, corpus,
                                      n_cpus):
    path, invalid, serial = corpus
    runs = cli._line_runs(len(cli._line_starts(str(path))) - 1)
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
    *[(bad, "not valid JSON: ") for bad in PAST_PARSER_LIMITS],
], ids=["not-json", "not-utf8", *PAST_PARSER_LIMITS_IDS])
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


# ------------------------------------------------- where the runs are cut
# twelve lines, patched to four per run: (0, 4), (4, 8), (8, 12). Line 4,
# the second run's first, and line 7, its last, are blank; a long line of
# four-byte characters holds the file's byte midpoint


EDGE_LINES_PER_RUN = 4
EDGE_INVALID = (1, 6, 10)  # 0-based lines; records 1, 5 and 8
EDGE_BLANK = (4, 7)


def _edge_rows() -> list[dict | None]:
    rnd = random.Random(5)
    rows: list[dict | None] = []
    for line in range(12):
        if line in EDGE_BLANK:
            rows.append(None)
        elif line in EDGE_INVALID:
            rows.append({"id": [line], "conversation": [
                {"role": "human", "value": "Hi"}]})
        else:
            row = _record(rnd, line + 1)
            if line == 5:
                row["conversation"][0]["value"] += " 🚗" * 150
            rows.append(row)
    return rows


def _edge_bytes(eol: bytes, last_eol: bool,
                bad: tuple[int, bytes] | None = None) -> bytes:
    """The twelve lines as ``edge_file`` writes them, with line ``bad[0]``
    replaced by ``bad[1]``."""
    lines = [b"" if row is None else
             json.dumps(row, ensure_ascii=False).encode("utf-8")
             for row in _edge_rows()]
    if bad is not None:
        lines[bad[0]] = bad[1]
    return edge_file(lines, eol, last_eol)


def _edge_refines(monkeypatch, tmp_path, data: bytes) -> tuple:
    """One serial, one forked and one single-run refine of ``data``, which
    must agree; the path and the serial result."""
    path = tmp_path / "edge.jsonl"
    path.write_bytes(data)
    monkeypatch.setattr(cli, "_MIN_LINES_PER_WORKER", EDGE_LINES_PER_RUN)
    serial = serial_refine(path, tmp_path / "serial")
    cpus(monkeypatch, 2)
    assert refine(path, tmp_path / "forked") == serial
    monkeypatch.setattr(cli, "_MIN_LINES_PER_WORKER", 10**6)
    assert refine(path, tmp_path / "one-run") == serial
    assert_no_child_left()
    return path, serial


@pytest.mark.parametrize("eol, last_eol", EDGE_EOLS, ids=EDGE_IDS)
def test_run_cuts_keep_records_and_their_indices(monkeypatch, forks,
                                                 tmp_path, eol, last_eol):
    _, (rc, stdout, stderr, refined, report) = _edge_refines(
        monkeypatch, tmp_path, _edge_bytes(eol, last_eol))
    assert forks
    assert (rc, stderr) == (3, "")
    assert stdout.endswith(" 3 invalid of 10 records\n")
    rows = _edge_rows()
    kept = [json.loads(line)["id"] for line in refined.decode().splitlines()]
    assert kept == [row["id"] for row in rows
                    if row is not None and isinstance(row["id"], str)]
    assert r"\ud83d\ude97" in refined.decode()  # the long line's record
    assert [(e["record_index"], e["id"])
            for e in json.loads(report)["validation_errors"]] == [
        (1, None), (5, None), (8, None)]


@pytest.mark.parametrize("eol, last_eol", EDGE_EOLS, ids=EDGE_IDS)
@pytest.mark.parametrize("line, bad, message", [
    (9, b'{"id": "x", "conversation": [', "not valid JSON: "),
    (11, b'\xff\xfe{"id": "x"}', "not valid UTF-8\n"),
    *[(9, bad, "not valid JSON: ") for bad in PAST_PARSER_LIMITS],
], ids=["not-json-in-the-last-run", "not-utf8-on-the-last-line",
        *PAST_PARSER_LIMITS_IDS])
def test_run_cuts_keep_line_numbers(monkeypatch, forks, tmp_path, eol,
                                    last_eol, line, bad, message):
    path, (rc, _, stderr, refined, _) = _edge_refines(
        monkeypatch, tmp_path, _edge_bytes(eol, last_eol, (line, bad)))
    assert (rc, refined) == (2, None)
    assert stderr.startswith(f"error: {path}:{line + 1}: {message}")


# ---------------------------------------------- memory against input size


def _refine_peak(path, out_dir) -> tuple[int, int]:
    """tracemalloc's peak over one refine of ``path``, and the size of the
    refined.jsonl it wrote."""
    out_dir.mkdir()
    gc.collect()  # so that no earlier garbage or collector state moves it
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["refine", "--input", str(path),
                             "--output", str(out_dir / "refined.jsonl"),
                             "--report", str(out_dir / "refine.json"),
                             "--image-size", "1600x900"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, (out_dir / "refined.jsonl").stat().st_size


def test_refine_peak_grows_by_less_than_its_output(monkeypatch, tmp_path):
    # on one CPU, from N = 1200 to 4N records. Held at the peak: the input's
    # line offsets, one run's bytes and records, every run's refined text
    # (the output once) and the writer's buffer, so the peak may grow by
    # the output's growth and half as much again, never by a second copy.
    # Measured: 1.00 times the output's growth (1.31 from 600 to 2400,
    # where the tuples the interpreter keeps for reuse still add up);
    # holding the whole input, the joined output and its encoded copy, as
    # before, measured 2.2 times
    cpus(monkeypatch, 1)
    measured = []
    for records in (1200, 4800):
        path = tmp_path / f"records_{records}.jsonl"
        path.write_bytes(_corpus_bytes(records)[0])
        measured.append(_refine_peak(path, tmp_path / f"out_{records}"))
    (peak_n, out_n), (peak_4n, out_4n) = measured
    assert peak_4n - peak_n < 1.5 * (out_4n - out_n)


# ------------------------------------------------------------- the pieces


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
