"""eval planning scored over forked workers: the same bytes as a serial run.

``_eval_planning`` cuts the GT file into runs of lines that
``forking.run_pieces`` shares between workers; the CPU probe and the
lines per run are patched to force either path on a small corpus.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import threading
import tracemalloc
import warnings

import pytest

from fusionkit import cli, forking
from fusionkit.driving_eval import planning_record_from_dict

from conftest import (
    EDGE_EOLS,
    EDGE_IDS,
    _crash,
    _in_child,
    _raise,
    _truncate,
    assert_no_child_left,
    cpus,
    edge_file,
)

SAMPLES = 120
LINES_PER_RUN = 20  # patched minimum: the corpus's 132 lines make 6 runs


def _agents(rnd: random.Random, plan: list) -> list | None:
    # one or two agents per snapshot near the waypoint, so that some
    # samples collide; some rows carry no agents, or null
    roll = rnd.random()
    if roll < 0.1:
        return None
    return [[{"cx": x + rnd.uniform(-6, 6), "cy": y + rnd.uniform(-3, 3),
              "length": rnd.uniform(3, 5), "width": rnd.uniform(1.5, 2.5),
              "heading": rnd.uniform(-3.2, 3.2)}
             for _ in range(rnd.randint(0, 2))] for x, y in plan]


def _corpus_rows(samples: int) -> tuple[list[dict], list[dict]]:
    """Prediction rows in shuffled order and GT rows in file order."""
    rnd = random.Random(23)
    preds, gts = [], []
    for i in range(samples):
        sample_id = f"é{i:05d}" if i % 17 == 3 else f"p{i:05d}"  # some non-ASCII
        x = y = 0.0
        plan = []
        for _ in range(6):
            x, y = x + rnd.uniform(0.5, 3.0), y + rnd.uniform(-0.6, 0.6)
            plan.append([x, y])
        gt = {"sample_id": sample_id, "trajectory": plan}
        agents = _agents(rnd, plan)
        if agents is not None or i % 2:
            gt["agents"] = agents
        gts.append(gt)
        preds.append({"sample_id": sample_id, "trajectory": [
            [px + rnd.gauss(0, 0.8), py + rnd.gauss(0, 0.4)] for px, py in plan]})
    rnd.shuffle(preds)
    return preds, gts


def _jsonl_bytes(rows: list[dict | bytes]) -> bytes:
    """CRLF-terminated JSONL with a blank line before every 10th row; a
    bytes row is written as it is."""
    out = []
    for i, row in enumerate(rows):
        if i % 10 == 9:
            out.append(b"")
        out.append(row if isinstance(row, bytes)
                   else json.dumps(row, ensure_ascii=False).encode("utf-8"))
    return b"".join(line + b"\r\n" for line in out)


def _line_of(record: int) -> int:
    """The 1-based GT line of record ``record`` in ``_jsonl_bytes``."""
    return record + 1 + (record + 1) // 10


def planning(pred, gt, out_dir) -> tuple:
    """Exit code, stdout (the CSV), stderr and planning.json of one run."""
    out_dir.mkdir(exist_ok=True)
    report = out_dir / "planning.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(["eval", "planning", "--pred", str(pred), "--gt", str(gt),
                       "--json", str(report)])
    return (rc, stdout.getvalue(), stderr.getvalue(),
            report.read_bytes() if report.exists() else None)


def serial_planning(pred, gt, out_dir) -> tuple:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forking, "_cpu_count", lambda: 1)
        return planning(pred, gt, out_dir)


@pytest.fixture
def corpus(monkeypatch, tmp_path):
    """A function that writes prediction and GT rows as JSONL files and
    returns their paths. The lines per run are patched so that the whole
    corpus makes six runs."""
    monkeypatch.setattr(cli, "_MIN_LINES_PER_WORKER", LINES_PER_RUN)

    def files(preds, gts, name="corpus"):
        pred, gt = tmp_path / f"{name}_pred.jsonl", tmp_path / f"{name}_gt.jsonl"
        pred.write_bytes(_jsonl_bytes(preds))
        gt.write_bytes(_jsonl_bytes(gts))
        return pred, gt
    return files


def _forked_matches_serial(monkeypatch, forks, tmp_path, pred, gt,
                           n_cpus=2) -> tuple:
    serial = serial_planning(pred, gt, tmp_path / "serial")
    cpus(monkeypatch, n_cpus)
    assert planning(pred, gt, tmp_path / "forked") == serial
    assert len(forks) == n_cpus - 1
    assert_no_child_left()
    return serial


@pytest.mark.parametrize("n_cpus", [2, 4])
def test_forked_planning_matches_serial(monkeypatch, forks, tmp_path, corpus,
                                        n_cpus):
    preds, gts = _corpus_rows(SAMPLES)
    pred, gt = corpus(preds, gts)
    assert len(cli._line_runs(len(cli._line_starts(str(gt))) - 1)) == 6
    rc, csv_text, stderr, report = _forked_matches_serial(
        monkeypatch, forks, tmp_path, pred, gt, n_cpus)
    monkeypatch.setattr(cli, "_MIN_LINES_PER_WORKER", 10**6)
    assert planning(pred, gt, tmp_path / "one-run") == (
        rc, csv_text, stderr, report)
    assert rc == 0 and stderr == ""
    doc = json.loads(report)
    assert doc["sample_count"] == SAMPLES
    assert 0 < doc["collision"]["3s"] < 100  # some samples collide
    assert csv_text.startswith(",".join(cli.PLANNING_CSV_HEADER) + "\n")


def test_bad_gt_record_in_a_later_run_names_its_record(monkeypatch, forks,
                                                       tmp_path, corpus):
    preds, gts = _corpus_rows(SAMPLES)
    gts[97]["trajectory"] = gts[97]["trajectory"][:5]
    pred, gt = corpus(preds, gts)
    rc, _, stderr, report = _forked_matches_serial(
        monkeypatch, forks, tmp_path, pred, gt)
    assert (rc, report) == (3, None)
    assert stderr == (f"validation error: {gt} record 97: "
                      "a plan needs 6 waypoints, got 5\n")


@pytest.mark.parametrize("bad, message", [
    (b'{"sample_id": "x", "trajectory": [', "not valid JSON: "),
    (b'\xff\xfe{"sample_id": "x"}', "not valid UTF-8\n"),
], ids=["not-json", "not-utf8"])
def test_bad_gt_line_in_a_later_run_exits_2_naming_its_line(
        monkeypatch, forks, tmp_path, corpus, bad, message):
    preds, gts = _corpus_rows(SAMPLES)
    gts[3]["trajectory"] = []  # an invalid record before it does not count
    gts[110] = bad
    pred, gt = corpus(preds, gts)
    rc, _, stderr, _ = _forked_matches_serial(
        monkeypatch, forks, tmp_path, pred, gt)
    assert rc == 2
    assert stderr.startswith(f"error: {gt}:{_line_of(110)}: {message}")


def test_duplicate_gt_id_across_runs(monkeypatch, forks, tmp_path, corpus):
    preds, gts = _corpus_rows(SAMPLES)
    lost = gts[100]["sample_id"]
    gts[100]["sample_id"] = gts[5]["sample_id"]  # the first and last runs
    preds = [p for p in preds if p["sample_id"] != lost]
    pred, gt = corpus(preds, gts)
    rc, _, stderr, _ = _forked_matches_serial(
        monkeypatch, forks, tmp_path, pred, gt)
    assert rc == 3
    assert stderr == f"validation error: duplicate GT ids: ['{gts[5]['sample_id']}']\n"


def test_many_invalid_records_over_runs_are_named_in_record_order(
        monkeypatch, forks, tmp_path, corpus):
    preds, gts = _corpus_rows(SAMPLES)
    for i in range(1, SAMPLES, 4):  # 30 invalid records, in every run
        gts[i]["sample_id"] = None if i % 8 == 1 else [i]
    pred, gt = corpus(preds, gts)
    rc, _, stderr, _ = _forked_matches_serial(
        monkeypatch, forks, tmp_path, pred, gt)
    assert rc == 3
    lines = stderr.splitlines()
    assert len(lines) == 22
    assert lines[0] == (f"validation error: {gt} record 1: "
                        "sample_id must be a string or an integer, got None")
    assert lines[1] == (f"{gt} record 5: "
                        "sample_id must be a string or an integer, got [5]")
    assert lines[20].startswith(f"{gt} record 81: ")
    assert lines[21] == "… and 9 more invalid records"


@pytest.mark.parametrize("owner, name, fail", [
    (cli, "collision_counts", _crash),
    (cli, "l2_error", _raise),
    (forking.pickle, "dumps", _truncate),
])
def test_failed_worker_falls_back_to_serial(monkeypatch, forks, tmp_path,
                                            corpus, owner, name, fail):
    pred, gt = corpus(*_corpus_rows(SAMPLES))
    serial = serial_planning(pred, gt, tmp_path / "serial")
    cpus(monkeypatch, 2)
    monkeypatch.setattr(owner, name, _in_child(getattr(owner, name), fail))
    assert planning(pred, gt, tmp_path / "forked") == serial
    assert forks
    assert_no_child_left()


def test_no_fork_while_another_thread_is_alive(monkeypatch, forks, tmp_path,
                                               corpus):
    pred, gt = corpus(*_corpus_rows(SAMPLES))
    serial = serial_planning(pred, gt, tmp_path / "serial")
    cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert planning(pred, gt, tmp_path / "threaded") == serial
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not forks


def test_forked_planning_raises_no_warning(monkeypatch, forks, tmp_path,
                                           corpus):
    # Python 3.12 warns on a fork while the process runs other threads
    pred, gt = corpus(*_corpus_rows(SAMPLES))
    serial = serial_planning(pred, gt, tmp_path / "serial")
    cpus(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert planning(pred, gt, tmp_path / "forked") == serial
    assert forks
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


# ------------------------------------------------- where the runs are cut
# twelve GT lines, patched to four per run: (0, 4), (4, 8), (8, 12). Line
# 4, the second run's first, and line 7, its last, are blank; a long field
# of four-byte characters holds the file's byte midpoint


EDGE_LINES_PER_RUN = 4
EDGE_BLANK = (4, 7)
EDGE_RECORDS = 10


def _edge_gt_bytes(gts: list[dict], eol: bytes, last_eol: bool,
                   bad: tuple[int, bytes] | None = None) -> bytes:
    """``gts`` on the twelve lines but the blank ones, as ``edge_file``
    writes them, with line ``bad[0]`` replaced by ``bad[1]``."""
    rows = iter(gts)
    lines = [b"" if line in EDGE_BLANK else
             json.dumps(next(rows), ensure_ascii=False).encode("utf-8")
             for line in range(12)]
    if bad is not None:
        lines[bad[0]] = bad[1]
    return edge_file(lines, eol, last_eol)


def _edge_corpus(tmp_path, eol, last_eol, bad=None, invalid=()) -> tuple:
    """Prediction and GT paths of ten samples; the GT records in
    ``invalid`` lose their sample_id."""
    preds, gts = _corpus_rows(EDGE_RECORDS)
    gts[4]["note"] = " 🚗" * 400  # on line 5
    for i in invalid:
        gts[i]["sample_id"] = [i]
    pred, gt = tmp_path / "edge_pred.jsonl", tmp_path / "edge_gt.jsonl"
    pred.write_bytes(_jsonl_bytes(preds))
    gt.write_bytes(_edge_gt_bytes(gts, eol, last_eol, bad))
    return pred, gt


def _edge_plannings(monkeypatch, tmp_path, pred, gt) -> tuple:
    """One serial, one forked and one single-run planning eval of ``gt``,
    which must agree; the serial result."""
    monkeypatch.setattr(cli, "_MIN_LINES_PER_WORKER", EDGE_LINES_PER_RUN)
    serial = serial_planning(pred, gt, tmp_path / "serial")
    cpus(monkeypatch, 2)
    assert planning(pred, gt, tmp_path / "forked") == serial
    monkeypatch.setattr(cli, "_MIN_LINES_PER_WORKER", 10**6)
    assert planning(pred, gt, tmp_path / "one-run") == serial
    assert_no_child_left()
    return serial


@pytest.mark.parametrize("eol, last_eol", EDGE_EOLS, ids=EDGE_IDS)
def test_run_cuts_keep_every_sample(monkeypatch, forks, tmp_path, eol,
                                    last_eol):
    pred, gt = _edge_corpus(tmp_path, eol, last_eol)
    rc, csv_text, stderr, report = _edge_plannings(monkeypatch, tmp_path,
                                                   pred, gt)
    assert forks
    assert (rc, stderr) == (0, "")
    assert json.loads(report)["sample_count"] == EDGE_RECORDS
    reference = tmp_path / "reference_gt.jsonl"
    _, gts = _corpus_rows(EDGE_RECORDS)
    reference.write_bytes(_jsonl_bytes(gts))
    assert planning(pred, reference, tmp_path / "reference")[:2] == (
        rc, csv_text)


@pytest.mark.parametrize("eol, last_eol", EDGE_EOLS, ids=EDGE_IDS)
def test_run_cuts_keep_record_indices(monkeypatch, forks, tmp_path, eol,
                                      last_eol):
    # 0-based GT lines 1, 6 and 10
    pred, gt = _edge_corpus(tmp_path, eol, last_eol, invalid=(1, 5, 8))
    rc, _, stderr, report = _edge_plannings(monkeypatch, tmp_path, pred, gt)
    assert (rc, report) == (3, None)
    assert stderr == "".join(
        f"{'validation error: ' if i == 1 else ''}{gt} record {i}: "
        f"sample_id must be a string or an integer, got [{i}]\n"
        for i in (1, 5, 8))


@pytest.mark.parametrize("eol, last_eol", EDGE_EOLS, ids=EDGE_IDS)
@pytest.mark.parametrize("line, bad, message", [
    (9, b'{"sample_id": "x", "trajectory": [', "not valid JSON: "),
    (11, b'\xff\xfe{"sample_id": "x"}', "not valid UTF-8\n"),
], ids=["not-json-in-the-last-run", "not-utf8-on-the-last-line"])
def test_run_cuts_keep_line_numbers(monkeypatch, forks, tmp_path, eol,
                                    last_eol, line, bad, message):
    pred, gt = _edge_corpus(tmp_path, eol, last_eol, (line, bad))
    rc, _, stderr, _ = _edge_plannings(monkeypatch, tmp_path, pred, gt)
    assert rc == 2
    assert stderr.startswith(f"error: {gt}:{line + 1}: {message}")


# ---------------------------------------------- memory against input size


def _in_runs_peak(path) -> int:
    # tracemalloc's peak over decoding and counting every run of the file
    gc.collect()  # so that no earlier garbage or collector state moves it
    tracemalloc.start()
    try:
        cli._in_runs(str(path), planning_record_from_dict, len)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_in_runs_peak_does_not_grow_with_the_file(monkeypatch, tmp_path):
    # on one CPU, a GT file of N = 1024 lines (1.1 MB, 4 runs) and one of
    # 4N. Held at the peak: one scan read, the lines' offsets (8 bytes
    # each) and one run's bytes, lines and records, so 4N may cost at most
    # half as much again as N. Measured: 1.07 times; holding every line of
    # the file, as before, measured 3.0 times
    cpus(monkeypatch, 1)
    peaks = []
    for samples in (1024, 4 * 1024):
        _, gts = _corpus_rows(samples)
        path = tmp_path / f"gt_{samples}.jsonl"
        path.write_bytes(b"".join(json.dumps(row).encode() + b"\n"
                                  for row in gts))
        peaks.append(_in_runs_peak(path))
    assert peaks[1] < 1.5 * peaks[0]
