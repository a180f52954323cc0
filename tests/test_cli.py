"""End-to-end tests for the command-line toolchain."""

from __future__ import annotations

import argparse
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

from fusionkit import cli
from fusionkit.cli import (
    InputError,
    _make_client,
    _read_jsonl,
    build_parser,
    demo_params,
    main,
)
from fusionkit.config import Config
from fusionkit.interactor import (
    BevFeatureMap,
    InstructionEmbedding,
    SelectionConfig,
    ViewFeatureSet,
    fuse,
)
from fusionkit.matrix import Matrix, load_fkmx, save_fkmx
from fusionkit.risk_qa import PipelineConfig

from conftest import PAST_PARSER_LIMITS, PAST_PARSER_LIMITS_IDS
from test_driving_eval import _ora_fixture, ora_sample_to_dict
from test_risk_qa import (
    EXPECTED_CATEGORIES,
    QA_RESPONSE_FIXTURE,
    RISK_RESPONSE_FIXTURE,
    _seed_replay,
    seven_car_scene,
)


def write_jsonl(path, rows) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def scene_to_dict(scene) -> dict:
    objects = []
    for o in scene.objects:
        d = {"category": o.category, "bearing": o.bearing,
             "distance": o.distance, "view": o.view}
        if o.box is not None:
            d["box"] = [o.box.x1, o.box.y1, o.box.x2, o.box.y2]
        objects.append(d)
    return {"scene_id": scene.scene_id, "objects": objects}


# ------------------------------------------------------------------- usage


def test_usage_errors_exit_64(capsys) -> None:
    assert main(["no-such-command"]) == 64
    assert main(["budget"]) == 64  # missing required flags
    assert main(["eval", "caption", "--pred", "x"]) == 64  # missing --gt
    assert main(["budget", "--view-tokens", "abc", "--bev-tokens", "5"]) == 64
    for size in ("16", ""):  # not WIDTHxHEIGHT
        assert main(["refine", "--input", "x", "--output", "y",
                     "--image-size", size]) == 64
    # only "" is the empty list; a blank item among commas does not parse
    for argv in (["budget", "--bev-tokens", "5", "--view-tokens"],
                 ["mask-exp", "--views", "v", "--candidates", "c", "--rates"],
                 ["interactor-demo", "--views", "v", "--bev", "b",
                  "--instruction", "i", "--out", "o", "--bev-grid"],
                 ["eval", "grounding", "--pred", "p", "--gt", "g",
                  "--iou-thresholds"]):
        for value in ("5,,5", "5,", ","):
            assert main([*argv, value]) == 64, (argv[-1], value)
    capsys.readouterr()


# ------------------------------------------------------------------ budget


def test_budget_paper_constants(tmp_path, capsys) -> None:
    out = tmp_path / "budget.json"
    rc = main([
        "budget", "--view-tokens", "576,576,576,576,576,576",
        "--bev-tokens", "2500", "--json", str(out),
    ])
    assert rc == 0
    assert "(ratio 0.1410)" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["fused_length"] == 840
    assert doc["raw_length"] == 5956
    assert doc["ratio"] == pytest.approx(840 / 5956, abs=0.0)


def test_budget_saturation_ratio_one(capsys) -> None:
    assert main(["budget", "--view-tokens", "10,20", "--bev-tokens", "30"]) == 0
    assert "(ratio 1.0000)" in capsys.readouterr().out


def test_budget_zero_views_exit_2(capsys) -> None:
    assert main(["budget", "--view-tokens", "", "--bev-tokens", "5"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------------ refine


REFINE_RECORDS = [
    {"id": "a", "conversation": [
        {"role": "human", "value": "Where is the <ref>car</ref>?"},
        {"role": "assistant", "value": "At <box>(10,20),(30,40)</box>."}]},
    {"id": "b", "conversation": [
        {"role": "human", "value": "Find the <ref>truck</ref>"},
        {"role": "assistant", "value": "At <box>(2000,1),(5,5)</box>."}]},
]


def test_refine_clean_run_and_idempotence(tmp_path) -> None:
    src = tmp_path / "in.jsonl"
    write_jsonl(src, REFINE_RECORDS)
    out = tmp_path / "out.jsonl"
    rep = tmp_path / "rep.json"
    argv = ["refine", "--input", str(src), "--output", str(out),
            "--report", str(rep)]
    assert main(argv) == 0
    first_out = out.read_bytes()
    first_rep = rep.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first_out
    assert rep.read_bytes() == first_rep

    doc = json.loads(first_rep)
    # hand audit: record b's only box is out of range; the question has
    # grounding tags, so the record is dropped
    assert doc["refine"] == {
        "input_count": 2, "kept": 1, "dropped": 1,
        "box_drops": {"out_of_range": 1},
        "record_drops": {"grounding_lost_all_boxes": 1},
        "boxes_normalized": 0, "decimals_converted": 0,
    }
    assert doc["validation_errors"] == []
    assert doc["provenance"]["tool_version"]
    assert doc["provenance"]["effective_config"]["short_answer_threshold"] == 5
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["id"] for r in rows] == ["a"]
    assert rows[0]["answer_class"] == "short"


def test_refine_validation_failure_exit_3(tmp_path) -> None:
    src = tmp_path / "in.jsonl"
    write_jsonl(src, REFINE_RECORDS + [
        {"id": "c", "conversation": [
            {"role": "human", "value": "Hi"},
            {"role": "assistant", "value": "<box>(bad)</box>"}]},
    ])
    out = tmp_path / "out.jsonl"
    rep = tmp_path / "rep.json"
    rc = main(["refine", "--input", str(src), "--output", str(out),
               "--report", str(rep)])
    assert rc == 3
    doc = json.loads(rep.read_text())
    assert len(doc["validation_errors"]) == 1
    assert doc["validation_errors"][0]["id"] == "c"
    # valid records still refined
    assert len(out.read_text().splitlines()) == 1


@pytest.mark.parametrize("missing", ["role", "value"])
def test_refine_turn_missing_key_names_record(tmp_path, missing) -> None:
    turn = {"role": "human", "value": "Hi"}
    del turn[missing]
    src = tmp_path / "in.jsonl"
    write_jsonl(src, [{"id": "ok", "conversation": [{"role": "human", "value": "Hi"}]},
                      {"id": "bad", "conversation": [turn]}])
    out = tmp_path / "out.jsonl"
    rep = tmp_path / "rep.json"
    rc = main(["refine", "--input", str(src), "--output", str(out),
               "--report", str(rep)])
    assert rc == 3
    invalid = json.loads(rep.read_text())["validation_errors"]
    assert [(e["record_index"], e["id"]) for e in invalid] == [(1, "bad")]
    assert repr(missing) in invalid[0]["error"]
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["ok"]


def test_refine_ids_are_strings_or_integers(tmp_path) -> None:
    ids = ["s", 7, None, True, 1.5, [1], {"id": 1}]
    src = tmp_path / "in.jsonl"
    write_jsonl(src, [{"id": i, "conversation": [{"role": "human", "value": "Hi"}]}
                      for i in ids])
    out = tmp_path / "out.jsonl"
    rep = tmp_path / "rep.json"
    rc = main(["refine", "--input", str(src), "--output", str(out),
               "--report", str(rep)])
    assert rc == 3
    invalid = json.loads(rep.read_text())["validation_errors"]
    assert [e["record_index"] for e in invalid] == [2, 3, 4, 5, 6]
    assert all("id must be a string or an integer" in e["error"] for e in invalid)
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == [
        "s", "7"]


def test_refine_lists_invalid_ids_as_read(tmp_path) -> None:
    bad_turn = [{"role": "human", "value": None}]
    rows = [{"id": 7, "conversation": bad_turn},
            {"id": "s", "conversation": bad_turn},
            {"id": None, "conversation": [{"role": "human", "value": "Hi"}]},
            {"id": [1], "conversation": [{"role": "human", "value": "Hi"}]},
            {"conversation": [{"role": "human", "value": "Hi"}]}]
    src = tmp_path / "in.jsonl"
    write_jsonl(src, rows)
    rep = tmp_path / "rep.json"
    rc = main(["refine", "--input", str(src), "--output", str(tmp_path / "out.jsonl"),
               "--report", str(rep)])
    assert rc == 3
    invalid = json.loads(rep.read_text())["validation_errors"]
    assert [e["id"] for e in invalid] == ["7", "s", None, None, None]
    assert "turn value must be a string" in invalid[0]["error"]


def test_refine_empty_input(tmp_path) -> None:
    src = tmp_path / "in.jsonl"
    src.write_text("")
    out = tmp_path / "out.jsonl"
    assert main(["refine", "--input", str(src), "--output", str(out)]) == 0
    assert out.read_text() == ""


def test_refine_unreadable_input_exit_2(tmp_path, capsys) -> None:
    rc = main(["refine", "--input", str(tmp_path / "absent.jsonl"),
               "--output", str(tmp_path / "o.jsonl")])
    assert rc == 2
    capsys.readouterr()


def test_refine_options_flow_through(tmp_path) -> None:
    src = tmp_path / "in.jsonl"
    write_jsonl(src, [{
        "id": "p", "conversation": [
            {"role": "human", "value": "Where?"},
            {"role": "assistant",
             "value": "At 4.18 m: <box>(0,0),(1599,899)</box>"}],
    }])
    out = tmp_path / "out.jsonl"
    rc = main(["refine", "--input", str(src), "--output", str(out),
               "--image-size", "1600x900", "--quantize-decimals",
               "--source", "nuinstruct"])
    assert rc == 0
    row = json.loads(out.read_text())
    assert row["source_dataset"] == "nuinstruct"
    assert "<box>(0,0),(999,999)</box>" in row["conversation"][1]["value"]
    assert "4.18" not in row["conversation"][1]["value"]
    assert " 4 m" in row["conversation"][1]["value"]


@pytest.mark.parametrize("box, size, want", [
    # a corner too large for a float lands on the grid's edge
    ("(0,0),(" + "9" * 400 + ",5)", "1600x900", "<box>(0,0),(999,6)</box>"),
    # a side too large for a float maps the box to (0,0),(0,0): zero area
    ("(0,0),(10,5)", "9" * 400 + "x900", None),
], ids=["huge-corner", "huge-side"])
def test_refine_image_size_past_float_range(tmp_path, capsys, box, size,
                                            want) -> None:
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_jsonl(src, [{"id": "p", "conversation": [
        {"role": "human", "value": "Where?"},
        {"role": "assistant", "value": f"At <box>{box}</box>."}]}])
    report = tmp_path / "report.json"
    rc = main(["refine", "--input", str(src), "--output", str(out),
               "--report", str(report), "--image-size", size])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in captured.err
    value = json.loads(out.read_text())["conversation"][1]["value"]
    doc = json.loads(report.read_text())["refine"]
    if want is None:
        assert "<box>" not in value
        assert doc["box_drops"] == {"zero_area": 1}
    else:
        assert want in value
        assert doc["box_drops"] == {}


def test_refine_decimal_out_of_range_is_a_drop(tmp_path, capsys) -> None:
    src = tmp_path / "in.jsonl"
    write_jsonl(src, [
        {"id": "big", "conversation": [
            {"role": "human", "value": "How far?"},
            {"role": "assistant", "value": "about 99999999999999999999.5 m"}]},
        *REFINE_RECORDS,
    ])
    report = tmp_path / "report.json"
    rc = main(["refine", "--input", str(src), "--output",
               str(tmp_path / "out.jsonl"), "--report", str(report),
               "--quantize-decimals"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "refine: 1 kept, 2 dropped, 0 invalid of 3 records\n")
    doc = json.loads(report.read_text())["refine"]
    assert doc["record_drops"] == {"decimal_out_of_range": 1,
                                   "grounding_lost_all_boxes": 1}


# ------------------------------------------------------------- gen-risk-qa


def test_gen_risk_qa_replay(tmp_path, capsys) -> None:
    scene = seven_car_scene()
    replay = tmp_path / "replay"
    replay.mkdir()
    _seed_replay(replay, PipelineConfig(), scene, RISK_RESPONSE_FIXTURE,
                 QA_RESPONSE_FIXTURE)
    scenes = tmp_path / "scenes.jsonl"
    write_jsonl(scenes, [scene_to_dict(scene)])
    out_qa = tmp_path / "qa.jsonl"
    out_g = tmp_path / "grounding.jsonl"
    rep = tmp_path / "rep.json"
    argv = ["gen-risk-qa", "--scenes", str(scenes), "--mock", str(replay),
            "--out-qa", str(out_qa), "--out-grounding", str(out_g),
            "--report", str(rep)]
    assert main(argv) == 0
    capsys.readouterr()

    pairs = [json.loads(line) for line in out_qa.read_text().splitlines()]
    assert len(pairs) == 6
    assert [p["qa_category"] for p in pairs] == EXPECTED_CATEGORIES
    targets = [json.loads(line) for line in out_g.read_text().splitlines()]
    assert targets == [{"scene_id": "scene-0001",
                        "box": [380, 420, 520, 610], "view": "front"}]
    doc = json.loads(rep.read_text())
    assert doc["run"]["scenes_failed"] == []
    assert doc["run"]["retries"] == 0

    # rerun is byte-identical
    qa_bytes = out_qa.read_bytes()
    g_bytes = out_g.read_bytes()
    rep_bytes = rep.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out_qa.read_bytes() == qa_bytes
    assert out_g.read_bytes() == g_bytes
    assert rep.read_bytes() == rep_bytes


def test_gen_risk_qa_missing_endpoint_exit_2(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.delenv("FK_API_ENDPOINT", raising=False)
    scenes = tmp_path / "scenes.jsonl"
    write_jsonl(scenes, [{"scene_id": "s", "objects": []}])
    rc = main(["gen-risk-qa", "--scenes", str(scenes),
               "--out-qa", str(tmp_path / "q.jsonl"),
               "--out-grounding", str(tmp_path / "g.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--endpoint" in err and "endpoint config key" in err
    assert "FK_API_ENDPOINT" in err


def test_make_client_config_endpoint_before_env(monkeypatch) -> None:
    monkeypatch.setenv("FK_API_ENDPOINT", "http://env.example/v1")
    client = _make_client(argparse.Namespace(mock=None),
                          Config(endpoint="http://config.example/v1"))
    assert client.endpoint == "http://config.example/v1"


def test_make_client_keeps_api_key_with_endpoint(monkeypatch) -> None:
    monkeypatch.setenv("FK_API_KEY", "secret")
    monkeypatch.delenv("FK_API_ENDPOINT", raising=False)
    client = _make_client(
        argparse.Namespace(mock=None),
        Config(endpoint="http://flag.example/v1", timeout=7.5),
    )
    assert client.endpoint == "http://flag.example/v1"
    assert client.api_key == "secret"
    assert client.timeout == 7.5


def test_make_client_env_endpoint_takes_config_timeout(monkeypatch) -> None:
    monkeypatch.setenv("FK_API_ENDPOINT", "http://env.example/v1")
    monkeypatch.setenv("FK_API_KEY", "k2")
    client = _make_client(argparse.Namespace(mock=None), Config(timeout=3.0))
    assert client.endpoint == "http://env.example/v1"
    assert client.api_key == "k2"
    assert client.timeout == 3.0


def test_gen_risk_qa_all_scenes_failed_exit_3(tmp_path, capsys) -> None:
    # empty replay directory: every completion misses
    replay = tmp_path / "replay"
    replay.mkdir()
    scenes = tmp_path / "scenes.jsonl"
    write_jsonl(scenes, [scene_to_dict(seven_car_scene())])
    rc = main(["gen-risk-qa", "--scenes", str(scenes), "--mock", str(replay),
               "--out-qa", str(tmp_path / "q.jsonl"),
               "--out-grounding", str(tmp_path / "g.jsonl"),
               "--report", str(tmp_path / "r.json")])
    assert rc == 3
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["run"]["scenes_failed"] == ["scene-0001"]
    capsys.readouterr()


def test_gen_risk_qa_empty_scenes(tmp_path, capsys) -> None:
    replay = tmp_path / "replay"
    replay.mkdir()
    scenes = tmp_path / "scenes.jsonl"
    scenes.write_text("")
    rc = main(["gen-risk-qa", "--scenes", str(scenes), "--mock", str(replay),
               "--out-qa", str(tmp_path / "q.jsonl"),
               "--out-grounding", str(tmp_path / "g.jsonl")])
    assert rc == 0
    assert (tmp_path / "q.jsonl").read_text() == ""
    capsys.readouterr()


# -------------------------------------------------------------------- eval


def test_read_jsonl_splits_on_newlines_only(tmp_path) -> None:
    # U+2028 and U+0085 are legal unescaped inside JSON strings
    path = tmp_path / "in.jsonl"
    path.write_text('{"a": "x\u2028y"}\r\n\n{"a": "z\u0085"}\n', encoding="utf-8")
    assert _read_jsonl(str(path), dict) == [{"a": "x\u2028y"}, {"a": "z\u0085"}]
    path.write_text('{"a": 1}\n\n{"a": \n', encoding="utf-8")
    with pytest.raises(InputError, match=r"in\.jsonl:3: not valid JSON"):
        _read_jsonl(str(path), dict)
    with pytest.raises(InputError, match="cannot read"):
        _read_jsonl(str(tmp_path / "absent.jsonl"), dict)


def test_every_invalid_record_named_in_one_run(tmp_path, capsys) -> None:
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [{"id": "a", "caption": "x"}, {"id": None, "caption": "x"},
                       {"id": "c", "caption": 5}, {"id": "d", "caption": "x"},
                       {"caption": "x"}])
    write_jsonl(gt, [{"id": "a", "references": ["x"]}])
    rc = main(["eval", "caption", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"validation error: {pred} record 1: id must be a string or an "
        "integer, got None\n"
        f"{pred} record 2: caption must be a string, got 5\n"
        f"{pred} record 4: record missing required key 'id'\n")


def test_invalid_records_past_21_are_counted(tmp_path, capsys) -> None:
    pred = tmp_path / "pred.jsonl"
    write_jsonl(pred, [{"id": str(i), "caption": i} for i in range(30)])
    rc = main(["eval", "caption", "--pred", str(pred), "--gt", str(pred)])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 22
    assert lines[20] == f"{pred} record 20: caption must be a string, got 20"
    assert lines[21] == "… and 9 more invalid records"


@pytest.mark.parametrize("command", ["refine", "caption"])
def test_invalid_utf8_line_exits_2_naming_its_line(tmp_path, capsys,
                                                   command) -> None:
    # one valid record, then a line that starts with the bytes ff fe
    if command == "refine":
        first = {"id": "a", "conversation": [{"role": "human", "value": "Hi"}]}
    else:
        first = {"id": "a", "caption": "a car", "references": ["a car"]}
    path = tmp_path / "in.jsonl"
    path.write_bytes(json.dumps(first).encode() + b'\n\xff\xfe{"id": "b"}\n')
    if command == "refine":
        argv = ["refine", "--input", str(path),
                "--output", str(tmp_path / "out.jsonl")]
    else:
        argv = ["eval", "caption", "--pred", str(path), "--gt", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}:2: not valid UTF-8\n"


def test_read_jsonl_accepts_utf8_beyond_ascii(tmp_path) -> None:
    path = tmp_path / "in.jsonl"
    path.write_text('{"a": "café \U0001f697"}\n', encoding="utf-8")
    assert _read_jsonl(str(path), dict) == [{"a": "café \U0001f697"}]
    # an encoded lone surrogate is not UTF-8 either
    path.write_bytes(b'{"a": 1}\n{"a": "\xed\xa0\x80"}\n')
    with pytest.raises(InputError, match=r"in\.jsonl:2: not valid UTF-8$"):
        _read_jsonl(str(path), dict)


def test_in_runs_counts_lines_and_records_over_the_whole_file(
        monkeypatch, tmp_path) -> None:
    def decode(row):
        if row["a"] < 0:
            raise ValueError(f"a is {row['a']}")
        return row["a"]

    monkeypatch.setattr(cli, "_MIN_LINES_PER_WORKER", 3)
    assert cli._line_runs(7) == [(0, 3), (3, 7)]
    path = tmp_path / "in.jsonl"
    # line 2 is blank, so records 0-1 are in the first run and 2-5 in the
    # second
    rows = ['{"a": 1}', "", '{"a": -2}', '{"a": 3}', '{"a": -4}', '{"a": 5}',
            '{"a": -6}']
    path.write_text("\r\n".join(rows) + "\r\n", encoding="utf-8")
    scores, invalid = cli._in_runs(str(path), decode, list)
    assert scores == [[1], [3, 5]]
    assert invalid == [(1, {"a": -2}, "a is -2"), (3, {"a": -4}, "a is -4"),
                       (5, {"a": -6}, "a is -6")]
    rows[5] = "[5]"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"in\.jsonl:6: must hold a JSON object"):
        cli._in_runs(str(path), decode, list)


@pytest.mark.parametrize("chunk", [1, 2, 3, 64])
def test_line_starts_split_lines_as_text_mode_reading_does(
        monkeypatch, tmp_path, chunk) -> None:
    # \n, \r\n and a lone \r end a line, also when a read splits \r\n;
    # U+2028, U+0085, \x0b and \x0c do not (str.splitlines would split)
    rnd = random.Random(chunk)
    pieces = [b"a", b"\n", b"\r", b"\r\n", "\u2028\u0085\x0b\x0c".encode(),
              "é🚗".encode(), b"\xff"]
    monkeypatch.setattr(cli, "_SCAN_CHUNK", chunk)
    path = tmp_path / "in.jsonl"
    for size in (0, 1, 2, 40, 400):
        data = b"".join(rnd.choice(pieces) for _ in range(size))
        path.write_bytes(data)
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            lines = handle.readlines()
        starts = cli._line_starts(str(path))
        assert (starts[0], starts[-1], len(starts)) == (0, len(data),
                                                        len(lines) + 1)
        assert [list(cli._range_lines(str(path), a, b))
                for a, b in zip(starts, starts[1:])] == [[x] for x in lines]


@pytest.mark.parametrize("earlier", [b"an earlier run\n", None])
def test_write_text_leaves_the_target_as_it_was_when_a_chunk_fails(
        tmp_path, earlier) -> None:
    target = tmp_path / "out.jsonl"
    if earlier is not None:
        target.write_bytes(earlier)

    def chunks():
        yield "first\n"
        yield "x" * 100_000  # past the write buffer, so bytes reach the disk
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        cli._write_text(str(target), chunks())
    assert os.listdir(tmp_path) == ([] if earlier is None else ["out.jsonl"])
    if earlier is not None:
        assert target.read_bytes() == earlier


def test_unwritable_output_exits_2_naming_it(tmp_path, capsys) -> None:
    src = tmp_path / "in.jsonl"
    write_jsonl(src, REFINE_RECORDS)
    out = tmp_path / "missing" / "out.jsonl"
    assert main(["refine", "--input", str(src), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{out}'\n")
    assert os.listdir(tmp_path) == ["in.jsonl"]


def test_write_text_writes_through_a_symlink_and_into_a_fifo(tmp_path) -> None:
    real = tmp_path / "real.txt"
    real.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    cli._write_text(str(link), ["new\n"])
    assert link.is_symlink() and real.read_text() == "new\n"
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        cli._write_text(str(fifo), ["through ", "a pipe\n"])
        assert os.read(reader, 100) == b"through a pipe\n"
    finally:
        os.close(reader)
    assert sorted(os.listdir(tmp_path)) == ["fifo", "link.txt", "real.txt"]


def test_read_jsonl_names_the_record_a_decoder_rejects(tmp_path) -> None:
    def decode(row):
        if row["a"] < 0:
            raise ValueError("a must be nonnegative")
        return row["a"]

    path = tmp_path / "in.jsonl"
    path.write_text('{"a": 1}\n\n{"a": 2}\n{"a": -1}\n', encoding="utf-8")
    with pytest.raises(ValueError) as err:
        _read_jsonl(str(path), decode)
    # blank lines are not records: the third record sits on line 4
    assert str(err.value) == f"{path} record 2: a must be nonnegative"
    path.write_text('{"a": 1}\n[2]\n', encoding="utf-8")
    with pytest.raises(InputError, match=r"in\.jsonl:2: must hold a JSON object"):
        _read_jsonl(str(path), decode)


def test_eval_caption_identical_corpus_scores_100(tmp_path, capsys) -> None:
    rows = [{"id": str(i), "caption": f"sentence number {i} of the corpus"}
            for i in range(12)]
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, rows)
    write_jsonl(gt, [{"id": r["id"], "references": [r["caption"]]}
                     for r in rows])
    csv = tmp_path / "cap.csv"
    rc = main(["eval", "caption", "--pred", str(pred), "--gt", str(gt),
               "--csv", str(csv), "--json", str(tmp_path / "cap.json")])
    assert rc == 0
    header, values = csv.read_text().strip().split("\n")
    assert header == "BLEU1,BLEU2,BLEU3,BLEU4,CIDEr,ROUGE_L,ACC"
    cells = dict(zip(header.split(","), values.split(",")))
    assert cells["BLEU4"] == "100.0000"
    assert cells["ROUGE_L"] == "100.0000"
    assert cells["ACC"] == "100.0000"
    doc = json.loads((tmp_path / "cap.json").read_text())
    assert doc["scores"]["BLEU4"] == pytest.approx(100.0)
    assert doc["provenance"]["inputs"].keys() == {"pred", "gt"}
    capsys.readouterr()


def test_eval_caption_id_mismatch_lists_offenders(tmp_path, capsys) -> None:
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [{"id": "x", "caption": "a"}])
    write_jsonl(gt, [{"id": "y", "references": ["a"]}])
    rc = main(["eval", "caption", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "missing=['y']" in err and "extra=['x']" in err


def test_eval_duplicate_gt_id_exit_3(tmp_path, capsys) -> None:
    # a duplicated GT id is an error, not a silent last-row-wins
    plan = [[0.5 * i, 0.0] for i in range(1, 7)]
    cases = {
        "caption": ({"id": "a", "caption": "x"},
                    [{"id": "a", "references": ["x"]},
                     {"id": "a", "references": ["y"]}]),
        "planning": ({"sample_id": "a", "trajectory": plan},
                     [{"sample_id": "a", "trajectory": plan}] * 2),
    }
    for kind, (pred_row, gt_rows) in cases.items():
        pred = tmp_path / f"{kind}_pred.jsonl"
        gt = tmp_path / f"{kind}_gt.jsonl"
        write_jsonl(pred, [pred_row])
        write_jsonl(gt, gt_rows)
        rc = main(["eval", kind, "--pred", str(pred), "--gt", str(gt)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "validation error: duplicate GT ids: ['a']\n")


def test_eval_grounding_perfect_fixture(tmp_path, capsys) -> None:
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [
        {"image_id": "i1", "box": [0, 0, 99, 99], "score": 0.9, "label": "car"},
        {"image_id": "i2", "box": [10, 10, 40, 40], "score": 0.8, "label": "bus"},
    ])
    write_jsonl(gt, [
        {"image_id": "i1", "box": [0, 0, 99, 99], "label": "car"},
        {"image_id": "i2", "box": [10, 10, 40, 40], "label": "bus"},
    ])
    rc = main(["eval", "grounding", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "mAP,AP@0.5\n100.0000,100.0000\n"


def test_eval_grounding_repeated_threshold_exit_2(tmp_path, capsys) -> None:
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [{"image_id": "i1", "box": [0, 0, 99, 99],
                        "score": 0.9, "label": "car"}])
    write_jsonl(gt, [{"image_id": "i1", "box": [0, 0, 99, 99], "label": "car"}])
    rc = main(["eval", "grounding", "--pred", str(pred), "--gt", str(gt),
               "--iou-thresholds", "0.5,0.5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: iou_thresholds ")


def test_eval_grounding_unknown_image_exit_3(tmp_path, capsys) -> None:
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [{"image_id": "ghost", "box": [0, 0, 9, 9],
                        "score": 0.5, "label": "car"}])
    write_jsonl(gt, [{"image_id": "i1", "box": [0, 0, 9, 9], "label": "car"}])
    rc = main(["eval", "grounding", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 3
    assert "ghost" in capsys.readouterr().err


def test_eval_planning_constant_offset(tmp_path, capsys) -> None:
    pred_plan = [[0.5 * i, 0.0] for i in range(1, 7)]
    gt_plan = [[0.5 * i, 1.0] for i in range(1, 7)]
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [{"sample_id": "s1", "trajectory": pred_plan}])
    write_jsonl(gt, [{"sample_id": "s1", "trajectory": gt_plan}])
    for mode in ("at_horizon", "up_to_horizon"):
        rc = main(["eval", "planning", "--pred", str(pred), "--gt", str(gt),
                   "--l2-mode", mode])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == (
            "1.0000,1.0000,1.0000,1.0000,0.0000,0.0000,0.0000,0.0000"
        )


def test_eval_planning_collision_with_agents(tmp_path, capsys) -> None:
    plan = [[0.5 * i, 0.0] for i in range(1, 7)]
    agents = [[] for _ in range(6)]
    # an agent sitting right on waypoint 3 (the 2 s horizon)
    agents[3] = [{"cx": 2.0, "cy": 0.0, "length": 4.0, "width": 2.0,
                  "heading": 0.0}]
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [{"sample_id": "s1", "trajectory": plan}])
    write_jsonl(gt, [{"sample_id": "s1", "trajectory": plan,
                      "agents": agents}])
    rc = main(["eval", "planning", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 0
    out = capsys.readouterr().out
    cells = out.splitlines()[1].split(",")
    assert cells[4:] == ["0.0000", "100.0000", "100.0000", "66.6667"]


def test_eval_planning_gt_without_agents_is_collision_free(tmp_path, capsys):
    # the ego sits where a GT agent would be; without agents nothing collides
    plan = [[0.5 * i, 0.0] for i in range(1, 7)]
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [{"sample_id": "s1", "trajectory": plan},
                       {"sample_id": "s2", "trajectory": plan}])
    write_jsonl(gt, [{"sample_id": "s1", "trajectory": plan},
                     {"sample_id": "s2", "trajectory": plan, "agents": None}])
    rc = main(["eval", "planning", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    assert cells[4:] == ["0.0000"] * 4


AGENT = {"cx": 2.0, "cy": 0.0, "length": 4.0, "width": 2.0, "heading": 0.0}


@pytest.mark.parametrize(
    "agents, reason",
    [
        ([None, [AGENT], [], [], [], []], "agents[0] must be a list"),
        ([[], [AGENT, 7], [], [], [], []], "agents[1] must hold agent objects"),
        ([[], [], {"cx": 1.0}, [], [], []], "agents[2] must be a list"),
        ([[AGENT], [], [], [], []], "agent snapshots misaligned: got 5, need 6"),
        ([[], [], [], [{**AGENT, "cx": None}], [], []],
         "agent box fields must be numbers"),
    ],
    ids=["null-snapshot", "non-dict-agent", "non-list-snapshot",
         "five-snapshots", "null-field"],
)
def test_eval_planning_malformed_agents_exit_3(tmp_path, capsys, agents, reason):
    plan = [[0.5 * i, 0.0] for i in range(1, 7)]
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [{"sample_id": "s1", "trajectory": plan}])
    write_jsonl(gt, [{"sample_id": "s1", "trajectory": plan, "agents": agents}])
    rc = main(["eval", "planning", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {gt} record 0: ")
    assert reason in err
    assert "Traceback" not in err


def test_eval_ora_counting_fixture(tmp_path, capsys) -> None:
    preds, gts = _ora_fixture()
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [ora_sample_to_dict(s) for s in preds])
    write_jsonl(gt, [ora_sample_to_dict(s) for s in gts])
    rc = main(["eval", "ora", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "exist,level,cate,object\n60.0000,50.0000,75.0000,100.0000\n"
    # gating mode flag flows through
    rc = main(["eval", "ora", "--pred", str(pred), "--gt", str(gt),
               "--gating", "all_gt_true"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("60.0000,28.5714")


def test_eval_ora_degenerate_gate_prints_na(tmp_path, capsys) -> None:
    gts = [{"sample_id": "a", "exist": True, "level": "low",
            "category": "potential_risk", "object": "car"}]
    preds = [{"sample_id": "a", "exist": False}]
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, preds)
    write_jsonl(gt, gts)
    rc = main(["eval", "ora", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1] == "0.0000,N/A,N/A,N/A"


def test_eval_ora_id_mismatch_exit_3(tmp_path, capsys) -> None:
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [{"sample_id": "a", "exist": False}])
    write_jsonl(gt, [{"sample_id": "b", "exist": False}])
    rc = main(["eval", "ora", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "'b'" in err and "'a'" in err


def test_eval_ora_duplicate_prediction_id_exit_3(tmp_path, capsys) -> None:
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(pred, [{"sample_id": "1", "exist": False}] * 2)
    write_jsonl(gt, [{"sample_id": "1", "exist": False}])
    rc = main(["eval", "ora", "--pred", str(pred), "--gt", str(gt)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "validation error: duplicate prediction ids: ['1']\n")


BOX = {"image_id": "i1", "box": [0, 0, 9, 9], "label": "car"}
DET = {**BOX, "score": 0.5}
ORA = {"sample_id": "1", "exist": False}
ORA_RISK = {"sample_id": "1", "exist": True, "level": "low",
            "category": "potential_risk", "object": "car"}
RECORD = {"id": "r1", "conversation": [{"role": "human", "value": "Hi"}]}
SCENE_OBJECT = {"category": "car", "bearing": "ahead", "distance": 5}
PLAN = {"sample_id": "1", "trajectory": [[0.5 * i, 0.0] for i in range(1, 7)]}
EGO = {"lateral_velocity": 0.0, "longitudinal_velocity": 2.0,
       "lateral_acceleration": 0.0, "longitudinal_acceleration": 0.0,
       "command": "GO STRAIGHT"}


def _agents(**fields) -> list:
    return [[{**AGENT, **fields}], [], [], [], [], []]


@pytest.mark.parametrize(
    "command, record, gt",
    [
        ("grounding", {**DET, "box": [0, 0, None, 9]}, BOX),
        ("grounding", {**DET, "score": None}, BOX),
        ("grounding", DET, {**BOX, "box": [0, 0, None, 9]}),
        ("grounding", {**DET, "box": [0, 0, 9.9, 9]}, BOX),
        ("grounding", {**DET, "box": [0, 0, True, 9]}, BOX),
        ("grounding", {**DET, "score": "0.5"}, BOX),
        ("grounding", {**DET, "score": True}, BOX),
        ("grounding", {**DET, "image_id": ["i1"]}, BOX),
        ("grounding", DET, {**BOX, "image_id": {"i1": 1}}),
        ("grounding", {**DET, "label": None}, BOX),
        ("grounding", {**DET, "label": 7}, BOX),
        ("grounding", DET, {**BOX, "label": None}),
        ("grounding", DET, {**BOX, "label": 7}),
        ("caption", {"id": "1", "caption": "a"}, {"id": "1", "references": 5}),
        ("caption", {"id": "1", "caption": "a cat"},
         {"id": "1", "references": "a cat"}),
        ("caption", {"id": "1", "caption": "None"}, {"id": "1", "references": [None]}),
        ("caption", {"id": "1", "caption": None}, {"id": "1", "references": ["None"]}),
        ("caption", {"id": None, "caption": "a"}, {"id": "None", "references": ["a"]}),
        ("caption", {"id": "True", "caption": "a"}, {"id": True, "references": ["a"]}),
        ("caption", {"id": 1.0, "caption": "a"}, {"id": "1.0", "references": ["a"]}),
        # a falsy references of the wrong type is not an absent one: it must
        # not fall back to the row's caption
        ("caption", {"id": "1", "caption": "a"},
         {"id": "1", "references": False, "caption": "a"}),
        ("caption", {"id": "1", "caption": "a"},
         {"id": "1", "references": 0, "caption": "a"}),
        ("caption", {"id": "1", "caption": "a"},
         {"id": "1", "references": "", "caption": "a"}),
        ("caption", {"id": "1", "caption": "a"},
         {"id": "1", "references": {}, "caption": "a"}),
        ("planning", {**PLAN, "trajectory": ["12"] * 6}, PLAN),
        ("planning", {**PLAN, "trajectory": [["0.5", True]] * 6}, PLAN),
        ("planning", PLAN, {**PLAN, "agents": _agents(cx="2.0")}),
        ("planning", PLAN, {**PLAN, "agents": _agents(width=True)}),
        ("planning", {**PLAN, "sample_id": None}, {**PLAN, "sample_id": "None"}),
        ("ora", {**ORA, "grounding": [1, 2, None, 4]}, ORA),
        # bool("false") is True: a loose reading scores this as a risk call
        ("ora", {**ORA_RISK, "exist": "false"}, ORA),
        ("ora", {**ORA_RISK, "object": 5}, {**ORA_RISK, "object": "5"}),
        ("ora", {**ORA, "sample_id": [1]}, {**ORA, "sample_id": "[1]"}),
        ("refine", {**RECORD, "conversation": ["Hi"]}, None),
        ("refine", {**RECORD, "trajectory": [1, 2, 3]}, None),
        ("refine", {**RECORD, "ego_status": 5}, None),
        ("refine", {**RECORD, "trajectory": ["12"] * 6}, None),
        ("refine", {**RECORD, "trajectory_points": [[0, 0, 0], ["3", 1, 1]]}, None),
        ("refine", {**RECORD, "ego_status": {**EGO, "lateral_velocity": "2.0"}},
         None),
        ("refine", {**RECORD, "ego_status": {**EGO, "lateral_velocity": False}},
         None),
        ("gen-risk-qa", {"scene_id": "s1", "objects": ["car"]}, None),
        ("gen-risk-qa", {"scene_id": "s1", "objects": [
            {**SCENE_OBJECT, "box": [0, 0, None, 9]}]}, None),
        ("gen-risk-qa", {"scene_id": "s1", "objects": [
            {**SCENE_OBJECT, "distance": 5.7}]}, None),
        ("gen-risk-qa", {"scene_id": "s1", "objects": [
            {**SCENE_OBJECT, "distance": True}]}, None),
        ("gen-risk-qa", {"scene_id": None, "objects": []}, None),
        # mask-exp reads one JSON object, given here as text; the third
        # item is the value the error must name
        ("mask-exp", '{"front": [1.9, true, "2"]}', "1.9"),
        ("mask-exp", '{"front": [0, true]}', "True"),
        ("mask-exp", '{"front": ["2"]}', "'2'"),
        ("mask-exp", '{"front": 5}', "5"),
        ("mask-exp", '{"front": [null]}', "None"),
        ("mask-exp", '{"front": [1e400]}', "inf"),
        # str() would make these an object named "None", "7" or "['car']"
        ("gen-risk-qa", {"scene_id": "s1", "objects": [
            {**SCENE_OBJECT, "category": None}]}, None),
        ("gen-risk-qa", {"scene_id": "s1", "objects": [
            {**SCENE_OBJECT, "category": 7}]}, None),
        ("gen-risk-qa", {"scene_id": "s1", "objects": [
            {**SCENE_OBJECT, "category": ["car"]}]}, None),
        ("ora", {**ORA_RISK, "reason": {"a": 1}}, ORA_RISK),
        ("ora", ORA, {**ORA, "reason": 5}),
    ],
    ids=["grounding-null-coord", "grounding-null-score", "grounding-gt-null-coord",
         "grounding-fractional-coord", "grounding-bool-coord",
         "grounding-string-score", "grounding-bool-score",
         "grounding-list-image-id", "grounding-gt-object-image-id",
         "grounding-null-label", "grounding-int-label",
         "grounding-gt-null-label", "grounding-gt-int-label",
         "caption-int-references", "caption-string-references",
         "caption-null-reference", "caption-null-caption",
         "caption-null-id", "caption-gt-bool-id", "caption-float-id",
         "caption-false-references", "caption-zero-references",
         "caption-empty-string-references", "caption-object-references",
         "planning-string-waypoints", "planning-string-bool-waypoint",
         "planning-gt-string-agent-field", "planning-gt-bool-agent-field",
         "planning-null-id",
         "ora-null-grounding", "ora-string-exist", "ora-int-object",
         "ora-list-id",
         "refine-string-turn",
         "refine-flat-trajectory", "refine-int-ego-status",
         "refine-string-waypoints", "refine-string-trajectory-point",
         "refine-string-ego-quantity", "refine-bool-ego-quantity",
         "risk-qa-string-object", "risk-qa-null-coord",
         "risk-qa-fractional-distance", "risk-qa-bool-distance",
         "risk-qa-null-scene-id",
         "mask-exp-fractional-index", "mask-exp-bool-index",
         "mask-exp-string-index", "mask-exp-int-indices",
         "mask-exp-null-index", "mask-exp-huge-index",
         "risk-qa-null-category", "risk-qa-int-category", "risk-qa-list-category",
         "ora-object-reason", "ora-gt-int-reason"],
)
def test_wrong_typed_json_exit_3(tmp_path, capsys, command, record, gt) -> None:
    first = tmp_path / "in.jsonl"
    if command == "mask-exp":
        first.write_text(record)
    else:
        write_jsonl(first, [record])
    report = tmp_path / "report.json"
    if command == "mask-exp":
        views, _, _ = _demo_inputs(tmp_path)
        argv = ["mask-exp", "--views", *views, "--candidates", str(first),
                "--csv", str(tmp_path / "m.csv")]
    elif command == "refine":
        argv = ["refine", "--input", str(first), "--report", str(report),
                "--output", str(tmp_path / "out.jsonl")]
    elif command == "gen-risk-qa":
        argv = ["gen-risk-qa", "--scenes", str(first), "--mock", str(tmp_path),
                "--out-qa", str(tmp_path / "qa.jsonl"),
                "--out-grounding", str(tmp_path / "g.jsonl")]
    else:
        second = tmp_path / "gt.jsonl"
        write_jsonl(second, [gt])
        argv = ["eval", command, "--pred", str(first), "--gt", str(second)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    if command == "refine":
        invalid = json.loads(report.read_text())["validation_errors"]
        assert [(e["record_index"], e["id"]) for e in invalid] == [(0, "r1")]
    elif command == "mask-exp":
        assert "view 'front'" in err and f" {gt} " in err
    else:
        assert "record 0: " in err


# every option that reads JSON text: a JSONL file or one JSON object
JSON_INPUTS = [("refine", "--input"), ("gen-risk-qa", "--scenes"),
               *[(kind, flag) for kind in ("caption", "grounding", "planning", "ora")
                 for flag in ("--pred", "--gt")],
               ("budget", "--config"), ("mask-exp", "--candidates")]


@pytest.mark.parametrize("bad", PAST_PARSER_LIMITS, ids=PAST_PARSER_LIMITS_IDS)
@pytest.mark.parametrize("command, option", JSON_INPUTS,
                         ids=[" ".join(pair) for pair in JSON_INPUTS])
def test_json_past_the_parser_limits_exits_2(tmp_path, capsys, command, option,
                                             bad) -> None:
    if command == "caption":
        pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
        write_jsonl(pred, [{"id": "a", "caption": "a car"}])
        write_jsonl(gt, [{"id": "a", "references": ["a car"]}])
        argv = ["eval", "caption", "--pred", str(pred), "--gt", str(gt)]
    elif command == "budget":
        argv = ["budget", "--view-tokens", "5", "--bev-tokens", "5",
                "--config", str(tmp_path / "cfg.json")]
    elif command == "mask-exp":
        views, _, _ = _demo_inputs(tmp_path)
        argv = ["mask-exp", "--views", *views, "--candidates",
                str(tmp_path / "cand.json"), "--csv", str(tmp_path / "m.csv")]
    else:
        argv = _command_with_report(tmp_path, command)[0]
    path = Path(argv[argv.index(option) + 1])
    if command in ("budget", "mask-exp"):
        where, data = path, bad
    else:  # a line after the file's valid records
        data = path.read_bytes()
        lineno = data.count(b"\n") + 1
        where, data = f"{path}:{lineno}", data + bad + b"\n"
    path.write_bytes(data)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {where}: not valid JSON: ")
    assert "Traceback" not in err


# --------------------------------------------------------- interactor-demo


def _demo_inputs(tmp_path, d: int = 8, seed: int = 11):
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(2):
        p = tmp_path / f"v{i}.fkmx"
        save_fkmx(Matrix(rng.standard_normal((12, d))), p)
        paths.append(str(p))
    bev = tmp_path / "bev.fkmx"
    save_fkmx(Matrix(rng.standard_normal((25, d))), bev)
    inst = tmp_path / "inst.fkmx"
    save_fkmx(Matrix(rng.standard_normal((3, d))), inst)
    return paths, str(bev), str(inst)


@pytest.mark.parametrize("command, flag, value", [
    ("budget", "--view-tokens", "-5,3"),
    ("mask-exp", "--rates", "-5,10"),
    ("interactor-demo", "--bev-grid", "-4,-4"),
    ("eval grounding", "--iou-thresholds", "-0.5,0.5"),
])
def test_negative_comma_list_is_a_value(tmp_path, capsys, command, flag,
                                        value) -> None:
    # "--flag -5,3" and "--flag=-5,3" reach the same value check
    views, bev, inst = _demo_inputs(tmp_path)
    candidates = tmp_path / "candidates.json"
    candidates.write_text('{"front": [0, 1]}')
    gt = tmp_path / "gt.jsonl"
    write_jsonl(gt, [{"image_id": "a", "box": [0, 0, 9, 9], "label": "car"}])
    argv = {
        "budget": ["budget", "--bev-tokens", "5"],
        "mask-exp": ["mask-exp", "--views", *views, "--candidates",
                     str(candidates), "--csv", str(tmp_path / "m.csv")],
        "interactor-demo": ["interactor-demo", "--views", *views, "--bev", bev,
                            "--instruction", inst,
                            "--out", str(tmp_path / "f.fkmx")],
        "eval grounding": ["eval", "grounding", "--pred", str(gt),
                           "--gt", str(gt)],
    }[command]
    results = []
    for tail in ([flag, value], [f"{flag}={value}"]):
        rc = main([*argv, *tail])
        results.append((rc, capsys.readouterr().err))
    assert results[0] == results[1]
    assert results[0][0] in (2, 3)


@pytest.mark.parametrize("command, flag, value", [
    ("budget", "--view-tokens", "-5,3"),
    ("budget", "--view-tokens", ""),
    ("budget", "--bev-tokens", "0"),
    ("interactor-demo", "--bev-grid", "-4,-4"),
    ("interactor-demo", "--bev-grid", ""),
    ("interactor-demo", "--bev-grid", "4"),
    ("interactor-demo", "--num-layers", "0"),
    ("interactor-demo", "--num-heads", "0"),
    ("mask-exp", "--rates", "-5,10"),
    ("mask-exp", "--rates", "10,101"),
    ("mask-exp", "--rates", ""),
    ("mask-exp", "--rates", "10,10"),
    ("refine", "--image-size", "1x5"),
    ("refine", "--source", "nope"),
])
def test_out_of_range_flag_exits_2_before_reading_input(tmp_path, capsys,
                                                        command, flag,
                                                        value) -> None:
    # the inputs do not exist: a flag checked after reading them would
    # fail on the read instead
    missing = str(tmp_path / "missing")
    argv = {
        "budget": ["budget", "--view-tokens", "5", "--bev-tokens", "5"],
        "interactor-demo": ["interactor-demo", "--views", missing, "--bev",
                            missing, "--instruction", missing,
                            "--out", str(tmp_path / "f.fkmx")],
        "mask-exp": ["mask-exp", "--views", missing, "--candidates", missing],
        "refine": ["refine", "--input", missing,
                   "--output", str(tmp_path / "out.jsonl")],
    }[command]
    rc = main([*argv, f"{flag}={value}"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {flag} must ")


def test_demo_heads_not_dividing_width_exit_3(tmp_path, capsys) -> None:
    views, bev, inst = _demo_inputs(tmp_path, d=8)
    rc = main(["interactor-demo", "--views", *views, "--bev", bev,
               "--instruction", inst, "--out", str(tmp_path / "f.fkmx"),
               "--num-heads", "3"])
    assert rc == 3
    capsys.readouterr()


def test_demo_matches_library_call_bit_exactly(tmp_path, capsys) -> None:
    views, bev, inst = _demo_inputs(tmp_path)
    out = tmp_path / "fused.fkmx"
    side = tmp_path / "side.json"
    rc = main(["interactor-demo", "--views", *views, "--bev", bev,
               "--instruction", inst, "--out", str(out),
               "--sidecar", str(side), "--k-img", "4", "--k-bev", "6",
               "--seed", "3"])
    assert rc == 0
    capsys.readouterr()

    view_set = ViewFeatureSet(views=tuple(load_fkmx(p) for p in views))
    bev_map = BevFeatureMap(tokens=load_fkmx(bev),
                            grid_shape=(load_fkmx(bev).rows, 1))
    inst_emb = InstructionEmbedding(tokens=load_fkmx(inst))
    attn_mv, attn_bev = demo_params(inst_emb.d, 2, 1, 3)
    expected = fuse(view_set, bev_map, inst_emb,
                    SelectionConfig(k_img=4, k_bev=6), attn_mv, attn_bev)
    got = load_fkmx(out)
    assert got.data.tobytes() == expected.tokens.data.tobytes()

    doc = json.loads(side.read_text())
    assert doc["budget"]["fused_length"] == 4 + 4 + 6
    assert doc["params"] == {"num_layers": 2, "num_heads": 1, "seed": 3}
    assert set(doc["provenance"]["inputs"]) == {
        "view0", "view1", "bev", "instruction"}

    # rerun: fused output byte-identical; sidecar identical after
    # dropping the wall-clock field
    fused_bytes = out.read_bytes()
    assert main(["interactor-demo", "--views", *views, "--bev", bev,
                 "--instruction", inst, "--out", str(out),
                 "--sidecar", str(side), "--k-img", "4", "--k-bev", "6",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    assert out.read_bytes() == fused_bytes
    doc2 = json.loads(side.read_text())
    doc.pop("timing_seconds")
    doc2.pop("timing_seconds")
    assert doc == doc2


def test_demo_bad_magic_exit_2(tmp_path, capsys) -> None:
    views, bev, inst = _demo_inputs(tmp_path)
    bad = tmp_path / "bad.fkmx"
    bad.write_bytes(b"JUNK" + b"\x00" * 16)
    rc = main(["interactor-demo", "--views", str(bad), "--bev", bev,
               "--instruction", inst, "--out", str(tmp_path / "f.fkmx")])
    assert rc == 2
    capsys.readouterr()


def test_demo_non_finite_view_names_its_file(tmp_path, capsys) -> None:
    views, bev, inst = _demo_inputs(tmp_path)
    bad = tmp_path / "nan.fkmx"
    data = np.ones((12, 8))
    data[3, 5] = np.nan
    # FKMX bytes written by hand: Matrix rejects the NaN before save_fkmx
    bad.write_bytes(b"FKMX" + np.array([12, 8], "<u4").tobytes()
                    + data.astype("<f8").tobytes())
    rc = main(["interactor-demo", "--views", views[0], str(bad), views[1],
               "--bev", bev, "--instruction", inst,
               "--out", str(tmp_path / "f.fkmx")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: matrix entries must be finite\n")
    assert not (tmp_path / "f.fkmx").exists()


def test_demo_shape_mismatch_exit_3(tmp_path, capsys) -> None:
    views, bev, _ = _demo_inputs(tmp_path, d=8)
    narrow = tmp_path / "narrow.fkmx"
    save_fkmx(Matrix.zeros(3, 4), narrow)  # d=4 against d=8 views
    rc = main(["interactor-demo", "--views", *views, "--bev", bev,
               "--instruction", str(narrow),
               "--out", str(tmp_path / "f.fkmx")])
    assert rc == 3
    capsys.readouterr()


# ----------------------------------------------------------------- mask-exp


def test_mask_exp_csv_deterministic(tmp_path, capsys) -> None:
    views, _, _ = _demo_inputs(tmp_path)
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"front": list(range(12))}))
    csv = tmp_path / "mask.csv"
    argv = ["mask-exp", "--views", *views, "--candidates", str(cand),
            "--csv", str(csv), "--seed", "7"]
    assert main(argv) == 0
    first = csv.read_bytes()
    assert main(argv) == 0
    assert csv.read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "Exp,Mask Rate,MAE,ACC,mAP,BLEU"
    assert len(lines) == 6
    assert lines[1].startswith("Exp.1,-,")
    capsys.readouterr()


def test_mask_exp_unknown_view_exit_3(tmp_path, capsys) -> None:
    views, _, _ = _demo_inputs(tmp_path)
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"rear": [0]}))
    rc = main(["mask-exp", "--views", *views, "--candidates", str(cand),
               "--csv", str(tmp_path / "m.csv")])
    assert rc == 3
    capsys.readouterr()


def test_mask_exp_candidates_not_utf8_exit_2(tmp_path, capsys) -> None:
    views, _, _ = _demo_inputs(tmp_path)
    cand = tmp_path / "cand.json"
    cand.write_bytes(b'{"front": [0], "note": "\xff"}')
    rc = main(["mask-exp", "--views", *views, "--candidates", str(cand),
               "--csv", str(tmp_path / "m.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cand}: not valid UTF-8\n"


# ------------------------------------------------------------------ config


def test_config_file_and_flag_precedence(tmp_path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_img": 2, "k_bev": 3}))
    assert main(["budget", "--view-tokens", "10,10", "--bev-tokens", "10",
                 "--config", str(cfg)]) == 0
    assert "fused 7 of 30" in capsys.readouterr().out
    # flag overrides the file
    assert main(["budget", "--view-tokens", "10,10", "--bev-tokens", "10",
                 "--config", str(cfg), "--k-img", "5"]) == 0
    assert "fused 13 of 30" in capsys.readouterr().out


def test_config_unknown_key_exit_2(tmp_path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_image": 2}))
    rc = main(["budget", "--view-tokens", "10", "--bev-tokens", "10",
               "--config", str(cfg)])
    assert rc == 2
    assert "k_image" in capsys.readouterr().err


def test_config_not_utf8_exit_2(tmp_path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"k_img": 2, "x": "\xff"}')
    rc = main(["budget", "--view-tokens", "5", "--bev-tokens", "5",
               "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}: not valid UTF-8\n"


# every (command, option) whose argparse dest is a Config field, with that
# field: the flag sets exactly the config key its dest names
FLAG_CONFIG_KEYS = {
    **{(command, "--seed"): "seed" for command in (
        "refine", "gen-risk-qa", "eval caption", "eval grounding",
        "eval planning", "eval ora", "interactor-demo", "mask-exp", "budget")},
    ("refine", "--short-threshold"): "short_answer_threshold",
    ("gen-risk-qa", "--endpoint"): "endpoint",
    ("gen-risk-qa", "--jobs"): "max_in_flight",
    ("gen-risk-qa", "--retries"): "retries",
    ("eval grounding", "--iou-thresholds"): "iou_thresholds",
    ("eval grounding", "--interpolation"): "ap_interpolation",
    ("eval planning", "--l2-mode"): "l2_mode",
    ("eval ora", "--gating"): "ora_gating",
    ("interactor-demo", "--k-img"): "k_img",
    ("interactor-demo", "--k-bev"): "k_bev",
    ("interactor-demo", "--reduction"): "reduction",
    ("budget", "--k-img"): "k_img",
    ("budget", "--k-bev"): "k_bev",
}


def _option_dests(parser: argparse.ArgumentParser, command: str = ""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _option_dests(sub, f"{command} {name}".strip())
        elif action.option_strings:
            yield command, action.option_strings[0], action.dest


def test_flag_dests_name_config_keys() -> None:
    keys = set(Config.__dataclass_fields__)
    found = {(command, option): dest
             for command, option, dest in _option_dests(build_parser())
             if dest in keys}
    assert found == FLAG_CONFIG_KEYS


def _command_with_report(tmp_path, command: str):
    report = tmp_path / "report.json"
    if command == "refine":
        src = tmp_path / "in.jsonl"
        write_jsonl(src, REFINE_RECORDS)
        return ["refine", "--input", str(src), "--output",
                str(tmp_path / "out.jsonl"), "--report", str(report)], report
    if command == "gen-risk-qa":
        replay = tmp_path / "replay"
        replay.mkdir()
        scenes = tmp_path / "scenes.jsonl"
        scenes.write_text("")
        return ["gen-risk-qa", "--scenes", str(scenes), "--mock", str(replay),
                "--out-qa", str(tmp_path / "q.jsonl"),
                "--out-grounding", str(tmp_path / "g.jsonl"),
                "--report", str(report)], report
    if command == "interactor-demo":
        views, bev, inst = _demo_inputs(tmp_path)
        return ["interactor-demo", "--views", *views, "--bev", bev,
                "--instruction", inst, "--out", str(tmp_path / "f.fkmx"),
                "--sidecar", str(report)], report
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    if command == "grounding":
        box = {"image_id": "i1", "box": [0, 0, 99, 99], "label": "car"}
        write_jsonl(pred, [{**box, "score": 0.9}])
        write_jsonl(gt, [box])
    elif command == "planning":
        plan = {"sample_id": "s1",
                "trajectory": [[0.5 * i, 0.0] for i in range(1, 7)]}
        write_jsonl(pred, [plan])
        write_jsonl(gt, [plan])
    else:
        preds, gts = _ora_fixture()
        write_jsonl(pred, [ora_sample_to_dict(s) for s in preds])
        write_jsonl(gt, [ora_sample_to_dict(s) for s in gts])
    return ["eval", command, "--pred", str(pred), "--gt", str(gt),
            "--json", str(report)], report


@pytest.mark.parametrize("command, flags, key, file_value, effective", [
    ("refine", ["--short-threshold", "7"], "short_answer_threshold", 3, 7),
    ("gen-risk-qa", ["--jobs", "3"], "max_in_flight", 1, 3),
    ("grounding", ["--interpolation", "all_point"], "ap_interpolation",
     "eleven_point", "all_point"),
    ("grounding", ["--iou-thresholds", "0.7,0.9"], "iou_thresholds", [0.5],
     [0.7, 0.9]),
    # an empty list is a value the key rejects, not an absent flag
    ("grounding", ["--iou-thresholds", ""], "iou_thresholds", [0.5], None),
    ("ora", ["--gating", "correct_exist"], "ora_gating", "all_gt_true",
     "correct_exist"),
    ("planning", ["--l2-mode", "at_horizon"], "l2_mode", "up_to_horizon",
     "at_horizon"),
    ("interactor-demo", ["--reduction", "max"], "reduction", "mean", "max"),
    # a value that parses but breaks the key's rule exits 2, as in the file
    ("grounding", ["--interpolation", "nope"], "ap_interpolation",
     "eleven_point", None),
    ("ora", ["--gating", "nope"], "ora_gating", "all_gt_true", None),
    ("planning", ["--l2-mode", "nope"], "l2_mode", "up_to_horizon", None),
    ("interactor-demo", ["--reduction", "nope"], "reduction", "mean", None),
], ids=["short-threshold", "jobs", "interpolation", "iou-thresholds",
        "iou-thresholds-empty", "gating", "l2-mode", "reduction",
        "interpolation-unknown", "gating-unknown", "l2-mode-unknown",
        "reduction-unknown"])
def test_flag_overrides_its_config_key(tmp_path, capsys, command, flags, key,
                                       file_value, effective) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: file_value}))
    argv, report = _command_with_report(tmp_path, command)
    rc = main([*argv, "--config", str(cfg), *flags])
    err = capsys.readouterr().err
    if effective is None:
        assert rc == 2
        assert err.startswith(f"error: {key} ")
        return
    assert rc == 0, err
    doc = json.loads(report.read_text())
    assert doc["provenance"]["effective_config"][key] == effective
