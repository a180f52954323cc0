"""Tests for config loading, overrides, hashing, and provenance."""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field, fields
from typing import ClassVar

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from fusionkit import cli
from fusionkit.chat import ChatRequest
from fusionkit.cli import build_parser, main
from fusionkit.config import (
    _FLAG_RULES,
    _RULES,
    Config,
    ConfigError,
    config_hash,
    load_config,
    provenance_block,
    sha256_file,
)
from fusionkit.interactor import SELECTION_RULES, SelectionConfig
from fusionkit.jsontypes import check_fields, field_dict
from fusionkit.masking import MaskExperimentConfig, MaskSpec
from fusionkit.risk_qa import PIPELINE_RULES, PipelineConfig, build_risk_prompt

from test_cli import (
    REFINE_RECORDS,
    _demo_inputs,
    _option_dests,
    scene_to_dict,
    write_jsonl,
)
from test_decoder_properties import SPECIAL
from test_risk_qa import QA_RESPONSE_FIXTURE, RISK_RESPONSE_FIXTURE, seven_car_scene


def test_defaults() -> None:
    cfg = Config()
    assert cfg.k_img == 90
    assert cfg.k_bev == 300
    assert cfg.reduction == "max"
    assert cfg.short_answer_threshold == 5
    assert cfg.iou_thresholds == (0.5,)
    assert cfg.ap_interpolation == "all_point"
    assert cfg.l2_mode == "at_horizon"
    assert cfg.ora_gating == "correct_exist"
    assert cfg.metric_scale_100 is True
    assert cfg.retries == 2
    assert cfg.seed == 0


def test_validation() -> None:
    with pytest.raises(ConfigError):
        Config(k_img=0)
    with pytest.raises(ConfigError):
        Config(reduction="median")
    with pytest.raises(ConfigError):
        Config(iou_thresholds=())
    with pytest.raises(ConfigError):
        Config(iou_thresholds=(1.5,))
    with pytest.raises(ConfigError, match="distinct"):
        Config(iou_thresholds=(0.5, 0.75, 0.5))
    with pytest.raises(ConfigError):
        Config(l2_mode="endpoint")
    with pytest.raises(ConfigError):
        Config(ora_gating="lenient")
    with pytest.raises(ConfigError):
        Config(ego_length=0.0)
    with pytest.raises(ConfigError):
        Config(max_in_flight=0)
    with pytest.raises(ConfigError, match="step1_model must be non-empty"):
        Config(step1_model="")
    with pytest.raises(ConfigError, match="step2_model must be non-empty"):
        Config(step2_model="")


def test_load_file_then_flag_overrides(tmp_path) -> None:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"k_img": 10, "seed": 7}))
    cfg = load_config(p, k_img=20)
    assert cfg.k_img == 20  # flag wins
    assert cfg.seed == 7  # file survives
    assert cfg.k_bev == 300  # default fills the rest


def test_load_no_file() -> None:
    cfg = load_config(None, l2_mode="up_to_horizon")
    assert cfg.l2_mode == "up_to_horizon"


def test_unknown_keys_rejected(tmp_path) -> None:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"kimg": 10}))
    with pytest.raises(ConfigError, match="kimg"):
        load_config(p)
    with pytest.raises(ConfigError, match="k_image"):
        load_config(None, k_image=3)


def test_bad_file_contents(tmp_path) -> None:
    missing = tmp_path / "absent.json"
    with pytest.raises(ConfigError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(arr)


def test_override_none_means_keep(tmp_path) -> None:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 5}))
    assert load_config(p, seed=None).seed == 5
    assert load_config(p, seed=9).seed == 9


def test_only_the_effective_value_is_judged(tmp_path) -> None:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"k_img": 0}))
    assert load_config(p, k_img=3).k_img == 3
    with pytest.raises(ConfigError, match="k_img must be at least 1"):
        load_config(p)


def test_iou_thresholds_from_json_list(tmp_path) -> None:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"iou_thresholds": [0.5, 0.75]}))
    assert load_config(p).iou_thresholds == (0.5, 0.75)


def test_config_hash_tracks_content() -> None:
    assert config_hash(Config()) == config_hash(Config())
    assert config_hash(Config()) != config_hash(Config(seed=1))
    assert len(config_hash(Config())) == 64


def test_default_config_hash_is_frozen() -> None:
    # every report made with the defaults holds this hash
    assert config_hash(Config()) == (
        "c023483c8369a8d878db058bfd371385e940ed545c1315d9545c253ac07ed583")


def test_sha256_file_and_provenance(tmp_path) -> None:
    f = tmp_path / "input.jsonl"
    f.write_bytes(b"hello\n")
    # frozen: sha256 of b"hello\n"
    expected = (
        "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
    )
    assert sha256_file(f) == expected
    block = provenance_block(Config(), {"records": f})
    assert block["tool_version"]
    assert block["config_hash"] == config_hash(Config())
    assert block["inputs"] == {"records": expected}
    assert block["effective_config"]["k_img"] == 90


# ------------------------------------------------------ JSON types per key


def test_int_spelled_floats_keep_their_hashes(tmp_path) -> None:
    ints = tmp_path / "ints.json"
    ints.write_text('{"temperature": 0, "ego_length": 4}')
    floats = tmp_path / "floats.json"
    floats.write_text('{"temperature": 0.0, "ego_length": 4.0}')
    a, b = load_config(ints), load_config(floats)
    assert type(a.temperature) is float and type(a.ego_length) is float
    assert config_hash(a) == config_hash(b)
    assert config_hash(load_config(ints, ego_length=4.084)) == config_hash(Config())

    def request_hash(cfg: Config) -> str:
        # the step-1 request a --mock replay directory is keyed by
        return ChatRequest(model=cfg.step1_model,
                           messages=({"role": "user", "content": "x"},),
                           temperature=cfg.temperature,
                           seed=cfg.seed).request_hash()

    assert request_hash(a) == request_hash(Config())


@pytest.mark.parametrize("make", [
    Config, SelectionConfig, PipelineConfig, MaskExperimentConfig,
    lambda: MaskSpec(candidate_indices={"front": [0]}, rate=0),
], ids=["Config", "SelectionConfig", "PipelineConfig", "MaskExperimentConfig",
        "MaskSpec"])
def test_every_config_field_has_a_json_type(make) -> None:
    obj = make()
    before = [getattr(obj, f.name) for f in fields(obj)]
    check_fields(obj)  # a TypeError names a field whose annotation has no check
    assert [getattr(obj, f.name) for f in fields(obj)] == before


@pytest.mark.parametrize("kind", [SelectionConfig, PipelineConfig])
def test_library_config_fields_are_config_keys(kind) -> None:
    # the CLI passes its Config to fuse, token_budget and run_pipeline, and
    # Config inherits these fields with their defaults
    assert issubclass(Config, kind)


@pytest.mark.parametrize("kind, bad", [
    (SelectionConfig, {"k_img": 0}), (SelectionConfig, {"k_bev": 0}),
    (SelectionConfig, {"reduction": "median"}),
    (PipelineConfig, {"step1_model": ""}), (PipelineConfig, {"step2_model": ""}),
    (PipelineConfig, {"temperature": -1.0}), (PipelineConfig, {"seed": -1}),
    (PipelineConfig, {"retries": -1}), (PipelineConfig, {"max_in_flight": 0}),
])
def test_library_configs_reject_with_the_config_message(kind, bad) -> None:
    # each base judges its own fields by its one rule table, which Config's
    # _RULES merges, so a library caller meets Config's message
    with pytest.raises(ConfigError) as want:
        Config(**bad)
    with pytest.raises(ValueError) as got:
        kind(**bad)
    assert str(got.value) == str(want.value)


def test_config_rules_are_the_bases_rules() -> None:
    for rules in (SELECTION_RULES, PIPELINE_RULES):
        assert all(_RULES[name] is rule for name, rule in rules.items())


def test_rule_tables_name_real_inputs() -> None:
    # a rule under a name no input carries is never checked
    keys = {f.name for f in fields(Config)}
    assert set(_RULES) <= keys
    flag_dests = {dest for _, _, dest in _option_dests(build_parser())}
    assert set(_FLAG_RULES) <= flag_dests - keys


@dataclass(frozen=True)
class _Unlisted:
    n: int = 1
    names: list = ()


def test_check_fields_rejects_an_unlisted_annotation() -> None:
    with pytest.raises(TypeError, match=r"_Unlisted\.names"):
        check_fields(_Unlisted())


@dataclass(frozen=True)
class _Row:
    kind: ClassVar[str] = "row"
    zeta: list = field(default_factory=list)
    alpha: dict = field(default_factory=dict)
    mid: int = 3


def test_field_dict_is_the_fields_in_declaration_order() -> None:
    row = _Row()
    out = field_dict(row)
    assert list(out) == ["zeta", "alpha", "mid"]  # no ClassVar
    assert out["zeta"] is row.zeta and out["alpha"] is row.alpha
    assert out == {"zeta": [], "alpha": {}, "mid": 3}
    assert field_dict(row) is not out  # a new dict each call


CONFIG_TYPES = {f.name: f.type for f in fields(Config)}


def _finite_number(v) -> bool:
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # 10**400
        return False


def _json_type_ok(annotation: str, v) -> bool:
    return {
        "int": lambda: type(v) is int,
        "float": lambda: _finite_number(v),
        "bool": lambda: type(v) is bool,
        "str": lambda: type(v) is str,
        "tuple[float, ...]": lambda: type(v) is list
        and all(map(_finite_number, v)),
    }[annotation]()


@seed(20261018)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(CONFIG_TYPES)),
       value=st.sampled_from(SPECIAL)
       | st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=3))
def test_wrong_typed_config_value_exit_2(tmp_path, capsys, name, value) -> None:
    assume(not _json_type_ok(CONFIG_TYPES[name], value))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: value}))
    rc = main(["budget", "--config", str(path), "--view-tokens", "576",
               "--bev-tokens", "2500"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {name} ") or (
        captured.err.startswith(f"error: each of {name} "))
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key", ["step1_model", "step2_model"])
def test_empty_model_name_exit_2(tmp_path, capsys, key) -> None:
    # judged with the config, before any scene is sent and fails on it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: ""}))
    scenes = tmp_path / "scenes.jsonl"
    write_jsonl(scenes, [scene_to_dict(seven_car_scene())])
    rc = main(["gen-risk-qa", "--config", str(path), "--scenes", str(scenes),
               "--mock", str(tmp_path), "--out-qa", str(tmp_path / "q.jsonl"),
               "--out-grounding", str(tmp_path / "g.jsonl")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {key} must be non-empty, got ''")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "q.jsonl").exists()


def test_negative_temperature_exit_2(tmp_path, capsys) -> None:
    path = tmp_path / "cfg.json"
    path.write_text('{"temperature": -3}')
    rc = main(["budget", "--config", str(path), "--view-tokens", "576",
               "--bev-tokens", "2500"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: temperature must be nonnegative")
    assert "Traceback" not in captured.err


# ------------------------------------------------- every key takes effect
# Each runner runs one command with a config file and returns its exit code
# and what the key should change: printed text, output bytes, or the chat
# requests a stand-in client received. Eval runners return the CSV, which
# holds only metrics; the JSON report also echoes the config.


def _budget(tmp_path, cfg, capsys, monkeypatch):
    rc = main(["budget", "--config", cfg, "--view-tokens", "576,576",
               "--bev-tokens", "2500"])
    return rc, capsys.readouterr().out


def _demo(tmp_path, cfg, capsys, monkeypatch):
    views, bev, inst = _demo_inputs(tmp_path)
    out = tmp_path / "fused.fkmx"
    rc = main(["interactor-demo", "--views", *views, "--bev", bev,
               "--instruction", inst, "--out", str(out), "--k-img", "4",
               "--k-bev", "6", "--config", cfg])
    capsys.readouterr()
    return rc, out.read_bytes()


def _refine(tmp_path, cfg, capsys, monkeypatch):
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_jsonl(src, REFINE_RECORDS)
    rc = main(["refine", "--input", str(src), "--output", str(out),
               "--config", cfg])
    capsys.readouterr()
    return rc, out.read_bytes()


def _eval(kind: str, pred_rows: list, gt_rows: list):
    def run(tmp_path, cfg, capsys, monkeypatch):
        pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
        write_jsonl(pred, pred_rows)
        write_jsonl(gt, gt_rows)
        rc = main(["eval", kind, "--pred", str(pred), "--gt", str(gt),
                   "--config", cfg])
        return rc, capsys.readouterr().out
    return run


def _box(x2: int, score: float | None = None) -> dict:
    row = {"image_id": "i", "box": [0, 0, x2, 99], "label": "car"}
    return row if score is None else {**row, "score": score}


# the 0.8-IoU detection on image i counts at 0.5 but not at 0.9, and the
# TP, FP, TP ranking makes 11-point AP differ from all-point AP
GROUNDING = _eval(
    "grounding",
    [_box(79, 0.9), {**_box(99, 0.8), "image_id": "j"},
     {**_box(99, 0.7), "image_id": "k"}],
    [_box(99), {"image_id": "j", "box": [500, 500, 599, 599], "label": "car"},
     {**_box(99), "image_id": "k"}],
)


def _agent(cx: float, cy: float) -> dict:
    return {"cx": cx, "cy": cy, "length": 1.0, "width": 1.0, "heading": 0.0}


# the ego drives along +x; one agent 3.5 m ahead of it and one 3.5 m to its
# side clear the default 4.084 x 1.85 footprint, not a 10 m one
PLANNING = _eval(
    "planning",
    [{"sample_id": "p", "trajectory": [[t, 0.0] for t in range(1, 7)]}],
    [{"sample_id": "p", "trajectory": [[t, 0.1 * t] for t in range(1, 7)],
      "agents": [[_agent(t + 3.5, 0.0), _agent(t, 3.5)] for t in range(1, 7)]}],
)

ORA_GT = {"exist": True, "level": "high", "category": "potential_risk",
          "object": "car"}
# gating on a correct exist leaves out sample 1, whose risk was missed
ORA_EVAL = _eval(
    "ora",
    [{"sample_id": "1", "exist": False}, {"sample_id": "2", **ORA_GT}],
    [{"sample_id": "1", **ORA_GT}, {"sample_id": "2", **ORA_GT}],
)

CAPTION = _eval("caption", [{"id": "1", "caption": "a cat sat on a mat"}],
                [{"id": "1", "references": ["a cat sat on the mat"]}])


class _RecordingClient:
    """Stands in for HttpChatClient: keeps its endpoint and timeout, every
    request and the threads that sent them; answers each step-1 request
    once malformed, then from the seven-car fixtures."""

    made: list

    def __init__(self, endpoint: str, api_key: str = "", timeout: float = 60.0):
        self.endpoint, self.timeout = endpoint, timeout
        self.requests: list[str] = []
        self.threads: set[int] = set()
        type(self).made.append(self)

    def complete(self, request) -> str:
        time.sleep(0.01)  # the second scene starts before the first ends
        self.requests.append(request.canonical_json())
        self.threads.add(threading.get_ident())
        step1 = request.messages[0]["content"] == build_risk_prompt(
            seven_car_scene().objects)
        if step1 and len(request.messages) == 1:
            return "not json"
        return RISK_RESPONSE_FIXTURE if step1 else QA_RESPONSE_FIXTURE


def _gen_risk_qa(tmp_path, cfg, capsys, monkeypatch):
    class Client(_RecordingClient):
        made: list = []

    monkeypatch.setattr(cli, "HttpChatClient", Client)
    monkeypatch.setenv("FK_API_ENDPOINT", "from the environment")
    scene = scene_to_dict(seven_car_scene())
    scenes = tmp_path / "scenes.jsonl"
    write_jsonl(scenes, [{**scene, "scene_id": "a"}, {**scene, "scene_id": "b"}])
    rc = main(["gen-risk-qa", "--scenes", str(scenes), "--config", cfg,
               "--out-qa", str(tmp_path / "qa.jsonl"),
               "--out-grounding", str(tmp_path / "g.jsonl")])
    capsys.readouterr()
    (client,) = Client.made
    return rc, (client.endpoint, client.timeout, len(client.threads),
                sorted(client.requests))


# key -> (a value other than the default, the runner that shows its effect)
EFFECTS = {
    "k_img": (50, _budget),
    "k_bev": (100, _budget),
    "reduction": ("mean", _demo),
    "short_answer_threshold": (0, _refine),
    "iou_thresholds": ([0.9], GROUNDING),
    "ap_interpolation": ("eleven_point", GROUNDING),
    "l2_mode": ("up_to_horizon", PLANNING),
    "ora_gating": ("all_gt_true", ORA_EVAL),
    "metric_scale_100": (False, CAPTION),
    "ego_length": (10.0, PLANNING),
    "ego_width": (10.0, PLANNING),
    "endpoint": ("http://127.0.0.1:9/v1", _gen_risk_qa),
    "step1_model": ("model-1", _gen_risk_qa),
    "step2_model": ("model-2", _gen_risk_qa),
    "temperature": (0.5, _gen_risk_qa),
    "timeout": (5.0, _gen_risk_qa),
    "retries": (0, _gen_risk_qa),  # the one malformed reply fails each scene
    "max_in_flight": (1, _gen_risk_qa),
    "seed": (1, _demo),
}


@pytest.mark.parametrize("name", [f.name for f in fields(Config)])
def test_config_key_takes_effect(tmp_path, capsys, monkeypatch, name) -> None:
    value, run = EFFECTS[name]
    default, changed = tmp_path / "default.json", tmp_path / "changed.json"
    default.write_text("{}")
    changed.write_text(json.dumps({name: value}))
    rc_default, seen_default = run(tmp_path, str(default), capsys, monkeypatch)
    rc_changed, seen_changed = run(tmp_path, str(changed), capsys, monkeypatch)
    assert rc_default == 0
    assert rc_changed in (0, 3)  # 3: every scene failed, for retries 0
    assert seen_changed != seen_default
