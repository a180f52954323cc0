"""Property tests for the record decoders and the tag grammar.

Every decoder the CLI's JSONL loader is given must, on any JSON object,
return a value or raise ValueError: the loader turns exactly that into
exit 3 naming the record, so any other exception would escape the
exit-code contract as a traceback. The rows are valid records with a few
nested values replaced by arbitrary JSON or dropped, plus arbitrary
objects over the decoder's keys.
"""

import copy
import json

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from fusionkit.driving_eval import (
    detection_from_dict,
    gt_box_from_dict,
    ora_sample_from_dict,
    planning_record_from_dict,
)
from fusionkit.refinery import (
    TagParseError,
    parse_tags,
    record_from_dict,
    serialize_tags,
)
from fusionkit.risk_qa import scene_from_dict
from fusionkit.text_metrics import caption_gt_from_dict, caption_pred_from_dict

# values that decoders tend to mistake for one another, plus what json.loads
# can produce beyond plain JSON: huge integers and non-finite floats
SPECIAL = [None, True, False, 0, -1, 5, 5.7, 9.0, 2**63, 10**400, -(10**400),
           float("nan"), float("inf"), "", "x", "5", [], {}, [None], ["x"],
           {"x": 1}]
json_scalars = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, (*prefix, k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, (*prefix, i))


def _holder(row, path):
    """The list or object that holds the value at ``path``."""
    for step in path[:-1]:
        row = row[step]
    return row


@st.composite
def mutants(draw, valid):
    """``valid`` with one to three nested values replaced by arbitrary JSON
    or, inside an object, dropped; everything else stays valid."""
    row = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(row))[1:]))
        holder = _holder(row, path)
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[path[-1]]
        else:
            # a copy: a later step may mutate inside it, and json_values
            # can hand out the very lists and objects held in SPECIAL
            holder[path[-1]] = copy.deepcopy(draw(json_values))
        if not row:
            break
    return row


AGENT = {"cx": 1.0, "cy": 2.0, "length": 4.0, "width": 2.0, "heading": 0.1}
TRAJECTORY = [[0.5 * i, 0.0] for i in range(1, 7)]
ORA_RISK = {"sample_id": "s", "exist": True, "level": "low",
            "category": "potential_risk", "object": "car",
            "reason": "r", "grounding": [1, 2, 3, 4]}

# decoder -> a valid row it accepts
DECODERS = {
    "detection": (detection_from_dict,
                  {"image_id": "i", "box": [0, 0, 9, 9], "score": 0.5,
                   "label": "car"}),
    "gt_box": (gt_box_from_dict,
               {"image_id": "i", "box": [0, 0, 9, 9], "label": "car"}),
    "planning": (planning_record_from_dict,
                 {"sample_id": "p", "trajectory": TRAJECTORY,
                  "agents": [[AGENT], [], [AGENT], [], [], [AGENT]]}),
    "ora": (ora_sample_from_dict, ORA_RISK),
    "scene": (scene_from_dict,
              {"scene_id": "s", "objects": [
                  {"category": "car", "bearing": "ahead", "distance": 5,
                   "view": "front", "box": [0, 0, 9, 9]}]}),
    "record": (record_from_dict,
               {"id": "r", "images": {"front": "f.jpg"},
                "conversation": [
                    {"role": "human", "value": "Where is the <ref>car</ref>?"},
                    {"role": "assistant", "value": "<box>(1,2),(3,4)</box>"}],
                "trajectory_points": [[0.5 * i, i, 0.0] for i in range(7)],
                "ego_status": {"lateral_velocity": 0.0,
                               "longitudinal_velocity": 1.0,
                               "lateral_acceleration": 0.0,
                               "longitudinal_acceleration": 0.0,
                               "command": "GO STRAIGHT"},
                "source_dataset": "omnidrive", "answer_class": "short"}),
    "caption_pred": (caption_pred_from_dict, {"id": "c", "caption": "a car"}),
    "caption_gt": (caption_gt_from_dict,
                   {"id": "c", "references": ["a car", "the car"],
                    "caption": "a car"}),
}


DROP = object()  # stands for deleting the key


def decodes_or_rejects(decode, row) -> None:
    row = json.loads(json.dumps(row))  # exactly what the loader would see
    try:
        decode(row)
    except ValueError:
        pass


@pytest.mark.parametrize("name", DECODERS)
def test_decoder_takes_any_single_change_to_a_valid_row(name) -> None:
    decode, valid = DECODERS[name]
    decode(valid)
    for path in list(_paths(valid))[1:]:
        for value in [*SPECIAL, DROP]:
            row = copy.deepcopy(valid)
            holder = _holder(row, path)
            if value is not DROP:
                holder[path[-1]] = value
            elif isinstance(holder, dict):
                del holder[path[-1]]
            decodes_or_rejects(decode, row)


@pytest.mark.parametrize("name", DECODERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decoder_returns_or_raises_value_error(name, data) -> None:
    decode, valid = DECODERS[name]
    keys = st.sampled_from(sorted(valid)) | st.text(max_size=4)
    row = data.draw(mutants(valid) | st.dictionaries(keys, json_values, max_size=6))
    decodes_or_rejects(decode, row)


def _nodes(value):
    yield value
    if isinstance(value, (dict, list)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _nodes(v)


def test_mutants_leave_special_values_intact() -> None:
    # a row that shares a list or object with SPECIAL can mutate it in
    # place on the next step, and every later draw then sees the change
    before = repr(SPECIAL)
    shared = {id(v) for v in SPECIAL if isinstance(v, (dict, list))}

    @seed(0)
    @settings(max_examples=100, deadline=None, database=None)
    @given(mutants({"k": [0]}))
    def draw_many(row) -> None:
        assert not any(id(node) in shared for node in _nodes(row))

    draw_many()
    assert repr(SPECIAL) == before


# ------------------------------------------------------------ tag grammar

# raw text from whole tags in canonical and loose spellings, stray tag
# pieces and plain words
STRAY = ["<", ">", "/", "|", "ref", "box", "<ref>", "</box>", "car", " ",
         "\n", "é", ",", "(2,3)", "<|camera_top|>"]
stray = st.sampled_from(STRAY)
inner = st.lists(stray, max_size=4).map("".join)


def _tag(opens, payloads, closes):
    return st.tuples(st.sampled_from(opens), payloads,
                     st.sampled_from(closes)).map("".join)


tag_pieces = st.one_of(
    stray,
    _tag(["<ref>", "< ref >"], inner, ["</ref>", "</ ref>"]),
    _tag(["<box>", "< box>"],
         st.sampled_from(["(1,2),(3,4)", "( -5 , 20 ),( 007,8 )", "(1,2)"])
         | inner, ["</box>", "< /box >"]),
    st.sampled_from(["<|camera_front|>", "< |camera_back| >"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(tag_pieces, max_size=8).map("".join))
def test_serialize_parse_serialize_is_stable(raw) -> None:
    try:
        tagged = parse_tags(raw)
    except TagParseError:
        assume(False)  # rejected input: no segment sequence to serialize
    text = serialize_tags(tagged)
    again = parse_tags(text)
    assert again.segments == tagged.segments
    assert serialize_tags(again) == text
