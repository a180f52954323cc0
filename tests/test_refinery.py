import math
import random
import re
from dataclasses import replace
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.driving_eval import NormalizedBox
from fusionkit.refinery import (
    BoxSpan,
    CameraTag,
    ConversationTurn,
    EgoStatus,
    PlainText,
    RefSpan,
    RefineReport,
    TagParseError,
    TaggedText,
    TrajectoryCoverageError,
    UnifiedRecord,
    classify_answer_length,
    encode_ego_status,
    normalize_box,
    parse_tags,
    quantize_decimal,
    record_from_dict,
    record_to_dict,
    refine_records,
    round_half_away,
    serialize_tags,
    unify_trajectory,
)


# ------------------------------------------------------------- tag grammar


def test_parse_plain_only():
    t = parse_tags("hello")
    assert t.segments == (PlainText("hello"),)


def test_parse_full_frame_box():
    t = parse_tags("<box>(0,0),(999,999)</box>")
    assert t.segments == (BoxSpan(0, 0, 999, 999),)


def test_parse_mixed_fixture():
    t = parse_tags(
        "<|camera_front|><ref>the red car</ref> at <box>(10,20),(30,40)</box>"
    )
    assert t.segments == (
        CameraTag("front"),
        RefSpan("the red car"),
        PlainText(" at "),
        BoxSpan(10, 20, 30, 40),
    )


def test_parse_legacy_whitespace_normalizes():
    t = parse_tags("see < box >( 10 , 20 ) , ( 30 , 40 )< /box > there")
    assert t.segments == (
        PlainText("see "),
        BoxSpan(10, 20, 30, 40),
        PlainText(" there"),
    )
    assert serialize_tags(t) == "see <box>(10,20),(30,40)</box> there"


def test_parse_unknown_tags_stay_plain():
    for raw in (
        "a <boxer>(1,2),(3,4)</boxer> b",
        "look <|camera_top|> here",
        "<ref>unclosed",
        "stray </box> close",
        "almost <box>(1,2),(3,4)",
    ):
        t = parse_tags(raw)
        assert t.segments == (PlainText(raw),)
        assert serialize_tags(t) == raw


def test_parse_negative_coordinates_survive():
    t = parse_tags("<box>(-5,0),(10,1200)</box>")
    assert t.segments == (BoxSpan(-5, 0, 10, 1200),)


def test_parse_malformed_payload_offset():
    with pytest.raises(TagParseError) as err:
        parse_tags("ab<box>(1,2)(3,4)</box>")
    assert err.value.offset == 2
    assert err.value.payload == "(1,2)(3,4)"
    # offsets are bytes, not characters
    with pytest.raises(TagParseError) as err:
        parse_tags("é<box>junk</box>")
    assert err.value.offset == 2


def test_parse_malformed_payload_variants():
    for payload in ("", "(1,2)", "(1,2),(3)", "(a,b),(c,d)", "(1.5,2),(3,4)"):
        with pytest.raises(TagParseError):
            parse_tags(f"<box>{payload}</box>")


def test_camera_vocabulary():
    for view in ("front", "front_left", "front_right",
                 "back", "back_left", "back_right"):
        t = parse_tags(f"<|camera_{view}|>")
        assert t.segments == (CameraTag(view),)
    with pytest.raises(ValueError):
        CameraTag("top")


def _random_segments(rng):
    words = ["car", "red", "near", "stop", "lane", "turn", "(2,3)"]
    segs = []
    prev_plain = False
    for _ in range(rng.randrange(1, 8)):
        kind = rng.choice(["plain", "ref", "box", "camera"])
        if kind == "plain":
            if prev_plain:
                continue  # adjacent plain text merges on reparse
            segs.append(PlainText(" ".join(rng.sample(words, rng.randrange(1, 4)))))
            prev_plain = True
            continue
        prev_plain = False
        if kind == "ref":
            segs.append(RefSpan(" ".join(rng.sample(words[:5], 2))))
        elif kind == "box":
            vals = [rng.randrange(-20, 1100) for _ in range(4)]
            segs.append(BoxSpan(*vals))
        else:
            segs.append(CameraTag(rng.choice(
                ("front", "front_left", "back_right"))))
    return tuple(segs) if segs else (PlainText("x"),)


def test_round_trip_laws():
    rng = random.Random(5)
    for _ in range(60):
        segs = _random_segments(rng)
        text = serialize_tags(TaggedText(segs))
        parsed = parse_tags(text)
        assert parsed.segments == segs
        assert serialize_tags(parsed) == text


def test_grounding_tag_predicate():
    assert parse_tags("<ref>a car</ref>").has_grounding_tags()
    assert parse_tags("<box>(1,2),(3,4)</box>").has_grounding_tags()
    assert not parse_tags("plain <|camera_front|>").has_grounding_tags()


# ------------------------------------------------------------ quantization


def test_round_half_away_fixtures():
    cases = [(0.5, 1), (1.5, 2), (2.5, 3), (-0.5, -1), (-1.5, -2),
             (0.49, 0), (-0.49, 0), (0.0, 0), (2.0, 2)]
    for value, want in cases:
        assert round_half_away(value) == want
    with pytest.raises(ValueError):
        round_half_away(float("nan"))


def test_round_half_away_matches_decimal_oracle():
    rng = random.Random(3)
    for _ in range(500):
        v = rng.uniform(-1000, 1000)
        if rng.random() < 0.2:
            v = round(v) + rng.choice([0.5, -0.5])
        want = int(Decimal(v).quantize(Decimal(1), rounding=ROUND_HALF_UP))
        assert round_half_away(v) == want


def test_quantize_decimal_fixtures():
    assert quantize_decimal(4.18, 100) == 418
    assert quantize_decimal(0.0, 100) == 0
    assert quantize_decimal(-0.005, 100) == -1
    assert quantize_decimal(-1.27, 100) == -127
    assert quantize_decimal(0.05, 100) == 5
    assert quantize_decimal(0.93, 100) == 93


def test_quantize_decimal_scale_identity():
    # quantize(x, k) equals quantize(x * k, 1) when x * k hits an integer
    for x, k in ((4.18, 100), (0.25, 4), (-3.5, 2), (12.0, 1)):
        assert quantize_decimal(x * k, 1) == quantize_decimal(x, k)


def test_quantize_decimal_matches_decimal_oracle():
    rng = random.Random(9)
    for _ in range(300):
        v = rng.uniform(-50, 50)
        scale = rng.choice([1, 10, 100])
        want = int(
            Decimal(v * scale).quantize(Decimal(1), rounding=ROUND_HALF_UP)
        )
        assert quantize_decimal(v, scale) == want


def test_quantize_decimal_errors():
    with pytest.raises(OverflowError):
        quantize_decimal(1e300, 1e300)
    with pytest.raises(OverflowError):
        quantize_decimal(1e19, 1)
    with pytest.raises(ValueError):
        quantize_decimal(float("inf"), 1)
    with pytest.raises(ValueError):
        quantize_decimal(1.0, 0.0)
    with pytest.raises(ValueError):
        quantize_decimal(1.0, -5)


# --------------------------------------------------------- box normalization


def test_normalize_box_corners():
    assert normalize_box((0, 0, 639, 479), 640, 480) == NormalizedBox(0, 0, 999, 999)
    assert normalize_box((0, 0, 0, 0), 640, 480) == NormalizedBox(0, 0, 0, 0)


def test_normalize_box_center_fixture():
    got = normalize_box((800, 450, 800, 450), 1600, 900)
    assert (got.x1, got.y1) == (500, 500)


def test_normalize_box_idempotent_on_grid():
    rng = random.Random(21)
    for _ in range(100):
        x1, y1 = rng.randrange(1000), rng.randrange(1000)
        x2 = rng.randrange(x1, 1000)
        y2 = rng.randrange(y1, 1000)
        got = normalize_box((x1, y1, x2, y2), 1000, 1000)
        assert got == NormalizedBox(x1, y1, x2, y2)


def test_normalize_box_monotone_and_clamped():
    a = normalize_box((10, 10, 100, 100), 640, 480)
    b = normalize_box((10, 10, 120, 100), 640, 480)
    assert a.x2 <= b.x2
    clamped = normalize_box((0, 0, 5000, 5000), 640, 480)
    assert (clamped.x2, clamped.y2) == (999, 999)


def test_normalize_box_errors():
    with pytest.raises(ValueError):
        normalize_box((10, 0, 5, 20), 640, 480)
    with pytest.raises(ValueError):
        normalize_box((0, 0, 10, 10), 1, 480)
    with pytest.raises(ValueError):
        normalize_box((0, 0, float("nan"), 10), 640, 480)
    with pytest.raises(ValueError, match="finite"):
        normalize_box((0, 0, float("inf"), 10), 640, 480)
    with pytest.raises(ValueError, match="finite"):
        normalize_box((float("-inf"), 0, 10, 10), 640, 480)


def test_normalize_box_clamps_before_scaling():
    huge = int("9" * 400)  # too large for a float
    assert normalize_box((0, 0, huge, 5), 1600, 900) == normalize_box(
        (0, 0, 1599, 5), 1600, 900)
    assert normalize_box((-huge, 0, 10, 5), 1600, 900).x1 == 0
    assert normalize_box((0, 0, 10, 5), huge, 900) == NormalizedBox(0, 0, 0, 6)
    assert normalize_box((0, 0, 10, 5), 900, huge) == NormalizedBox(0, 0, 11, 0)
    # clamping first changes no result of the old scale-then-clamp order
    for c in (-7, -0.4, 0, 0.5, 1, 319.5, 639, 639.4, 640, 10**6, 2.5e9):
        want = min(max(round_half_away(float(c) / 639 * 999), 0), 999)
        assert normalize_box((c, 0, c, 0), 640, 480).x1 == want


def _old_norm(c, size):
    # the per-axis formula before float corners on huge sides were handled
    return round_half_away(min(max(c, 0), size - 1) / (size - 1) * 999)


corners = st.one_of(st.integers(-(10**400), 10**400),
                    st.floats(allow_nan=False, allow_infinity=False))
sides = st.one_of(st.integers(2, 5000), st.integers(2, 10**400),
                  st.sampled_from([2**53 + 1, 2**1024 - 2**970 - 1, 2**1024,
                                   10**400]))


@settings(max_examples=300, deadline=None)
@given(st.lists(corners, min_size=4, max_size=4), sides, sides)
def test_normalize_box_property_any_finite_corner_on_any_side(cs, w, h):
    x1, x2 = sorted(cs[:2])
    y1, y2 = sorted(cs[2:])
    got = normalize_box((x1, y1, x2, y2), w, h)  # ordered corners, in the grid
    for c, size, value in ((x1, w, got.x1), (y1, h, got.y1), (x2, w, got.x2),
                           (y2, h, got.y2)):
        try:
            want = _old_norm(c, size)
        except OverflowError:
            # only a float corner on a side with no float form; the exact
            # quotient of the clamped corner, rounded once
            assert isinstance(c, float) and size > 2**1023
            want = round_half_away(
                float(Fraction(min(max(c, 0), size - 1)) / (size - 1)) * 999)
        assert value == want


def test_normalize_box_float_corner_on_side_too_large_for_a_float():
    huge = 10**400
    assert normalize_box((0.5, 0, 10, 5), huge, 900) == NormalizedBox(0, 0, 0, 6)
    assert normalize_box((0.0, 0.0, 1e308, 5.5), huge, 2**1024) == \
        NormalizedBox(0, 0, 0, 0)
    # a float corner at the float maximum on a side just past it
    big = 2**1024 + 1
    assert normalize_box((0, 0, 1.7976931348623157e308, 0), big, 900).x2 == \
        round_half_away(float(Fraction(1.7976931348623157e308) / (big - 1)) * 999)


# --------------------------------------------------------------- ego status


def test_encode_ego_status_exemplar():
    s = EgoStatus(0.0, 4.18, 0.05, 0.93, "TURN LEFT")
    assert encode_ego_status(s) == (
        "Given the ego status: lateral velocity is 0 cm/s; "
        "longitudinal velocity is 418 cm/s; "
        "lateral acceleration is 5 cm/s^2; "
        "longitudinal acceleration is 93 cm/s^2; "
        "The ego car will TURN LEFT. Output planning results."
    )


def test_encode_ego_status_zero_and_negative():
    zero = EgoStatus(0.0, 0.0, 0.0, 0.0, "GO STRAIGHT")
    text = encode_ego_status(zero)
    assert "lateral velocity is 0 cm/s" in text
    assert "longitudinal velocity is 0 cm/s" in text
    assert "The ego car will GO STRAIGHT." in text

    neg = EgoStatus(-1.27, 0.0, 0.0, 0.0, "TURN RIGHT")
    assert "lateral velocity is -127 cm/s" in encode_ego_status(neg)


def test_ego_status_validation():
    with pytest.raises(ValueError):
        EgoStatus(0.0, 0.0, 0.0, 0.0, "REVERSE")
    with pytest.raises(ValueError):
        EgoStatus(float("inf"), 0.0, 0.0, 0.0, "GO STRAIGHT")


# --------------------------------------------------------------- trajectory


def test_unify_on_grid_is_bit_exact():
    xs = [0.1 + 0.2, 1.0 / 3.0, 2.2, -0.7, 5.5, 6.6]
    points = [(0.5 * (i + 1), xs[i], -xs[i]) for i in range(6)]
    plan = unify_trajectory(points)
    assert plan.waypoints == tuple((x, -x) for x in xs)


def test_unify_two_point_line():
    plan = unify_trajectory([(0.0, 0.0, 0.0), (3.0, 6.0, 0.0)])
    assert [x for x, _ in plan.waypoints] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert all(y == 0.0 for _, y in plan.waypoints)


def test_unify_matches_piecewise_linear_oracle():
    rng = random.Random(17)
    for _ in range(20):
        interior = sorted(rng.uniform(0.05, 3.1) for _ in range(5))
        times = [0.0] + interior + [3.2]
        times = [t + i * 1e-9 for i, t in enumerate(times)]  # force strict order
        xs = [rng.uniform(-10, 10) for _ in times]
        ys = [rng.uniform(-10, 10) for _ in times]
        plan = unify_trajectory(list(zip(times, xs, ys)))
        grid = [0.5 * i for i in range(1, 7)]
        want_x = np.interp(grid, times, xs)
        want_y = np.interp(grid, times, ys)
        for (x, y), wx, wy in zip(plan.waypoints, want_x, want_y):
            assert x == pytest.approx(wx, abs=1e-12)
            assert y == pytest.approx(wy, abs=1e-12)


def test_unify_coverage_error_lists_missing():
    with pytest.raises(TrajectoryCoverageError) as err:
        unify_trajectory([(0.6, 0.0, 0.0), (2.2, 1.0, 1.0)])
    assert err.value.missing == (0.5, 2.5, 3.0)
    assert "missing grid horizons" in str(err.value)


def test_unify_input_validation():
    with pytest.raises(ValueError):
        unify_trajectory([(0.0, 0.0, 0.0), (0.0, 1.0, 1.0)])
    with pytest.raises(ValueError):
        unify_trajectory([])
    with pytest.raises(ValueError, match="source_dataset"):
        record_from_dict({"id": "r", "source_dataset": "waymo",
                          "conversation": [{"role": "human", "value": "go"}],
                          "trajectory_points": [[0, 0, 0], [3, 1, 1]]})


# ------------------------------------------------------- records and filter


def _turn(role, raw):
    return ConversationTurn(role, parse_tags(raw))


def _record(rid, question, answer, source="omnidrive"):
    return UnifiedRecord(
        id=rid,
        images={"front": f"{rid}.jpg"},
        conversation=(_turn("human", question), _turn("assistant", answer)),
        source_dataset=source,
    )


def test_record_validation():
    with pytest.raises(ValueError, match="alternate"):
        UnifiedRecord(
            id="r",
            images={},
            conversation=(_turn("assistant", "hi"),),
        )
    with pytest.raises(ValueError, match="views"):
        UnifiedRecord(
            id="r",
            images={"rear": "x.jpg"},
            conversation=(_turn("human", "hi"),),
        )
    with pytest.raises(ValueError):
        _record("r", "q", "a", source="kitti")


def test_filter_clean_records_untouched():
    records = [
        _record("r0", "what is <ref>the car</ref>?",
                "a <box>(10,10),(20,30)</box>"),
        _record("r1", "count cars", "three"),
    ]
    copies = [replace(r) for r in records]
    kept, report = refine_records(records)
    assert kept == [replace(r, answer_class="short") for r in copies]
    assert records == copies and all(r.answer_class is None for r in records)
    assert report.to_dict()["box_drops"] == {}
    assert (report.kept, report.dropped) == (2, 0)


def test_filter_drops_grounding_record():
    records = [
        _record("r0", "locate <ref>the cone</ref>", "<box>(5,5),(5,5)</box>")
    ]
    kept, report = refine_records(records)
    assert kept == []
    assert report.box_drops == {"zero_area": 1}
    assert report.record_drops == {"grounding_lost_all_boxes": 1}


def test_filter_keeps_non_grounding_record():
    # same invalid box, but a plain question: record survives boxless
    records = [_record("r0", "describe the scene", "<box>(0,0),(1500,20)</box> ok")]
    kept, report = refine_records(records)
    assert len(kept) == 1
    assert kept[0].conversation[1].value.segments == (PlainText(" ok"),)
    assert report.box_drops == {"out_of_range": 1}
    assert report.record_drops == {}
    # input record untouched
    assert records[0].conversation[1].value.boxes()


def test_filter_partial_loss_keeps_record():
    records = [
        _record(
            "r0",
            "find <ref>both</ref>",
            "<box>(50,50),(40,60)</box> and <box>(1,1),(9,9)</box>",
        )
    ]
    kept, report = refine_records(records)
    assert len(kept) == 1
    assert kept[0].conversation[1].value.boxes() == (BoxSpan(1, 1, 9, 9),)
    assert report.box_drops == {"inverted": 1}


def test_filter_mixed_fixture_hand_audit():
    records = [
        _record("r0", "describe <ref>car</ref>", "a <box>(10,10),(20,30)</box>"),
        _record("r1", "locate <ref>sign</ref>", "<box>(5,5),(5,5)</box>"),
        _record("r2", "describe the scene", "<box>(0,0),(1500,20)</box>"),
        _record("r3", "find <ref>two</ref>",
                "<box>(50,50),(40,60)</box> <box>(1,1),(9,9)</box>"),
    ] + [_record(f"r{i}", "how many lanes?", "two") for i in range(4, 10)]
    kept, report = refine_records(records)
    assert report.input_count == 10
    assert (report.kept, report.dropped) == (9, 1)
    assert report.box_drops == {"zero_area": 1, "out_of_range": 1, "inverted": 1}
    assert report.record_drops == {"grounding_lost_all_boxes": 1}
    assert [r.id for r in kept] == ["r0", "r2", "r3"] + [f"r{i}" for i in range(4, 10)]


def test_report_balance_enforced():
    report = RefineReport(input_count=3, kept=1, dropped=1)
    with pytest.raises(ValueError):
        report.to_dict()


# ------------------------------------------------------------ answer length


def test_classify_answer_length():
    assert classify_answer_length(parse_tags("Yes.")) == "short"
    long_answer = parse_tags(" ".join(["risk"] * 40))
    assert classify_answer_length(long_answer) == "long"


def test_classify_threshold_boundary_inclusive():
    five = parse_tags("one two three four five")
    assert classify_answer_length(five) == "short"
    six = parse_tags("one two three four five six")
    assert classify_answer_length(six) == "long"


def test_classify_tags_count_one():
    # 3 plain tokens + ref + box = 5 tokens
    answer = parse_tags("it is at <ref>car</ref><box>(1,2),(3,4)</box>")
    assert classify_answer_length(answer) == "short"
    assert classify_answer_length(answer, threshold=4) == "long"


# ------------------------------------------------------------- refine pass


def test_refine_normalizes_pixel_boxes_and_decimals():
    records = [
        _record("r0", "where is <ref>it</ref>?",
                "at <box>(0,0),(639,479)</box> going 4.7 m/s"),
    ]
    refined, report = refine_records(
        records, image_size=(640, 480), quantize_decimals=True
    )
    answer = refined[0].conversation[1].value
    assert answer.boxes() == (BoxSpan(0, 0, 999, 999),)
    assert "going 5 m" in serialize_tags(answer)
    assert report.boxes_normalized == 1
    assert report.decimals_converted == 1
    assert refined[0].answer_class == "long"


def test_refine_drops_a_record_whose_decimal_leaves_int64():
    records = [
        _record("r0", "how far?", "about 99999999999999999999.5 m, then 2.5 m"),
        _record("r1", "how far?", "about " + "9" * 400 + ".5 m"),
        _record("r2", "how far?", "about 2.5 m"),
    ]
    refined, report = refine_records(records, quantize_decimals=True)
    assert [r.id for r in refined] == ["r2"]
    assert report.record_drops == {"decimal_out_of_range": 2}
    assert (report.kept, report.dropped) == (1, 2)
    # r0's text holding the literal stays unrounded; r2's is counted
    assert report.decimals_converted == 1


@pytest.mark.parametrize("text", [
    "1.5e3 m", "2.5E-3 s", "release v3.14.15", "host 192.168.0.1",
])
def test_quantize_decimals_leaves_parts_of_longer_numbers(text):
    refined, report = refine_records([_record("r0", "q?", text)],
                                     quantize_decimals=True)
    assert refined[0].conversation[1].value.segments == (PlainText(text),)
    assert report.decimals_converted == 0


@pytest.mark.parametrize("text, want, hits", [
    ("12.34 m", "12 m", 1), ("5.67 m/s.", "6 m/s.", 1), ("2.5m", "3m", 1),
    ("5-3.5", "5-4", 1), ("-0.5", "-1", 1),
    ("at 1.5, then 2.5", "at 2, then 3", 2),
])
def test_quantize_decimals_rounds_whole_literals(text, want, hits):
    refined, report = refine_records([_record("r0", "q?", text)],
                                     quantize_decimals=True)
    assert refined[0].conversation[1].value.segments == (PlainText(want),)
    assert report.decimals_converted == hits


def test_refine_assigns_answer_class():
    records = [_record("r0", "how many?", "three")]
    refined, _ = refine_records(records)
    assert refined[0].answer_class == "short"


def test_refine_leaves_inverted_pixel_boxes_to_filter():
    records = [_record("r0", "plain q", "<box>(100,100),(50,200)</box> text")]
    refined, report = refine_records(records, image_size=(640, 480))
    assert report.boxes_normalized == 0
    assert report.box_drops == {"inverted": 1}
    assert len(refined) == 1


# ------------------------------------------------------------------- codecs


def test_record_codec_round_trip():
    record = UnifiedRecord(
        id="sample-1",
        images={"front": "a.jpg", "back": "b.jpg"},
        conversation=(
            _turn("human", "<|camera_front|> what is <ref>that</ref>?"),
            _turn("assistant", "a cone <box>(10,20),(30,40)</box>"),
        ),
        trajectory=TrajectoryPlanFixture(),
        ego_status=EgoStatus(0.0, 4.18, 0.05, 0.93, "TURN LEFT"),
        source_dataset="nuscenes-mqa",
        answer_class="short",
    )
    d = record_to_dict(record)
    back = record_from_dict(d)
    assert back == record


def TrajectoryPlanFixture():
    from fusionkit.driving_eval import TrajectoryPlan

    return TrajectoryPlan(tuple((float(i), 0.5 * i) for i in range(6)))


def test_record_codec_canonicalizes_legacy_tags():
    d = {
        "id": "x",
        "images": {},
        "conversation": [
            {"role": "human", "value": "see < box >( 1 , 2 ) , ( 3 , 4 )< /box >"},
            {"role": "assistant", "value": "yes"},
        ],
    }
    record = record_from_dict(d)
    out = record_to_dict(record)
    assert out["conversation"][0]["value"] == "see <box>(1,2),(3,4)</box>"


def test_record_codec_unifies_trajectory_points():
    d = {
        "id": "x",
        "conversation": [{"role": "human", "value": "go"}],
        "trajectory_points": [[0.0, 0.0, 0.0], [3.0, 6.0, 0.0]],
        "source_dataset": "ora",
    }
    record = record_from_dict(d)
    assert [x for x, _ in record.trajectory.waypoints] == [1, 2, 3, 4, 5, 6]

    both = dict(d, trajectory=[[0, 0]] * 6)
    with pytest.raises(ValueError, match="not both"):
        record_from_dict(both)


def test_record_codec_missing_keys():
    with pytest.raises(ValueError, match="'id'"):
        record_from_dict({"conversation": []})
    with pytest.raises(ValueError, match="'conversation'"):
        record_from_dict({"id": "x"})


def _valid_row() -> dict:
    return {
        "id": "x",
        "images": {"front": "f.jpg"},
        "conversation": [{"role": "human", "value": "go"}],
        "trajectory_points": [[0, 0, 0], [3, 6, 0]],
        "ego_status": {"lateral_velocity": 0.0, "longitudinal_velocity": 4.0,
                       "lateral_acceleration": 0.0, "longitudinal_acceleration": 0.5,
                       "command": "GO STRAIGHT"},
        "source_dataset": "ora",
    }


@pytest.mark.parametrize("path, value, error", [
    (("conversation", 0, "role"), None, "turn role must be a string, got None"),
    (("conversation", 0, "value"), None, "turn value must be a string, got None"),
    (("conversation", 0, "value"), 5, "turn value must be a string, got 5"),
    (("images", "front"), None, "images must map view names to path strings"),
    (("images",), [["front", "f.jpg"]], "images must map view names to path strings"),
    (("images",), None, "images must map view names to path strings"),
    (("ego_status", "command"), None, "ego_status command must be a string, got None"),
    (("source_dataset",), None, "source_dataset must be a string, got None"),
    (("source_dataset",), 3, "source_dataset must be a string, got 3"),
], ids=["role-null", "value-null", "value-number", "image-path-null", "images-list",
        "images-null", "command-null", "source-null", "source-number"])
def test_record_codec_takes_only_json_strings(path, value, error):
    d = _valid_row()
    record_from_dict(d)  # valid as it stands
    *parents, key = path
    target = d
    for p in parents:
        target = target[p]
    target[key] = value
    with pytest.raises(ValueError, match=re.escape(error)):
        record_from_dict(d)


@pytest.mark.parametrize("points", [
    [[0, 0, 0, 99], [3, 6, 0]],
    [[0, 0, 0], [3, 1, 1, "x"]],
    [[0, 0], [3, 6, 0]],
    [[0, 0, 0], "abc"],
    [[0, 0, 0], {"t": 3, "x": 6, "y": 0}],
    [[0, 0, 0], 5],
    "abc",
], ids=["four-items", "four-items-string", "two-items", "string", "object",
        "number", "not-a-list"])
def test_record_codec_samples_are_three_numbers(points):
    error = "trajectory_points samples must be [t, x, y] lists"
    with pytest.raises(ValueError, match=re.escape(error)):
        record_from_dict({**_valid_row(), "trajectory_points": points})
