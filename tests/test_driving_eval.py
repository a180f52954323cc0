import math
import random

import numpy as np
import pytest

from fusionkit.driving_eval import (
    HORIZONS,
    AgentSnapshots,
    Detection,
    GroundTruthBox,
    NormalizedBox,
    OraSample,
    TrajectoryPlan,
    _rect_corners,
    box_from_list,
    collision_rate,
    detection_from_dict,
    grounding_map_report,
    gt_box_from_dict,
    iou,
    l2_error,
    ora_sample_from_dict,
    ora_score,
    planning_record_from_dict,
    rectangles_collide,
)
from oracles import (
    cell_count_iou,
    direct_interpolated_ap,
    exhaustive_match_flags,
    rectangles_overlap_by_area,
)


def ora_sample_to_dict(s: OraSample) -> dict:
    # the inverse of ora_sample_from_dict, for writing test records
    out: dict = {"sample_id": s.sample_id, "exist": s.exist}
    if s.exist:
        out["level"] = s.level
        out["category"] = s.category
        out["object"] = s.object
    if s.reason:
        out["reason"] = s.reason
    if s.grounding is not None:
        out["grounding"] = s.grounding.as_list()
    return out


# ------------------------------------------------------------------- boxes


def test_box_validation():
    with pytest.raises(ValueError):
        NormalizedBox(-1, 0, 10, 10)
    with pytest.raises(ValueError):
        NormalizedBox(0, 0, 1000, 10)
    with pytest.raises(ValueError):
        NormalizedBox(5, 0, 4, 10)
    with pytest.raises(TypeError):
        NormalizedBox(0.5, 0, 4, 10)
    assert NormalizedBox(3, 3, 3, 3).area == 1


def test_box_from_list_takes_integral_numbers_only():
    assert box_from_list([0, 0, 9.0, 9]) == NormalizedBox(0, 0, 9, 9)
    for bad in ([0, 0, 9.9, 9], [0, 0, True, 9], [0, 0, "9", 9], [0, 0, None, 9]):
        with pytest.raises(ValueError, match="must be integers"):
            box_from_list(bad)


def test_iou_half_exactly():
    a = NormalizedBox(0, 0, 9, 9)
    b = NormalizedBox(0, 0, 4, 9)
    assert iou(a, b) == 0.5


def test_iou_disjoint_and_identical():
    a = NormalizedBox(0, 0, 4, 4)
    assert iou(a, NormalizedBox(5, 0, 9, 4)) == 0.0
    assert iou(a, a) == 1.0


def test_iou_matches_cell_counting():
    rng = random.Random(7)
    for _ in range(200):
        ax1, ay1 = rng.randrange(30), rng.randrange(30)
        bx1, by1 = rng.randrange(30), rng.randrange(30)
        a = NormalizedBox(ax1, ay1, ax1 + rng.randrange(20), ay1 + rng.randrange(20))
        b = NormalizedBox(bx1, by1, bx1 + rng.randrange(20), by1 + rng.randrange(20))
        assert iou(a, b) == cell_count_iou(a.as_list(), b.as_list())


def test_detection_score_range():
    box = NormalizedBox(0, 0, 9, 9)
    with pytest.raises(ValueError):
        Detection(box, 1.5, "car")


# ------------------------------------------------------------ grounding AP


def _random_matching_case(rng):
    n_gt = rng.randrange(1, 5)
    n_pred = rng.randrange(1, 6)
    gts = [
        GroundTruthBox(_random_box(rng, 40), "obj") for _ in range(n_gt)
    ]
    preds = [
        Detection(_random_box(rng, 40), round(rng.random(), 2), "obj")
        for _ in range(n_pred)
    ]
    return preds, gts


def _random_box(rng, span):
    x1, y1 = rng.randrange(span), rng.randrange(span)
    return NormalizedBox(x1, y1, x1 + rng.randrange(25), y1 + rng.randrange(25))


def test_ap_matches_exhaustive_assignment_oracle():
    # greedy matching plus all-point interpolation must equal the AP
    # computed from exhaustively optimal assignment flags
    rng = random.Random(42)
    for _ in range(60):
        preds, gts = _random_matching_case(rng)
        report = grounding_map_report({"img": preds}, {"img": gts})
        order = sorted(
            range(len(preds)), key=lambda i: (-preds[i].score, i)
        )
        ious = [
            [iou(preds[i].box, g.box) for g in gts] for i in order
        ]
        flags = exhaustive_match_flags(ious, 0.5)
        expected = direct_interpolated_ap(flags, len(gts))
        got = report.per_class["obj"][0.5] / 100.0
        assert got == pytest.approx(expected, abs=1e-12)


def test_map_matches_oracle_across_images():
    # one ranking per class over every image: one-decimal scores tie
    # across images, and each image's flags come from exhaustive
    # assignment over its own detections in that global order
    rng = random.Random(7)
    classes = ("car", "bus")
    thresholds = (0.5, 0.75)

    def near(box):
        # a shifted copy, so that matches at both thresholds are common
        dx, dy = rng.randrange(3), rng.randrange(3)
        return NormalizedBox(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)

    for _ in range(60):
        gts, preds = {}, {}
        for image in range(rng.randrange(2, 5)):
            boxes = [GroundTruthBox(_random_box(rng, 40), rng.choice(classes))
                     for _ in range(rng.randrange(0, 4))]
            dets = []
            for _ in range(rng.randrange(0, 5)):
                if boxes and rng.random() < 0.7:
                    g = rng.choice(boxes)
                    box, label = near(g.box), g.label
                else:
                    box, label = _random_box(rng, 40), rng.choice(classes)
                dets.append(Detection(box, round(rng.random(), 1), label))
            gts[f"img{image}"], preds[f"img{image}"] = boxes, dets
        if not any(gts.values()):
            continue
        report = grounding_map_report(preds, gts, iou_thresholds=thresholds)
        for cls in report.per_class:
            dets = [(image_id, d) for image_id, ds in preds.items()
                    for d in ds if d.label == cls]
            order = sorted(range(len(dets)), key=lambda i: (-dets[i][1].score, i))
            n_gt = sum(g.label == cls for boxes in gts.values() for g in boxes)
            for thr in thresholds:
                flags = [False] * len(order)
                for image_id, boxes in gts.items():
                    ranks = [r for r, i in enumerate(order)
                             if dets[i][0] == image_id]
                    ious = [[iou(dets[order[r]][1].box, g.box)
                             for g in boxes if g.label == cls] for r in ranks]
                    for r, hit in zip(ranks, exhaustive_match_flags(ious, thr)):
                        flags[r] = hit
                expected = direct_interpolated_ap(flags, n_gt)
                got = report.per_class[cls][thr] / 100.0
                assert got == pytest.approx(expected, abs=1e-12)


def test_map_rejects_repeated_thresholds():
    gts = {"a": [GroundTruthBox(NormalizedBox(0, 0, 9, 9), "car")]}
    preds = {"a": [Detection(NormalizedBox(0, 0, 9, 9), 0.9, "car")]}
    with pytest.raises(ValueError, match="distinct"):
        grounding_map_report(preds, gts, iou_thresholds=(0.5, 0.5))


def test_map_perfect_predictions():
    gts = {
        "a": [GroundTruthBox(NormalizedBox(0, 0, 9, 9), "car")],
        "b": [GroundTruthBox(NormalizedBox(10, 10, 29, 29), "bus")],
    }
    preds = {
        "a": [Detection(NormalizedBox(0, 0, 9, 9), 0.9, "car")],
        "b": [Detection(NormalizedBox(10, 10, 29, 29), 0.8, "bus")],
    }
    assert grounding_map_report(preds, gts).map == 100.0


def test_map_hand_fixture():
    # one class, 2 GT; three preds: hit, miss, hit
    gts = {
        "a": [
            GroundTruthBox(NormalizedBox(0, 0, 9, 9), "car"),
            GroundTruthBox(NormalizedBox(50, 50, 59, 59), "car"),
        ]
    }
    preds = {
        "a": [
            Detection(NormalizedBox(0, 0, 9, 9), 0.9, "car"),
            Detection(NormalizedBox(100, 100, 109, 109), 0.8, "car"),
            Detection(NormalizedBox(50, 50, 59, 59), 0.7, "car"),
        ]
    }
    # PR points: (0.5, 1.0), (0.5, 0.5), (1.0, 2/3)
    # all-point AP = 0.5 * 1.0 + 0.5 * (2/3)
    expected = 100.0 * (0.5 + 0.5 * 2.0 / 3.0)
    assert grounding_map_report(preds, gts).map == pytest.approx(expected, abs=1e-12)


def test_map_eleven_point_differs_from_all_point():
    gts = {
        "a": [
            GroundTruthBox(NormalizedBox(0, 0, 9, 9), "car"),
            GroundTruthBox(NormalizedBox(50, 50, 59, 59), "car"),
        ]
    }
    preds = {
        "a": [
            Detection(NormalizedBox(0, 0, 9, 9), 0.9, "car"),
            Detection(NormalizedBox(100, 100, 109, 109), 0.8, "car"),
            Detection(NormalizedBox(50, 50, 59, 59), 0.7, "car"),
        ]
    }
    # eleven-point: recalls 0.0-0.5 read precision 1.0, 0.6-1.0 read 2/3
    expected = 100.0 * (6 * 1.0 + 5 * (2.0 / 3.0)) / 11.0
    got = grounding_map_report(preds, gts, interpolation="eleven_point").map
    assert got == pytest.approx(expected, abs=1e-12)


def test_map_averages_classes_then_thresholds():
    gts = {
        "a": [
            GroundTruthBox(NormalizedBox(0, 0, 9, 9), "car"),
            GroundTruthBox(NormalizedBox(50, 50, 59, 59), "bus"),
        ]
    }
    preds = {
        "a": [
            Detection(NormalizedBox(0, 0, 9, 9), 0.9, "car"),
            # bus overlap 0.5: counts at threshold 0.5, not at 0.75
            Detection(NormalizedBox(50, 50, 59, 54), 0.9, "bus"),
        ]
    }
    report = grounding_map_report(preds, gts, iou_thresholds=(0.5, 0.75))
    assert report.per_threshold[0.5] == 100.0
    assert report.per_threshold[0.75] == 50.0
    assert report.map == 75.0
    assert report.per_class["bus"][0.75] == 0.0


def test_map_ignores_classes_absent_from_gt():
    gts = {"a": [GroundTruthBox(NormalizedBox(0, 0, 9, 9), "car")]}
    preds = {
        "a": [
            Detection(NormalizedBox(0, 0, 9, 9), 0.9, "car"),
            Detection(NormalizedBox(0, 0, 9, 9), 0.9, "unicorn"),
        ]
    }
    assert grounding_map_report(preds, gts).map == 100.0


def test_map_unknown_image_id_rejected():
    gts = {"a": [GroundTruthBox(NormalizedBox(0, 0, 9, 9), "car")]}
    preds = {"zz": [Detection(NormalizedBox(0, 0, 9, 9), 0.9, "car")]}
    with pytest.raises(ValueError, match="zz"):
        grounding_map_report(preds, gts)


def test_map_empty_gt_rejected():
    with pytest.raises(ValueError):
        grounding_map_report({}, {"a": []})


# ---------------------------------------------------------------- planning


def test_trajectory_validation():
    with pytest.raises(ValueError):
        TrajectoryPlan(((0.0, 0.0),) * 5)
    with pytest.raises(ValueError):
        TrajectoryPlan(((0.0, float("nan")),) + ((0.0, 0.0),) * 5)


def test_l2_error_fixture():
    pred = TrajectoryPlan(tuple((0.0, 0.5 * (i + 1)) for i in range(6)))
    gt = TrajectoryPlan(((0.0, 0.0),) * 6)
    at = l2_error(pred, gt)
    assert at == {"1s": 1.0, "2s": 2.0, "3s": 3.0, "avg": 2.0}
    upto = l2_error(pred, gt, mode="up_to_horizon")
    assert upto["1s"] == pytest.approx(0.75)
    assert upto["2s"] == pytest.approx(1.25)
    assert upto["3s"] == pytest.approx(1.75)
    assert upto["avg"] == pytest.approx(1.25)
    with pytest.raises(ValueError):
        l2_error(pred, gt, mode="cumulative")


def test_sat_touching_is_not_collision():
    a = _rect_corners(0.0, 0.0, 2.0, 2.0, 0.0)
    b = _rect_corners(2.0, 0.0, 2.0, 2.0, 0.0)
    assert not rectangles_collide(a, b)
    assert not rectangles_overlap_by_area(a, b)


def test_sat_rotated_overlap():
    a = _rect_corners(0.0, 0.0, 2.0, 2.0, 0.0)
    b = _rect_corners(1.2, 0.0, 2.0, 2.0, math.pi / 4)
    assert rectangles_collide(a, b)
    assert rectangles_overlap_by_area(a, b)


def test_sat_agrees_with_clipping_oracle():
    rng = random.Random(11)
    for _ in range(300):
        a = _rect_corners(
            rng.uniform(-3, 3),
            rng.uniform(-3, 3),
            rng.uniform(0.5, 4.0),
            rng.uniform(0.5, 4.0),
            rng.uniform(0.0, 2.0 * math.pi),
        )
        b = _rect_corners(
            rng.uniform(-3, 3),
            rng.uniform(-3, 3),
            rng.uniform(0.5, 4.0),
            rng.uniform(0.5, 4.0),
            rng.uniform(0.0, 2.0 * math.pi),
        )
        assert rectangles_collide(a, b) == rectangles_overlap_by_area(a, b)


def snapshots(*snaps) -> AgentSnapshots:
    """AgentSnapshots from six lists of (cx, cy, length, width, heading)."""
    return AgentSnapshots([a for snap in snaps for a in snap],
                          tuple(len(snap) for snap in snaps))


def collision_flags(plan, ego_length, ego_width, agents) -> dict[str, bool]:
    """Per-horizon verdicts for one sample, read off its collision rate."""
    rates = collision_rate([(plan, agents)], ego_length, ego_width)
    assert all(rates[h] in (0.0, 100.0) for h in HORIZONS)
    return {h: rates[h] == 100.0 for h in HORIZONS}


def test_collision_horizon_accumulates():
    # agent appears only at the 2.0 s snapshot (waypoint index 3):
    # no collision at 1 s, collision at 2 s and 3 s
    plan = TrajectoryPlan(tuple((float(i + 1), 0.0) for i in range(6)))
    agent = (4.0, 0.0, 2.0, 2.0, 0.0)
    agents = snapshots([], [], [], [agent], [], [])
    flags = collision_flags(plan, 4.084, 1.85, agents)
    assert flags == {"1s": False, "2s": True, "3s": True}


def test_collision_agents_must_align():
    with pytest.raises(ValueError, match="misaligned"):
        snapshots([], [], [])
    with pytest.raises(ValueError, match="misaligned: got 3, need 6"):
        planning_record_from_dict({"sample_id": "s", "trajectory": [[0, 0]] * 6,
                                   "agents": [[], [], []]})


def test_collision_stationary_plan_keeps_heading():
    # degenerate segments never crash; heading carries forward
    plan = TrajectoryPlan(((1.0, 1.0),) * 6)
    agents = snapshots(*([] for _ in range(6)))
    flags = collision_flags(plan, 4.0, 2.0, agents)
    assert flags == {"1s": False, "2s": False, "3s": False}


def test_collision_heading_follows_turn():
    # ego drives +x then turns +y; at the corner the box must rotate,
    # so a wide agent beside the path is hit only once turned
    plan = TrajectoryPlan(
        ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (3.0, 2.0), (3.0, 3.0))
    )
    # ego is 4 long, 1 wide; agent sits at x=3, y=4.4: reachable only
    # while pointing +y (half-length 2 + half-extent 0.5 > 1.4 gap)
    agent = (3.0, 4.4, 1.0, 1.0, 0.0)
    agents = snapshots(*([agent] for _ in range(6)))
    flags = collision_flags(plan, 4.0, 1.0, agents)
    assert flags["1s"] is False
    assert flags["3s"] is True


def test_collision_rate_counts_samples():
    hit_plan = TrajectoryPlan(tuple((float(i + 1), 0.0) for i in range(6)))
    agent = (1.0, 0.0, 2.0, 2.0, 0.0)
    miss_plan = TrajectoryPlan(tuple((float(i + 1), 50.0) for i in range(6)))
    agents = snapshots(*([agent] for _ in range(6)))
    samples = [
        (hit_plan, agents),
        (miss_plan, agents),
    ]
    rates = collision_rate(samples, 4.084, 1.85)
    assert rates == {"1s": 50.0, "2s": 50.0, "3s": 50.0, "avg": 50.0}
    with pytest.raises(ValueError):
        collision_rate([], 4.0, 2.0)


def test_agent_snapshots_rows_and_views():
    a = (1.0, 2.0, 4.0, 2.0, 0.1)
    b = (-1.0, 0.5, 3.0, 1.5, 0.0)
    snaps = snapshots([a], [], [a, b], [], [], [])
    assert snaps.sizes == (1, 0, 2, 0, 0, 0)
    assert snaps.rows.dtype == np.float64 and snaps.rows.shape == (3, 5)
    assert snaps.rows.tolist() == [list(a), list(a), list(b)]
    assert snapshots(*([] for _ in range(6))).rows.shape == (0, 5)
    one = (1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="finite"):
        AgentSnapshots([(0.0, 0.0, 1.0, 1.0, float("nan"))], one)
    with pytest.raises(ValueError, match="positive"):
        AgentSnapshots([(0.0, 0.0, 0.0, 1.0, 0.0)], one)
    with pytest.raises(ValueError, match="add up"):
        AgentSnapshots([(0.0, 0.0, 1.0, 1.0, 0.0)], (2, 0, 0, 0, 0, 0))


# --------------------------------------------------------------------- ORA


def _ora_fixture():
    gts = [
        OraSample("s0", True, "high", "collision_possibility", "car"),
        OraSample("s1", True, "low", "potential_risk", "truck"),
        OraSample("s2", True, "medium", "view_obstruction", "bus"),
        OraSample("s3", True, "high", "traffic_rule_violation", "pedestrian"),
        OraSample("s4", True, "low", "collision_possibility", "car"),
        OraSample("s5", True, "medium", "potential_risk", "van"),
        OraSample("s6", True, "high", "collision_possibility", "cyclist"),
        OraSample("s7", False),
        OraSample("s8", False),
        OraSample("s9", False),
    ]
    preds = [
        OraSample("s0", True, "high", "collision_possibility", "Car"),
        OraSample("s1", True, "medium", "potential_risk", "truck"),
        OraSample("s2", True, "medium", "collision_possibility", "bus "),
        OraSample("s3", True, "low", "traffic_rule_violation", "pedestrian"),
        OraSample("s4", False),
        OraSample("s5", False),
        OraSample("s6", False),
        OraSample("s7", False),
        OraSample("s8", False),
        OraSample("s9", True, "low", "view_obstruction", "ghost"),
    ]
    return preds, gts


def test_ora_fixture_scores():
    preds, gts = _ora_fixture()
    report = ora_score(preds, gts)
    assert report.exist_acc == 60.0
    assert report.level_acc == 50.0
    assert report.cate_acc == 75.0
    assert report.object_acc == 100.0
    assert report.total == 10
    assert report.gated == 4


def test_ora_all_gt_true_gating():
    preds, gts = _ora_fixture()
    report = ora_score(preds, gts, gating="all_gt_true")
    # every GT-positive sample is in the denominator; existence misses
    # count against the conditional fields
    assert report.exist_acc == 60.0
    assert report.level_acc == pytest.approx(100.0 * 2 / 7)
    assert report.cate_acc == pytest.approx(100.0 * 3 / 7)
    assert report.object_acc == pytest.approx(100.0 * 4 / 7)
    assert report.gated == 7


def test_ora_degenerate_gate_is_none_not_zero():
    gts = [OraSample("a", False), OraSample("b", False)]
    preds = [OraSample("a", False), OraSample("b", True, "low",
                                              "potential_risk", "car")]
    report = ora_score(preds, gts)
    assert report.exist_acc == 50.0
    assert report.level_acc is None
    assert report.cate_acc is None
    assert report.object_acc is None
    d = report.to_dict()
    assert d["level_acc"] == "N/A"
    assert d["cate_acc"] == "N/A"
    assert d["object_acc"] == "N/A"


def test_ora_sample_validation():
    with pytest.raises(ValueError):
        OraSample("x", True)
    with pytest.raises(ValueError):
        OraSample("x", True, "severe", "potential_risk", "car")
    with pytest.raises(ValueError):
        OraSample("x", False, object="car")


def test_ora_id_mismatch_rejected():
    gts = [OraSample("a", False)]
    preds = [OraSample("b", False)]
    with pytest.raises(ValueError, match="missing.*'a'"):
        ora_score(preds, gts)
    with pytest.raises(ValueError):
        ora_score(preds, [])
    with pytest.raises(ValueError):
        ora_score([OraSample("a", False)], gts, gating="lenient")


# ------------------------------------------------------------------ codecs


def test_detection_codec():
    image_id, det = detection_from_dict(
        {"image_id": "f01", "box": [1, 2, 30, 40], "score": 0.75, "label": "car"}
    )
    assert image_id == "f01"
    assert det.box.as_list() == [1, 2, 30, 40]
    assert det.score == 0.75
    with pytest.raises(ValueError, match="missing"):
        detection_from_dict({"image_id": "f01", "score": 0.5, "label": "car"})
    with pytest.raises(ValueError):
        detection_from_dict(
            {"image_id": "f", "box": [1, 2, 3], "score": 0.5, "label": "car"}
        )


def test_gt_and_planning_codecs():
    image_id, gt = gt_box_from_dict(
        {"image_id": "f01", "box": [0, 0, 9, 9], "label": "bus"}
    )
    assert (image_id, gt.label) == ("f01", "bus")

    record = {
        "sample_id": "p1",
        "trajectory": [[0.5 * i, 0.1] for i in range(6)],
        "agents": [[{"cx": 1.0, "cy": 2.0, "length": 4.0, "width": 2.0,
                     "heading": 0.1}]] * 6,
    }
    sample_id, plan, agents = planning_record_from_dict(record)
    assert sample_id == "p1"
    assert len(plan.waypoints) == 6
    assert agents.sizes == (1,) * 6
    assert agents.rows[0].tolist() == [1.0, 2.0, 4.0, 2.0, 0.1]

    # a row without agents, or with null agents, has six empty snapshots
    for no_agents in ({k: v for k, v in record.items() if k != "agents"},
                      dict(record, agents=None)):
        _, _, agents = planning_record_from_dict(no_agents)
        assert agents.sizes == (0,) * 6 and agents.rows.shape == (0, 5)


def test_ora_codec_round_trip():
    preds, gts = _ora_fixture()
    for sample in preds + gts:
        assert ora_sample_from_dict(ora_sample_to_dict(sample)) == sample
    parsed = ora_sample_from_dict(
        {"sample_id": "g", "exist": True, "level": "high",
         "category": "potential_risk", "object": "car",
         "grounding": [1, 2, 3, 4]}
    )
    assert parsed.grounding == NormalizedBox(1, 2, 3, 4)
