"""Driving-task evaluation: grounding mAP, open-loop planning, ORA scores.

Boxes live on the inclusive integer grid [0, 999]^2; IoU is exact
integer arithmetic with a single final division. Planning trajectories
are six (x, y) waypoints on a fixed 0.5 s grid covering 3 s; the agents
around a sample are six snapshots, one per waypoint, held as float64
rows (``AgentSnapshots``). Collision checks run a separating-axis test
on oriented rectangles; touching boundaries do not count as collision
(consistent with a positive intersection-area oracle). ORA accuracies
are exist-gated: the conditional fields only score on samples where
existence was predicted correctly and the ground truth says the risk
exists. A degenerate denominator yields None, never 0 or 100.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .exact import _ordered_sum
from .jsontypes import (
    NAMED_OFFENDERS,
    field_dict,
    is_integral,
    require,
    require_bool,
    require_float,
    require_id,
    require_numbers,
    require_str,
)

__all__ = [
    "NormalizedBox",
    "Detection",
    "GroundTruthBox",
    "TrajectoryPlan",
    "AgentSnapshots",
    "OraSample",
    "OraReport",
    "GroundingReport",
    "iou",
    "align_ids",
    "grounding_map_report",
    "l2_error",
    "collision_counts",
    "collision_rate",
    "rates_from_counts",
    "ora_score",
    "HORIZONS",
    "ORA_LEVELS",
    "ORA_CATEGORIES",
]

GRID_MAX = 999  # box corners lie on the inclusive grid 0..GRID_MAX
WAYPOINT_TIMES = tuple(0.5 * i for i in range(1, 7))  # seconds
WAYPOINT_COUNT = len(WAYPOINT_TIMES)
HORIZONS = ("1s", "2s", "3s")
# the waypoint sitting at each horizon
_HORIZON_LAST_INDEX = {h: WAYPOINT_TIMES.index(float(h[:-1])) for h in HORIZONS}

ORA_LEVELS = ("low", "medium", "high")
ORA_CATEGORIES = (
    "view_obstruction",
    "collision_possibility",
    "traffic_rule_violation",
    "potential_risk",
)
ORA_GATING_MODES = ("correct_exist", "all_gt_true")
L2_MODES = ("at_horizon", "up_to_horizon")
AP_INTERPOLATIONS = ("all_point", "eleven_point")


@dataclass(frozen=True)
class NormalizedBox:
    """Axis-aligned box with integer corners on the inclusive 0..999 grid."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"{name} must be an int, got {type(v).__name__}")
            if not 0 <= v <= GRID_MAX:
                raise ValueError(f"{name}={v} outside [0, {GRID_MAX}]")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError("box corners must satisfy x1 <= x2 and y1 <= y2")

    @property
    def area(self) -> int:
        # inclusive grid: a degenerate box still covers one cell per axis
        return (self.x2 - self.x1 + 1) * (self.y2 - self.y1 + 1)

    def as_list(self) -> list[int]:
        return [self.x1, self.y1, self.x2, self.y2]


def iou(a: NormalizedBox, b: NormalizedBox) -> float:
    """Intersection over union on the inclusive grid, exact until the
    final division."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1) + 1
    ih = min(a.y2, b.y2) - max(a.y1, b.y1) + 1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


@dataclass(frozen=True)
class Detection:
    box: NormalizedBox
    score: float
    label: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class GroundTruthBox:
    box: NormalizedBox
    label: str


def _ap_all_point(recalls: Sequence[float], precisions: Sequence[float]) -> float:
    mrec = [0.0, *recalls, 1.0]
    mpre = [0.0, *precisions, 0.0]
    for i in range(len(mpre) - 2, -1, -1):
        if mpre[i + 1] > mpre[i]:
            mpre[i] = mpre[i + 1]
    ap = 0.0
    for i in range(len(mrec) - 1):
        if mrec[i + 1] != mrec[i]:
            ap += (mrec[i + 1] - mrec[i]) * mpre[i + 1]
    return ap


def _ap_eleven_point(recalls: Sequence[float], precisions: Sequence[float]) -> float:
    total = 0.0
    for step in range(11):
        r = step / 10.0
        best = 0.0
        for rr, pp in zip(recalls, precisions):
            if rr >= r and pp > best:
                best = pp
        total += best
    return total / 11.0


_AP_METHODS = dict(zip(AP_INTERPOLATIONS, (_ap_all_point, _ap_eleven_point)))


@dataclass(frozen=True)
class GroundingReport:
    map: float
    per_threshold: Mapping[float, float]
    per_class: Mapping[str, Mapping[float, float]]
    gt_count: int
    prediction_count: int

    def to_dict(self) -> dict:
        return {
            "mAP": self.map,
            "per_threshold": {str(t): v for t, v in self.per_threshold.items()},
            "per_class": {
                c: {str(t): v for t, v in row.items()}
                for c, row in self.per_class.items()
            },
            "gt_count": self.gt_count,
            "prediction_count": self.prediction_count,
        }


def grounding_map_report(
    preds: Mapping[str, Sequence[Detection]],
    gts: Mapping[str, Sequence[GroundTruthBox]],
    iou_thresholds: Sequence[float] = (0.5,),
    interpolation: str = "all_point",
) -> GroundingReport:
    """Mean average precision over classes, then thresholds, times 100.

    ``preds`` may omit images (no detections there) but must not name
    images absent from ``gts``. Classes never seen in the ground truth do
    not enter the mean; their detections are ignored rather than averaged
    in as zero-AP phantom classes.

    Per class and threshold, AP is one walk over the class's detections
    from every image, by descending score with ties in input order. Each
    detection takes the unmatched GT box of its own image with the
    highest IoU at or above the threshold (equal IoUs: the earlier box).
    """
    if interpolation not in _AP_METHODS:
        raise ValueError(f"interpolation must be one of {sorted(_AP_METHODS)}")
    thresholds = list(iou_thresholds)
    if not thresholds or any(not (0.0 < t <= 1.0) for t in thresholds):
        raise ValueError("IoU thresholds must lie in (0, 1]")
    if len(set(thresholds)) != len(thresholds):
        raise ValueError(f"IoU thresholds must be distinct, got {thresholds}")
    unknown = sorted(set(preds) - set(gts))
    if unknown:
        raise ValueError(f"predictions name unknown image ids: {unknown}")

    # per class: each image's GT boxes, and the detections in input order
    gt_boxes: dict[str, dict[str, list[NormalizedBox]]] = {}
    for image_id, boxes in gts.items():
        for g in boxes:
            gt_boxes.setdefault(g.label, {}).setdefault(image_id, []).append(g.box)
    if not gt_boxes:
        raise ValueError("ground truth holds no boxes; mAP is undefined")
    classes = sorted(gt_boxes)
    detections: dict[str, list[tuple[str, Detection]]] = {c: [] for c in classes}
    for image_id, dets in preds.items():
        for det in dets:
            if det.label in detections:
                detections[det.label].append((image_id, det))
    ap_fn = _AP_METHODS[interpolation]

    per_class: dict[str, dict[float, float]] = {}
    for cls in classes:
        images = gt_boxes[cls]
        n_gt = sum(map(len, images.values()))
        ranked = sorted(detections[cls], key=lambda p: -p[1].score)
        per_class[cls] = {}
        for thr in thresholds:
            taken = {image_id: [False] * len(b) for image_id, b in images.items()}
            recalls: list[float] = []
            precisions: list[float] = []
            tp = 0
            for rank, (image_id, det) in enumerate(ranked, start=1):
                best_iou, best = 0.0, -1
                for g, box in enumerate(images.get(image_id, ())):
                    if not taken[image_id][g]:
                        overlap = iou(det.box, box)
                        if overlap >= thr and overlap > best_iou:
                            best_iou, best = overlap, g
                if best >= 0:
                    taken[image_id][best] = True
                    tp += 1
                recalls.append(tp / n_gt)
                precisions.append(tp / rank)
            per_class[cls][thr] = ap_fn(recalls, precisions)

    per_threshold = {
        thr: _ordered_sum(per_class[c][thr] for c in classes) / len(classes)
        for thr in thresholds
    }
    map_value = 100.0 * _ordered_sum(per_threshold.values()) / len(thresholds)
    return GroundingReport(
        map=map_value,
        per_threshold={t: 100.0 * v for t, v in per_threshold.items()},
        per_class={
            c: {t: 100.0 * v for t, v in row.items()}
            for c, row in per_class.items()
        },
        gt_count=sum(map(len, gts.values())),
        prediction_count=sum(map(len, preds.values())),
    )


# --------------------------------------------------------------- planning


@dataclass(frozen=True)
class TrajectoryPlan:
    """Six ego-frame (x, y) waypoints at 0.5 s steps covering 3 s."""

    waypoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        wps = tuple((float(x), float(y)) for x, y in self.waypoints)
        if len(wps) != WAYPOINT_COUNT:
            raise ValueError(f"a plan needs {WAYPOINT_COUNT} waypoints, got {len(wps)}")
        if any(not (math.isfinite(x) and math.isfinite(y)) for x, y in wps):
            raise ValueError("waypoints must be finite")
        object.__setattr__(self, "waypoints", wps)


@dataclass(frozen=True, eq=False)
class AgentSnapshots:
    """The agents of one planning sample, one snapshot per waypoint.

    ``rows`` holds one float64 row ``cx, cy, length, width, heading`` per
    agent rectangle, snapshot after snapshot; ``sizes[t]`` is the number
    of rows in snapshot t, the agents at waypoint t's timestamp. There
    are exactly six snapshots, one per waypoint; a snapshot may be empty.
    """

    rows: np.ndarray
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.size == 0:
            rows = rows.reshape(0, 5)
        if rows.ndim != 2 or rows.shape[1] != 5:
            raise ValueError("agent rows must be cx, cy, length, width, heading")
        sizes = tuple(int(n) for n in self.sizes)
        if len(sizes) != WAYPOINT_COUNT:
            raise ValueError(
                f"agent snapshots misaligned: got {len(sizes)}, "
                f"need {WAYPOINT_COUNT} (one per waypoint)"
            )
        if any(n < 0 for n in sizes) or sum(sizes) != len(rows):
            raise ValueError("snapshot sizes must add up to the agent rows")
        # one reduction on the valid path
        valid = np.isfinite(rows)
        valid[:, 2:4] &= rows[:, 2:4] > 0.0
        if not valid.all():
            if not np.isfinite(rows).all():
                raise ValueError("agent box fields must be finite")
            raise ValueError("agent extents must be positive")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "sizes", sizes)


# six empty snapshots: the agents of a planning row without "agents"
_NO_AGENTS = AgentSnapshots(np.empty((0, 5)), (0,) * WAYPOINT_COUNT)


def l2_error(
    pred: TrajectoryPlan, gt: TrajectoryPlan, mode: str = "at_horizon"
) -> dict[str, float]:
    """L2 displacement against the ground-truth plan per horizon.

    ``at_horizon`` reads the single waypoint sitting exactly at 1, 2 and
    3 seconds; ``up_to_horizon`` averages all waypoints up to and
    including the horizon. ``avg`` is the mean of the three horizon
    numbers in both modes.
    """
    if mode not in L2_MODES:
        raise ValueError(f"mode must be one of {L2_MODES}")
    dists = [
        math.hypot(px - gx, py - gy)
        for (px, py), (gx, gy) in zip(pred.waypoints, gt.waypoints)
    ]
    out: dict[str, float] = {}
    for horizon in HORIZONS:
        last = _HORIZON_LAST_INDEX[horizon]
        if mode == "at_horizon":
            out[horizon] = dists[last]
        else:
            out[horizon] = _ordered_sum(dists[: last + 1]) / (last + 1)
    out["avg"] = _ordered_sum(out[h] for h in HORIZONS) / len(HORIZONS)
    return out


def _rect_corners(
    cx: float, cy: float, length: float, width: float, heading: float
) -> list[tuple[float, float]]:
    ch, sh = math.cos(heading), math.sin(heading)
    hl, hw = length / 2.0, width / 2.0
    corners = []
    for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        dx, dy = sx * hl, sy * hw
        corners.append((cx + dx * ch - dy * sh, cy + dx * sh + dy * ch))
    return corners


def _project(corners: Sequence[tuple[float, float]], ax: float, ay: float):
    dots = [x * ax + y * ay for x, y in corners]
    return min(dots), max(dots)


def rectangles_collide(
    a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]
) -> bool:
    """Separating-axis test for two oriented rectangles (corner lists).

    Overlap must be strict: rectangles that merely touch along an edge
    or at a corner are not in collision.
    """
    for corners in (a, b):
        for i in range(2):
            x1, y1 = corners[i]
            x2, y2 = corners[i + 1]
            ax, ay = -(y2 - y1), x2 - x1
            min_a, max_a = _project(a, ax, ay)
            min_b, max_b = _project(b, ax, ay)
            if max_a <= min_b or max_b <= min_a:
                return False
    return True


def _ego_headings(waypoints: Sequence[tuple[float, float]]) -> list[float]:
    # each waypoint takes the heading of the segment into it, waypoint 0
    # that of the first segment; a zero-length segment keeps the last one
    headings = []
    heading = 0.0
    for (x0, y0), (x1, y1) in zip(waypoints, waypoints[1:]):
        dx, dy = x1 - x0, y1 - y0
        if dx or dy:
            heading = math.atan2(dy, dx)
        headings.append(heading)
    return headings[:1] + headings


def _corner_arrays(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner x and y arrays, shape (4, len(rows)), of rectangles given as
    ``cx, cy, length, width, heading`` rows.

    The same operations in the same order as ``_rect_corners``, with
    ``math.cos``/``math.sin``, so every corner equals the scalar one.
    """
    cx, cy, length, width, heading = rows.T
    angles = heading.tolist()
    ch = np.fromiter(map(math.cos, angles), np.float64, len(angles))
    sh = np.fromiter(map(math.sin, angles), np.float64, len(angles))
    hl, hw = length / 2.0, width / 2.0
    xs, ys = [], []
    for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        dx, dy = sx * hl, sy * hw
        xs.append(cx + dx * ch - dy * sh)
        ys.append(cy + dx * sh + dy * ch)
    return np.stack(xs), np.stack(ys)


def _rectangles_collide_rows(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> np.ndarray:
    """``rectangles_collide`` for every column pair of (4, n) corner arrays
    at once: the same axes and projections, without the early exit."""
    hit = np.ones(ax.shape[1], dtype=bool)
    for xs, ys in ((ax, ay), (bx, by)):
        for i in range(2):
            nx = -(ys[i + 1] - ys[i])
            ny = xs[i + 1] - xs[i]
            pa = ax * nx + ay * ny
            pb = bx * nx + by * ny
            min_a, max_a = pa.min(axis=0), pa.max(axis=0)
            min_b, max_b = pb.min(axis=0), pb.max(axis=0)
            hit &= ~((max_a <= min_b) | (max_b <= min_a))
    return hit


def collision_counts(
    samples: Sequence[tuple[TrajectoryPlan, AgentSnapshots]],
    ego_length: float,
    ego_width: float,
) -> list[int]:
    """How many of ``samples`` collide at each horizon of ``HORIZONS``, as
    ``collision_rate`` judges them. Counts add up over any split of the
    samples; no samples count 0.

    One separating-axis pass covers every sample, so the temporaries grow
    with the number of agent rows in the call.
    """
    if ego_length <= 0.0 or ego_width <= 0.0:
        raise ValueError("ego extents must be positive")
    ego_rows = []
    agent_rows = [np.empty((0, 5))]
    sizes: list[int] = []
    for plan, agents in samples:
        headings = _ego_headings(plan.waypoints)
        ego_rows += [
            (x, y, ego_length, ego_width, h)
            for (x, y), h in zip(plan.waypoints, headings)
        ]
        agent_rows.append(agents.rows)
        sizes += agents.sizes
    # per (sample, waypoint t) slot: the ego overlaps an agent of snapshot t
    hits = np.zeros(len(sizes), dtype=bool)
    rows = np.concatenate(agent_rows)
    if len(rows):
        # the (sample, waypoint) slot of each agent row
        owner = np.repeat(np.arange(len(sizes)), sizes)
        ex, ey = _corner_arrays(np.array(ego_rows, dtype=np.float64))
        ax, ay = _corner_arrays(rows)
        hit = _rectangles_collide_rows(ex[:, owner], ey[:, owner], ax, ay)
        hits[owner[hit]] = True
    hits = hits.reshape(len(samples), WAYPOINT_COUNT)
    last = [_HORIZON_LAST_INDEX[h] for h in HORIZONS]
    return np.logical_or.accumulate(hits, axis=1)[:, last].sum(axis=0).tolist()


def rates_from_counts(counts: Sequence[int], sample_count: int) -> dict[str, float]:
    """Per-horizon ``collision_counts`` as percentages of ``sample_count``
    samples, plus their mean."""
    if sample_count == 0:
        raise ValueError("collision rate needs at least one sample")
    rates = {h: 100.0 * c / sample_count for h, c in zip(HORIZONS, counts)}
    rates["avg"] = _ordered_sum(rates[h] for h in HORIZONS) / len(HORIZONS)
    return rates


def collision_rate(
    samples: Sequence[tuple[TrajectoryPlan, AgentSnapshots]],
    ego_length: float,
    ego_width: float,
) -> dict[str, float]:
    """Percentage of colliding samples per horizon, plus their mean.

    Each sample pairs a planned trajectory with the agents around it. A
    plan collides at a horizon when the ego rectangle at any waypoint up
    to that horizon overlaps an agent of that waypoint's snapshot.
    """
    return rates_from_counts(collision_counts(samples, ego_length, ego_width),
                             len(samples))


# -------------------------------------------------------------------- ORA


@dataclass(frozen=True)
class OraSample:
    """One object-level risk assessment answer.

    The conditional fields (level, category, object) are present exactly
    when ``exist`` is true; ``grounding`` optionally carries the risk
    target box.
    """

    sample_id: str
    exist: bool
    level: str | None = None
    category: str | None = None
    object: str | None = None
    reason: str = ""
    grounding: NormalizedBox | None = None

    def __post_init__(self) -> None:
        if self.exist:
            if self.level not in ORA_LEVELS:
                raise ValueError(f"level must be one of {ORA_LEVELS}")
            if self.category not in ORA_CATEGORIES:
                raise ValueError(f"category must be one of {ORA_CATEGORIES}")
            if not self.object:
                raise ValueError("object is required when exist is true")
        else:
            if self.level is not None or self.category is not None or self.object:
                raise ValueError(
                    "level/category/object must be absent when exist is false"
                )


@dataclass(frozen=True)
class OraReport:
    exist_acc: float
    level_acc: float | None
    cate_acc: float | None
    object_acc: float | None
    total: int
    gated: int
    gating: str

    def to_dict(self) -> dict:
        # an accuracy with no gated samples is written "N/A"
        return {k: "N/A" if v is None else v
                for k, v in field_dict(self).items()}


def _listed(ids: list[str]) -> str:
    """``ids`` as a list display that names at most ``NAMED_OFFENDERS``
    ids and counts the rest."""
    shown = ", ".join(map(repr, ids[:NAMED_OFFENDERS]))
    more = len(ids) - NAMED_OFFENDERS
    return f"[{shown}, … and {more} more]" if more > 0 else f"[{shown}]"


def align_ids(pred_ids: Sequence[str], gt_ids: Sequence[str]) -> None:
    """Require the prediction ids to name each GT id exactly once. The
    error names at most ``NAMED_OFFENDERS`` missing, extra or duplicate
    ids each, in sorted order, and counts the rest."""
    preds, gts = set(pred_ids), set(gt_ids)
    missing = sorted(gts - preds)
    extra = sorted(preds - gts)
    if missing or extra:
        raise ValueError(
            f"prediction ids do not match GT ids "
            f"(missing={_listed(missing)}, extra={_listed(extra)})"
        )
    for what, ids, distinct in (("prediction", pred_ids, preds),
                                ("GT", gt_ids, gts)):
        if len(distinct) != len(ids):
            dupes = sorted(i for i, c in Counter(ids).items() if c > 1)
            raise ValueError(f"duplicate {what} ids: {_listed(dupes)}")


def _norm_object(text: str) -> str:
    return text.strip().lower()


def ora_score(
    preds: Sequence[OraSample],
    gts: Sequence[OraSample],
    gating: str = "correct_exist",
) -> OraReport:
    """Exist accuracy plus exist-gated level/category/object accuracies.

    ``correct_exist`` gates the conditional accuracies on samples whose
    existence bit was predicted correctly and is true in the ground
    truth. ``all_gt_true`` scores every GT-positive sample instead,
    counting an existence miss as wrong on each conditional field.
    """
    if gating not in ORA_GATING_MODES:
        raise ValueError(f"gating must be one of {ORA_GATING_MODES}")
    if not gts:
        raise ValueError("ora_score needs at least one sample")
    align_ids([p.sample_id for p in preds], [g.sample_id for g in gts])
    by_id = {p.sample_id: p for p in preds}

    exist_hits = 0
    level_hits = cate_hits = object_hits = 0
    denom = 0
    for gt in gts:
        pred = by_id[gt.sample_id]
        exist_correct = pred.exist == gt.exist
        exist_hits += 1 if exist_correct else 0
        if gating == "correct_exist":
            in_gate = exist_correct and gt.exist
        else:
            in_gate = gt.exist
        if not in_gate:
            continue
        denom += 1
        if not (pred.exist and gt.exist):
            continue  # all_gt_true mode: existence miss scores zero
        level_hits += 1 if pred.level == gt.level else 0
        cate_hits += 1 if pred.category == gt.category else 0
        object_hits += 1 if _norm_object(pred.object) == _norm_object(gt.object) else 0

    def pct(hits: int) -> float | None:
        return 100.0 * hits / denom if denom else None

    return OraReport(
        exist_acc=100.0 * exist_hits / len(gts),
        level_acc=pct(level_hits),
        cate_acc=pct(cate_hits),
        object_acc=pct(object_hits),
        total=len(gts),
        gated=denom,
        gating=gating,
    )


# ----------------------------------------------------------- record codecs
# Decoders for the JSONL record shapes the CLI consumes: each takes one
# parsed row and returns typed values, or raises ValueError saying what is
# wrong. File handling, and naming the file and record, stays in the CLI.


def box_from_list(raw) -> NormalizedBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ValueError(f"box must be a 4-item list, got {raw!r}")
    if not all(is_integral(v) for v in raw):
        raise ValueError(f"box values must be integers, got {raw!r}")
    return NormalizedBox(*(int(v) for v in raw))


def detection_from_dict(d: Mapping) -> tuple[str, Detection]:
    image_id = require_id(d, "image_id")
    box = box_from_list(require(d, "box"))
    score = require_float(require(d, "score"), "score")
    label = require_str(require(d, "label"), "label")
    return image_id, Detection(box=box, score=score, label=label)


def gt_box_from_dict(d: Mapping) -> tuple[str, GroundTruthBox]:
    image_id = require_id(d, "image_id")
    return image_id, GroundTruthBox(
        box=box_from_list(require(d, "box")),
        label=require_str(require(d, "label"), "label"),
    )


def plan_from_list(raw) -> TrajectoryPlan:
    """A ``trajectory`` field: a list of [x, y] JSON-number waypoints."""
    if not (isinstance(raw, (list, tuple)) and all(
            isinstance(wp, (list, tuple)) and len(wp) == 2 for wp in raw)):
        raise ValueError("trajectory must be a list of [x, y] waypoints")
    require_numbers([v for wp in raw for v in wp], "trajectory waypoints")
    try:
        return TrajectoryPlan(raw)
    except OverflowError as err:
        raise ValueError(
            f"trajectory waypoints must be finite numbers: {err}"
        ) from None


_AGENT_FIELDS = ("cx", "cy", "length", "width", "heading")
_agent_values = operator.itemgetter(*_AGENT_FIELDS)


def _agents_from_list(snapshots) -> AgentSnapshots:
    if not isinstance(snapshots, (list, tuple)):
        raise ValueError("agents must be a list of per-waypoint snapshots")
    values: list = []  # every agent's five fields, agent after agent
    for t, snap in enumerate(snapshots):
        if not isinstance(snap, (list, tuple)):
            raise ValueError(
                f"agents[{t}] must be a list of agent objects, "
                f"got {type(snap).__name__}"
            )
        try:
            values += chain.from_iterable(map(_agent_values, snap))
        except KeyError as err:
            raise ValueError(
                f"record missing required key {err.args[0]!r}"
            ) from None
        except TypeError:
            raise ValueError(
                f"agents[{t}] must hold agent objects with keys "
                f"{', '.join(_AGENT_FIELDS)}"
            ) from None
    require_numbers(values, "agent box fields")
    try:
        rows = np.array(values, dtype=np.float64).reshape(-1, len(_AGENT_FIELDS))
    except OverflowError as err:
        raise ValueError(f"agent box fields must be finite: {err}") from None
    return AgentSnapshots(rows, tuple(len(snap) for snap in snapshots))


def planning_record_from_dict(
    d: Mapping,
) -> tuple[str, TrajectoryPlan, AgentSnapshots]:
    """One planning row, prediction or ground truth: ``sample_id``,
    ``trajectory`` and optional ``agents``. A row without agents (or
    with ``"agents": null``) gets six empty snapshots."""
    sample_id = require_id(d, "sample_id")
    plan = plan_from_list(require(d, "trajectory"))
    agents = d.get("agents")
    if agents is None:
        return sample_id, plan, _NO_AGENTS
    return sample_id, plan, _agents_from_list(agents)


def ora_sample_from_dict(d: Mapping) -> OraSample:
    """One ORA answer. ``exist`` must be a JSON boolean, and ``level``,
    ``category``, ``object`` and ``reason`` strings where given."""
    exist = require_bool(require(d, "exist"), "exist")
    text = {key: require_str(d[key], key)
            for key in ("level", "category", "object", "reason")
            if d.get(key) is not None}
    grounding = None
    if d.get("grounding") is not None:
        grounding = box_from_list(d["grounding"])
    return OraSample(
        sample_id=require_id(d, "sample_id"),
        exist=exist,
        level=text.get("level"),
        category=text.get("category"),
        object=text.get("object"),
        reason=text.get("reason", ""),
        grounding=grounding,
    )

