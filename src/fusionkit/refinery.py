"""Dataset refinement: tag grammar, unit quantization, record filtering.

The tag grammar has three forms: ``<ref>...</ref>`` around a referring
phrase, ``<box>(x1,y1),(x2,y2)</box>`` with integer corners, and
``<|camera_X|>`` for the six-view vocabulary. Parsing is total over
arbitrary text; unknown tag-like sequences stay plain. The single hard
error is a malformed coordinate payload inside a recognized box tag,
reported with its byte offset. Legacy spellings with stray whitespace
inside the delimiters are accepted and reserialize canonically.

BoxSpan deliberately stores raw integers without range validation:
out-of-range and inverted boxes must survive parsing so the refine pass
can count and drop them. ``refine_records`` makes that one pass over the
records: it normalizes pixel boxes, drops invalid boxes, rounds
decimals, drops records that lost their grounding and classifies the
answer, building each kept record once.

Records enter through ``record_from_dict``: an id is a JSON string or
integer, and every trajectory and ego-status value is a JSON number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

from .driving_eval import (
    GRID_MAX,
    WAYPOINT_TIMES,
    NormalizedBox,
    TrajectoryPlan,
    plan_from_list,
)
from .jsontypes import field_dict, require_id, require_numbers, require_str
from .text_metrics import tokenize

__all__ = [
    "CAMERA_VIEWS",
    "DATASET_SOURCES",
    "EGO_COMMANDS",
    "ANSWER_CLASSES",
    "PlainText",
    "RefSpan",
    "BoxSpan",
    "CameraTag",
    "TaggedText",
    "TagParseError",
    "TrajectoryCoverageError",
    "EgoStatus",
    "ConversationTurn",
    "UnifiedRecord",
    "RefineReport",
    "parse_tags",
    "serialize_tags",
    "round_half_away",
    "quantize_decimal",
    "normalize_box",
    "encode_ego_status",
    "unify_trajectory",
    "classify_answer_length",
    "refine_records",
    "record_from_dict",
    "record_to_dict",
]

# the six-camera vocabulary, also the interactor's default view names
CAMERA_VIEWS = (
    "front",
    "front_left",
    "front_right",
    "back",
    "back_left",
    "back_right",
)
DATASET_SOURCES = ("nuscenes-qa", "nuscenes-mqa", "omnidrive", "nuinstruct", "ora")
EGO_COMMANDS = ("TURN LEFT", "TURN RIGHT", "GO STRAIGHT")
ANSWER_CLASSES = ("short", "long")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


# ---------------------------------------------------------------- segments


@dataclass(frozen=True)
class PlainText:
    text: str


@dataclass(frozen=True)
class RefSpan:
    text: str


@dataclass(frozen=True)
class BoxSpan:
    """Box tag payload, kept raw: validity is the refine pass's concern."""

    x1: int
    y1: int
    x2: int
    y2: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class CameraTag:
    view: str

    def __post_init__(self) -> None:
        if self.view not in CAMERA_VIEWS:
            raise ValueError(
                f"unknown camera view {self.view!r}; expected one of {CAMERA_VIEWS}"
            )


Segment = PlainText | RefSpan | BoxSpan | CameraTag


class TagParseError(ValueError):
    """Malformed payload inside a recognized box tag."""

    def __init__(self, message: str, offset: int, payload: str):
        super().__init__(f"{message} at byte {offset}: {payload!r}")
        self.offset = offset
        self.payload = payload


@dataclass(frozen=True)
class TaggedText:
    """Parsed tagged string: its segment sequence."""

    segments: tuple[Segment, ...]

    def has_grounding_tags(self) -> bool:
        return any(isinstance(s, (RefSpan, BoxSpan)) for s in self.segments)

    def boxes(self) -> tuple[BoxSpan, ...]:
        return tuple(s for s in self.segments if isinstance(s, BoxSpan))


_WS = r"\s*"
_TAG_RE = re.compile(
    rf"(?P<ref><{_WS}ref{_WS}>(?P<ref_text>.*?)<{_WS}/{_WS}ref{_WS}>)"
    rf"|(?P<box><{_WS}box{_WS}>(?P<box_payload>.*?)<{_WS}/{_WS}box{_WS}>)"
    rf"|(?P<camera><{_WS}\|camera_(?P<cam_view>[a-z_]+)\|{_WS}>)",
    re.DOTALL,
)
_BOX_PAYLOAD_RE = re.compile(
    r"^\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*,\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$"
)


def parse_tags(raw: str) -> TaggedText:
    """Split text into plain/ref/box/camera segments.

    Total over arbitrary input: anything that is not a complete
    recognized tag stays plain text. A recognized ``<box>...</box>``
    whose payload is not two integer corner pairs raises TagParseError
    carrying the byte offset of the opening tag.
    """
    segments: list[Segment] = []
    plain: list[str] = []

    def flush() -> None:
        if plain:
            segments.append(PlainText("".join(plain)))
            plain.clear()

    pos = 0
    for m in _TAG_RE.finditer(raw):
        gap = raw[pos : m.start()]
        if gap:
            plain.append(gap)
        if m.group("ref") is not None:
            flush()
            segments.append(RefSpan(m.group("ref_text")))
        elif m.group("box") is not None:
            payload = m.group("box_payload")
            pm = _BOX_PAYLOAD_RE.match(payload)
            if pm is None:
                offset = len(raw[: m.start()].encode("utf-8"))
                raise TagParseError("malformed box payload", offset, payload)
            flush()
            segments.append(BoxSpan(*(int(g) for g in pm.groups())))
        else:
            view = m.group("cam_view")
            if view in CAMERA_VIEWS:
                flush()
                segments.append(CameraTag(view))
            else:
                # unknown camera name: not part of the grammar
                plain.append(m.group(0))
        pos = m.end()
    if raw[pos:]:
        plain.append(raw[pos:])
    flush()
    return TaggedText(tuple(segments))


def serialize_tags(t: TaggedText) -> str:
    """Canonical spelling of the segment sequence.

    Inverse of parse_tags on the segments parse_tags produces. Other
    plain or ref text need not survive the round trip: text that embeds
    tag syntax does not, nor text that forms a tag with its neighbour
    (a plain ``<box>`` right before a box tag).
    """
    parts: list[str] = []
    for seg in t.segments:
        if isinstance(seg, PlainText):
            parts.append(seg.text)
        elif isinstance(seg, RefSpan):
            parts.append(f"<ref>{seg.text}</ref>")
        elif isinstance(seg, BoxSpan):
            parts.append(f"<box>({seg.x1},{seg.y1}),({seg.x2},{seg.y2})</box>")
        elif isinstance(seg, CameraTag):
            parts.append(f"<|camera_{seg.view}|>")
        else:
            raise TypeError(f"not a segment: {seg!r}")
    return "".join(parts)


# ------------------------------------------------------------- quantization


def round_half_away(value: float) -> int:
    """Round to the nearest integer, ties away from zero."""
    if not math.isfinite(value):
        raise ValueError(f"cannot round non-finite value {value!r}")
    if value >= 0.0:
        return math.floor(value + 0.5)
    return math.ceil(value - 0.5)


def quantize_decimal(value: float, unit_scale: float = 1.0) -> int:
    """Integer form of ``value * unit_scale``, ties away from zero.

    Meters to centimeters is unit_scale=100. The multiply happens in
    floats, so this is unit conversion followed by rounding, not exact
    decimal arithmetic.
    """
    if not math.isfinite(value):
        raise ValueError(f"cannot quantize non-finite value {value!r}")
    if not (unit_scale > 0.0 and math.isfinite(unit_scale)):
        raise ValueError(f"unit_scale must be positive and finite, got {unit_scale!r}")
    scaled = value * unit_scale
    if not math.isfinite(scaled):
        raise OverflowError(f"{value!r} * {unit_scale!r} overflows")
    result = round_half_away(scaled)
    if not _INT64_MIN <= result <= _INT64_MAX:
        raise OverflowError(f"{result} exceeds the signed 64-bit range")
    return result


def normalize_box(
    px_box: Sequence[float], img_w: int, img_h: int
) -> NormalizedBox:
    """Map a pixel-space box onto the inclusive 0..999 grid.

    Per axis: round(clamp(coord, 0, size - 1) / (size - 1) * 999), so
    pixel 0 lands on 0 and the last pixel index lands on 999. Monotone per
    axis, which preserves corner ordering. The clamp comes first, so an
    integer corner too large for a float is never made one; a float corner
    on a side too large for a float is divided exactly.
    """
    if img_w < 2 or img_h < 2:
        raise ValueError("image sides must be at least 2 pixels")
    coords = tuple(px_box)
    if len(coords) != 4:
        raise ValueError("px_box must hold four coordinates")
    if any(not isinstance(c, int) and not math.isfinite(c) for c in coords):
        raise ValueError("pixel coordinates must be finite")
    x1, y1, x2, y2 = coords
    if x2 < x1 or y2 < y1:
        raise ValueError("inverted pixel box; filter it instead of normalizing")

    def norm(c: float, size: int) -> int:
        c = min(max(c, 0), size - 1)
        try:
            ratio = c / (size - 1)
        except OverflowError:
            # size - 1 has no float form; its int quotient is rounded once
            num, den = c.as_integer_ratio()
            ratio = num / (den * (size - 1))
        return round_half_away(ratio * GRID_MAX)

    return NormalizedBox(norm(x1, img_w), norm(y1, img_h),
                         norm(x2, img_w), norm(y2, img_h))


# --------------------------------------------------------------- ego status


EGO_QUANTITIES = (
    "lateral_velocity",
    "longitudinal_velocity",
    "lateral_acceleration",
    "longitudinal_acceleration",
)


@dataclass(frozen=True)
class EgoStatus:
    lateral_velocity: float
    longitudinal_velocity: float
    lateral_acceleration: float
    longitudinal_acceleration: float
    command: str

    def __post_init__(self) -> None:
        for name in EGO_QUANTITIES:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.command not in EGO_COMMANDS:
            raise ValueError(f"command must be one of {EGO_COMMANDS}")


EGO_TEMPLATE = (
    "Given the ego status: lateral velocity is {lat_v} cm/s; "
    "longitudinal velocity is {lon_v} cm/s; "
    "lateral acceleration is {lat_a} cm/s^2; "
    "longitudinal acceleration is {lon_a} cm/s^2; "
    "The ego car will {command}. Output planning results."
)


def encode_ego_status(s: EgoStatus) -> str:
    """Ego state sentence with all quantities in integer centimeters."""
    return EGO_TEMPLATE.format(
        lat_v=quantize_decimal(s.lateral_velocity, 100),
        lon_v=quantize_decimal(s.longitudinal_velocity, 100),
        lat_a=quantize_decimal(s.lateral_acceleration, 100),
        lon_a=quantize_decimal(s.longitudinal_acceleration, 100),
        command=s.command,
    )


# --------------------------------------------------------------- trajectory


class TrajectoryCoverageError(ValueError):
    """Input samples do not span every canonical grid time."""

    def __init__(self, missing: Sequence[float], span: tuple[float, float]):
        self.missing = tuple(missing)
        self.span = span
        times = ", ".join(f"{t:g}s" for t in self.missing)
        super().__init__(
            f"trajectory covers [{span[0]:g}s, {span[1]:g}s]; "
            f"missing grid horizons: {times}"
        )


def unify_trajectory(
    points: Sequence[tuple[float, float, float]],
) -> TrajectoryPlan:
    """Resample timestamped (t, x, y) points onto the 0.5 s grid.

    Linear interpolation between bracketing samples; a sample sitting
    exactly on a grid time passes through bit-identically. No
    extrapolation: every grid time must lie inside the sampled span.
    """
    pts = [(float(t), float(x), float(y)) for t, x, y in points]
    if not pts:
        raise ValueError("trajectory needs at least one sample")
    if any(
        not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y))
        for t, x, y in pts
    ):
        raise ValueError("trajectory samples must be finite")
    times = [t for t, _, _ in pts]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("timestamps must be strictly increasing")
    lo, hi = times[0], times[-1]
    missing = [g for g in WAYPOINT_TIMES if not lo <= g <= hi]
    if missing:
        raise TrajectoryCoverageError(missing, (lo, hi))

    waypoints = []
    idx = 0
    for g in WAYPOINT_TIMES:
        while times[idx + 1] < g:
            idx += 1
        t0, x0, y0 = pts[idx]
        t1, x1, y1 = pts[idx + 1]
        if t0 == g:
            waypoints.append((x0, y0))
        elif t1 == g:
            waypoints.append((x1, y1))
        else:
            u = (g - t0) / (t1 - t0)
            waypoints.append((x0 + u * (x1 - x0), y0 + u * (y1 - y0)))
    return TrajectoryPlan(tuple(waypoints))


# ------------------------------------------------------------------ records


@dataclass(frozen=True)
class ConversationTurn:
    role: str
    value: TaggedText

    def __post_init__(self) -> None:
        if self.role not in ("human", "assistant"):
            raise ValueError(f"role must be 'human' or 'assistant', got {self.role!r}")


@dataclass(frozen=True)
class UnifiedRecord:
    """One training sample in the common format.

    answer_class is None until the refine pass assigns it.
    """

    id: str
    images: Mapping[str, str]
    conversation: tuple[ConversationTurn, ...]
    trajectory: TrajectoryPlan | None = None
    ego_status: EgoStatus | None = None
    source_dataset: str = "omnidrive"
    answer_class: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("record id must be non-empty")
        unknown = sorted(set(self.images) - set(CAMERA_VIEWS))
        if unknown:
            raise ValueError(f"unknown image views: {unknown}")
        if not self.conversation:
            raise ValueError("conversation must be non-empty")
        for i, turn in enumerate(self.conversation):
            want = "human" if i % 2 == 0 else "assistant"
            if turn.role != want:
                raise ValueError(
                    f"conversation must alternate starting with human; "
                    f"turn {i} is {turn.role!r}"
                )
        if self.source_dataset not in DATASET_SOURCES:
            raise ValueError(f"source_dataset must be one of {DATASET_SOURCES}")
        if self.answer_class is not None and self.answer_class not in ANSWER_CLASSES:
            raise ValueError(f"answer_class must be one of {ANSWER_CLASSES} or None")
        object.__setattr__(self, "images", dict(self.images))
        object.__setattr__(self, "conversation", tuple(self.conversation))


@dataclass
class RefineReport:
    input_count: int = 0
    kept: int = 0
    dropped: int = 0
    box_drops: dict[str, int] = field(default_factory=dict)
    record_drops: dict[str, int] = field(default_factory=dict)
    boxes_normalized: int = 0
    decimals_converted: int = 0

    def to_dict(self) -> dict:
        if self.kept + self.dropped != self.input_count:
            raise ValueError("report out of balance: kept + dropped != input")
        return field_dict(self)

    def merge(self, other: RefineReport) -> None:
        """Adds ``other``'s counts to this report's, key by key for the
        drop tallies."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for key, n in theirs.items():
                    mine[key] = mine.get(key, 0) + n
            else:
                setattr(self, f.name, mine + theirs)


def _box_drop_reason(b: BoxSpan) -> str | None:
    if any(not 0 <= v <= GRID_MAX for v in b.as_tuple()):
        return "out_of_range"
    if b.x2 < b.x1 or b.y2 < b.y1:
        return "inverted"
    if b.x1 == b.x2 or b.y1 == b.y2:
        return "zero_area"
    return None


def classify_answer_length(answer: TaggedText, threshold: int = 5) -> str:
    """'short' when the answer is at most `threshold` tokens long.

    Plain segments contribute their word/punctuation tokens; every tag
    segment counts as one token.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    count = 0
    for seg in answer.segments:
        if isinstance(seg, PlainText):
            count += len(tokenize(seg.text))
        else:
            count += 1
    return "short" if count <= threshold else "long"


# A whole decimal literal: not part of a longer number, version string or
# address (``192.168.0.1``), and not the mantissa of an exponent (``1.5e3``)
_DECIMAL_RE = re.compile(r"(?<![\d.])-?\d+\.\d+(?!\d|\.\d|[eE][+-]?\d)")


def _quantize_plain_decimals(text: str) -> tuple[str, int]:
    hits = 0

    def sub(m: re.Match) -> str:
        nonlocal hits
        hits += 1
        return str(quantize_decimal(float(m.group(0)), 1))

    return _DECIMAL_RE.sub(sub, text), hits


def refine_records(
    records: Sequence[UnifiedRecord],
    short_threshold: int = 5,
    image_size: tuple[int, int] | None = None,
    quantize_decimals: bool = False,
) -> tuple[list[UnifiedRecord], RefineReport]:
    """Refine every record in one pass; inputs are never mutated.

    Each segment of each turn goes through these steps in order:

    - with image_size, a box that is not inverted is read as pixel
      coordinates and mapped onto the 0..999 grid (``normalize_box``);
    - a box that is out of [0, 999], inverted, or zero-area is dropped
      and counted by reason;
    - with quantize_decimals, whole decimal literals in plain text are rounded
      to integers.

    A whole record is dropped when some assistant turn had boxes, keeps
    none, and the question before it carries grounding tags in the input:
    that sample asks for boxes it can no longer teach. With
    quantize_decimals, a record is also dropped when a decimal literal
    rounds beyond the signed 64-bit range; the plain text that holds it
    is left unrounded. A dropped record's normalized boxes, dropped boxes
    and rounded decimals are still counted. Every
    kept record with an assistant turn gets the answer class of its last
    answer; a record without one keeps its class.
    """
    report = RefineReport(input_count=len(records))
    refined: list[UnifiedRecord] = []
    for record in records:
        turns: list[ConversationTurn] = []
        answer = None
        lost_grounding = decimal_out_of_range = False
        question_grounded = False
        for turn in record.conversation:
            segments: list[Segment] = []
            had_boxes = kept_boxes = False
            for seg in turn.value.segments:
                if isinstance(seg, BoxSpan):
                    had_boxes = True
                    if (image_size is not None
                            and seg.x2 >= seg.x1 and seg.y2 >= seg.y1):
                        nb = normalize_box(seg.as_tuple(), *image_size)
                        seg = BoxSpan(nb.x1, nb.y1, nb.x2, nb.y2)
                        report.boxes_normalized += 1
                    reason = _box_drop_reason(seg)
                    if reason is not None:
                        report.box_drops[reason] = (
                            report.box_drops.get(reason, 0) + 1
                        )
                        continue
                    kept_boxes = True
                elif quantize_decimals and isinstance(seg, PlainText):
                    try:
                        text, hits = _quantize_plain_decimals(seg.text)
                    except (ValueError, OverflowError):  # inf, or past int64
                        decimal_out_of_range = True
                        hits = 0
                    if hits:
                        report.decimals_converted += hits
                        seg = PlainText(text)
                segments.append(seg)
            value = TaggedText(tuple(segments))
            if turn.role == "assistant":
                answer = value
                if had_boxes and not kept_boxes and question_grounded:
                    lost_grounding = True
            # the input turn: a question whose own boxes were all dropped
            # still asks for boxes
            question_grounded = turn.value.has_grounding_tags()
            turns.append(ConversationTurn(turn.role, value))
        drop = ("decimal_out_of_range" if decimal_out_of_range
                else "grounding_lost_all_boxes" if lost_grounding else None)
        if drop is not None:
            report.dropped += 1
            report.record_drops[drop] = report.record_drops.get(drop, 0) + 1
            continue
        report.kept += 1
        refined.append(replace(
            record,
            conversation=tuple(turns),
            answer_class=(record.answer_class if answer is None
                          else classify_answer_length(answer, short_threshold)),
        ))
    return refined, report


# ------------------------------------------------------------------- codecs


def record_from_dict(d: Mapping) -> UnifiedRecord:
    """Build a record from its JSONL dict form, parsing tagged text.

    Either 'trajectory' (six [x, y] waypoints) or 'trajectory_points'
    (timestamped [t, x, y] samples, resampled onto the grid) may be
    present, not both; each sample is a list of three numbers. The id is
    a JSON string or integer, every trajectory and ego-status quantity a
    JSON number, and every turn role and value, image view and path,
    source and command a JSON string. A field of the wrong JSON type or a
    missing nested key (a turn without 'role', say) raises ValueError.
    """
    try:
        return _record_from_dict(d)
    except KeyError as err:
        raise ValueError(f"record field is missing key {err}") from None
    except (TypeError, AttributeError, IndexError, OverflowError) as err:
        raise ValueError(f"record field has the wrong type: {err}") from None


def _record_from_dict(d: Mapping) -> UnifiedRecord:
    record_id = require_id(d, "id")
    if "conversation" not in d:
        raise ValueError("record missing required key 'conversation'")
    source = require_str(d.get("source_dataset", "omnidrive"), "source_dataset")
    turns = tuple(
        ConversationTurn(require_str(t["role"], "turn role"),
                         parse_tags(require_str(t["value"], "turn value")))
        for t in d["conversation"]
    )
    images = d.get("images", {})
    if not (isinstance(images, dict)
            and all(isinstance(v, str) for v in images.values())):
        raise ValueError(f"images must map view names to path strings, got {images!r}")
    trajectory = None
    if d.get("trajectory") is not None and d.get("trajectory_points") is not None:
        raise ValueError("give 'trajectory' or 'trajectory_points', not both")
    if d.get("trajectory") is not None:
        trajectory = plan_from_list(d["trajectory"])
    elif d.get("trajectory_points") is not None:
        points = d["trajectory_points"]
        if not (isinstance(points, list)
                and all(isinstance(p, list) and len(p) == 3 for p in points)):
            raise ValueError("trajectory_points samples must be [t, x, y] lists")
        require_numbers([v for p in points for v in p], "trajectory_points")
        trajectory = unify_trajectory(points)
    ego = None
    if d.get("ego_status") is not None:
        e = d["ego_status"]
        quantities = [e[name] for name in EGO_QUANTITIES]
        require_numbers(quantities, "ego_status quantities")
        ego = EgoStatus(*map(float, quantities),
                        command=require_str(e["command"], "ego_status command"))
    return UnifiedRecord(
        id=record_id,
        images=images,
        conversation=turns,
        trajectory=trajectory,
        ego_status=ego,
        source_dataset=source,
        answer_class=d.get("answer_class"),
    )


def record_to_dict(r: UnifiedRecord) -> dict:
    """JSONL dict form; tagged text is spelled canonically."""
    out: dict = {
        "id": r.id,
        "images": dict(r.images),
        "conversation": [
            {"role": t.role, "value": serialize_tags(t.value)}
            for t in r.conversation
        ],
        "source_dataset": r.source_dataset,
    }
    if r.trajectory is not None:
        out["trajectory"] = [[x, y] for x, y in r.trajectory.waypoints]
    if r.ego_status is not None:
        out["ego_status"] = field_dict(r.ego_status)
    if r.answer_class is not None:
        out["answer_class"] = r.answer_class
    return out
