"""Two-step risk QA generation against a chat-completion client.

Step 1 asks the model for a per-object risk assessment of a scene and
parses the JSON reply into a RiskAssessmentDoc. Step 2 renders that doc
as a numbered natural-language description, asks for question-answer
pairs, parses them, and assigns each pair one of six categories by a
keyword cascade. High-risk object phrases are matched back to scene
objects to recover grounding boxes.

Both prompt builders are pure string templates, so identical scenes
produce byte-identical prompts; with the replay client the whole
pipeline is deterministic, including its run report. Malformed model
output triggers a bounded retry that extends the conversation with the
bad reply and a fixed repair instruction; a transient transport error
resends the same request on a fixed backoff schedule.
"""

from __future__ import annotations

import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .chat import ChatClient, ChatError, ChatRequest, TransientChatError
from .driving_eval import NormalizedBox, box_from_list
from .jsontypes import (
    check_fields,
    check_rules,
    field_dict,
    is_integral,
    require_id,
    require_str,
)
from .refinery import CAMERA_VIEWS

__all__ = [
    "RISK_TYPES",
    "RISK_STATUSES",
    "BEARINGS",
    "QA_CATEGORIES",
    "REPAIR_INSTRUCTION",
    "TRANSPORT_BACKOFF_S",
    "SceneObject",
    "Scene",
    "scene_from_dict",
    "RiskEntry",
    "RiskAssessmentDoc",
    "QaPair",
    "GroundingTarget",
    "RiskSchemaError",
    "PipelineConfig",
    "RunReport",
    "build_risk_prompt",
    "parse_risk_response",
    "build_qa_prompt",
    "parse_qa_response",
    "categorize_qa",
    "derive_grounding_targets",
    "run_pipeline",
]

RISK_TYPES = (
    "View obstruction",
    "Collision possibility",
    "Traffic rule violations",
    "Potential risk",
)
RISK_STATUSES = ("High", "Medium", "Low")

BEARINGS = {
    "ahead": "ahead",
    "ahead_left": "ahead to the left",
    "ahead_right": "ahead to the right",
    "left": "to the left",
    "right": "to the right",
    "behind": "behind",
}

QA_CATEGORIES = ("exist", "level", "category", "object", "reason", "grounding")

REPAIR_INSTRUCTION = (
    "Your previous answer was not valid. Respond again with only the "
    "requested JSON in exactly the format specified, with no additional text."
)

# Seconds to wait before each resend of a request that hit a transient
# transport error; a server's Retry-After may shorten a wait, never
# lengthen it. Fixed, with no jitter, so a rerun waits the same.
TRANSPORT_BACKOFF_S = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class SceneObject:
    category: str
    bearing: str
    distance: int
    view: str = "front"
    box: NormalizedBox | None = None

    def __post_init__(self) -> None:
        if not self.category:
            raise ValueError("category must be non-empty")
        if self.bearing not in BEARINGS:
            raise ValueError(f"bearing must be one of {sorted(BEARINGS)}")
        if not isinstance(self.distance, int) or self.distance < 0:
            raise ValueError("distance must be a nonnegative integer (meters)")
        if self.view not in CAMERA_VIEWS:
            raise ValueError(f"view must be one of {CAMERA_VIEWS}")

    def phrase(self) -> str:
        return (
            f"the {self.category} located {self.distance} meters "
            f"{BEARINGS[self.bearing]}"
        )


@dataclass(frozen=True)
class Scene:
    scene_id: str
    objects: tuple[SceneObject, ...]

    def __post_init__(self) -> None:
        if not self.scene_id:
            raise ValueError("scene_id must be non-empty")
        object.__setattr__(self, "objects", tuple(self.objects))


def scene_from_dict(d: Mapping) -> Scene:
    """Build a Scene from one JSONL record; a missing key or a field of the
    wrong JSON type raises ValueError. ``distance`` is whole meters: ``5``
    or ``5.0``, not ``5.7`` or ``true``."""
    scene_id = require_id(d, "scene_id")
    objects = []
    try:
        for raw in d.get("objects", ()):
            box = raw.get("box")
            distance = raw["distance"]
            if not is_integral(distance):
                raise ValueError(
                    f"distance must be whole meters, got {distance!r}")
            objects.append(
                SceneObject(
                    category=require_str(raw["category"], "category"),
                    bearing=require_str(raw["bearing"], "bearing"),
                    distance=int(distance),
                    view=require_str(raw.get("view", "front"), "view"),
                    box=box_from_list(box) if box is not None else None,
                )
            )
    except (TypeError, AttributeError) as err:
        raise ValueError(f"scene object has the wrong type: {err}") from None
    except KeyError as err:
        raise ValueError(f"scene object missing required key {err}") from None
    return Scene(scene_id=scene_id, objects=tuple(objects))


@dataclass(frozen=True)
class RiskEntry:
    status: str
    reason: str


@dataclass(frozen=True)
class RiskAssessmentDoc:
    """Validated step-1 output: object phrase → risk type → entry.

    ``parse_risk_response`` builds it and checks every rule: known risk
    types and statuses, non-empty reasons, no None-status entry and no
    object with no risks (both dropped per the prompt's own rules).
    """

    objects: Mapping[str, Mapping[str, RiskEntry]]

    @property
    def is_empty(self) -> bool:
        return not self.objects

    def high_risk_phrases(self) -> list[str]:
        return [
            phrase
            for phrase, risks in self.objects.items()
            if any(e.status == "High" for e in risks.values())
        ]


@dataclass(frozen=True)
class QaPair:
    """One QA pair: ``parse_qa_response`` checks that the question and
    answer are non-empty, and ``categorize_qa`` sets a QA_CATEGORIES
    category."""

    question: str
    answer: str
    qa_category: str | None = None
    scene_id: str = ""
    step: str = "step2"

    def to_dict(self) -> dict:
        return field_dict(self)


@dataclass(frozen=True)
class GroundingTarget:
    scene_id: str
    box: NormalizedBox
    view: str

    def to_dict(self) -> dict:
        return {
            "scene_id": self.scene_id,
            "box": self.box.as_list(),
            "view": self.view,
        }


class RiskSchemaError(ValueError):
    """Model output violates the response schema for ``reason``; ``path``
    points inside it."""

    def __init__(self, reason: str, path: str):
        super().__init__(f"{reason} (at {path})")
        self.reason = reason
        self.path = path


# ----------------------------------------------------------------- prompts

_RISK_PROMPT_PREFIX = (
    "The image is from the front view camera of ego vehicle, and please "
    "provide a risk assessment of the given object to ego vehicle. The "
    "driving risk categories include: 1. View obstruction. 2. Collision "
    "possibility. 3. Traffic rule violations. 4. Potential risk. You are "
    "now a driver, and from the perspective of driving safety, you need to "
    "conduct a driving risk analysis.Please consider the state of the "
    "target when analyzing, e.g. Whether the vehicle is stationary, whether "
    "pedestrians are crossing the road, whether it is in the same lane as "
    "ego vehicle, etc. The current scene contains the following objects: "
)

_RISK_PROMPT_SUFFIX = (
    ". Choose the object you believe poses a risk and provide your "
    "reasons. If all risks of object are None, ignore this object! If some "
    "risk is None, do not output all context relate to this risk! Answer "
    "in the following format without providing additional information:"
)

_RISK_SCHEMA_BLOCK = """{
    "[obj]": {
        "View obstruction": {
            "Status": "[High/Medium/Low/None]",
            "Reason": "[Reason]"
        },
        "Collision possibility": {
            "Status": "[High/Medium/Low/None]",
            "Reason": "[Reason]"
        },
        ...
        },
    "[obj]": {
        ...
    },
    ...
}"""

_QA_PROMPT_PREFIX = "This is a description of object-level traffic risks: "

_QA_PROMPT_SUFFIX = (
    " Please generate multiple Q&A pairs about traffic risks based on this "
    "information and output them in JSON format as follows:"
)

_QA_SCHEMA_BLOCK = """ [
     {
        "question": [question1],
        "answer": [answer1]},
     {
        "question": [question2],
        "answer": [answer2]
     },
     ...
 ]"""


def build_risk_prompt(objects: Sequence[SceneObject]) -> str:
    """Step-1 prompt: scene inventory plus the fixed instruction text."""
    if not objects:
        raise ValueError("a scene needs at least one object")
    inventory = "[" + "; ".join(o.phrase() for o in objects) + "]"
    return (
        _RISK_PROMPT_PREFIX + inventory + _RISK_PROMPT_SUFFIX
        + "\n" + _RISK_SCHEMA_BLOCK
    )


def _normalize_sentence(reason: str) -> str:
    reason = reason.strip()
    return reason if reason.endswith((".", "!", "?")) else reason + "."


def build_qa_prompt(doc: RiskAssessmentDoc) -> str:
    """Step-2 prompt: numbered risk description plus the fixed format ask."""
    if doc.is_empty:
        raise ValueError("cannot build a QA prompt from an empty doc")
    items = []
    n = 0
    for phrase, risks in doc.objects.items():
        for risk_type, entry in risks.items():
            n += 1
            items.append(
                f"{n}. {phrase} causes {entry.status.lower()} "
                f"{risk_type.lower()} risk due to "
                f"{_normalize_sentence(entry.reason)}"
            )
    return (
        _QA_PROMPT_PREFIX + " ".join(items) + _QA_PROMPT_SUFFIX
        + "\n" + _QA_SCHEMA_BLOCK
    )


# ----------------------------------------------------------------- parsing


_FENCE_RE = re.compile(r"^```[a-zA-Z]*\s*$", re.MULTILINE)


def _extract_json(text: str, opener: str, path: str):
    cleaned = _FENCE_RE.sub("", text)
    start = cleaned.find(opener)
    if start < 0:
        raise RiskSchemaError(f"no JSON {opener!r} found in response", path)
    try:
        value, _ = json.JSONDecoder().raw_decode(cleaned[start:])
    except json.JSONDecodeError as err:
        raise RiskSchemaError(f"undecodable JSON: {err}", path) from err
    return value


def parse_risk_response(text: str) -> RiskAssessmentDoc:
    """Validate a step-1 reply into a doc, applying the ignore-None rules.

    None-status entries are dropped, then objects left with no entries
    are dropped; what remains must use the four known risk types, known
    statuses, and non-empty reasons.
    """
    data = _extract_json(text, "{", "$")
    if not isinstance(data, dict):
        raise RiskSchemaError("top level must be a JSON object", "$")
    objects: dict[str, dict[str, RiskEntry]] = {}
    for phrase, risks in data.items():
        opath = f"$.{phrase}"
        if not isinstance(risks, dict):
            raise RiskSchemaError("object value must be a JSON object", opath)
        entries: dict[str, RiskEntry] = {}
        for risk_type, entry in risks.items():
            rpath = f"{opath}.{risk_type}"
            if risk_type not in RISK_TYPES:
                raise RiskSchemaError(f"unknown risk type {risk_type!r}", rpath)
            if not isinstance(entry, dict):
                raise RiskSchemaError("risk entry must be a JSON object", rpath)
            status = entry.get("Status")
            if status == "None":
                continue
            if status not in RISK_STATUSES:
                raise RiskSchemaError(
                    f"Status must be one of "
                    f"{RISK_STATUSES + ('None',)}, got {status!r}",
                    f"{rpath}.Status",
                )
            reason = entry.get("Reason")
            if not isinstance(reason, str) or not reason.strip():
                raise RiskSchemaError(
                    "Reason must be a non-empty string for a non-None status",
                    f"{rpath}.Reason",
                )
            entries[risk_type] = RiskEntry(status=status, reason=reason)
        if entries:
            objects[str(phrase)] = entries
    return RiskAssessmentDoc(objects=objects)


def parse_qa_response(text: str, scene_id: str = "") -> list[QaPair]:
    """Validate a step-2 reply into uncategorized QA pairs."""
    data = _extract_json(text, "[", "$")
    if not isinstance(data, list):
        raise RiskSchemaError("top level must be a JSON array", "$")
    pairs: list[QaPair] = []
    for i, item in enumerate(data):
        path = f"$.{i}"
        if not isinstance(item, dict):
            raise RiskSchemaError("pair must be a JSON object", path)
        for key in ("question", "answer"):
            value = item.get(key)
            if not isinstance(value, str) or not value.strip():
                raise RiskSchemaError(
                    f"{key} must be a non-empty string", f"{path}.{key}"
                )
        pairs.append(
            QaPair(
                question=item["question"],
                answer=item["answer"],
                scene_id=scene_id,
            )
        )
    return pairs


# ----------------------------------------------------------- categorization

_GROUNDING_RE = re.compile(r"<\s*box|\bwhere\b|\blocate\b|\blocation\b")
_EXIST_OPENERS = (
    "is", "are", "was", "were", "do", "does", "did",
    "can", "could", "will", "would", "should", "has", "have",
)
_LEVEL_RE = re.compile(r"\b(low|medium|high|level)\b")
_CATEGORY_PHRASE_RE = re.compile(r"\bwhat\s+(type|kind)s?\s+of\b.*\brisk")
_OBJECT_VOCAB = (
    "car", "truck", "bus", "van", "pedestrian", "cyclist", "bicycle",
    "motorcycle", "trailer", "cone", "barrier", "vehicle",
)
_DOC_PHRASE_RE = re.compile(r"^the (.+?) located \d+ meters")


def _doc_object_nouns(doc: RiskAssessmentDoc | None) -> list[str]:
    if doc is None:
        return []
    nouns = []
    for phrase in doc.objects:
        m = _DOC_PHRASE_RE.match(phrase)
        nouns.append(m.group(1) if m else phrase)
    return nouns


def categorize_qa(pair: QaPair, doc: RiskAssessmentDoc | None = None) -> QaPair:
    """Assign one of the six categories from question surface markers.

    Cascade from most to least distinctive: grounding (box tag or
    where/locate wording), exist (yes-no auxiliary opener asking about a
    risk), level (low/medium/high/level vocabulary), category (risk-type
    names or "what type of ... risk" phrasing), object (object nouns,
    built-in or from the doc), otherwise reason.
    """
    q = pair.question.lower()
    words = q.split()
    category: str
    if _GROUNDING_RE.search(q):
        category = "grounding"
    elif words and words[0] in _EXIST_OPENERS and "risk" in q:
        category = "exist"
    elif _LEVEL_RE.search(q):
        category = "level"
    elif any(t.lower() in q for t in RISK_TYPES) or _CATEGORY_PHRASE_RE.search(q):
        category = "category"
    elif any(
        re.search(rf"\b{re.escape(noun)}s?\b", q)
        for noun in (*_OBJECT_VOCAB, *_doc_object_nouns(doc))
    ):
        category = "object"
    else:
        category = "reason"
    return replace(pair, qa_category=category)


# ---------------------------------------------------------------- grounding


def derive_grounding_targets(
    doc: RiskAssessmentDoc, objects: Sequence[SceneObject], scene_id: str = ""
) -> tuple[list[GroundingTarget], list[str]]:
    """Boxes for High-risk objects, by exact phrase match into the scene.

    Returns (targets, unmatched phrases). A High phrase with no matching
    scene object, or whose object carries no box, lands in unmatched.
    """
    by_phrase: dict[str, SceneObject] = {}
    for obj in objects:
        by_phrase.setdefault(obj.phrase(), obj)
    targets: list[GroundingTarget] = []
    unmatched: list[str] = []
    for phrase in doc.high_risk_phrases():
        obj = by_phrase.get(phrase)
        if obj is None or obj.box is None:
            unmatched.append(phrase)
            continue
        targets.append(GroundingTarget(scene_id=scene_id, box=obj.box,
                                       view=obj.view))
    return targets, unmatched


# ----------------------------------------------------------------- pipeline


# PipelineConfig's range rules: field -> (predicate, the rule it checks)
PIPELINE_RULES = {
    "step1_model": (bool, "must be non-empty"),
    "step2_model": (bool, "must be non-empty"),
    "temperature": (lambda v: v >= 0, "must be nonnegative"),
    "seed": (lambda v: v >= 0, "must be nonnegative"),
    "retries": (lambda v: v >= 0, "must be nonnegative"),
    "max_in_flight": (lambda v: v >= 1, "must be at least 1"),
}


@dataclass(frozen=True)
class PipelineConfig:
    step1_model: str = "gpt-4o"
    step2_model: str = "gpt-4o-mini"
    temperature: float = 0.0
    seed: int = 0
    retries: int = 2
    max_in_flight: int = 2

    def __post_init__(self) -> None:
        check_fields(self)
        check_rules(PIPELINE_RULES, field_dict(self))


@dataclass
class RunReport:
    scenes_processed: int = 0
    scenes_failed: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    retries: int = 0
    transport_retries: int = 0
    pairs_per_category: dict[str, int] = field(default_factory=dict)
    grounding_targets: int = 0
    unmatched_grounding: int = 0

    def to_dict(self) -> dict:
        return field_dict(self)


@dataclass
class _SceneResult:
    scene_id: str
    pairs: list[QaPair] = field(default_factory=list)
    targets: list[GroundingTarget] = field(default_factory=list)
    unmatched: list[str] = field(default_factory=list)
    retries: int = 0
    transport_retries: int = 0
    failed: bool = False
    error: str = ""


def _ask(client: ChatClient, cfg: PipelineConfig, model: str, prompt: str,
         parse, result: _SceneResult):
    """``parse`` of ``model``'s reply to ``prompt``, sent as one user message.

    Each failed parse appends the bad reply and the fixed repair
    instruction, then resends, counted in ``result.retries``; a parse that
    still fails after ``cfg.retries`` resends aborts the scene. A
    TransientChatError resends the same request after the next
    TRANSPORT_BACKOFF_S wait, counted in ``result.transport_retries``;
    once the schedule is spent, or on any other ChatError, the error
    aborts the scene.
    """
    request = ChatRequest(
        model=model,
        messages=({"role": "user", "content": prompt},),
        temperature=cfg.temperature,
        seed=cfg.seed,
    )
    repairs = 0
    waits = iter(TRANSPORT_BACKOFF_S)
    while True:
        try:
            reply = client.complete(request)
        except TransientChatError as err:
            wait = next(waits, None)
            if wait is None:
                raise
            if err.retry_after is not None:
                wait = min(wait, err.retry_after)
            time.sleep(wait)
            result.transport_retries += 1
            continue
        try:
            return parse(reply)
        except ValueError as err:
            if repairs == cfg.retries:
                raise RiskSchemaError(
                    f"still malformed after {repairs} repair attempts: "
                    f"{getattr(err, 'reason', err)}",
                    getattr(err, "path", "$"),
                ) from err
            repairs += 1
            result.retries += 1
            request = request.with_followup(reply, REPAIR_INSTRUCTION)


def _run_scene(scene: Scene, client: ChatClient, cfg: PipelineConfig) -> _SceneResult:
    result = _SceneResult(scene_id=scene.scene_id)
    try:
        doc = _ask(client, cfg, cfg.step1_model,
                   build_risk_prompt(scene.objects), parse_risk_response, result)
        if doc.is_empty:
            return result  # nothing risky found: a valid, empty outcome
        pairs = _ask(client, cfg, cfg.step2_model, build_qa_prompt(doc),
                     lambda text: parse_qa_response(text, scene_id=scene.scene_id),
                     result)
        result.pairs = [categorize_qa(p, doc) for p in pairs]
        result.targets, result.unmatched = derive_grounding_targets(
            doc, scene.objects, scene_id=scene.scene_id
        )
    except (ChatError, ValueError) as err:
        result.failed = True
        result.error = str(err)
    return result


def run_pipeline(
    scenes: Sequence[Scene], client: ChatClient, cfg: PipelineConfig | None = None
) -> tuple[list[QaPair], list[GroundingTarget], RunReport]:
    """Generate categorized QA pairs and grounding targets for scenes.

    Scenes run independently (bounded thread pool); outputs follow the
    input scene order regardless of completion order. A scene that
    exhausts its retries is recorded as failed, with its reason in
    ``RunReport.failures``, and skipped, never fatal.
    """
    cfg = cfg or PipelineConfig()
    ids = [s.scene_id for s in scenes]
    if len(set(ids)) != len(ids):
        raise ValueError("scene ids must be unique")
    if not scenes:
        return [], [], RunReport()

    with ThreadPoolExecutor(max_workers=min(cfg.max_in_flight, len(scenes))) as pool:
        results = list(pool.map(lambda s: _run_scene(s, client, cfg), scenes))

    pairs: list[QaPair] = []
    targets: list[GroundingTarget] = []
    report = RunReport(scenes_processed=len(scenes))
    for res in results:
        report.retries += res.retries
        report.transport_retries += res.transport_retries
        if res.failed:
            report.scenes_failed.append(res.scene_id)
            report.failures[res.scene_id] = res.error
            continue
        pairs.extend(res.pairs)
        targets.extend(res.targets)
        report.unmatched_grounding += len(res.unmatched)
        for pair in res.pairs:
            report.pairs_per_category[pair.qa_category] = (
                report.pairs_per_category.get(pair.qa_category, 0) + 1
            )
    report.grounding_targets = len(targets)
    return pairs, targets, report
