"""Reply rules of the stub chat backend, shared with the expectations.

The stub answers from these rules alone, so the benchmark knows, for every
generated scene, which replies the program will receive and therefore how
many QA pairs, grounding targets and repair retries it must report. None of
this calls into fusionkit.
"""

from __future__ import annotations

import json
import re

RISK_TYPES = (
    "View obstruction",
    "Collision possibility",
    "Traffic rule violations",
    "Potential risk",
)
BEARINGS = {
    "ahead": "ahead",
    "ahead_left": "ahead to the left",
    "ahead_right": "ahead to the right",
    "left": "to the left",
    "right": "to the right",
    "behind": "behind",
}
CATEGORIES = ("car", "truck", "bus", "pedestrian", "cyclist", "barrier", "trailer")

MALFORMED_REPLY = "I am unable to comply with that request right now."

# fixed wait before every stub reply, standing in for backend latency
STUB_DELAY_MS = 2

_PHRASE_RE = re.compile(r"^the ([a-z]+) located (\d+) meters ")
_ITEM_RE = re.compile(
    r"(\d+)\. (the [a-z]+ located \d+ meters [a-z ]+?) causes "
    r"(high|medium|low) ([a-z ]+?) risk due to"
)


def phrase(category: str, distance: int, bearing: str) -> str:
    """Object phrase exactly as the step-1 prompt spells it."""
    return f"the {category} located {distance} meters {BEARINGS[bearing]}"


def risk_entries(category: str, distance: int) -> list[tuple[str, str]]:
    """(risk type, status) pairs with a non-None status, in RISK_TYPES order."""
    status = {
        "View obstruction": (
            "Medium" if category in ("truck", "bus", "trailer") and distance < 40
            else None),
        "Collision possibility": (
            "High" if distance < 12 else "Medium" if distance < 30
            else "Low" if distance < 50 else None),
        "Traffic rule violations": (
            "Low" if category == "pedestrian" and distance % 3 == 0 else None),
        "Potential risk": "Low" if distance % 5 == 0 else None,
    }
    return [(t, status[t]) for t in RISK_TYPES if status[t] is not None]


def first_reply_malformed(first_distance: int) -> bool:
    """A scene whose first object sits at 7, 17, 27... meters gets one
    malformed step-1 reply, so the repair path runs."""
    return first_distance % 10 == 7


def questions(n: int, obj_phrase: str, status: str, risk_type: str):
    """QA pairs for numbered item n, each with its intended category."""
    out = [(f"Is there any risk from {obj_phrase}?", "Yes.", "exist")]
    if status == "High":
        out.append((f"Where is {obj_phrase}?", "In the front view.", "grounding"))
    if n % 2 == 1:
        out.append((f"What is the {risk_type.lower()} level of {obj_phrase}?",
                    f"It is {status.lower()}.", "level"))
    if n % 3 == 0:
        out.append((f"What kind of risk does {obj_phrase} pose?",
                    f"{risk_type}.", "category"))
    if n % 4 == 0:
        out.append(("Which vehicle needs the most attention?",
                    f"{obj_phrase.capitalize()}.", "object"))
    if n % 5 == 0:
        out.append(("Why should we slow down?",
                    "Because of the nearby road users.", "reason"))
    return out


def reason(category: str, distance: int) -> str:
    return f"the {category} is {distance} meters from the ego vehicle"


# ------------------------------------------------------------------ replies


def step1_reply(prompt: str) -> str:
    start = prompt.index("[") + 1
    inventory = prompt[start:prompt.index("]", start)].split("; ")
    doc: dict = {}
    for p in inventory:
        m = _PHRASE_RE.match(p)
        category, distance = m.group(1), int(m.group(2))
        entries = risk_entries(category, distance)
        doc[p] = {
            t: {"Status": s, "Reason": reason(category, distance)}
            for t, s in entries
        } or {"Potential risk": {"Status": "None", "Reason": ""}}
    return "```json\n" + json.dumps(doc, indent=2) + "\n```"


def step2_reply(prompt: str) -> str:
    pairs = []
    for m in _ITEM_RE.finditer(prompt):
        n, obj_phrase, status = int(m.group(1)), m.group(2), m.group(3)
        risk_type = m.group(4)
        for q, a, _ in questions(n, obj_phrase, status.capitalize(),
                                 risk_type.capitalize()):
            pairs.append({"question": q, "answer": a})
    return json.dumps(pairs, indent=2)


def reply(messages: list[dict]) -> str:
    """The stub's answer to one chat request."""
    prompt = messages[0]["content"]
    if prompt.startswith("This is a description of object-level traffic risks"):
        return step2_reply(prompt)
    if len(messages) == 1:
        m = _PHRASE_RE.match(prompt[prompt.index("[") + 1:])
        if first_reply_malformed(int(m.group(2))):
            return MALFORMED_REPLY
    return step1_reply(prompt)


# -------------------------------------------------------------- expectation


def expected_run(scenes: list[dict]) -> dict:
    """Counts the pipeline must report for these scenes under the stub."""
    per_category: dict[str, int] = {}
    pairs = targets = unmatched = retries = 0
    for scene in scenes:
        objs = scene["objects"]
        if first_reply_malformed(objs[0]["distance"]):
            retries += 1
        n = 0
        for obj in objs:
            entries = risk_entries(obj["category"], obj["distance"])
            if any(s == "High" for _, s in entries):
                if obj.get("box") is None:
                    unmatched += 1
                else:
                    targets += 1
            p = phrase(obj["category"], obj["distance"], obj["bearing"])
            for risk_type, status in entries:
                n += 1
                for _, _, cat in questions(n, p, status, risk_type):
                    per_category[cat] = per_category.get(cat, 0) + 1
                    pairs += 1
    return {
        "pairs": pairs,
        "grounding_targets": targets,
        "unmatched_grounding": unmatched,
        "retries": retries,
        "pairs_per_category": dict(sorted(per_category.items())),
        "scenes_failed": 0,
    }
