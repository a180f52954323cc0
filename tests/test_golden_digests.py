"""Frozen sha256 digests of command artifacts on small seeded inputs.

A change in any output byte shows up here as a digest update, so a
refactor that claims identical outputs proves it in tier-1. The inputs
are built with IEEE basic operations and ``json`` float repr only. The
``refine``, ``gen-risk-qa``, ``budget`` and ``interactor-demo`` sidecar
paths to their artifacts use nothing else, so their digests do not depend
on the libm build; the ``eval caption`` and ``eval planning`` digests do
(see ``EVAL_DIGESTS``).
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from fusionkit.chat import ChatRequest, store_replay
from fusionkit.cli import main
from fusionkit.matrix import Matrix, save_fkmx
from fusionkit.risk_qa import (
    REPAIR_INSTRUCTION,
    RISK_TYPES,
    PipelineConfig,
    build_qa_prompt,
    build_risk_prompt,
    parse_risk_response,
    scene_from_dict,
)

VIEWS = ("front", "front_left", "front_right", "back", "back_left", "back_right")
SOURCES = ("nuscenes-qa", "nuscenes-mqa", "omnidrive", "nuinstruct", "ora")
OBJECTS = ("car", "truck", "pedestrian", "traffic cone", "cyclist")
COMMANDS = ("TURN LEFT", "TURN RIGHT", "GO STRAIGHT")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _box(rnd: random.Random) -> str:
    """A box tag whose corners are valid, inverted, zero-area or out of
    range on the 0..999 grid, as pixels on a 1600x900 image or both."""
    kind = rnd.choice(("valid", "valid", "valid", "pixel", "inverted",
                       "zero_area", "negative", "inverted_oob"))
    x1, y1 = rnd.randint(0, 700), rnd.randint(0, 700)
    x2, y2 = x1 + rnd.randint(1, 299), y1 + rnd.randint(1, 199)
    if kind == "pixel":  # beyond the grid, inside the image
        x2 = rnd.randint(1000, 1599)
    elif kind == "inverted":
        x1, x2 = x2, x1
    elif kind == "zero_area":
        y2 = y1
    elif kind == "negative":  # out of range as grid, clamped as pixels
        x1 = -rnd.randint(1, 40)
    elif kind == "inverted_oob":
        x1, x2 = rnd.randint(1000, 1500), rnd.randint(0, 999)
    if rnd.random() < 0.1:  # legacy spelling
        return f"< box >( {x1} , {y1} ),( {x2},{y2} )</ box>"
    return f"<box>({x1},{y1}),({x2},{y2})</box>"


def _decimal(rnd: random.Random) -> str:
    return f"{rnd.choice(('', '-'))}{rnd.randint(0, 80)}.{rnd.randint(0, 999)}"


def _turns(rnd: random.Random) -> list[dict]:
    turns = []
    for _ in range(rnd.choice((1, 1, 2))):
        obj = rnd.choice(OBJECTS)
        camera = f"<|camera_{rnd.choice(VIEWS)}|> " if rnd.random() < 0.5 else ""
        if rnd.random() < 0.6:
            q = f"{camera}Where is <ref>the {obj}</ref> {_decimal(rnd)} m away?"
        elif rnd.random() < 0.3:  # grounded by a box, which may be dropped
            q = f"{camera}What is in {_box(rnd)}, {_decimal(rnd)} m away?"
        else:
            q = f"{camera}What is {_decimal(rnd)} meters ahead?"
        boxes = " and ".join(_box(rnd) for _ in range(rnd.choice((0, 1, 1, 2, 3))))
        if rnd.random() < 0.4:
            a = f"At {boxes}." if boxes else "Nothing."
        else:
            a = (f"The {obj} is at {boxes or 'the curb'}, moving at "
                 f"{_decimal(rnd)} m/s with {rnd.randint(1, 9)} others nearby.")
        turns += [{"role": "human", "value": q}, {"role": "assistant", "value": a}]
    if rnd.random() < 0.1:  # a question with no answer keeps its class
        turns = turns[:1]
    return turns


def _trajectory_points(rnd: random.Random) -> list[list[float]]:
    points, t, x, y = [], 0, 0.0, 0.0
    vx, vy = rnd.uniform(1, 10), rnd.uniform(-1, 1)
    while True:
        points.append([round(t, 3), round(x, 4), round(y, 4)])
        if t >= 3.0:
            return points
        step = 0.5 if rnd.random() < 0.3 else rnd.uniform(0.15, 0.6)
        t = min(round(t + step, 3), 3.2)
        x += vx * step
        y += vy * step


def _record(rnd: random.Random, i: int) -> dict:
    row: dict = {
        "id": i if rnd.random() < 0.05 else f"g-{i:03d}",
        "images": {v: f"{v}/{i}.jpg" for v in rnd.sample(VIEWS, rnd.randint(0, 2))},
        "conversation": _turns(rnd),
    }
    motion = rnd.random()
    if motion < 0.5:
        row["trajectory_points"] = _trajectory_points(rnd)
    elif motion < 0.7:
        row["trajectory"] = [[rnd.randint(-5, 40), round(rnd.uniform(-3, 3), 3)]
                             for _ in range(6)]
    if rnd.random() < 0.5:
        row["ego_status"] = {
            "lateral_velocity": round(rnd.uniform(-1, 1), 3),
            "longitudinal_velocity": rnd.choice((0, round(rnd.uniform(0, 15), 3))),
            "lateral_acceleration": round(rnd.uniform(-0.5, 0.5), 3),
            "longitudinal_acceleration": round(rnd.uniform(-2, 2), 3),
            "command": rnd.choice(COMMANDS),
        }
    if rnd.random() < 0.8:
        row["source_dataset"] = rnd.choice(SOURCES)
    if rnd.random() < 0.1:
        row["answer_class"] = rnd.choice(("short", "long"))
    return row


# one way each for a record to be invalid
INVALID = [
    lambda r: {**r, "conversation": [{"role": "assistant", "value": "hi"}]},
    lambda r: {**r, "images": {"rear": "x.jpg"}},
    lambda r: {**r, "conversation": [{"role": "human", "value": "<box>(1,2)</box>"}]},
    lambda r: {k: v for k, v in r.items() if k != "trajectory"}
    | {"trajectory_points": [[0.6, 0.0, 0.0], [2.2, 1.0, 1.0]]},
    lambda r: {k: v for k, v in r.items() if k != "trajectory"}
    | {"trajectory_points": [[0, 0, 0], [0, 1, 1], [3, 2, 2]]},
    lambda r: {**r, "ego_status": {
        "lateral_velocity": 0.0, "longitudinal_velocity": 4.25,
        "lateral_acceleration": 0.0, "longitudinal_acceleration": -0.5,
        "command": "REVERSE"}},
    lambda r: {k: v for k, v in r.items() if k != "conversation"},
    lambda r: {k: v for k, v in r.items() if k != "id"},
    lambda r: {k: v for k, v in r.items() if k != "trajectory_points"}
    | {"source_dataset": "kitti"},
    lambda r: {**r, "conversation": [{"role": "human"}]},
]


def golden_records(seed: int = 2024, n: int = 300) -> list[dict]:
    rnd = random.Random(seed)
    rows = [_record(rnd, i) for i in range(n)]
    for invalid in INVALID:
        i = rnd.randrange(n)
        rows[i] = invalid(rows[i])
    return rows


# (refined JSONL, report) per mode
REFINE_DIGESTS = {
    "plain": ("ba52f4b7e620c840e7cc20376894b24ad76187e07fb88eaa3e01009fc010bc0f",
              "a6d6eee57d930c2e23f68e126da09f88b9bb0747a3f36f3f1a38d736ed9576e6"),
    "pixels": ("3fa3cf1500a8514d49ba34e2865e3a604c95883f33d6eae550c850c530f6b977",
               "debc800326f92a65f4ed514090d1845db06f36dc4011021c3456b4588d2f8dbd"),
}


@pytest.mark.parametrize("mode", REFINE_DIGESTS)
def test_refine_digests(tmp_path, capsys, mode) -> None:
    records = tmp_path / "records.jsonl"
    records.write_text("".join(json.dumps(r) + "\n" for r in golden_records()))
    out, report = tmp_path / "refined.jsonl", tmp_path / "refine.json"
    argv = ["refine", "--input", str(records), "--output", str(out),
            "--report", str(report), "--seed", "5"]
    if mode == "pixels":
        argv += ["--image-size", "1600x900", "--quantize-decimals"]
    assert main(argv) == 3  # the invalid records are listed, the rest refined
    capsys.readouterr()
    assert (_sha256(out), _sha256(report)) == REFINE_DIGESTS[mode]


# ------------------------------------------------------------------- eval

WORDS = ("the", "a", "car", "truck", "red", "light", "stops", "turns", "left",
         "right", "lane", "ahead", "of", "ego", "pedestrian", "crosses",
         "slowly", "near", "curb", "bus", "waits", "green", "signal", "is")
LABELS = ("car", "truck", "pedestrian")
ORA_LEVELS = ("low", "medium", "high")
ORA_CATEGORIES = ("view_obstruction", "collision_possibility", "potential_risk")


def _sentence(rnd: random.Random, lo: int, hi: int) -> list[str]:
    words = [rnd.choice(WORDS) for _ in range(rnd.randint(lo, hi))]
    if words and rnd.random() < 0.2:  # a repeated n-gram
        i = rnd.randrange(len(words))
        words[i:i] = words[i:i + 3]
    return words


def _caption_rows(rnd: random.Random, n: int = 240):
    preds, gts = [], []
    for i in range(n):
        base = _sentence(rnd, 3, 14)
        refs = []
        for _ in range(rnd.randint(1, 4)):
            words = [w if rnd.random() < 0.8 else rnd.choice(WORDS) for w in base]
            words = words[: rnd.randint(min(2, len(words)), len(words))]
            refs.append(" ".join(words).capitalize() + rnd.choice((".", "!", " ?", "")))
        roll = rnd.random()
        if roll < 0.05:
            cand = ""
        elif roll < 0.12:
            cand = "  " + rnd.choice(refs).upper()  # an exact match after trimming
        else:
            cand = " ".join(w if rnd.random() < 0.7 else rnd.choice(WORDS)
                            for w in base[: rnd.randint(1, len(base))]) + ","
        cid = f"c-{i:03d}" if rnd.random() < 0.9 else i
        gts.append({"id": cid, "references": refs} if len(refs) > 1 or roll < 0.5
                   else {"id": cid, "caption": refs[0]})
        preds.append({"id": cid, "caption": cand})
    rnd.shuffle(preds)
    return preds, gts


def _grounding_rows(rnd: random.Random, images: int = 80):
    preds, gts = [], []
    for img in range(images):
        for _ in range(rnd.randint(1, 4)):
            w, h = rnd.randint(10, 200), rnd.randint(10, 200)
            x1, y1 = rnd.randint(0, 999 - w), rnd.randint(0, 999 - h)
            label = rnd.choice(LABELS)
            gts.append({"image_id": f"i-{img}", "box": [x1, y1, x1 + w, y1 + h],
                        "label": label})
            for _ in range(rnd.choice((0, 1, 1, 2))):
                j = rnd.randint(0, 30)
                bx1, by1 = max(x1 - j, 0), max(y1 - rnd.randint(0, 30), 0)
                preds.append({"image_id": f"i-{img}",
                              "box": [bx1, by1, min(x1 + w + j, 999), y1 + h],
                              "score": round(rnd.random(), 2),
                              "label": (label if rnd.random() < 0.9
                                        else rnd.choice(LABELS))})
    rnd.shuffle(preds)
    return preds, gts


def _planning_rows(rnd: random.Random, n: int = 150):
    preds, gts = [], []
    for i in range(n):
        speed, curve = rnd.uniform(1, 12), rnd.uniform(-0.2, 0.2)
        gt = [[round(speed * t, 3), round(curve * (speed * t) * (speed * t) / 10, 3)]
              for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
        pred = [[round(x + rnd.uniform(-1.2, 1.2), 3),
                 round(y + rnd.uniform(-0.8, 0.8), 3)] for x, y in gt]
        row = {"sample_id": f"p-{i:03d}", "trajectory": gt}
        if rnd.random() < 0.8:
            tracks = [(rnd.uniform(-5, 30), rnd.uniform(-6, 6), rnd.uniform(-6, 6),
                       rnd.uniform(-1, 1)) for _ in range(rnd.randint(1, 3))]
            row["agents"] = [
                [{"cx": round(cx + vx * t, 3), "cy": round(cy + vy * t, 3),
                  "length": 4.5, "width": 1.9, "heading": round(vy / 10, 3)}
                 for cx, cy, vx, vy in tracks]
                for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
        gts.append(row)
        preds.append({"sample_id": f"p-{i:03d}", "trajectory": pred})
    rnd.shuffle(preds)
    return preds, gts


def _ora_rows(rnd: random.Random, n: int = 300):
    def sample(sid: str, exist: bool) -> dict:
        row = {"sample_id": sid, "exist": exist}
        if exist:
            row.update(level=rnd.choice(ORA_LEVELS),
                       category=rnd.choice(ORA_CATEGORIES),
                       object=rnd.choice(LABELS))
            if rnd.random() < 0.3:
                x, y = rnd.randint(0, 800), rnd.randint(0, 800)
                row["grounding"] = [x, y, x + 99, y + 99]
        return row

    preds, gts = [], []
    for i in range(n):
        gt = sample(f"o-{i:03d}", rnd.random() < 0.6)
        pred = sample(f"o-{i:03d}", gt["exist"] if rnd.random() < 0.85
                      else not gt["exist"])
        if pred["exist"] and gt["exist"] and rnd.random() < 0.6:
            pred.update(level=gt["level"], object=" " + gt["object"].upper())
        gts.append(gt)
        preds.append(pred)
    rnd.shuffle(preds)
    return preds, gts


EVAL_ROWS = {"caption": _caption_rows, "grounding": _grounding_rows,
             "planning": _planning_rows, "ora": _ora_rows}

# (CSV, JSON report) per eval kind. The text-metric digests hold full-repr
# BLEU and CIDEr floats, which go through libm's math.exp (brevity penalty)
# and math.log (IDF table); planning's go through math.hypot, math.cos,
# math.sin and math.atan2. Those digests hold for glibc libm only.
EVAL_DIGESTS = {
    "caption": ("4a511e4658c38d2b26a9e27bb31ebc72af10d77b6dbe1b65ef5a5e226a7581bc",
                "bb833287b30a732fab0b1e24e3412b3fec3b5142538e8bf3a9a134b137ab27f4"),
    "grounding": ("9e8247a8efc30fb2334a4edced982eb48230c3228cd55654d212329b31cc025c",
                  "f4e2436fb7b0f9c2efd5d511394d24b27ec35c3592165a29484b5adddcb402b7"),
    "planning": ("cee3bc143cdd356f4db4ffe8bca8cc1f8dfc604cfa476b84916019d939ce657e",
                 "2fe752cdd0f975c43f5df7da46f7a2826af699008b3eae5fb2af11a2521fe153"),
    "ora": ("60b28cf92d2f07483f84fc62ce89afe85e3447cd57d6d758876618c05d9b2129",
            "7dde25714efe36bc5808b5ceb25f053eec151ac3e0174954d6241abfaa6beb0c"),
}


@pytest.mark.parametrize("kind", EVAL_DIGESTS)
def test_eval_digests(tmp_path, kind) -> None:
    preds, gts = EVAL_ROWS[kind](random.Random(f"golden-{kind}"))
    paths = {}
    for name, rows in (("pred", preds), ("gt", gts)):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("".join(json.dumps(r) + "\n" for r in rows))
    csv, report = tmp_path / "out.csv", tmp_path / "out.json"
    assert main(["eval", kind, "--pred", str(paths["pred"]), "--gt", str(paths["gt"]),
                 "--csv", str(csv), "--json", str(report), "--seed", "3"]) == 0
    assert (_sha256(csv), _sha256(report)) == EVAL_DIGESTS[kind]


# ------------------------------------------------------------ gen-risk-qa

CATEGORIES = ("car", "truck", "pedestrian", "bus", "traffic cone", "cyclist")
BEARING_KEYS = ("ahead", "ahead_left", "ahead_right", "left", "right", "behind")
REASONS = ("it is parked at the curb", "it is crossing in front of the ego vehicle",
           "it blocks the view of the crossing", "it is changing into the ego lane",
           "it may stop suddenly")
QUESTIONS = ("Where is the {0} in the image?",
             "Is there any risk from the {0}?",
             "What is the risk level of the {0}?",
             "What type of risk does the {0} pose?",
             "Which {0} is closest to the ego vehicle?",
             "Why should the driver brake now?")


def _scene(rnd: random.Random, i: int) -> dict:
    objects = []
    for _ in range(rnd.randint(1, 4)):
        obj = {"category": rnd.choice(CATEGORIES), "bearing": rnd.choice(BEARING_KEYS),
               "distance": rnd.randint(3, 60), "view": rnd.choice(VIEWS)}
        if rnd.random() < 0.7:
            x1, y1 = rnd.randint(0, 800), rnd.randint(0, 800)
            obj["box"] = [x1, y1, x1 + rnd.randint(1, 199), y1 + rnd.randint(1, 199)]
        objects.append(obj)
    return {"scene_id": f"rq-{i:02d}", "objects": objects}


def _risk_reply(rnd: random.Random, scene) -> str:
    doc = {}
    for obj in scene.objects:
        doc[obj.phrase()] = {
            risk: {"Status": rnd.choice(("High", "Medium", "Low", "None")),
                   "Reason": rnd.choice(REASONS)}
            for risk in rnd.sample(RISK_TYPES, rnd.randint(1, 3))}
    if rnd.random() < 0.2:  # a phrase no scene object has
        doc["the tram located 12 meters ahead"] = {
            "Potential risk": {"Status": "High", "Reason": rnd.choice(REASONS)}}
    text = json.dumps(doc, indent=rnd.choice((None, 4)))
    return f"```json\n{text}\n```" if rnd.random() < 0.2 else text


def _qa_reply(rnd: random.Random, scene) -> str:
    noun = rnd.choice(scene.objects).category
    return json.dumps([{"question": rnd.choice(QUESTIONS).format(noun),
                        "answer": f"The {noun} {rnd.choice(REASONS)}."}
                       for _ in range(rnd.randint(1, 5))])


def golden_risk_qa(replay, seed: int = 31, n: int = 36) -> list[dict]:
    """Seeded scenes plus their canned replies in ``replay``: some need a
    repair hop, some find no risk, and the last has no reply at all."""
    cfg = PipelineConfig()
    rnd = random.Random(seed)
    rows = [_scene(rnd, i) for i in range(n)]
    for row in rows[:-1]:
        scene = scene_from_dict(row)
        step1 = ChatRequest(
            model=cfg.step1_model,
            messages=({"role": "user", "content": build_risk_prompt(scene.objects)},),
            temperature=cfg.temperature, seed=cfg.seed)
        risk = _risk_reply(rnd, scene)
        if rnd.random() < 0.15:  # the first answer is not JSON
            store_replay(replay, step1, "I cannot tell.")
            step1 = step1.with_followup("I cannot tell.", REPAIR_INSTRUCTION)
        store_replay(replay, step1, risk)
        doc = parse_risk_response(risk)
        if not doc.is_empty:
            store_replay(replay, ChatRequest(
                model=cfg.step2_model,
                messages=({"role": "user", "content": build_qa_prompt(doc)},),
                temperature=cfg.temperature, seed=cfg.seed), _qa_reply(rnd, scene))
    return rows


# qa.jsonl, targets.jsonl, and the report's run block as sorted-key JSON
RISK_QA_DIGESTS = (
    "12948600da307f9e83a16033ef8d53af13aac8977768fbb42879d6963736b62c",
    "fd9e1e8d37e46845973be567b05ad230e16452825ad4003c7c7730792ccf1e77",
    "e3c34a902ee3386c4b441fa0fc09375c41bfcabc26ffcfc62ea4a76da9c89b8c",
)


def test_gen_risk_qa_digests(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)  # failure reasons name the replay path as given
    rows = golden_risk_qa(tmp_path / "replay")
    (tmp_path / "scenes.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["gen-risk-qa", "--scenes", "scenes.jsonl", "--mock", "replay",
                 "--out-qa", "qa.jsonl", "--out-grounding", "targets.jsonl",
                 "--report", "run.json", "--jobs", "3"]) == 0
    capsys.readouterr()
    run = json.loads((tmp_path / "run.json").read_text())["run"]
    assert run["scenes_failed"] == [rows[-1]["scene_id"]]
    run_bytes = json.dumps(run, sort_keys=True).encode()
    assert (_sha256(tmp_path / "qa.jsonl"), _sha256(tmp_path / "targets.jsonl"),
            hashlib.sha256(run_bytes).hexdigest()) == RISK_QA_DIGESTS


# ------------------------------------------------ budget, interactor-demo
# Both artifacts hold integers, one IEEE division (the ratio) and input
# hashes, so their digests hold on any CPU. The fused FKMX from
# interactor-demo and the mask-exp CSV/JSON are left out: they go through
# np.exp, whose SIMD-dispatched bits differ between x86 feature levels,
# and wait for a portable exp before they can be frozen.

# the --json report and the printed line
BUDGET_DIGESTS = (
    "d4ab30c603e9fc2dc59270771a4bed08f36b3b970d63e39a2f0efef3b352b746",
    "43ff288f1dcf5dae9eb22ee7e6c1fb070825c12c4bd5b737dffa9d93dafe8826",
)


def test_budget_digests(tmp_path, capsys) -> None:
    report = tmp_path / "budget.json"
    assert main(["budget", "--view-tokens", "576,576,576,400,576,12",
                 "--bev-tokens", "2500", "--k-img", "90", "--k-bev", "300",
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out.encode()
    assert (_sha256(report), hashlib.sha256(out).hexdigest()) == BUDGET_DIGESTS


def _integer_fkmx(path, rng, rows: int, d: int) -> str:
    # multiples of 1/64 drawn as integers: the file bytes need no libm
    save_fkmx(Matrix(rng.integers(-256, 257, size=(rows, d)) / 64.0), path)
    return str(path)


# the sidecar as sorted-key JSON without its timing_seconds
DEMO_SIDECAR_DIGEST = "d5eb45b6f84d2aa95d8fc4c3e4e106867f5db19d335b0c9fb7bfc9aa8164c195"


def test_interactor_demo_sidecar_digest(tmp_path, capsys) -> None:
    rng = np.random.default_rng(2412)
    views = [_integer_fkmx(tmp_path / f"v{i}.fkmx", rng, 40 + 3 * i, 16)
             for i in range(3)]
    bev = _integer_fkmx(tmp_path / "bev.fkmx", rng, 48, 16)
    inst = _integer_fkmx(tmp_path / "inst.fkmx", rng, 3, 16)
    side = tmp_path / "side.json"
    assert main(["interactor-demo", "--views", *views, "--bev", bev,
                 "--instruction", inst, "--bev-grid", "6,8",
                 "--out", str(tmp_path / "fused.fkmx"), "--sidecar", str(side),
                 "--k-img", "9", "--k-bev", "12", "--num-heads", "2",
                 "--seed", "5"]) == 0
    capsys.readouterr()
    doc = json.loads(side.read_text())
    del doc["timing_seconds"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == DEMO_SIDECAR_DIGEST
