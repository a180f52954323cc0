"""Seeded input generators for the three workloads.

``generate(workload, seed, directory)`` writes the workload's input files
into ``directory`` and returns its manifest: the command sequence of one
pass, the generated sizes, and the values the outputs must show. The same
seed gives the same bytes. Nothing here imports fusionkit: inputs and
expectations come from the benchmark alone.
"""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path

import numpy as np

import fixtures

WORKLOADS = ("fusion-paper", "eval-8k", "curate-8k")

VIEW_NAMES = ("front", "front_left", "front_right", "back", "back_left",
              "back_right")

FUSION = {"views": 6, "view_tokens": 576, "bev_grid": (50, 50),
          "instruction_tokens": 4, "d": 64, "k_img": 90, "k_bev": 300,
          "num_layers": 2, "num_heads": 1, "mask_rates": (0, 10, 30, 50)}
EVAL = {"caption_pairs": 8000, "references": 3, "ref_tokens": (8, 20),
        "vocabulary": 400, "grounding_boxes": 8000, "grounding_images": 2000,
        "classes": 5, "iou_thresholds": (0.5, 0.75), "planning_samples": 8000,
        "agents": 5, "waypoints": 6, "ora_samples": 8000,
        "ora_exist_share": 0.6}
CURATE = {"records": 8000, "image_size": (1600, 900), "scenes": 500,
          "jobs": 2, "stub_delay_ms": fixtures.STUB_DELAY_MS}


# ---------------------------------------------------------------- helpers


def write_fkmx(path: Path, arr: np.ndarray) -> None:
    rows, cols = arr.shape
    path.write_bytes(b"FKMX" + struct.pack("<II", rows, cols)
                     + np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_fkmx(path: Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != b"FKMX":
        raise ValueError(f"{path}: not an FKMX file")
    rows, cols = struct.unpack_from("<II", blob, 4)
    return np.frombuffer(blob[12:], dtype="<f8").reshape(rows, cols)


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def generate(workload: str, seed: int, directory: Path) -> dict:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](seed, directory)


# ---------------------------------------------------------- fusion-paper


def _fusion(seed: int, d: Path) -> dict:
    f = FUSION
    rng = np.random.default_rng([seed, 1])
    views = []
    for name in VIEW_NAMES:
        p = d / f"view_{name}.fkmx"
        write_fkmx(p, rng.standard_normal((f["view_tokens"], f["d"])))
        views.append(str(p))
    h, w = f["bev_grid"]
    write_fkmx(d / "bev.fkmx", rng.standard_normal((h * w, f["d"])))
    write_fkmx(d / "instruction.fkmx",
               rng.standard_normal((f["instruction_tokens"], f["d"])))
    (d / "candidates.json").write_text(json.dumps(
        {name: list(range(f["view_tokens"])) for name in VIEW_NAMES}))
    program_seed = str(seed % 100000)
    commands = [
        {"name": "fuse", "argv": [
            "interactor-demo", "--views", *views, "--bev", str(d / "bev.fkmx"),
            "--instruction", str(d / "instruction.fkmx"),
            "--out", "{out}/fused.fkmx", "--sidecar", "{out}/fused.json",
            "--bev-grid", f"{h},{w}", "--k-img", str(f["k_img"]),
            "--k-bev", str(f["k_bev"]), "--num-layers", str(f["num_layers"]),
            "--num-heads", str(f["num_heads"]), "--seed", program_seed],
         "outputs": ["fused.fkmx", "fused.json"]},
        {"name": "mask_exp", "argv": [
            "mask-exp", "--views", *views,
            "--candidates", str(d / "candidates.json"),
            "--rates", ",".join(str(r) for r in f["mask_rates"]),
            "--csv", "{out}/mask.csv", "--json", "{out}/mask.json",
            "--seed", program_seed],
         "outputs": ["mask.csv", "mask.json"]},
    ]
    sizes = {**f, "raw_tokens": f["views"] * f["view_tokens"] + h * w,
             "fused_tokens": f["views"] * f["k_img"] + f["k_bev"]}
    return {"commands": commands, "sizes": sizes,
            "expect": {"program_seed": int(program_seed)}}


# --------------------------------------------------------------- eval-8k


def _vocabulary(rnd: random.Random, n: int) -> list[str]:
    syll = ["ka", "lo", "mi", "ne", "ru", "ta", "vo", "si", "de", "pa", "zu",
            "ge", "bo", "fi", "xa", "ju"]
    words: set[str] = set()
    while len(words) < n:
        words.add("".join(rnd.choice(syll) for _ in range(rnd.randint(1, 3))))
    return sorted(words)


def _caption(rnd: random.Random, d: Path) -> None:
    e = EVAL
    vocab = _vocabulary(rnd, e["vocabulary"])
    lo, hi = e["ref_tokens"]

    def sentence(n: int) -> list[str]:
        return [rnd.choice(vocab) for _ in range(n)]

    def render(tokens: list[str]) -> str:
        text = " ".join(tokens)
        return (text[0].upper() + text[1:] + rnd.choice([".", ".", "!", " ?"]))

    gts, preds = [], []
    for i in range(e["caption_pairs"]):
        base = sentence(rnd.randint(lo, hi))
        refs = []
        for _ in range(e["references"]):
            tokens = list(base)
            for _ in range(rnd.randint(0, 4)):
                tokens[rnd.randrange(len(tokens))] = rnd.choice(vocab)
            tokens = tokens[: rnd.randint(lo, len(tokens))] if len(tokens) > lo else tokens
            refs.append(render(tokens))
        if rnd.random() < 0.05:
            cand = rnd.choice(refs)
        else:
            tokens = list(base)
            for _ in range(rnd.randint(1, 8)):
                tokens[rnd.randrange(len(tokens))] = rnd.choice(vocab)
            cand = render(tokens[: rnd.randint(max(3, len(tokens) - 6), len(tokens))])
        cid = f"cap-{i:05d}"
        gts.append({"id": cid, "references": refs})
        preds.append({"id": cid, "caption": cand})
    rnd.shuffle(preds)
    write_jsonl(d / "caption_gt.jsonl", gts)
    write_jsonl(d / "caption_pred.jsonl", preds)


GROUNDING_CLASSES = ("car", "truck", "pedestrian", "bus", "cyclist")


def _grounding(rnd: random.Random, d: Path) -> None:
    e = EVAL
    per_image = e["grounding_boxes"] // e["grounding_images"]
    gts, preds = [], []
    for img in range(e["grounding_images"]):
        image_id = f"img-{img:05d}"
        for _ in range(per_image):
            w, h = rnd.randint(20, 200), rnd.randint(20, 200)
            x1, y1 = rnd.randint(0, 999 - w), rnd.randint(0, 999 - h)
            label = rnd.choice(GROUNDING_CLASSES)
            gts.append({"image_id": image_id, "box": [x1, y1, x1 + w, y1 + h],
                        "label": label})
            jx, jy = max(1, w // 10), max(1, h // 10)
            bx1 = min(max(x1 + rnd.randint(-jx, jx), 0), 998)
            by1 = min(max(y1 + rnd.randint(-jy, jy), 0), 998)
            bx2 = min(max(x1 + w + rnd.randint(-jx, jx), bx1 + 1), 999)
            by2 = min(max(y1 + h + rnd.randint(-jy, jy), by1 + 1), 999)
            if rnd.random() < 0.05:
                label = rnd.choice(GROUNDING_CLASSES)
            preds.append({"image_id": image_id, "box": [bx1, by1, bx2, by2],
                          "score": rnd.random(), "label": label})
    rnd.shuffle(preds)
    write_jsonl(d / "grounding_gt.jsonl", gts)
    write_jsonl(d / "grounding_pred.jsonl", preds)


def _planning(rnd: random.Random, d: Path) -> None:
    e = EVAL
    gts, preds = [], []
    for i in range(e["planning_samples"]):
        speed = rnd.uniform(2.0, 12.0)
        curve = rnd.uniform(-0.15, 0.15)
        gt_traj = [[round(speed * t + rnd.gauss(0, 0.05), 3),
                    round(curve * (speed * t) ** 2 / 10, 3)]
                   for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
        pred_traj = [[round(x + rnd.gauss(0, 0.6), 3), round(y + rnd.gauss(0, 0.4), 3)]
                     for x, y in gt_traj]
        agents = []
        # agent k moves on a straight line; some start on the ego's path
        tracks = []
        for k in range(e["agents"]):
            if k == 0 and rnd.random() < 0.25:
                j = rnd.randrange(6)
                cx, cy = pred_traj[j][0] + rnd.uniform(-3, 3), pred_traj[j][1] + rnd.uniform(-1.5, 1.5)
                vx, vy = 0.0, 0.0
            else:
                cx = rnd.uniform(-20, 50)
                cy = rnd.choice([-1, 1]) * rnd.uniform(4.5, 25)
                vx, vy = rnd.uniform(-8, 8), rnd.uniform(-1, 1)
            tracks.append((cx, cy, vx, vy, round(rnd.uniform(3.5, 5.5), 3),
                           round(rnd.uniform(1.6, 2.2), 3),
                           round(rnd.uniform(-0.4, 0.4), 4)))
        for j in range(e["waypoints"]):
            t = 0.5 * (j + 1)
            agents.append([{"cx": round(cx + vx * t, 3), "cy": round(cy + vy * t, 3),
                            "length": ln, "width": wd, "heading": hd}
                           for cx, cy, vx, vy, ln, wd, hd in tracks])
        sid = f"plan-{i:05d}"
        gts.append({"sample_id": sid, "trajectory": gt_traj, "agents": agents})
        preds.append({"sample_id": sid, "trajectory": pred_traj})
    rnd.shuffle(preds)
    write_jsonl(d / "planning_gt.jsonl", gts)
    write_jsonl(d / "planning_pred.jsonl", preds)


ORA_LEVELS = ("low", "medium", "high")
ORA_CATEGORIES = ("view_obstruction", "collision_possibility",
                  "traffic_rule_violation", "potential_risk")
ORA_OBJECTS = ("car", "truck", "bus", "pedestrian", "cyclist", "barrier")


def _ora(rnd: random.Random, d: Path) -> None:
    e = EVAL

    def sample(sid: str, exist: bool) -> dict:
        row = {"sample_id": sid, "exist": exist}
        if exist:
            row.update(level=rnd.choice(ORA_LEVELS),
                       category=rnd.choice(ORA_CATEGORIES),
                       object=rnd.choice(ORA_OBJECTS))
        return row

    gts, preds = [], []
    for i in range(e["ora_samples"]):
        sid = f"ora-{i:05d}"
        gt = sample(sid, rnd.random() < e["ora_exist_share"])
        exist = gt["exist"] if rnd.random() < 0.85 else not gt["exist"]
        pred = sample(sid, exist)
        if exist and gt["exist"]:
            for key in ("level", "category", "object"):
                if rnd.random() < 0.7:
                    pred[key] = gt[key]
            if rnd.random() < 0.2:
                pred["object"] = " " + pred["object"].upper()
        gts.append(gt)
        preds.append(pred)
    rnd.shuffle(preds)
    write_jsonl(d / "ora_gt.jsonl", gts)
    write_jsonl(d / "ora_pred.jsonl", preds)


def _eval(seed: int, d: Path) -> dict:
    rnd = random.Random(f"eval-8k:{seed}")
    _caption(rnd, d)
    _grounding(rnd, d)
    _planning(rnd, d)
    _ora(rnd, d)
    program_seed = str(seed % 100000)
    thresholds = ",".join(f"{t:g}" for t in EVAL["iou_thresholds"])
    commands = []
    for kind in ("caption", "grounding", "planning", "ora"):
        argv = ["eval", kind, "--pred", str(d / f"{kind}_pred.jsonl"),
                "--gt", str(d / f"{kind}_gt.jsonl"),
                "--csv", f"{{out}}/{kind}.csv", "--json", f"{{out}}/{kind}.json",
                "--seed", program_seed]
        if kind == "grounding":
            argv += ["--iou-thresholds", thresholds]
        commands.append({"name": f"eval_{kind}", "argv": argv,
                         "outputs": [f"{kind}.csv", f"{kind}.json"]})
    return {"commands": commands, "sizes": dict(EVAL), "expect": {}}


# ------------------------------------------------------------- curate-8k


def _box_tag(rnd: random.Random, coords) -> str:
    x1, y1, x2, y2 = coords
    if rnd.random() < 0.1:  # legacy spelling, reserialized canonically
        return f"< box >( {x1}, {y1} ),( {x2}, {y2} )</box >"
    return f"<box>({x1},{y1}),({x2},{y2})</box>"


def _pixel_box(rnd: random.Random, kind: str):
    """A pixel box of the given kind on a 1600x900 image."""
    w, h = CURATE["image_size"]
    if kind == "inverted":  # inside 0..999 but x2 < x1: dropped as inverted
        x2 = rnd.randint(0, 900)
        x1 = x2 + rnd.randint(10, 99)
        y1 = rnd.randint(0, 800)
        return (x1, y1, x2, y1 + rnd.randint(20, 99)), "inverted"
    if kind == "inverted_oob":  # x1 > 999 and x2 < x1: dropped as out_of_range
        x1 = rnd.randint(1000, 1500)
        x2 = x1 - rnd.randint(10, 200)
        y1 = rnd.randint(0, 800)
        return (x1, y1, x2, y1 + rnd.randint(20, 99)), "out_of_range"
    bw, bh = rnd.randint(20, 300), rnd.randint(20, 200)
    x1, y1 = rnd.randint(0, w - 1 - bw), rnd.randint(0, h - 1 - bh)
    if kind == "clamped":  # spills past the image; normalization clamps it
        return (x1 - rnd.randint(1, 40) if x1 < 100 else x1,
                y1, w - 1 + rnd.randint(1, 80), y1 + bh), None
    return (x1, y1, x1 + bw, y1 + bh), None


def _refine_records(rnd: random.Random, d: Path) -> dict:
    n = CURATE["records"]
    sources = ("nuscenes-qa", "nuscenes-mqa", "omnidrive", "nuinstruct", "ora")
    objects = ("car", "truck", "pedestrian", "bus", "traffic cone", "cyclist")
    commands = ("TURN LEFT", "TURN RIGHT", "GO STRAIGHT")
    expect = {"input_count": n, "kept": 0, "dropped": 0, "box_drops": {},
              "record_drops": {}, "boxes_normalized": 0,
              "decimals_converted": 0}
    kept_ids = []
    rows = []
    for i in range(n):
        rid = f"rec-{i:05d}"
        turns = []
        dropped = False
        for _ in range(rnd.choice((1, 1, 2))):
            obj = rnd.choice(objects)
            view = rnd.choice(("front", "front_left", "back"))
            grounded = rnd.random() < 0.7
            dist = f"{rnd.randint(1, 60)}.{rnd.randint(0, 99):02d}"
            expect["decimals_converted"] += 1
            q = (f"<|camera_{view}|> Where is <ref>the {obj}</ref> that is "
                 f"{dist} meters away?" if grounded else
                 f"<|camera_{view}|> What is {dist} meters ahead of the ego car?")
            short = rnd.random() < 0.3
            kinds = rnd.choices(("valid", "clamped", "inverted", "inverted_oob"),
                                weights=(84, 6, 7, 3),
                                k=1 if short else rnd.randint(1, 3))
            tags = []
            survivors = 0
            for kind in kinds:
                coords, reason = _pixel_box(rnd, kind)
                tags.append(_box_tag(rnd, coords))
                if reason is None:
                    expect["boxes_normalized"] += 1
                    survivors += 1
                else:
                    expect["box_drops"][reason] = expect["box_drops"].get(reason, 0) + 1
            if short:
                a = f"It is at {tags[0]}."
            else:
                a = (f"The {obj} is at " + " and ".join(tags)
                     + f", moving at {rnd.uniform(0, 20):.2f} m/s.")
                expect["decimals_converted"] += 1
            if grounded and survivors == 0:
                dropped = True
            turns += [{"role": "human", "value": q},
                      {"role": "assistant", "value": a}]
        points = []
        t = 0.0
        x = y = 0.0
        vx, vy = rnd.uniform(1, 10), rnd.uniform(-1, 1)
        while True:
            points.append([round(t, 3), round(x, 4), round(y, 4)])
            if t >= 3.0:
                break
            step = 0.5 if rnd.random() < 0.3 else rnd.uniform(0.15, 0.6)
            t = min(round(t + step, 3), 3.2)
            x += vx * step
            y += vy * step
        row = {
            "id": rid,
            "images": {"front": f"samples/CAM_FRONT/{rid}.jpg"},
            "conversation": turns,
            "trajectory_points": points,
            "ego_status": {
                "lateral_velocity": round(rnd.uniform(-1, 1), 3),
                "longitudinal_velocity": round(rnd.uniform(0, 15), 3),
                "lateral_acceleration": round(rnd.uniform(-0.5, 0.5), 3),
                "longitudinal_acceleration": round(rnd.uniform(-2, 2), 3),
                "command": rnd.choice(commands),
            },
            "source_dataset": rnd.choice(sources),
        }
        rows.append(row)
        if dropped:
            expect["dropped"] += 1
            expect["record_drops"]["grounding_lost_all_boxes"] = (
                expect["record_drops"].get("grounding_lost_all_boxes", 0) + 1)
        else:
            expect["kept"] += 1
            kept_ids.append(rid)
    write_jsonl(d / "records.jsonl", rows)
    expect["box_drops"] = dict(sorted(expect["box_drops"].items()))
    expect["kept_ids"] = kept_ids
    return expect


def _scenes(rnd: random.Random, d: Path) -> list[dict]:
    scenes = []
    for i in range(CURATE["scenes"]):
        objs = []
        for dist in rnd.sample(range(3, 80), rnd.randint(2, 6)):
            obj = {"category": rnd.choice(fixtures.CATEGORIES),
                   "bearing": rnd.choice(sorted(fixtures.BEARINGS)),
                   "distance": dist,
                   "view": rnd.choice(VIEW_NAMES)}
            if rnd.random() < 0.9:
                x1, y1 = rnd.randint(0, 800), rnd.randint(0, 800)
                obj["box"] = [x1, y1, x1 + rnd.randint(10, 199),
                              y1 + rnd.randint(10, 199)]
            objs.append(obj)
        scenes.append({"scene_id": f"scene-{i:04d}", "objects": objs})
    write_jsonl(d / "scenes.jsonl", scenes)
    return scenes


def _curate(seed: int, d: Path) -> dict:
    rnd = random.Random(f"curate-8k:{seed}")
    refine_expect = _refine_records(rnd, d)
    scenes = _scenes(rnd, d)
    program_seed = str(seed % 100000)
    w, h = CURATE["image_size"]
    commands = [
        {"name": "refine", "argv": [
            "refine", "--input", str(d / "records.jsonl"),
            "--output", "{out}/refined.jsonl", "--report", "{out}/refine.json",
            "--image-size", f"{w}x{h}", "--quantize-decimals",
            "--seed", program_seed],
         "outputs": ["refined.jsonl", "refine.json"]},
        {"name": "gen_risk_qa", "argv": [
            "gen-risk-qa", "--scenes", str(d / "scenes.jsonl"),
            "--out-qa", "{out}/qa.jsonl", "--out-grounding", "{out}/targets.jsonl",
            "--report", "{out}/run.json", "--endpoint", "{endpoint}",
            "--jobs", str(CURATE["jobs"]), "--seed", program_seed],
         "outputs": ["qa.jsonl", "targets.jsonl", "run.json"]},
    ]
    return {"commands": commands, "sizes": dict(CURATE),
            "expect": {"refine": refine_expect,
                       "risk_qa": fixtures.expected_run(scenes)}}


_GENERATORS = {"fusion-paper": _fusion, "eval-8k": _eval, "curate-8k": _curate}
