"""Frozen sha256 digests of command artifacts on small seeded inputs.

A change in any output byte shows up here as a digest update, so a
refactor that claims identical outputs proves it in tier-1. The inputs
use only IEEE basic operations and ``json`` float repr on the way to the
artifacts, so the digests do not depend on the libm build.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from fusionkit.cli import main

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
              "e7bd6016fb8024bd53262f2715a0b73018ce8415bcd00f24de12f5fa3e9fbbfb"),
    "pixels": ("3fa3cf1500a8514d49ba34e2865e3a604c95883f33d6eae550c850c530f6b977",
               "9c6d0ee67fb3eba2261dbd59d9350ad0f9c9ca7e5516dcc4487697c6fd1ed936"),
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
