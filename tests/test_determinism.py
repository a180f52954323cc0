"""One determinism gate over every command.

Every variant below starts one fresh process that runs every command
through ``fusionkit.cli.main`` on the same small seeded inputs and prints
each artifact's sha256. Every artifact must have one digest across all
variants: the default, two hash seeds, one CPU (so ``refine``,
``eval planning`` and ``interactor-demo`` do not fork), one OpenBLAS
thread, a few forced OpenBLAS core types, and each SIMD level this numpy
dispatches to and this CPU has, turned off through
``NPY_DISABLE_CPU_FEATURES``.

The one known exception: ``fused.fkmx`` moves when a level that carries
numpy's float64 loops goes off (ROADMAP item 2). Its cell is a strict
xfail only for a variant where the child confirms in ``__cpu_features__``
that such a level did go off. On a one-CPU machine the one-CPU variant
equals the default, and the forked paths are then covered only by the
in-process tests (``test_refine_workers.py``,
``test_planning_workers.py``, ``test_interactor.py``).

``test_golden_digests.py`` pins the values; this gate checks agreement.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import fusionkit
from fusionkit.matrix import Matrix, save_fkmx
from fusionkit.risk_qa import PipelineConfig

from test_driving_eval import _ora_fixture, ora_sample_to_dict
from test_risk_qa import (
    QA_RESPONSE_FIXTURE,
    RISK_RESPONSE_FIXTURE,
    _seed_replay,
    seven_car_scene,
)

SRC = str(Path(fusionkit.__file__).resolve().parent.parent)

# numpy >= 2.0 keeps its CPU tables in numpy._core, numpy 1.x in numpy.core
_CPU_TABLES = """
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
on = [level for level in __cpu_dispatch__ if __cpu_features__.get(level)]
"""

# argv: JSON list of command argvs, output directory, CPU to pin or "".
# Prints one JSON line: exit codes, dispatch levels on, artifact digests;
# or, when numpy refuses the environment at import, why
_CHILD = """
import hashlib, json, os, sys
commands, out, cpu = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
if cpu:
    os.sched_setaffinity(0, {int(cpu)})
try:
    import numpy
except Exception as err:
    print(json.dumps({"rejected": f"numpy: {type(err).__name__}: {err}"}))
    sys.exit()
""" + _CPU_TABLES + """
from fusionkit.cli import main
codes = [main([arg.replace("{out}", out) for arg in argv]) for argv in commands]

def digest(name):
    data = open(os.path.join(out, name), "rb").read()
    if name == "demo.json":  # the one field exempt from byte-identical reruns
        doc = json.loads(data)
        del doc["timing_seconds"]
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()

print(json.dumps({"codes": codes, "on": on,
                  "digests": {n: digest(n) for n in sorted(os.listdir(out))}}))
"""

ARTIFACTS = (
    "refined.jsonl", "refine.json",
    "qa.jsonl", "grounding.jsonl", "run.json",
    "caption.csv", "caption.json", "boxes.csv", "boxes.json",
    "planning.csv", "planning.json", "ora.csv", "ora.json",
    "fused.fkmx", "demo.json", "mask.csv", "mask.json", "budget.json",
)

# numpy's float64 loops dispatch on these levels (numpy 2.4 groups them as
# X86_V3 and X86_V4; numpy 1.x names the features)
FLOAT_LEVELS = {"X86_V3", "X86_V4", "FMA3", "AVX2", "AVX512F", "AVX512_SKX"}

OPENBLAS_CORETYPES = ("Prescott", "Haswell", "SkylakeX")


def _child_env(**updates: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else ""),
            **updates}


def _dispatch_levels_on() -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", _CPU_TABLES + "print(' '.join(on))"],
        env=_child_env(), capture_output=True, text=True, check=True)
    return out.stdout.split()


def _variants() -> dict[str, tuple[dict, bool]]:
    """name -> (environment updates, pin to one CPU)"""
    variants = {
        "default": ({}, False),
        "hashseed-0": ({"PYTHONHASHSEED": "0"}, False),
        "hashseed-4242": ({"PYTHONHASHSEED": "4242"}, False),
        "one-cpu": ({}, True),
        "openblas-1-thread": ({"OPENBLAS_NUM_THREADS": "1"}, False),
    }
    for core in OPENBLAS_CORETYPES:
        variants[f"openblas-{core}"] = (
            {"OPENBLAS_CORETYPE": core, "OPENBLAS_VERBOSE": "2"}, False)
    for level in _dispatch_levels_on():
        variants[f"without-{level}"] = (
            {"NPY_DISABLE_CPU_FEATURES": level}, False)
    return variants


VARIANTS = _variants()


def _write_jsonl(path: Path, rows) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def _commands(d: Path) -> list[list[str]]:
    """Seeded inputs under ``d`` and every command over them; ``{out}``
    stands for the variant's output directory."""
    rng = np.random.default_rng(2024)
    out = "{out}/"

    # refine: enough lines that refine splits them between workers
    records = []
    for i in range(600):
        x, y = int(rng.integers(0, 1400)), int(rng.integers(0, 800))
        records.append({"id": f"r{i}", "conversation": [
            {"role": "human",
             "value": f"Is the <ref>car</ref> {i % 7}.5 m ahead?"},
            {"role": "assistant",
             "value": f"Yes, at <box>({x},{y}),({x + 150},{y + 90})</box>."}]})
    refine_in = _write_jsonl(d / "refine.jsonl", records)

    replay = d / "replay"
    scene = seven_car_scene()
    _seed_replay(replay, PipelineConfig(), scene, RISK_RESPONSE_FIXTURE,
                 QA_RESPONSE_FIXTURE)
    objects = [{"category": o.category, "bearing": o.bearing,
                "distance": o.distance, "view": o.view} for o in scene.objects]
    scenes = _write_jsonl(d / "scenes.jsonl", [
        {"scene_id": s, "objects": objects} for s in ("a", "b", "c")])

    words = "the car ahead turns left while a truck waits at the light".split()
    captions = [" ".join(rng.choice(words, 9)) for _ in range(12)]
    cap_pred = _write_jsonl(d / "cap_pred.jsonl", [
        {"id": str(i), "caption": c} for i, c in enumerate(captions[:6])])
    cap_gt = _write_jsonl(d / "cap_gt.jsonl", [
        {"id": str(i), "references": [c, captions[6 + i]]}
        for i, c in enumerate(captions[:6])])

    boxes = []
    for i in range(20):
        x, y = (int(v) for v in rng.integers(0, 800, 2))
        boxes.append({"image_id": f"i{i % 4}", "label": ("car", "bus")[i % 2],
                      "box": [x, y, x + 120, y + 80]})
    box_gt = _write_jsonl(d / "box_gt.jsonl", boxes)
    box_pred = _write_jsonl(d / "box_pred.jsonl", [
        {**b, "box": [v + int(rng.integers(0, 40)) for v in b["box"]],
         "score": float(rng.random())} for b in boxes])

    # planning: enough GT lines that planning splits them between workers
    plan_pred, plan_gt = [], []
    for i in range(600):
        gt = np.cumsum(rng.normal(1.0, 0.3, (6, 2)), axis=0)
        agents = [[{"cx": float(p[0] + 1.0), "cy": float(p[1]), "length": 4.0,
                    "width": 2.0, "heading": float(rng.random())}]
                  for p in gt]
        plan_gt.append({"sample_id": f"s{i}", "trajectory": gt.tolist(),
                        "agents": agents})
        plan_pred.append({"sample_id": f"s{i}", "trajectory":
                          (gt + rng.normal(0, 0.5, gt.shape)).tolist()})
    plan_pred = _write_jsonl(d / "plan_pred.jsonl", plan_pred)
    plan_gt = _write_jsonl(d / "plan_gt.jsonl", plan_gt)

    preds, gts = _ora_fixture()
    ora_pred = _write_jsonl(d / "ora_pred.jsonl", map(ora_sample_to_dict, preds))
    ora_gt = _write_jsonl(d / "ora_gt.jsonl", map(ora_sample_to_dict, gts))

    # a two-view, 64-token fuse: enough to split by SIMD level
    views = []
    for i in range(2):
        views.append(str(d / f"view{i}.fkmx"))
        save_fkmx(Matrix(rng.standard_normal((64, 16))), views[-1])
    save_fkmx(Matrix(rng.standard_normal((64, 16))), d / "bev.fkmx")
    save_fkmx(Matrix(rng.standard_normal((4, 16))), d / "inst.fkmx")
    candidates = d / "candidates.json"
    candidates.write_text(json.dumps(
        {"front": list(range(0, 64, 2)), "front_left": list(range(32))}))

    return [
        ["refine", "--input", refine_in, "--output", out + "refined.jsonl",
         "--report", out + "refine.json", "--image-size", "1600x900",
         "--quantize-decimals"],
        ["gen-risk-qa", "--scenes", scenes, "--mock", str(replay),
         "--out-qa", out + "qa.jsonl", "--out-grounding", out + "grounding.jsonl",
         "--report", out + "run.json"],
        ["eval", "caption", "--pred", cap_pred, "--gt", cap_gt,
         "--csv", out + "caption.csv", "--json", out + "caption.json"],
        ["eval", "grounding", "--pred", box_pred, "--gt", box_gt,
         "--iou-thresholds", "0.3,0.5", "--csv", out + "boxes.csv",
         "--json", out + "boxes.json"],
        ["eval", "planning", "--pred", plan_pred, "--gt", plan_gt,
         "--csv", out + "planning.csv", "--json", out + "planning.json"],
        ["eval", "ora", "--pred", ora_pred, "--gt", ora_gt,
         "--csv", out + "ora.csv", "--json", out + "ora.json"],
        ["interactor-demo", "--views", *views, "--bev", str(d / "bev.fkmx"),
         "--instruction", str(d / "inst.fkmx"), "--bev-grid", "8,8",
         "--k-img", "32", "--k-bev", "32", "--out", out + "fused.fkmx",
         "--sidecar", out + "demo.json"],
        ["mask-exp", "--views", *views, "--candidates", str(candidates),
         "--csv", out + "mask.csv", "--json", out + "mask.json"],
        ["budget", "--view-tokens", "576,576,576,576,576,576",
         "--bev-tokens", "2500", "--json", out + "budget.json"],
    ]


def _run(commands: list, out: Path, env: dict, one_cpu: bool) -> dict:
    out.mkdir()
    cpu = str(min(os.sched_getaffinity(0))) if one_cpu else ""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(commands), str(out), cpu],
        env=_child_env(**env), capture_output=True, text=True, timeout=120)
    if "Core not found" in proc.stderr:
        return {"rejected": "OpenBLAS: " + proc.stderr.strip()}
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if "rejected" not in result:
        assert result["codes"] == [0] * len(commands), proc.stderr
    return result


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, dict]:
    """Each variant's child result, the children run two at a time."""
    root = tmp_path_factory.mktemp("determinism")
    commands = _commands(root)
    with ThreadPoolExecutor(2) as pool:
        futures = {name: pool.submit(_run, commands, root / name, env, one_cpu)
                   for name, (env, one_cpu) in VARIANTS.items()}
        return {name: f.result() for name, f in futures.items()}


def test_default_run_writes_every_artifact(runs) -> None:
    assert sorted(runs["default"]["digests"]) == sorted(ARTIFACTS)


@pytest.mark.parametrize("artifact", ARTIFACTS)
@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "default"])
def test_one_digest_per_artifact(runs, request, variant, artifact) -> None:
    result = runs[variant]
    if "rejected" in result:
        pytest.skip(f"{variant} rejected by {result['rejected']}")
    went_off = set(runs["default"]["on"]) - set(result["on"])
    if artifact == "fused.fkmx" and went_off & FLOAT_LEVELS:
        request.applymarker(pytest.mark.xfail(strict=True,
                                              reason="ROADMAP item 2"))
    assert result["digests"][artifact] == runs["default"]["digests"][artifact]
