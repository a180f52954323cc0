"""Correctness checks on the outputs of the warm-up pass.

Every reference here is computed by the benchmark: plain numpy for fusion,
the brute-force oracles in ``tests/oracles.py`` for caption metrics and
collisions, and short independent implementations for the rest. None
imports fusionkit. Each ``check_<command>`` returns a list of problems;
an empty list means the output is right.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import gen

REL_TOL = 1e-9  # float results whose summation order may differ


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def canonical_bytes(path: Path) -> bytes:
    """Output bytes that must repeat exactly across passes; the demo
    sidecar's wall-clock field is the one documented exception."""
    data = Path(path).read_bytes()
    if path.name == "fused.json":
        try:
            doc = json.loads(data)
        except ValueError:
            return data
        doc.pop("timing_seconds", None)
        return json.dumps(doc, sort_keys=True).encode()
    return data


# ------------------------------------------------------------ fusion-paper


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_fusion(inputs: Path, sizes: dict, program_seed: int):
    """Fused tokens and provenance from numpy ``@``, cosine and lexsort."""
    d = sizes["d"]
    views = [gen.read_fkmx(inputs / f"view_{n}.fkmx") for n in gen.VIEW_NAMES]
    bev = gen.read_fkmx(inputs / "bev.fkmx")
    inst = gen.read_fkmx(inputs / "instruction.fkmx")
    # demo parameters: per layer wq, wk, wv, wo, views' set before BEV's
    rng = np.random.default_rng(program_seed)
    params = [[[rng.standard_normal((d, d)) * (1.0 / math.sqrt(d))
                for _ in range(4)] for _ in range(sizes["num_layers"])]
              for _ in range(2)]
    blocks, provenance = [], []
    sources = [(n, v, sizes["k_img"], params[0]) for n, v in zip(gen.VIEW_NAMES, views)]
    sources.append(("bev", bev, sizes["k_bev"], params[1]))
    for name, x, k, layers in sources:
        dots = x @ inst.T
        norms = np.sqrt((x * x).sum(axis=1)[:, None] * (inst * inst).sum(axis=1))
        scores = (dots / norms).max(axis=1)
        keep = np.lexsort((np.arange(len(scores)), -scores))[:k]
        q = x[keep]
        for wq, wk, wv, wo in layers:
            attn = _softmax((q @ wq) @ (x @ wk).T / math.sqrt(d))
            q = (attn @ (x @ wv)) @ wo
        blocks.append(q)
        provenance += [[name, int(i)] for i in keep]
    return np.concatenate(blocks), provenance


def check_fuse(out: Path, inputs: Path, manifest: dict, invocation: dict,
              captured=None, cache_dir=None) -> list[str]:
    sizes = manifest["sizes"]
    problems = []
    fused = gen.read_fkmx(out / "fused.fkmx")
    ref, provenance = reference_fusion(inputs, sizes,
                                       manifest["expect"]["program_seed"])
    if fused.shape != ref.shape:
        return [f"fused shape {fused.shape}, expected {ref.shape}"]
    deviation = float(np.abs(fused - ref).max() / np.abs(ref).max())
    if not deviation <= REL_TOL:
        problems.append(f"fused tokens deviate from numpy by {deviation:.3g} "
                        f"(relative, limit {REL_TOL:g})")
    if captured and captured.get("fuse_provenance") != provenance:
        problems.append("traced provenance differs from the numpy top-k")
    budget = json.loads((out / "fused.json").read_text())["budget"]
    want = {"per_view_selected": [sizes["k_img"]] * sizes["views"],
            "bev_selected": sizes["k_bev"], "fused_length": sizes["fused_tokens"],
            "raw_length": sizes["raw_tokens"]}
    for key, value in want.items():
        if budget.get(key) != value:
            problems.append(f"sidecar budget {key}={budget.get(key)}, expected {value}")
    line = f"fused {sizes['fused_tokens']} of {sizes['raw_tokens']} tokens"
    if line not in invocation["stdout"]:
        problems.append(f"stdout lacks {line!r}")
    return problems


def check_mask_exp(out: Path, inputs: Path, manifest: dict, invocation: dict,
              captured=None, cache_dir=None) -> list[str]:
    sizes = manifest["sizes"]
    per_view = sizes["view_tokens"]
    total = per_view * sizes["views"]
    rows = list(csv.reader(io.StringIO((out / "mask.csv").read_text())))
    want_rows = 1 + 1 + len(sizes["mask_rates"])
    if len(rows) != want_rows:
        return [f"mask.csv has {len(rows)} lines, expected {want_rows}"]
    problems = []
    views = np.concatenate([gen.read_fkmx(inputs / f"view_{n}.fkmx")
                            for n in gen.VIEW_NAMES])
    doc = json.loads((out / "mask.json").read_text())["rows"]
    expected_rates = [None, *sizes["mask_rates"]]
    for row, rate in zip(doc, expected_rates):
        if row["error"] or row["metrics"] is None:
            problems.append(f"row {row['exp']} failed: {row['error']}")
            continue
        if row["rate"] != rate:
            problems.append(f"row {row['exp']} has rate {row['rate']}, expected {rate}")
            continue
        zeroed = 0 if rate is None else sizes["views"] * (rate * per_view // 100)
        acc = 100.0 * (total - zeroed) / total
        if row["metrics"]["ACC"] != acc:
            problems.append(f"rate {rate}: ACC {row['metrics']['ACC']}, expected {acc}")
        if rate == 0 and not _close(row["metrics"]["MAE"],
                                    float(np.abs(views).mean()), 1e-12):
            problems.append("rate 0: MAE differs from the unmasked views")
    return problems


# ----------------------------------------------------------------- eval-8k


def _caption_pairs(inputs: Path):
    preds = {r["id"]: r["caption"] for r in _read_jsonl(inputs / "caption_pred.jsonl")}
    return [(preds[r["id"]], r["references"])
            for r in _read_jsonl(inputs / "caption_gt.jsonl")]


def reference_caption(inputs: Path, cache_dir: Path) -> dict:
    """Caption scores from tests/oracles.py, cached by input digest."""
    digest = hashlib.sha256()
    for name in ("caption_pred.jsonl", "caption_gt.jsonl"):
        digest.update((inputs / name).read_bytes())
    cache = cache_dir / f"caption-{digest.hexdigest()[:32]}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    import oracles

    pairs = _caption_pairs(inputs)
    ref = {f"BLEU{n}": oracles.oracle_bleu(pairs, n) for n in range(1, 5)}
    ref["CIDEr"] = oracles.oracle_cider(pairs)
    ref["ROUGE_L"] = oracles.oracle_rouge_l(pairs)
    ref["ACC"] = 100.0 * sum(
        1 for cand, refs in pairs
        if any(cand.strip().lower() == r.strip().lower() for r in refs)
    ) / len(pairs)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(ref))
    return ref


def check_eval_caption(out: Path, inputs: Path, manifest: dict, invocation: dict,
              captured=None, cache_dir=None) -> list[str]:
    doc = json.loads((out / "caption.json").read_text())
    ref = reference_caption(inputs, cache_dir)
    problems = [f"{k} {doc['scores'].get(k)} differs from oracle {v}"
                for k, v in ref.items()
                if doc["scores"].get(k) is None or not _close(doc["scores"][k], v)]
    if doc["pair_count"] != manifest["sizes"]["caption_pairs"]:
        problems.append(f"pair_count {doc['pair_count']}")
    return problems


def _iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0]) + 1
    ih = min(a[3], b[3]) - max(a[1], b[1]) + 1
    if iw <= 0 or ih <= 0:
        return 0.0
    area = lambda r: (r[2] - r[0] + 1) * (r[3] - r[1] + 1)  # noqa: E731
    return iw * ih / (area(a) + area(b) - iw * ih)


def reference_grounding(inputs: Path, thresholds) -> dict:
    """All-point AP per class and threshold, greedy best-IoU matching."""
    gts = _read_jsonl(inputs / "grounding_gt.jsonl")
    preds = _read_jsonl(inputs / "grounding_pred.jsonl")
    classes = sorted({g["label"] for g in gts})
    per_threshold = {}
    for thr in thresholds:
        aps = []
        for cls in classes:
            boxes: dict[str, list] = {}
            for g in gts:
                if g["label"] == cls:
                    boxes.setdefault(g["image_id"], []).append(g["box"])
            n_gt = sum(len(b) for b in boxes.values())
            dets = sorted((p for p in preds if p["label"] == cls),
                          key=lambda p: -p["score"])
            taken: dict[str, set] = {}
            flags = []
            for det in dets:
                cands = boxes.get(det["image_id"], [])
                used = taken.setdefault(det["image_id"], set())
                best, best_j = 0.0, -1
                for j, box in enumerate(cands):
                    overlap = _iou(det["box"], box)
                    if j not in used and overlap >= thr and overlap > best:
                        best, best_j = overlap, j
                if best_j >= 0:
                    used.add(best_j)
                flags.append(best_j >= 0)
            tp, recalls, precisions = 0, [], []
            for rank, hit in enumerate(flags, start=1):
                tp += hit
                recalls.append(tp / n_gt)
                precisions.append(tp / rank)
            ap, prev_r = 0.0, 0.0
            envelope = 0.0
            best_after = [0.0] * (len(precisions) + 1)
            for i in range(len(precisions) - 1, -1, -1):
                envelope = max(envelope, precisions[i])
                best_after[i] = envelope
            for i, r in enumerate(recalls):
                if r > prev_r:
                    ap += (r - prev_r) * best_after[i]
                    prev_r = r
            aps.append(ap)
        per_threshold[thr] = 100.0 * sum(aps) / len(aps)
    return {"mAP": sum(per_threshold.values()) / len(per_threshold),
            "per_threshold": per_threshold}


def check_eval_grounding(out: Path, inputs: Path, manifest: dict, invocation: dict,
              captured=None, cache_dir=None) -> list[str]:
    thresholds = manifest["sizes"]["iou_thresholds"]
    doc = json.loads((out / "grounding.json").read_text())
    ref = reference_grounding(inputs, thresholds)
    problems = []
    if not _close(doc["mAP"], ref["mAP"]):
        problems.append(f"mAP {doc['mAP']} differs from reference {ref['mAP']}")
    for thr in thresholds:
        got = doc["per_threshold"].get(str(thr))
        if got is None or not _close(got, ref["per_threshold"][thr]):
            problems.append(f"AP@{thr} {got} differs from {ref['per_threshold'][thr]}")
    if doc["gt_count"] != manifest["sizes"]["grounding_boxes"]:
        problems.append(f"gt_count {doc['gt_count']}")
    return problems


EGO_LENGTH, EGO_WIDTH = 4.084, 1.85  # the documented config defaults


def _corners(cx, cy, length, width, heading):
    c, s = math.cos(heading), math.sin(heading)
    return [(cx + dx * c - dy * s, cy + dx * s + dy * c)
            for dx, dy in ((length / 2, width / 2), (-length / 2, width / 2),
                           (-length / 2, -width / 2), (length / 2, -width / 2))]


def _headings(wps):
    out, prev = [], 0.0
    (x0, y0), (x1, y1) = wps[0], wps[1]
    if (x1, y1) != (x0, y0):
        prev = math.atan2(y1 - y0, x1 - x0)
    out.append(prev)
    for (ax, ay), (bx, by) in zip(wps, wps[1:]):
        if (bx, by) != (ax, ay):
            prev = math.atan2(by - ay, bx - ax)
        out.append(prev)
    return out


def reference_planning(inputs: Path) -> dict:
    """L2 at 1/2/3 s and collision rates; every ego/agent pair whose
    bounding circles meet goes to the polygon-clipping oracle."""
    import oracles

    preds = {r["sample_id"]: r["trajectory"]
             for r in _read_jsonl(inputs / "planning_pred.jsonl")}
    gts = _read_jsonl(inputs / "planning_gt.jsonl")
    ego_radius = math.hypot(EGO_LENGTH, EGO_WIDTH) / 2
    l2 = {"1s": 0.0, "2s": 0.0, "3s": 0.0}
    hits = {"1s": 0, "2s": 0, "3s": 0}
    for row in gts:
        pred, gt = preds[row["sample_id"]], row["trajectory"]
        for h, i in (("1s", 1), ("2s", 3), ("3s", 5)):
            l2[h] += math.hypot(pred[i][0] - gt[i][0], pred[i][1] - gt[i][1])
        first_hit = None
        for i, ((x, y), heading, snapshot) in enumerate(
                zip(pred, _headings(pred), row["agents"])):
            ego = None
            for a in snapshot:
                reach = ego_radius + math.hypot(a["length"], a["width"]) / 2
                if math.hypot(a["cx"] - x, a["cy"] - y) >= reach:
                    continue
                ego = ego or _corners(x, y, EGO_LENGTH, EGO_WIDTH, heading)
                if oracles.rectangles_overlap_by_area(
                        ego, _corners(a["cx"], a["cy"], a["length"], a["width"],
                                      a["heading"])):
                    first_hit = i
                    break
            if first_hit is not None:
                break
        for h, i in (("1s", 1), ("2s", 3), ("3s", 5)):
            hits[h] += first_hit is not None and first_hit <= i
    n = len(gts)
    return {"l2": {h: v / n for h, v in l2.items()},
            "collision": {h: 100.0 * c / n for h, c in hits.items()}}


def check_eval_planning(out: Path, inputs: Path, manifest: dict, invocation: dict,
              captured=None, cache_dir=None) -> list[str]:
    doc = json.loads((out / "planning.json").read_text())
    ref = reference_planning(inputs)
    problems = []
    for kind in ("l2", "collision"):
        for h, v in ref[kind].items():
            if not _close(doc[kind][h], v):
                problems.append(f"{kind} {h} {doc[kind][h]} differs from {v}")
    if doc["sample_count"] != manifest["sizes"]["planning_samples"]:
        problems.append(f"sample_count {doc['sample_count']}")
    return problems


def check_eval_ora(out: Path, inputs: Path, manifest: dict, invocation: dict,
              captured=None, cache_dir=None) -> list[str]:
    gts = _read_jsonl(inputs / "ora_gt.jsonl")
    preds = {r["sample_id"]: r for r in _read_jsonl(inputs / "ora_pred.jsonl")}
    exist = gated = level = cate = obj = 0
    for g in gts:
        p = preds[g["sample_id"]]
        exist += p["exist"] == g["exist"]
        if p["exist"] and g["exist"]:
            gated += 1
            level += p["level"] == g["level"]
            cate += p["category"] == g["category"]
            obj += p["object"].strip().lower() == g["object"].strip().lower()
    want = {"exist_acc": 100.0 * exist / len(gts), "level_acc": 100.0 * level / gated,
            "cate_acc": 100.0 * cate / gated, "object_acc": 100.0 * obj / gated,
            "total": len(gts), "gated": gated}
    doc = json.loads((out / "ora.json").read_text())
    return [f"{k} {doc.get(k)}, expected {v}" for k, v in want.items()
            if doc.get(k) != v]


# --------------------------------------------------------------- curate-8k


def check_refine(out: Path, inputs: Path, manifest: dict, invocation: dict,
              captured=None, cache_dir=None) -> list[str]:
    want = dict(manifest["expect"]["refine"])
    kept_ids = want.pop("kept_ids")
    doc = json.loads((out / "refine.json").read_text())
    problems = [f"report {k}={doc['refine'].get(k)}, expected {v}"
                for k, v in want.items() if doc["refine"].get(k) != v]
    if doc["validation_errors"]:
        problems.append(f"{len(doc['validation_errors'])} validation errors")
    ids = [r["id"] for r in _read_jsonl(out / "refined.jsonl")]
    if ids != kept_ids:
        problems.append(f"refined.jsonl holds {len(ids)} records, expected "
                        f"the {len(kept_ids)} kept ones in input order")
    return problems


def check_gen_risk_qa(out: Path, inputs: Path, manifest: dict, invocation: dict,
              captured=None, cache_dir=None) -> list[str]:
    want = manifest["expect"]["risk_qa"]
    run = json.loads((out / "run.json").read_text())["run"]
    problems = []
    got = {"pairs": sum(run["pairs_per_category"].values()),
           "grounding_targets": run["grounding_targets"],
           "unmatched_grounding": run["unmatched_grounding"],
           "retries": run["retries"],
           "pairs_per_category": run["pairs_per_category"],
           "scenes_failed": len(run["scenes_failed"])}
    problems += [f"run {k}={got[k]}, expected {v}" for k, v in want.items()
                 if got[k] != v]
    if run["scenes_processed"] != manifest["sizes"]["scenes"]:
        problems.append(f"scenes_processed {run['scenes_processed']}")
    qa = _read_jsonl(out / "qa.jsonl")
    if len(qa) != want["pairs"]:
        problems.append(f"qa.jsonl holds {len(qa)} pairs, expected {want['pairs']}")
    targets = _read_jsonl(out / "targets.jsonl")
    if len(targets) != want["grounding_targets"]:
        problems.append(f"targets.jsonl holds {len(targets)} targets")
    return problems


CHECKS = {
    "fuse": check_fuse,
    "mask_exp": check_mask_exp,
    "eval_caption": check_eval_caption,
    "eval_grounding": check_eval_grounding,
    "eval_planning": check_eval_planning,
    "eval_ora": check_eval_ora,
    "refine": check_refine,
    "gen_risk_qa": check_gen_risk_qa,
}


def _output_bytes(out: Path, names: list[str]) -> dict:
    return {name: canonical_bytes(out / name) if (out / name).exists() else None
            for name in names}


def check_run(manifest: dict, inputs: Path, out_dir: Path, result: dict,
              cache_dir: Path) -> tuple[list[dict], list[str]]:
    """Check pass 0 against the references, then every timed invocation
    against pass 0 byte for byte. Returns the timed invocations, each with
    a ``failed`` reason or None, and the problems found in pass 0."""
    outputs = {c["name"]: c["outputs"] for c in manifest["commands"]}
    first = out_dir / "p000"
    reference: dict[str, tuple[list[str], dict]] = {}
    for inv in result["warmup"]["invocations"]:
        name = inv["name"]
        if inv["exit"] != 0:
            problems = [f"exit {inv['exit']}: {inv['stdout'][-300:]}"]
        else:
            try:
                problems = CHECKS[name](first, inputs, manifest, inv,
                                        result.get("captured"), cache_dir)
            except (OSError, ValueError, KeyError, TypeError) as err:
                problems = [f"output unreadable: {type(err).__name__}: {err}"]
        reference[name] = (problems, _output_bytes(first, outputs[name]))
    timed = [inv for p in result["passes"] + result.get("traced", [])
             for inv in p["invocations"]]
    for inv in timed:
        problems, expected = reference[inv["name"]]
        out = out_dir / f"p{inv['pass']:03d}"
        if inv["exit"] != 0:
            inv["failed"] = f"exit {inv['exit']}"
        elif problems:
            inv["failed"] = "pass 0 output failed its check"
        elif _output_bytes(out, outputs[inv["name"]]) != expected:
            inv["failed"] = "outputs differ from pass 0"
        else:
            inv["failed"] = None
    problems = [f"{name}: {p}" for name, (ps, _) in reference.items() for p in ps]
    return timed, problems
