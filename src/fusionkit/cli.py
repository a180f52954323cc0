"""Command-line toolchain.

Subcommands: refine (dataset refinement), gen-risk-qa (two-step QA
generation), eval caption|grounding|planning|ora (metric reports),
interactor-demo (token selection + fusion on FKMX inputs), mask-exp
(token-redundancy harness), budget (sequence-length accounting).

Exit codes: 0 success, 2 input/config error, 3 semantic/validation
failure, 64 usage error. Values from a --config JSON file are overridden
by flags; every report embeds the tool version, the effective config and
its hash, and sha256s of the input files. With fixed inputs and seeds,
reruns write byte-identical outputs (single exception: the demo
sidecar's wall-clock timing field).
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Mapping, Sequence, TextIO, TypeVar

import numpy as np

from . import __version__
from .chat import (
    API_KEY_ENV,
    ChatClient,
    ChatError,
    HttpChatClient,
    ReplayChatClient,
)
from .config import Config, ConfigError, load_config, provenance_block
from .driving_eval import (
    AP_INTERPOLATIONS,
    HORIZONS,
    L2_MODES,
    ORA_GATING_MODES,
    align_ids,
    collision_rate,
    detection_from_dict,
    grounding_map_report,
    gt_box_from_dict,
    l2_error,
    ora_sample_from_dict,
    ora_score,
    planning_record_from_dict,
)
from .forking import run_pieces
from .interactor import (
    REDUCTIONS,
    BevFeatureMap,
    InstructionEmbedding,
    SelectionConfig,
    ViewFeatureSet,
    fuse,
    token_budget,
)
from .jsontypes import require_id
from .masking import (
    MaskExperimentConfig,
    MaskSpec,
    apply_token_mask,
    rows_to_csv,
    run_mask_experiment,
    token_stats_downstream,
)
from .matrix import FkmxFormatError, Matrix, ShapeError, load_fkmx, save_fkmx
from .numerics import CrossAttnParams
from .refinery import (
    DATASET_SOURCES,
    RefineReport,
    record_from_dict,
    record_to_dict,
    refine_records,
)
from .risk_qa import PipelineConfig, run_pipeline, scene_from_dict
from .text_metrics import (
    EvalPair,
    caption_gt_from_dict,
    caption_pred_from_dict,
    compute_caption_report,
)

__all__ = ["main", "entrypoint", "demo_params"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_USAGE = 64

CAPTION_CSV_COLUMNS = ("BLEU1", "BLEU2", "BLEU3", "BLEU4", "CIDEr",
                       "ROUGE_L", "ACC")
PLANNING_CSV_HEADER = (
    "L2_1s,L2_2s,L2_3s,L2_avg,COLL_1s,COLL_2s,COLL_3s,COLL_avg"
)
ORA_CSV_HEADER = "exist,level,cate,object"

T = TypeVar("T")


class UsageError(Exception):
    """Bad flags or arguments; maps to exit 64."""


class InputError(Exception):
    """Unreadable or unparseable input; maps to exit 2."""


class ValidationError(Exception):
    """Inputs readable but semantically wrong; maps to exit 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for input
    # errors, so route parse failures through UsageError instead
    def error(self, message: str) -> "argparse.NoReturn":  # type: ignore[name-defined]
        raise UsageError(f"{self.prog}: {message}")


# ------------------------------------------------------------------ file io


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError:
        raise InputError(f"{path}: not valid UTF-8") from None


def _open_jsonl(path: str) -> TextIO:
    # bytes that are not UTF-8 are kept as lone surrogates, so that
    # _read_jsonl can name the line that holds them
    try:
        return open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err


def _read_lines(path: str) -> list[str]:
    """Every line of ``path``, read at once, for ``_read_jsonl``."""
    with _open_jsonl(path) as handle:
        return handle.readlines()


def _read_jsonl(path: str, decode: Callable[[dict], T],
                lines: Sequence[str] | None = None,
                first_line: int = 1) -> list[T]:
    """``decode`` applied to each JSON object line of ``path`` as it is read.

    A line that is not UTF-8 or not a JSON object exits 2 as
    ``<path>:<line>``; a ValueError from ``decode`` exits 3 as
    ``<path> record <i>: <reason>``, counting records from 0. Only the
    decoded values are kept, never a whole file of parsed rows.

    ``lines``, from ``_read_lines(path)``, replaces reading the file:
    ``lines[0]`` is line ``first_line`` of ``path``, so messages name the
    same line as a read of the whole file (records count from 0 within
    ``lines``).
    """
    out: list[T] = []
    with _open_jsonl(path) if lines is None else nullcontext(lines) as source:
        for lineno, line in enumerate(source, start=first_line):
            if not line.strip():
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise InputError(f"{path}:{lineno}: not valid UTF-8") from None
            try:
                row = json.loads(line)
            except json.JSONDecodeError as err:
                raise InputError(f"{path}:{lineno}: not valid JSON: {err}") from err
            if not isinstance(row, dict):
                raise InputError(f"{path}:{lineno}: each line must hold an object")
            try:
                out.append(decode(row))
            except ValueError as err:
                raise ValidationError(f"{path} record {len(out)}: {err}") from err
    return out


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _jsonl(rows: Sequence[Mapping]) -> str:
    return "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in rows
    )


def _json_doc(doc: Mapping) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _load_matrix(path: str) -> Matrix:
    try:
        return load_fkmx(path)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except FkmxFormatError as err:
        raise InputError(f"{path}: {err}") from err


def _cell(value: float | None, fmt: str = "{:.4f}") -> str:
    return "N/A" if value is None else fmt.format(value)


# ------------------------------------------------------------- flag parsing


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        size = (int(w), int(h))
    except ValueError as err:
        raise UsageError(f"--image-size wants WIDTHxHEIGHT, got {text!r}") from err
    if size[0] < 2 or size[1] < 2:
        raise UsageError("--image-size sides must be at least 2")
    return size


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError as err:
        raise UsageError(f"{flag} wants comma-separated integers, got {text!r}") from err


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as err:
        raise UsageError(f"{flag} wants comma-separated numbers, got {text!r}") from err


def _config_from_args(args: argparse.Namespace, **overrides) -> Config:
    return load_config(getattr(args, "config", None), **overrides)


def _emit(csv_text: str, args: argparse.Namespace) -> None:
    if getattr(args, "csv", None):
        _write_text(args.csv, csv_text)
    else:
        sys.stdout.write(csv_text)


# ---------------------------------------------------------------- cmd_refine

# Input lines per run of refine, and so the fewest a worker gets. Measured
# on a 2-CPU x86-64 VM: a record takes about 0.4 ms to refine; forking a
# 100 MB process takes about 10 ms, and piping a worker's output back about
# 9 us per record. A worker with this many lines spends about a tenth of
# its time on that overhead.
_MIN_LINES_PER_WORKER = 256


def _line_runs(lines: Sequence[str], runs: int) -> list[tuple[int, int]]:
    """``runs`` contiguous ``(start, stop)`` runs of whole lines holding
    about equal characters; one run when ``runs`` is below 2."""
    ends = list(itertools.accumulate(map(len, lines)))
    total = ends[-1] if ends else 0
    cuts = [0, *(bisect.bisect_left(ends, total * j // runs) + 1
                 for j in range(1, runs)), len(lines)]
    return list(zip(cuts, cuts[1:]))


def cmd_refine(args: argparse.Namespace) -> int:
    """Refine the input's records in runs of about
    ``_MIN_LINES_PER_WORKER`` lines (see ``_line_runs``), which
    ``forking.run_pieces`` may share between forked workers. The runs'
    texts are joined in input order and their reports summed, so every
    output byte equals a one-run refine's.
    """
    cfg = _config_from_args(
        args, short_answer_threshold=args.short_threshold, seed=args.seed
    )
    image_size = _parse_size(args.image_size) if args.image_size else None

    def decode(row: dict):
        # an invalid record becomes an error entry, listed in the report
        if args.source and "source_dataset" not in row:
            row = {**row, "source_dataset": args.source}
        try:
            return record_from_dict(row)
        except ValueError as err:
            try:
                record_id = require_id(row, "id")
            except ValueError:
                record_id = None  # listed as null
            return {"id": record_id, "error": str(err)}

    def refine_run(i: int) -> tuple[str, RefineReport, list, int]:
        # the serial path on one run: the refined JSONL text, the report,
        # (record index within the run, error entry) pairs, the record count
        start, stop = runs[i]
        decoded = _read_jsonl(args.input, decode, lines[start:stop], start + 1)
        records = [r for r in decoded if not isinstance(r, dict)]
        refined, report = refine_records(
            records,
            short_threshold=cfg.short_answer_threshold,
            image_size=image_size,
            quantize_decimals=args.quantize_decimals,
        )
        errors = [(j, r) for j, r in enumerate(decoded) if isinstance(r, dict)]
        return (_jsonl([record_to_dict(r) for r in refined]), report, errors,
                len(decoded))

    lines = _read_lines(args.input)
    runs = _line_runs(lines, max(1, len(lines) // _MIN_LINES_PER_WORKER))
    parts = run_pieces(refine_run, [sum(map(len, lines[start:stop]))
                                    for start, stop in runs])

    texts: list[str] = []
    report = RefineReport()
    validation_errors: list[dict] = []
    count = 0
    for text, run_report, errors, run_count in parts:
        texts.append(text)
        report.merge(run_report)
        validation_errors += [{"record_index": count + j, **r} for j, r in errors]
        count += run_count
    _write_text(args.output, "".join(texts))

    doc = {
        "refine": report.to_dict(),
        "validation_errors": validation_errors,
        "provenance": provenance_block(cfg, {"input": args.input}),
    }
    if args.report:
        _write_text(args.report, _json_doc(doc))
    print(
        f"refine: {report.kept} kept, {report.dropped} dropped, "
        f"{len(validation_errors)} invalid of {count} records"
    )
    return EXIT_VALIDATION if validation_errors else EXIT_OK


# ----------------------------------------------------------- cmd_gen_risk_qa


def _make_client(args: argparse.Namespace, cfg: Config) -> ChatClient:
    if args.mock:
        if not Path(args.mock).is_dir():
            raise InputError(f"replay directory {args.mock} does not exist")
        return ReplayChatClient(args.mock)
    if cfg.endpoint:
        return HttpChatClient(
            cfg.endpoint, api_key=os.environ.get(API_KEY_ENV, ""), timeout=cfg.timeout
        )
    try:
        return HttpChatClient.from_env(timeout=cfg.timeout)
    except ChatError as err:
        raise InputError(str(err)) from err


def cmd_gen_risk_qa(args: argparse.Namespace) -> int:
    cfg = _config_from_args(
        args,
        retries=args.retries,
        max_in_flight=args.jobs,
        endpoint=args.endpoint,
        seed=args.seed,
    )
    client = _make_client(args, cfg)
    scenes = _read_jsonl(args.scenes, scene_from_dict)

    pairs, targets, report = run_pipeline(
        scenes,
        client,
        PipelineConfig(
            step1_model=cfg.step1_model,
            step2_model=cfg.step2_model,
            temperature=cfg.temperature,
            seed=cfg.seed,
            retries=cfg.retries,
            max_in_flight=cfg.max_in_flight,
        ),
    )
    _write_text(args.out_qa, _jsonl([p.to_dict() for p in pairs]))
    _write_text(args.out_grounding, _jsonl([t.to_dict() for t in targets]))
    if args.report:
        doc = {
            "run": report.to_dict(),
            "provenance": provenance_block(cfg, {"scenes": args.scenes}),
        }
        _write_text(args.report, _json_doc(doc))
    print(
        f"gen-risk-qa: {len(pairs)} pairs, {len(targets)} grounding targets, "
        f"{len(report.scenes_failed)} of {report.scenes_processed} scenes failed"
    )
    if scenes and len(report.scenes_failed) == len(scenes):
        return EXIT_VALIDATION
    return EXIT_OK


# ------------------------------------------------------------------ cmd_eval


def _eval_caption(args: argparse.Namespace, cfg: Config) -> tuple[str, dict]:
    preds = _read_jsonl(args.pred, caption_pred_from_dict)
    gts = _read_jsonl(args.gt, caption_gt_from_dict)
    align_ids([i for i, _ in preds], [i for i, _ in gts])
    candidates = dict(preds)
    pairs = [
        EvalPair(id=i, candidate=candidates[i], references=refs)
        for i, refs in gts
    ]
    report = compute_caption_report(pairs)
    scale = 1.0 if cfg.metric_scale_100 else 0.01
    scores = {
        k: (v * scale if v is not None else None)
        for k, v in report.scores.items()
    }
    csv_text = (
        ",".join(CAPTION_CSV_COLUMNS)
        + "\n"
        + ",".join(_cell(scores[c]) for c in CAPTION_CSV_COLUMNS)
        + "\n"
    )
    doc = {
        "scores": scores,
        "pair_count": report.pair_count,
        "scale_0_100": cfg.metric_scale_100,
        "metadata": dict(report.metadata),
    }
    return csv_text, doc


def _eval_grounding(args: argparse.Namespace, cfg: Config) -> tuple[str, dict]:
    def by_image(items: list[tuple[str, T]]) -> dict[str, list[T]]:
        out: dict[str, list[T]] = {}
        for image_id, item in items:
            out.setdefault(image_id, []).append(item)
        return out

    pred_map = by_image(_read_jsonl(args.pred, detection_from_dict))
    gt_map = by_image(_read_jsonl(args.gt, gt_box_from_dict))
    try:
        report = grounding_map_report(
            pred_map, gt_map, cfg.iou_thresholds, cfg.ap_interpolation
        )
    except ValueError as err:
        raise ValidationError(str(err)) from err
    thresholds = [f"AP@{t:g}" for t in cfg.iou_thresholds]
    csv_text = (
        ",".join(["mAP", *thresholds])
        + "\n"
        + ",".join(
            [_cell(report.map)]
            + [_cell(report.per_threshold[t]) for t in cfg.iou_thresholds]
        )
        + "\n"
    )
    return csv_text, report.to_dict()


def _eval_planning(args: argparse.Namespace, cfg: Config) -> tuple[str, dict]:
    preds = _read_jsonl(args.pred, planning_record_from_dict)
    gts = _read_jsonl(args.gt, planning_record_from_dict)
    align_ids([p[0] for p in preds], [g[0] for g in gts])
    pred_plans = {sample_id: plan for sample_id, plan, _ in preds}

    l2_sums = {h: 0.0 for h in (*HORIZONS, "avg")}
    samples = []
    for sample_id, gt_plan, agents in gts:
        pred_plan = pred_plans[sample_id]
        for h, v in l2_error(pred_plan, gt_plan, cfg.l2_mode).items():
            l2_sums[h] += v
        samples.append((pred_plan, agents))

    n = len(samples)
    if n == 0:
        raise ValidationError("planning eval needs at least one sample")
    l2 = {h: l2_sums[h] / n for h in l2_sums}
    coll = collision_rate(samples, cfg.ego_length, cfg.ego_width)
    keys = (*HORIZONS, "avg")
    csv_text = (
        PLANNING_CSV_HEADER
        + "\n"
        + ",".join(
            [_cell(l2[h]) for h in keys] + [_cell(coll[h]) for h in keys]
        )
        + "\n"
    )
    doc = {
        "l2": l2,
        "l2_mode": cfg.l2_mode,
        "collision": coll,
        "ego": {"length": cfg.ego_length, "width": cfg.ego_width},
        "sample_count": n,
    }
    return csv_text, doc


def _eval_ora(args: argparse.Namespace, cfg: Config) -> tuple[str, dict]:
    preds = _read_jsonl(args.pred, ora_sample_from_dict)
    gts = _read_jsonl(args.gt, ora_sample_from_dict)
    try:
        report = ora_score(preds, gts, cfg.ora_gating)
    except ValueError as err:
        raise ValidationError(str(err)) from err
    csv_text = (
        ORA_CSV_HEADER
        + "\n"
        + ",".join(
            _cell(v)
            for v in (report.exist_acc, report.level_acc, report.cate_acc,
                      report.object_acc)
        )
        + "\n"
    )
    return csv_text, report.to_dict()


_EVAL_KINDS = {
    "caption": _eval_caption,
    "grounding": _eval_grounding,
    "planning": _eval_planning,
    "ora": _eval_ora,
}


def cmd_eval(args: argparse.Namespace) -> int:
    overrides: dict = {"seed": args.seed}
    if getattr(args, "iou_thresholds", None):
        overrides["iou_thresholds"] = _parse_float_list(
            args.iou_thresholds, "--iou-thresholds")
    if getattr(args, "interpolation", None):
        overrides["ap_interpolation"] = args.interpolation
    if getattr(args, "l2_mode", None):
        overrides["l2_mode"] = args.l2_mode
    if getattr(args, "gating", None):
        overrides["ora_gating"] = args.gating
    cfg = _config_from_args(args, **overrides)

    csv_text, doc = _EVAL_KINDS[args.kind](args, cfg)
    _emit(csv_text, args)
    if args.json:
        doc["provenance"] = provenance_block(
            cfg, {"pred": args.pred, "gt": args.gt})
        _write_text(args.json, _json_doc(doc))
    return EXIT_OK


# ------------------------------------------------------------------ cmd_demo


def demo_params(
    d: int, num_layers: int, num_heads: int, seed: int
) -> tuple[CrossAttnParams, CrossAttnParams]:
    """The demo's attention parameters: one shared per-view set, one BEV
    set, drawn in that order from a single seeded generator."""
    rng = np.random.default_rng(seed)
    attn_mv = CrossAttnParams.random(d, num_layers, num_heads, rng)
    attn_bev = CrossAttnParams.random(d, num_layers, num_heads, rng)
    return attn_mv, attn_bev


def cmd_demo(args: argparse.Namespace) -> int:
    cfg = _config_from_args(
        args, k_img=args.k_img, k_bev=args.k_bev,
        reduction=args.reduction, seed=args.seed,
    )
    view_mats = [_load_matrix(p) for p in args.views]
    bev_mat = _load_matrix(args.bev)
    inst_mat = _load_matrix(args.instruction)
    grid = (
        tuple(_parse_int_list(args.bev_grid, "--bev-grid"))
        if args.bev_grid
        else (bev_mat.rows, 1)
    )
    if len(grid) != 2:
        raise UsageError("--bev-grid wants H,W")

    started = time.perf_counter()
    try:
        views = ViewFeatureSet(views=tuple(view_mats))
        bev = BevFeatureMap(tokens=bev_mat, grid_shape=grid)
        inst = InstructionEmbedding(tokens=inst_mat)
        sel_cfg = SelectionConfig(
            k_img=cfg.k_img, k_bev=cfg.k_bev, reduction=cfg.reduction)
        attn_mv, attn_bev = demo_params(
            inst.d, args.num_layers, args.num_heads, cfg.seed)
        fused = fuse(views, bev, inst, sel_cfg, attn_mv, attn_bev)
        budget = token_budget(sel_cfg, views.token_counts, bev_mat.rows)
    except (ShapeError, ValueError) as err:
        raise ValidationError(str(err)) from err
    elapsed = time.perf_counter() - started

    save_fkmx(fused.tokens, args.out)
    if args.sidecar:
        inputs = {f"view{i}": p for i, p in enumerate(args.views)}
        inputs["bev"] = args.bev
        inputs["instruction"] = args.instruction
        doc = {
            "budget": budget.to_dict(),
            "params": {
                "num_layers": args.num_layers,
                "num_heads": args.num_heads,
                "seed": cfg.seed,
            },
            "provenance": provenance_block(cfg, inputs),
            # wall-clock measurement: the one field exempt from
            # byte-identical reruns
            "timing_seconds": elapsed,
        }
        _write_text(args.sidecar, _json_doc(doc))
    print(
        f"interactor-demo: fused {budget.fused_length} of "
        f"{budget.raw_length} tokens (ratio {budget.ratio:.4f})"
    )
    return EXIT_OK


# -------------------------------------------------------------- cmd_mask_exp


def cmd_mask_exp(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, seed=args.seed)
    view_mats = [_load_matrix(p) for p in args.views]
    try:
        candidates = json.loads(_read_text(args.candidates))
    except json.JSONDecodeError as err:
        raise InputError(f"{args.candidates}: not valid JSON: {err}") from err
    if not isinstance(candidates, dict):
        raise InputError(f"{args.candidates}: wants {{view: [indices]}}")

    rates = (
        _parse_int_list(args.rates, "--rates")
        if args.rates
        else MaskExperimentConfig().rates
    )
    try:
        features = ViewFeatureSet(views=tuple(view_mats))
        # dry-run at rate 0: rejects bad view names / indices up front
        # instead of failing every row downstream
        apply_token_mask(
            features, MaskSpec(candidate_indices=candidates, rate=0))
        exp_cfg = MaskExperimentConfig(
            rates=rates,
            blind=not args.no_blind,
            seed=cfg.seed,
            candidate_indices=candidates,
        )
        rows = run_mask_experiment(exp_cfg, features, token_stats_downstream)
    except (ShapeError, ValueError) as err:
        raise ValidationError(str(err)) from err

    _emit(rows_to_csv(rows), args)
    if args.json:
        doc = {
            "rows": [
                {
                    "exp": r.exp,
                    "mode": r.mode,
                    "rate": r.rate,
                    "metrics": dict(r.metrics) if r.metrics else None,
                    "error": r.error,
                }
                for r in rows
            ],
            "provenance": provenance_block(
                cfg,
                {f"view{i}": p for i, p in enumerate(args.views)}
                | {"candidates": args.candidates},
            ),
        }
        _write_text(args.json, _json_doc(doc))
    return EXIT_OK


# ---------------------------------------------------------------- cmd_budget


def cmd_budget(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, k_img=args.k_img, k_bev=args.k_bev)
    counts = _parse_int_list(args.view_tokens, "--view-tokens")
    if not counts:
        raise InputError("budget needs at least one view token count")
    sel_cfg = SelectionConfig(k_img=cfg.k_img, k_bev=cfg.k_bev)
    try:
        report = token_budget(sel_cfg, counts, args.bev_tokens)
    except ValueError as err:
        raise InputError(str(err)) from err
    if args.json:
        _write_text(args.json, _json_doc(report.to_dict()))
    print(
        f"budget: fused {report.fused_length} of {report.raw_length} "
        f"tokens (ratio {report.ratio:.4f})"
    )
    return EXIT_OK


# -------------------------------------------------------------------- parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--seed", type=int, default=None, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fusionkit", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="refine a unified-record JSONL dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report", help="write the refine report JSON here")
    p.add_argument("--source", choices=DATASET_SOURCES,
                   help="source tag for records that lack one")
    p.add_argument("--short-threshold", type=int, default=None,
                   help="max tokens for a short answer")
    p.add_argument("--image-size", help="treat boxes as WIDTHxHEIGHT pixels "
                                        "and normalize to the 0..999 grid")
    p.add_argument("--quantize-decimals", action="store_true",
                   help="round decimal literals in plain text to integers")
    _add_common(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("gen-risk-qa", help="two-step risk QA generation")
    p.add_argument("--scenes", required=True, help="scene JSONL")
    p.add_argument("--out-qa", required=True)
    p.add_argument("--out-grounding", required=True)
    p.add_argument("--report", help="write the run report JSON here")
    p.add_argument("--mock", help="replay directory of canned responses")
    p.add_argument("--endpoint", help="chat endpoint URL "
                                      "(default: config or FK_API_ENDPOINT)")
    p.add_argument("--jobs", type=int, default=None,
                   help="max scenes in flight")
    p.add_argument("--retries", type=int, default=None,
                   help="repair retries per malformed reply")
    _add_common(p)
    p.set_defaults(func=cmd_gen_risk_qa)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in _EVAL_KINDS:
        k = kinds.add_parser(kind)
        k.add_argument("--pred", required=True)
        k.add_argument("--gt", required=True)
        k.add_argument("--csv", help="write the CSV here instead of stdout")
        k.add_argument("--json", help="write the full JSON report here")
        if kind == "grounding":
            k.add_argument("--iou-thresholds", default=None,
                           help="comma-separated IoU thresholds")
            k.add_argument("--interpolation",
                           choices=AP_INTERPOLATIONS, default=None)
        if kind == "planning":
            k.add_argument("--l2-mode", choices=L2_MODES, default=None)
        if kind == "ora":
            k.add_argument("--gating", choices=ORA_GATING_MODES, default=None)
        _add_common(k)
        k.set_defaults(func=cmd_eval, kind=kind)

    p = sub.add_parser("interactor-demo",
                       help="select + fuse FKMX feature files")
    p.add_argument("--views", nargs="+", required=True,
                   help="per-camera FKMX files, in view order")
    p.add_argument("--bev", required=True, help="BEV FKMX file")
    p.add_argument("--instruction", required=True,
                   help="instruction-embedding FKMX file")
    p.add_argument("--out", required=True, help="fused FKMX output")
    p.add_argument("--sidecar", help="JSON sidecar with budget + provenance")
    p.add_argument("--bev-grid", help="H,W of the BEV grid (default Nx1)")
    p.add_argument("--k-img", type=int, default=None)
    p.add_argument("--k-bev", type=int, default=None)
    p.add_argument("--reduction", choices=REDUCTIONS, default=None)
    p.add_argument("--num-layers", type=int, default=2)
    p.add_argument("--num-heads", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("mask-exp", help="token-masking redundancy runs")
    p.add_argument("--views", nargs="+", required=True,
                   help="per-camera FKMX files, in view order")
    p.add_argument("--candidates", required=True,
                   help="JSON file {view: [token indices]}")
    p.add_argument("--rates", help="comma-separated mask percentages")
    p.add_argument("--no-blind", action="store_true",
                   help="skip the blind-input control row")
    p.add_argument("--csv", help="write the CSV here instead of stdout")
    p.add_argument("--json", help="write the full JSON report here")
    _add_common(p)
    p.set_defaults(func=cmd_mask_exp)

    p = sub.add_parser("budget", help="predict fused sequence length")
    p.add_argument("--view-tokens", required=True,
                   help="comma-separated per-view token counts")
    p.add_argument("--bev-tokens", type=int, required=True)
    p.add_argument("--k-img", type=int, default=None)
    p.add_argument("--k-bev", type=int, default=None)
    p.add_argument("--json", help="write the budget report JSON here")
    _add_common(p)
    p.set_defaults(func=cmd_budget)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, ConfigError, ChatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ValidationError, ValueError, KeyError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
