"""Command-line toolchain.

Subcommands: refine (dataset refinement), gen-risk-qa (two-step QA
generation), eval caption|grounding|planning|ora (metric reports),
interactor-demo (token selection + fusion on FKMX inputs), mask-exp
(token-redundancy harness), budget (sequence-length accounting).

Exit codes: 0 success, 2 input/config error, 3 semantic/validation
failure, 64 usage error; ``main`` alone maps an error to its code. A flag
sets the config key named by its argparse ``dest`` and overrides the
value from a --config JSON file. A flag string that does not parse exits
64; a value that breaks its config key's rule, or ``config.check_flags``
for a flag with no key, exits 2. Both happen before any input is read.
Every report but ``budget --json`` (refine, gen-risk-qa, eval, the demo
sidecar, mask-exp) embeds the tool version, the effective config and its
hash, and sha256s of the input files. With fixed inputs and seeds,
reruns write byte-identical outputs (single exception: the demo
sidecar's wall-clock timing field).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import time
from array import array
from dataclasses import fields
from pathlib import Path
from typing import (Callable, Iterable, Iterator, Mapping, Sequence, TextIO,
                    TypeVar)

import numpy as np

from . import __version__
from .chat import (
    API_KEY_ENV,
    ENDPOINT_ENV,
    ChatClient,
    ChatError,
    HttpChatClient,
    ReplayChatClient,
)
from .config import (
    Config,
    ConfigError,
    check_flags,
    load_config,
    provenance_block,
)
from .driving_eval import (
    AP_INTERPOLATIONS,
    HORIZONS,
    L2_MODES,
    ORA_GATING_MODES,
    align_ids,
    collision_counts,
    collision_rate,  # noqa: F401 - not called here; perfbench's tracer wraps it
    detection_from_dict,
    grounding_map_report,
    gt_box_from_dict,
    l2_error,
    ora_sample_from_dict,
    ora_score,
    planning_record_from_dict,
    rates_from_counts,
)
from .forking import run_pieces
from .interactor import (
    REDUCTIONS,
    BevFeatureMap,
    InstructionEmbedding,
    ViewFeatureSet,
    fuse,
    token_budget,
)
from .jsontypes import NAMED_OFFENDERS, canonical_json, field_dict, require_id
from .masking import (
    MaskExperimentConfig,
    MaskSpec,
    apply_token_mask,
    rows_to_csv,
    run_mask_experiment,
    token_stats_downstream,
)
from .matrix import Matrix, load_fkmx, save_fkmx
from .numerics import CrossAttnParams
from .refinery import (
    DATASET_SOURCES,
    RefineReport,
    record_from_dict,
    record_to_dict,
    refine_records,
)
from .risk_qa import run_pipeline, scene_from_dict
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

CAPTION_CSV_HEADER = ("BLEU1", "BLEU2", "BLEU3", "BLEU4", "CIDEr",
                      "ROUGE_L", "ACC")
PLANNING_CSV_HEADER = ("L2_1s", "L2_2s", "L2_3s", "L2_avg",
                       "COLL_1s", "COLL_2s", "COLL_3s", "COLL_avg")
ORA_CSV_HEADER = ("exist", "level", "cate", "object")

_CONFIG_KEYS = frozenset(f.name for f in fields(Config))

T = TypeVar("T")
R = TypeVar("R")


class UsageError(Exception):
    """Bad flags or arguments; maps to exit 64."""


class InputError(Exception):
    """Unreadable or unparseable input; maps to exit 2."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # a token starting with a minus and a digit is a value, not a flag,
        # so a comma list like -5,3 reaches its converter and range check
        self._negative_number_matcher = re.compile(r"-\.?\d")

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
    # _decode can name the line that holds them
    try:
        return open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err


# bytes per read when _line_starts scans a file
_SCAN_CHUNK = 1 << 16


def _line_starts(path: str) -> array:
    """The byte offset of each line of ``path``, then its size: the lines
    text-mode reading gives, each ended by ``\n``, ``\r\n`` or a lone
    ``\r``. One pass in ``_SCAN_CHUNK``-byte reads that decodes
    nothing."""
    starts = array("q", [0])
    offset = 0
    cr_last = False  # the last chunk ended in \r
    try:
        with open(path, "rb") as handle:
            while chunk := handle.read(_SCAN_CHUNK):
                end = 0
                if cr_last and chunk[:1] == b"\n":  # a \r\n across reads
                    starts[-1] += 1
                    end = 1
                cr_last = chunk.endswith(b"\r")
                # same length, and every line now ends after a \n
                chunk = chunk.replace(b"\r\n", b" \n").replace(b"\r", b"\n")
                while (end := chunk.find(b"\n", end) + 1) > 0:
                    starts.append(offset + end)
                offset += len(chunk)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    if starts[-1] != offset:  # the last line has no line break
        starts.append(offset)
    return starts


def _range_lines(path: str, start: int, stop: int) -> TextIO:
    """The lines of ``path`` from byte ``start`` to byte ``stop``, two of
    its ``_line_starts``, read as ``_open_jsonl`` reads them."""
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            data = handle.read(stop - start)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                            errors="surrogateescape")


def _invalid_records(path: str,
                     invalid: Sequence[tuple[int, dict, str]]) -> ValueError:
    """The error (exit 3) for the ``invalid`` records of ``path``, (record
    index, row, reason) in record order: the first ``NAMED_OFFENDERS``, a
    line each as ``<path> record <i>: <reason>``, then how many more there
    are."""
    lines = [f"{path} record {i}: {reason}"
             for i, _, reason in invalid[:NAMED_OFFENDERS]]
    if len(invalid) > len(lines):
        lines.append(f"… and {len(invalid) - len(lines)} more invalid records")
    return ValueError("\n".join(lines))


def _decode(path: str, decode: Callable[[dict], T], lines: Iterable[str],
            first_line: int) -> tuple[list[T], list[tuple[int, dict, str]]]:
    """``decode`` applied to each JSON object line of ``lines``, whose
    first is line ``first_line`` of ``path``, and the records it rejected.

    A line that is not UTF-8 or not a JSON object exits 2 at once as
    ``<path>:<line>``. A ValueError from ``decode`` marks its record
    invalid and decoding goes on: it is listed as (record index, row,
    reason), counting the records of ``lines`` from 0. Only an invalid
    record keeps its parsed row.
    """
    values: list[T] = []
    invalid: list[tuple[int, dict, str]] = []
    for lineno, line in enumerate(lines, start=first_line):
        if not line.strip():
            continue
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
            values.append(decode(row))
        except ValueError as err:
            invalid.append((len(values) + len(invalid), row, str(err)))
    return values, invalid


def _read_jsonl(path: str, decode: Callable[[dict], T]) -> list[T]:
    """``decode`` applied to each record of ``path`` as it is read
    (``_decode``); once the file is read, any invalid records exit 3
    (``_invalid_records``)."""
    with _open_jsonl(path) as handle:
        values, invalid = _decode(path, decode, handle, 1)
    if invalid:
        raise _invalid_records(path, invalid)
    return values


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` as UTF-8 text as they come, all or
    nothing: into a temp file in the same directory that replaces the
    file ``path`` names once every chunk is written, and is removed if a
    write fails. A ``path`` that exists and is not a regular file (a FIFO,
    ``/dev/null``) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        return
    target = os.path.realpath(path)  # through a symlink, as open() writes
    temp = os.path.join(os.path.dirname(target),
                        f".{os.path.basename(target)}.{os.urandom(4).hex()}.tmp")
    replaced = False
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(temp, target)
        replaced = True
    except OSError as err:  # named by the path asked for, not the temp file
        raise OSError(err.errno, err.strerror, path) from None
    finally:
        if not replaced:
            with contextlib.suppress(OSError):
                os.remove(temp)


def _jsonl(rows: Iterable[Mapping]) -> Iterator[str]:
    return (canonical_json(row) + "\n" for row in rows)


def _json_doc(doc: Mapping) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_report(path: str | None, doc: dict, cfg: Config,
                  inputs: Mapping[str, str]) -> None:
    """When ``path`` is set, write ``doc`` there as JSON with its
    ``provenance`` block: ``cfg`` and the sha256 of each input path."""
    if path:
        doc["provenance"] = provenance_block(cfg, inputs)
        _write_text(path, [_json_doc(doc)])


def _view_inputs(paths: Sequence[str]) -> dict[str, str]:
    """The provenance labels of the --views files: view0, view1, …"""
    return {f"view{i}": p for i, p in enumerate(paths)}


def _load_matrix(path: str) -> Matrix:
    try:
        return load_fkmx(path)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except ValueError as err:  # malformed bytes or a non-finite payload
        raise InputError(f"{path}: {err}") from err


def _cell(value: float | None) -> str:
    return "N/A" if value is None else f"{value:.4f}"


def _csv(header: Sequence[str], values: Iterable[float | None]) -> str:
    """A report's CSV: the header row, then one row of ``_cell`` values."""
    return ",".join(header) + "\n" + ",".join(map(_cell, values)) + "\n"


# ------------------------------------------------------------- flag parsing


def _list_of(kind: Callable[[str], T], noun: str) -> Callable[[str], tuple[T, ...]]:
    """An argparse ``type=``: comma-separated ``kind`` values. ``""`` is
    the empty tuple; any other blank item does not parse."""
    def parse(text: str) -> tuple[T, ...]:
        try:
            return tuple(map(kind, text.split(","))) if text else ()
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"wants comma-separated {noun}, got {text!r}") from None
    return parse


def _size(text: str) -> tuple[int, int]:
    """An argparse ``type=``: WIDTHxHEIGHT."""
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wants WIDTHxHEIGHT, got {text!r}") from None


def _metavar(choices: Sequence[str]) -> str:
    """A flag's choices for ``--help``; its config rule judges the value."""
    return "{" + ",".join(choices) + "}"


def _config_from_args(args: argparse.Namespace) -> Config:
    """The --config file's values, each overridden by the flag whose
    ``dest`` names that key; a flag left at None keeps the file's value.
    Flags that set no key are checked first (``check_flags``)."""
    flags = vars(args)
    check_flags(flags)
    return load_config(args.config, **{
        key: value for key, value in flags.items() if key in _CONFIG_KEYS})


def _emit(csv_text: str, args: argparse.Namespace) -> None:
    if getattr(args, "csv", None):
        _write_text(args.csv, [csv_text])
    else:
        sys.stdout.write(csv_text)


# ------------------------------------------------------------ runs of lines

# Input lines per run, and so the fewest a worker gets. Measured on a 2-CPU
# x86-64 VM: a record takes about 0.4 ms to refine, and a GT sample about
# 0.2 ms to decode and score in eval planning; forking the calling process,
# which holds only the input's line offsets (35 MB resident at 8k records),
# and reaping a child that exits at once takes about 1.6 ms, and piping a
# worker's output back about 9 us per refined record and under 1 us per
# planning sample. A refine worker with this many lines spends under a
# twentieth of its time on that overhead. Planning still gains at this
# size: 512 GT lines took 64-69 ms in two workers, against 98-108 ms in one.
_MIN_LINES_PER_WORKER = 256


def _line_runs(count: int) -> list[tuple[int, int]]:
    """``count // _MIN_LINES_PER_WORKER`` contiguous ``(start, stop)`` runs
    of about equal line counts, and at least one."""
    runs = max(1, count // _MIN_LINES_PER_WORKER)
    cuts = [count * i // runs for i in range(runs + 1)]
    return list(zip(cuts, cuts[1:]))


def _in_runs(path: str, decode: Callable[[dict], T],
             score: Callable[[list[T]], R]
             ) -> tuple[list[R], list[tuple[int, dict, str]]]:
    """``score`` of the ``decode``d records of each run of ``path``'s
    lines (``_line_runs``), in file order, and the records ``decode``
    rejected (``_decode``), indexed over the whole file.

    No process holds the whole file. This one scans it once for where
    each line starts (``_line_starts``); each worker, this one included,
    then reads and decodes only its runs' bytes, which ``forking.run_pieces``
    shares out by their lengths. A bad line exits 2 naming its line of
    ``path``. The runs cover the file's bytes end to end, each once, so
    the sha256 that provenance takes in a read of its own is the digest
    of exactly the bytes decoded here, as long as the file does not change
    while the command runs (a case out of scope).
    """
    starts = _line_starts(path)
    runs = _line_runs(len(starts) - 1)

    def run(i: int) -> tuple[R, list[tuple[int, dict, str]], int]:
        start, stop = runs[i]
        with _range_lines(path, starts[start], starts[stop]) as lines:
            values, invalid = _decode(path, decode, lines, start + 1)
        return score(values), invalid, len(values) + len(invalid)

    scores: list[R] = []
    invalid: list[tuple[int, dict, str]] = []
    count = 0
    for run_score, run_invalid, run_count in run_pieces(
            run, [starts[stop] - starts[start] for start, stop in runs]):
        scores.append(run_score)
        invalid += [(count + j, row, reason) for j, row, reason in run_invalid]
        count += run_count
    return scores, invalid


# ---------------------------------------------------------------- cmd_refine


def cmd_refine(args: argparse.Namespace) -> int:
    """Refine the input's records in runs of lines (``_in_runs``). The
    runs' texts are joined in input order and their reports summed, so
    every output byte equals a one-run refine's.
    """
    cfg = _config_from_args(args)

    def decode(row: dict):
        if args.source and "source_dataset" not in row:
            row = {**row, "source_dataset": args.source}
        return record_from_dict(row)

    def refine_run(records: list) -> tuple[str, RefineReport]:
        # the serial path on one run: the refined JSONL text and the report
        refined, report = refine_records(
            records,
            short_threshold=cfg.short_answer_threshold,
            image_size=args.image_size,
            quantize_decimals=args.quantize_decimals,
        )
        return "".join(_jsonl(map(record_to_dict, refined))), report

    def record_id(row: dict) -> str | None:
        try:
            return require_id(row, "id")
        except ValueError:
            return None  # listed as null

    parts, invalid = _in_runs(args.input, decode, refine_run)
    report = RefineReport()
    for _, run_report in parts:
        report.merge(run_report)
    validation_errors = [{"record_index": i, "id": record_id(row),
                          "error": reason} for i, row, reason in invalid]
    _write_text(args.output, (text for text, _ in parts))
    _write_report(args.report, {"refine": report.to_dict(),
                                "validation_errors": validation_errors},
                  cfg, {"input": args.input})
    print(
        f"refine: {report.kept} kept, {report.dropped} dropped, "
        f"{len(invalid)} invalid of {report.input_count + len(invalid)} records"
    )
    return EXIT_VALIDATION if invalid else EXIT_OK


# ----------------------------------------------------------- cmd_gen_risk_qa


def _make_client(args: argparse.Namespace, cfg: Config) -> ChatClient:
    """--mock's replay client, else an HTTP client at the endpoint from
    --endpoint or the config, else ``FK_API_ENDPOINT``, keyed by ``FK_API_KEY``."""
    if args.mock:
        return ReplayChatClient(args.mock)
    endpoint = cfg.endpoint or os.environ.get(ENDPOINT_ENV, "")
    if not endpoint:
        raise ChatError(f"no chat endpoint configured: set --endpoint, the "
                        f"endpoint config key or {ENDPOINT_ENV}")
    return HttpChatClient(endpoint, api_key=os.environ.get(API_KEY_ENV, ""),
                          timeout=cfg.timeout)


def cmd_gen_risk_qa(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    client = _make_client(args, cfg)
    scenes = _read_jsonl(args.scenes, scene_from_dict)

    pairs, targets, report = run_pipeline(scenes, client, cfg)
    _write_text(args.out_qa, _jsonl(p.to_dict() for p in pairs))
    _write_text(args.out_grounding, _jsonl(t.to_dict() for t in targets))
    _write_report(args.report, {"run": report.to_dict()}, cfg,
                  {"scenes": args.scenes})
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
    csv_text = _csv(CAPTION_CSV_HEADER, (scores[c] for c in CAPTION_CSV_HEADER))
    return csv_text, {**report.to_dict(), "scores": scores,
                      "scale_0_100": cfg.metric_scale_100}


def _eval_grounding(args: argparse.Namespace, cfg: Config) -> tuple[str, dict]:
    def by_image(items: list[tuple[str, T]]) -> dict[str, list[T]]:
        out: dict[str, list[T]] = {}
        for image_id, item in items:
            out.setdefault(image_id, []).append(item)
        return out

    pred_map = by_image(_read_jsonl(args.pred, detection_from_dict))
    gt_map = by_image(_read_jsonl(args.gt, gt_box_from_dict))
    report = grounding_map_report(
        pred_map, gt_map, cfg.iou_thresholds, cfg.ap_interpolation
    )
    csv_text = _csv(
        ("mAP", *(f"AP@{t:g}" for t in cfg.iou_thresholds)),
        (report.map, *(report.per_threshold[t] for t in cfg.iou_thresholds)),
    )
    return csv_text, report.to_dict()


def _eval_planning(args: argparse.Namespace, cfg: Config) -> tuple[str, dict]:
    """L2 and collision rates over the GT samples, scored in runs of GT
    lines (``_in_runs``) against the predictions, which are read first.
    The runs' L2 values are added in GT order and their collision counts
    summed, so every byte equals a one-run score's."""
    preds = _read_jsonl(args.pred, planning_record_from_dict)
    pred_plans = {sample_id: plan for sample_id, plan, _ in preds}
    keys = (*HORIZONS, "avg")

    def score_run(records: list) -> tuple[list, dict, list]:
        # in GT order: the sample ids, each key's L2 values, the colliding
        # samples per horizon
        ids, samples = [], []
        l2: dict[str, list[float]] = {k: [] for k in keys}
        for sample_id, gt_plan, agents in records:
            ids.append(sample_id)
            pred_plan = pred_plans.get(sample_id)
            if pred_plan is None:
                continue  # align_ids names it
            for k, v in l2_error(pred_plan, gt_plan, cfg.l2_mode).items():
                l2[k].append(v)
            samples.append((pred_plan, agents))
        counts = collision_counts(samples, cfg.ego_length, cfg.ego_width)
        return ids, l2, counts

    parts, invalid = _in_runs(args.gt, planning_record_from_dict, score_run)
    if invalid:
        raise _invalid_records(args.gt, invalid)
    align_ids([p[0] for p in preds], [i for ids, _, _ in parts for i in ids])

    l2_sums = dict.fromkeys(keys, 0.0)
    coll_counts = [0] * len(HORIZONS)
    for _, l2_values, counts in parts:
        for k, values in l2_values.items():
            for v in values:
                l2_sums[k] += v
        coll_counts = [a + b for a, b in zip(coll_counts, counts)]
    n = sum(len(ids) for ids, _, _ in parts)
    if n == 0:
        raise ValueError("planning eval needs at least one sample")
    l2 = {k: l2_sums[k] / n for k in keys}
    coll = rates_from_counts(coll_counts, n)
    csv_text = _csv(PLANNING_CSV_HEADER,
                    [*(l2[k] for k in keys), *(coll[k] for k in keys)])
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
    report = ora_score(preds, gts, cfg.ora_gating)
    csv_text = _csv(ORA_CSV_HEADER, (report.exist_acc, report.level_acc,
                                     report.cate_acc, report.object_acc))
    return csv_text, report.to_dict()


_EVAL_KINDS = {
    "caption": _eval_caption,
    "grounding": _eval_grounding,
    "planning": _eval_planning,
    "ora": _eval_ora,
}


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)

    csv_text, doc = _EVAL_KINDS[args.kind](args, cfg)
    _emit(csv_text, args)
    _write_report(args.json, doc, cfg, {"pred": args.pred, "gt": args.gt})
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
    cfg = _config_from_args(args)
    view_mats = [_load_matrix(p) for p in args.views]
    bev_mat = _load_matrix(args.bev)
    inst_mat = _load_matrix(args.instruction)

    started = time.perf_counter()
    views = ViewFeatureSet(views=tuple(view_mats))
    grid = (bev_mat.rows, 1) if args.bev_grid is None else args.bev_grid
    bev = BevFeatureMap(tokens=bev_mat, grid_shape=grid)
    inst = InstructionEmbedding(tokens=inst_mat)
    attn_mv, attn_bev = demo_params(
        inst.d, args.num_layers, args.num_heads, cfg.seed)
    fused = fuse(views, bev, inst, cfg, attn_mv, attn_bev)
    budget = token_budget(cfg, views.token_counts, bev_mat.rows)
    elapsed = time.perf_counter() - started

    save_fkmx(fused.tokens, args.out)
    doc = {
        "budget": budget.to_dict(),
        "params": {
            "num_layers": args.num_layers,
            "num_heads": args.num_heads,
            "seed": cfg.seed,
        },
        # wall-clock measurement: the one field exempt from
        # byte-identical reruns
        "timing_seconds": elapsed,
    }
    _write_report(args.sidecar, doc, cfg, {
        **_view_inputs(args.views), "bev": args.bev,
        "instruction": args.instruction})
    print(
        f"interactor-demo: fused {budget.fused_length} of "
        f"{budget.raw_length} tokens (ratio {budget.ratio:.4f})"
    )
    return EXIT_OK


# -------------------------------------------------------------- cmd_mask_exp


def cmd_mask_exp(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    view_mats = [_load_matrix(p) for p in args.views]
    try:
        candidates = json.loads(_read_text(args.candidates))
    except json.JSONDecodeError as err:
        raise InputError(f"{args.candidates}: not valid JSON: {err}") from err
    if not isinstance(candidates, dict):
        raise InputError(f"{args.candidates}: wants {{view: [indices]}}")

    features = ViewFeatureSet(views=tuple(view_mats))
    # dry-run at rate 0: rejects bad view names / indices up front
    # instead of failing every row downstream
    apply_token_mask(features, MaskSpec(candidate_indices=candidates, rate=0))
    exp_cfg = MaskExperimentConfig(
        rates=args.rates,
        blind=not args.no_blind,
        seed=cfg.seed,
        candidate_indices=candidates,
    )
    rows = run_mask_experiment(exp_cfg, features, token_stats_downstream)

    _emit(rows_to_csv(rows), args)
    _write_report(args.json, {"rows": [field_dict(r) for r in rows]}, cfg,
                  {**_view_inputs(args.views), "candidates": args.candidates})
    return EXIT_OK


# ---------------------------------------------------------------- cmd_budget


def cmd_budget(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    report = token_budget(cfg, args.view_tokens, args.bev_tokens)
    if args.json:
        _write_text(args.json, [_json_doc(report.to_dict())])
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
    p.add_argument("--source", metavar=_metavar(DATASET_SOURCES),
                   help="source tag for records that lack one")
    p.add_argument("--short-threshold", dest="short_answer_threshold",
                   type=int, default=None, metavar="SHORT_THRESHOLD",
                   help="max tokens for a short answer")
    p.add_argument("--image-size", type=_size,
                   help="treat boxes as WIDTHxHEIGHT pixels "
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
    p.add_argument("--jobs", dest="max_in_flight", type=int, default=None,
                   metavar="JOBS", help="max scenes in flight")
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
            k.add_argument("--iou-thresholds", type=_list_of(float, "numbers"),
                           default=None, help="comma-separated IoU thresholds")
            k.add_argument("--interpolation", dest="ap_interpolation",
                           metavar=_metavar(AP_INTERPOLATIONS), default=None)
        if kind == "planning":
            k.add_argument("--l2-mode", metavar=_metavar(L2_MODES),
                           default=None)
        if kind == "ora":
            k.add_argument("--gating", dest="ora_gating",
                           metavar=_metavar(ORA_GATING_MODES), default=None)
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
    p.add_argument("--bev-grid", type=_list_of(int, "integers"),
                   help="H,W of the BEV grid (default Nx1)")
    p.add_argument("--k-img", type=int, default=None)
    p.add_argument("--k-bev", type=int, default=None)
    p.add_argument("--reduction", metavar=_metavar(REDUCTIONS), default=None)
    p.add_argument("--num-layers", type=int, default=2)
    p.add_argument("--num-heads", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("mask-exp", help="token-masking redundancy runs")
    p.add_argument("--views", nargs="+", required=True,
                   help="per-camera FKMX files, in view order")
    p.add_argument("--candidates", required=True,
                   help="JSON file {view: [token indices]}")
    p.add_argument("--rates", type=_list_of(int, "integers"),
                   default=MaskExperimentConfig.rates,
                   help="comma-separated mask percentages")
    p.add_argument("--no-blind", action="store_true",
                   help="skip the blind-input control row")
    p.add_argument("--csv", help="write the CSV here instead of stdout")
    p.add_argument("--json", help="write the full JSON report here")
    _add_common(p)
    p.set_defaults(func=cmd_mask_exp)

    p = sub.add_parser("budget", help="predict fused sequence length")
    p.add_argument("--view-tokens", type=_list_of(int, "integers"),
                   required=True, help="comma-separated per-view token counts")
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
    except (InputError, ConfigError, ChatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
