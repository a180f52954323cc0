"""Span tracer installed from the benchmark's side of the call boundary.

``install(tracer)`` replaces public functions at the module attributes
their callers look up (``fusionkit.cli.fuse``,
``fusionkit.interactor.cross_attention``, ...) with wrappers that record a
span per call: name, start, end, parent span and the id of the command
invocation it belongs to. Spans opened on a thread with no open span (the
``gen-risk-qa`` worker threads) link to the pipeline span. Small hot
functions (``tokenize``, ``rectangles_collide``, ``Matrix`` construction)
get counter-only wrappers. Spans stay in memory until the run writes them.

``layer_metrics`` turns spans and counters into the per-layer figures.
A span's self time is its duration minus the part of its interval that its
child spans cover, minus time spent in timed counter-only wrappers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Inclusive (span duration) rather than self time: the interact spans hold
# one cross-attention child each, so their self time says nothing, and
# chat.complete_s is the time spent waiting on the backend.
INCLUSIVE = {
    "interactor.interact_view_s": "interactor.interact_view",
    "interactor.interact_bev_s": "interactor.interact_bev",
    "chat.complete_s": "chat.complete",
}
SELF = {
    "matrix.load_fkmx_s": "matrix.load_fkmx",
    "matrix.save_fkmx_s": "matrix.save_fkmx",
    "numerics.cross_attention_s": "numerics.cross_attention",
    "numerics.cosine_s": "numerics.cosine",
    "interactor.fuse_s": "interactor.fuse",
    "interactor.score_s": "interactor.score",
    "interactor.select_s": "interactor.select",
    "masking.run_s": "masking.run",
    "masking.apply_token_mask_s": "masking.apply_token_mask",
    "masking.blind_input_s": "masking.blind_input",
    "masking.downstream_s": "masking.downstream",
    "text_metrics.report_s": "text_metrics.report",
    "text_metrics.bleu_s": "text_metrics.bleu",
    "text_metrics.cider_s": "text_metrics.cider",
    "text_metrics.rouge_l_s": "text_metrics.rouge_l",
    "driving_eval.decode_s": "driving_eval.decode",
    "driving_eval.l2_s": "driving_eval.l2",
    "driving_eval.collision_s": "driving_eval.collision",
    "driving_eval.grounding_map_s": "driving_eval.grounding_map",
    "driving_eval.ora_score_s": "driving_eval.ora_score",
    "refinery.decode_s": "refinery.decode",
    "refinery.refine_s": "refinery.refine",
    "refinery.encode_s": "refinery.encode",
    "risk_qa.pipeline_s": "risk_qa.pipeline",
    "risk_qa.parse_s": "risk_qa.parse",
    "config.provenance_s": "config.provenance",
    "cli.self_s": "cli.main",
}
# counters reported as they are
COUNTERS = (
    "matrix.load_fkmx_bytes", "matrix.construct_calls", "matrix.construct_s",
    "numerics.cross_attention_flops", "numerics.cosine_flops",
    "interactor.tokens_in", "interactor.tokens_kept", "masking.rows_failed",
    "text_metrics.tokenize_calls", "driving_eval.sat_tests",
    "refinery.records_kept", "refinery.records_dropped",
    "refinery.boxes_normalized", "chat.bytes_sent",
    "chat.bytes_received", "risk_qa.retries", "risk_qa.scenes_failed",
    "config.bytes_hashed", "cli.bytes_read", "cli.bytes_written",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    invocation: int
    end: float = 0.0
    excluded: float = 0.0  # time in timed counter-only wrappers


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))
    distinct_texts: set = field(default_factory=set)
    captured: dict = field(default_factory=dict)
    invocation: int = 0
    adopt: Span | None = None  # parent for spans opened on pool threads
    bev_tokens: object = None  # the BEV matrix of the fuse call in flight

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        span = Span(
            id=next(self._ids), name=name, start=time.perf_counter(),
            parent=parent.id if parent else None,
            invocation=parent.invocation if parent else self.invocation,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counters[key] += value

    def exclude(self, seconds: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1].excluded += seconds

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(
                    {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "invocation": s.invocation,
                     "excluded": s.excluded}) + "\n")


# ------------------------------------------------------------ self time


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's
    intervals (clipped to its own) minus its excluded time."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered - s.excluded
    return out


def layer_metrics(tracer: Tracer, passes: int, overhead_s: float) -> dict:
    """Per-pass value of every per-layer metric; 0 where a layer is idle."""
    own = self_times(tracer.spans)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in tracer.spans:
        self_s[s.name] += own[s.id]
        incl_s[s.name] += s.end - s.start
        calls[s.name] += 1
    m: dict[str, float] = {}
    for metric, name in SELF.items():
        m[metric] = self_s[name] / passes
    for metric, name in INCLUSIVE.items():
        m[metric] = incl_s[name] / passes
    for key in COUNTERS:
        m[key] = tracer.counters.get(key, 0) / passes
    m["numerics.cross_attention_calls"] = calls["numerics.cross_attention"] / passes
    ca_s = m["numerics.cross_attention_s"]
    m["numerics.cross_attention_gflops"] = (
        m["numerics.cross_attention_flops"] / ca_s / 1e9 if ca_s > 0 else 0.0)
    # every pass tokenizes the same texts, so the distinct set is one pass's
    texts = len(tracer.distinct_texts)
    m["text_metrics.tokenize_per_text"] = (
        m["text_metrics.tokenize_calls"] / texts if texts else 0.0)
    m["chat.calls"] = calls["chat.complete"] / passes
    m["chat.errors"] = tracer.counters.get("chat.complete.errors", 0) / passes
    pipeline_wall = incl_s["risk_qa.pipeline"]
    m["risk_qa.in_flight_mean"] = (
        incl_s["chat.complete"] / pipeline_wall if pipeline_wall > 0 else 0.0)
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(tracer.spans) / passes
    return m


# ------------------------------------------------------------- wrappers


def _wrap(tracer: Tracer, restore: list, owner, attr: str, name, after=None,
          adopt: bool = False):
    """Span wrapper; ``name`` may be a function of the call's arguments.
    With ``adopt``, spans opened on other threads during the call link to
    this span."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = tracer.open(name(*args) if callable(name) else name)
        if adopt:
            tracer.adopt = span
        try:
            result = original(*args, **kwargs)
        except Exception:
            tracer.add(f"{span.name}.errors")
            raise
        finally:
            if adopt:
                tracer.adopt = None
            tracer.close(span)
        if after is not None:
            after(args, result)
        return result

    restore.append((owner, attr, original))
    setattr(owner, attr, wrapper)


def _count(tracer: Tracer, restore: list, owner, attr: str, key: str,
           timed: bool = False, before=None, after=None):
    """Counter-only wrapper for small hot functions."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        if not timed:
            result = original(*args, **kwargs)
            tracer.add(key)
        else:
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            dt = time.perf_counter() - t0
            tracer.add(key)
            tracer.add(key.replace("_calls", "_s"), dt)
            tracer.exclude(dt)
        if after is not None:
            after(args, result)
        return result

    restore.append((owner, attr, original))
    setattr(owner, attr, wrapper)


def attention_flops(q_rows: int, kv_rows: int, d: int, layers: int) -> int:
    """Multiply-add flops of the stacked attention, from operand shapes:
    q, k, v and output projections plus the two score products."""
    m, n = q_rows, kv_rows
    return layers * (2 * m * d * d + 4 * n * d * d + 2 * m * d * d
                     + 4 * m * n * d)


def install(tracer: Tracer) -> list:
    """Wrap the program's public functions; returns what uninstall needs."""
    import requests

    import fusionkit.chat as chat
    import fusionkit.cli as cli
    import fusionkit.config as config
    import fusionkit.driving_eval as driving_eval
    import fusionkit.interactor as interactor
    import fusionkit.masking as masking
    import fusionkit.matrix as matrix
    import fusionkit.refinery as refinery
    import fusionkit.risk_qa as risk_qa
    import fusionkit.text_metrics as text_metrics

    r: list = []
    add = tracer.add

    # matrix
    _wrap(tracer, r, cli, "load_fkmx", "matrix.load_fkmx",
          after=lambda a, res: (add("matrix.load_fkmx_bytes", os.path.getsize(a[0])),
                                add("cli.bytes_read", os.path.getsize(a[0]))))
    _wrap(tracer, r, cli, "save_fkmx", "matrix.save_fkmx",
          after=lambda a, res: add("cli.bytes_written", os.path.getsize(a[1])))
    _count(tracer, r, matrix.Matrix, "__post_init__", "matrix.construct_calls",
           timed=True)

    # numerics
    def attention_done(a, res):
        q, k, _, p = a
        add("numerics.cross_attention_flops",
            attention_flops(q.rows, k.rows, p.d, p.num_layers))

    def cosine_done(a, res):
        x, y = a
        add("numerics.cosine_flops", 2 * x.rows * y.rows * x.cols
            + 2 * (x.rows + y.rows) * x.cols)

    _wrap(tracer, r, interactor, "cross_attention", "numerics.cross_attention",
          after=attention_done)
    _wrap(tracer, r, interactor, "cosine_similarity_matrix", "numerics.cosine",
          after=cosine_done)

    # interactor
    def fuse_done(a, res):
        views, bev = a[0], a[1]
        add("interactor.tokens_in", sum(views.token_counts) + bev.tokens.rows)
        add("interactor.tokens_kept", res.tokens.rows)
        tracer.captured.setdefault(
            "fuse_provenance", [[p.source, p.index] for p in res.provenance])

    def fuse_name(views, bev, *rest):
        tracer.bev_tokens = bev.tokens
        return "interactor.fuse"

    _wrap(tracer, r, cli, "fuse", fuse_name, after=fuse_done)
    _wrap(tracer, r, interactor, "score_tokens", "interactor.score")
    _wrap(tracer, r, interactor, "select_topk", "interactor.select")
    _wrap(tracer, r, interactor, "interact",
          lambda selected, full, p: "interactor.interact_bev"
          if full is tracer.bev_tokens else "interactor.interact_view")

    # masking
    _wrap(tracer, r, cli, "run_mask_experiment", "masking.run",
          after=lambda a, rows: add("masking.rows_failed",
                                    sum(1 for row in rows if row.failed)))
    _wrap(tracer, r, cli, "apply_token_mask", "masking.apply_token_mask")
    _wrap(tracer, r, masking, "apply_token_mask", "masking.apply_token_mask")
    _wrap(tracer, r, masking, "blind_input", "masking.blind_input")
    _wrap(tracer, r, cli, "token_stats_downstream", "masking.downstream")

    # text_metrics
    _wrap(tracer, r, cli, "compute_caption_report", "text_metrics.report")
    _wrap(tracer, r, text_metrics, "bleu_all", "text_metrics.bleu")
    _wrap(tracer, r, text_metrics, "cider", "text_metrics.cider")
    _wrap(tracer, r, text_metrics, "rouge_l", "text_metrics.rouge_l")
    remember = tracer.distinct_texts.add
    for module in (text_metrics, refinery):
        _count(tracer, r, module, "tokenize", "text_metrics.tokenize_calls",
               before=lambda a: remember(a[0]))

    # driving_eval
    for attr in ("planning_record_from_dict", "detection_from_dict",
                 "gt_box_from_dict", "ora_sample_from_dict"):
        _wrap(tracer, r, cli, attr, "driving_eval.decode")
    _wrap(tracer, r, cli, "l2_error", "driving_eval.l2")
    _wrap(tracer, r, cli, "collision_rate", "driving_eval.collision")
    _count(tracer, r, driving_eval, "rectangles_collide", "driving_eval.sat_tests")
    _wrap(tracer, r, cli, "grounding_map_report", "driving_eval.grounding_map")
    _wrap(tracer, r, cli, "ora_score", "driving_eval.ora_score")

    # refinery
    def refine_done(a, res):
        report = res[1]
        add("refinery.records_kept", report.kept)
        add("refinery.records_dropped", report.dropped)
        add("refinery.boxes_normalized", report.boxes_normalized)

    _wrap(tracer, r, cli, "record_from_dict", "refinery.decode")
    _wrap(tracer, r, cli, "refine_records", "refinery.refine", after=refine_done)
    _wrap(tracer, r, cli, "record_to_dict", "refinery.encode")

    # chat: the backend wait is the complete() span; bytes are request and
    # response bodies as requests sends and receives them
    _wrap(tracer, r, chat.HttpChatClient, "complete", "chat.complete")
    _count(tracer, r, requests, "post", "chat.posts",
           after=lambda a, resp: (add("chat.bytes_sent", len(resp.request.body or b"")),
                                  add("chat.bytes_received", len(resp.content))))

    # risk_qa
    def pipeline_done(a, res):
        report = res[2]
        add("risk_qa.retries", report.retries)
        add("risk_qa.scenes_failed", len(report.scenes_failed))

    _wrap(tracer, r, cli, "run_pipeline", "risk_qa.pipeline",
          after=pipeline_done, adopt=True)
    _wrap(tracer, r, risk_qa, "parse_risk_response", "risk_qa.parse")
    _wrap(tracer, r, risk_qa, "parse_qa_response", "risk_qa.parse")

    # config
    _wrap(tracer, r, cli, "provenance_block", "config.provenance")
    _count(tracer, r, config, "sha256_file", "config.files_hashed",
           before=lambda a: add("config.bytes_hashed", os.path.getsize(a[0])))

    # cli file I/O (its time stays in cli.self_s)
    _count(tracer, r, cli, "_read_text", "cli.reads",
           before=lambda a: add("cli.bytes_read", os.path.getsize(a[0])))
    _count(tracer, r, cli, "_write_text", "cli.writes",
           after=lambda a, res: add("cli.bytes_written", os.path.getsize(a[0])))
    return r


def uninstall(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)
