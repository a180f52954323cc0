"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "tests"))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload) -> None:
    first = gen.generate(workload, 5, tmp_path / "a")
    second = gen.generate(workload, 5, tmp_path / "b")
    other = gen.generate(workload, 6, tmp_path / "c")
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")
    assert first["sizes"] == second["sizes"] == other["sizes"]
    assert str(first["expect"]) == str(second["expect"])


def _span(id_, name, start, end, parent=None, excluded=0.0) -> Span:
    return Span(id=id_, name=name, start=start, end=end, parent=parent,
                invocation=1, excluded=excluded)


def test_self_time_subtracts_union_of_children() -> None:
    spans = [
        _span(1, "cli.main", 0.0, 10.0, excluded=0.5),
        _span(2, "refinery.refine", 1.0, 4.0, parent=1),
        _span(3, "chat.complete", 3.0, 6.0, parent=1),  # overlaps span 2
        _span(4, "refinery.decode", 2.0, 3.0, parent=2),
        _span(5, "chat.complete", 9.0, 12.0, parent=1),  # clipped at 10
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_layer_metrics_from_hand_built_tree() -> None:
    tracer = Tracer()
    tracer.spans = [
        _span(1, "cli.main", 0.0, 4.0),
        _span(2, "risk_qa.pipeline", 1.0, 3.0, parent=1),
        _span(3, "chat.complete", 1.0, 2.5, parent=2),
        _span(4, "chat.complete", 1.5, 3.0, parent=2),
        _span(5, "cli.main", 10.0, 12.0),
    ]
    m = tracing.layer_metrics(tracer, passes=2, overhead_s=0.25)
    assert set(m) == {spec["name"] for spec in SPEC["per_layer"]}
    assert m["cli.self_s"] == pytest.approx((2.0 + 2.0) / 2)
    assert m["risk_qa.pipeline_s"] == pytest.approx(0.0)
    assert m["chat.complete_s"] == pytest.approx(3.0 / 2)
    assert m["chat.calls"] == 1.0
    assert m["risk_qa.in_flight_mean"] == pytest.approx(1.5)
    assert m["trace.overhead_s"] == 0.25
    assert m["numerics.cross_attention_s"] == 0.0


def test_tokenize_per_text_is_a_per_pass_ratio() -> None:
    tracer = Tracer()
    module = SimpleNamespace(tokenize=str.split)
    restore: list = []
    tracing._count(tracer, restore, module, "tokenize",
                   "text_metrics.tokenize_calls",
                   before=lambda a: tracer.distinct_texts.add(a[0]))
    texts = ["a red car", "a bus", "the truck"]
    passes = 2
    for _ in range(passes):
        for text in texts + texts[:1]:  # the first text twice per pass
            module.tokenize(text)
    tracing.uninstall(restore)
    m = tracing.layer_metrics(tracer, passes=passes, overhead_s=0.0)
    assert m["text_metrics.tokenize_calls"] == 4.0
    assert m["text_metrics.tokenize_per_text"] == pytest.approx(4 / 3)
    assert module.tokenize is str.split


def test_spans_from_pool_threads_link_to_the_adopting_span() -> None:
    tracer = Tracer(invocation=7)
    pipeline = tracer.open("risk_qa.pipeline")
    tracer.adopt = pipeline
    seen = []

    def work() -> None:
        span = tracer.open("chat.complete")
        tracer.close(span)
        seen.append(span)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close(pipeline)
    assert seen[0].parent == pipeline.id
    assert seen[0].invocation == 7


@pytest.fixture(scope="module")
def fusion_run(tmp_path_factory):
    """One warm-up and one timed fusion pass through the real worker code."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import fusionkit.cli as cli
    import worker

    base = tmp_path_factory.mktemp("fusion")
    manifest = gen.generate("fusion-paper", 3, base / "inputs")
    plan = {"commands": manifest["commands"], "out_dir": str(base / "out"),
            "endpoint": ""}
    result = {"warmup": worker.run_pass(cli, plan, 0),
              "passes": [worker.run_pass(cli, plan, 1)]}
    return manifest, base, result


def _failed(fusion_run, tmp_path):
    manifest, base, result = fusion_run
    timed, problems = checks.check_run(manifest, base / "inputs", base / "out",
                                       result, tmp_path)
    return sum(1 for inv in timed if inv["failed"]) / len(timed), problems


def test_correct_outputs_pass(fusion_run, tmp_path) -> None:
    assert _failed(fusion_run, tmp_path) == (0.0, [])


def test_corrupted_timed_output_raises_failed_ratio(fusion_run, tmp_path) -> None:
    _, base, _ = fusion_run
    target = base / "out" / "p001" / "mask.csv"
    original = target.read_bytes()
    target.write_bytes(original.replace(b"50.0000", b"50.0001"))
    try:
        ratio, problems = _failed(fusion_run, tmp_path)
    finally:
        target.write_bytes(original)
    assert ratio == 0.5 and problems == []


def test_corrupted_reference_output_fails_every_invocation(fusion_run, tmp_path) -> None:
    _, base, _ = fusion_run
    target = base / "out" / "p000" / "fused.fkmx"
    original = target.read_bytes()
    target.write_bytes(original[:-8] + bytes(8))  # last value zeroed
    try:
        ratio, problems = _failed(fusion_run, tmp_path)
    finally:
        target.write_bytes(original)
    assert ratio == 0.5
    assert any("deviate" in p for p in problems)
