"""Float arithmetic whose order or library decides output bits lives in
``fusionkit.exact`` alone, and its exact left fold keeps report floats
the same on every Python version.

The guard parses every other module of fusionkit. Any of these fails it,
unless ``EXCEPTIONS`` names the line it sits on:

- a float transcendental of numpy or math, called, only referenced (as
  in ``map(math.cos, xs)``) or imported by name;
- a product that sums: ``@``, ``np.dot``, ``np.matmul``, ``np.einsum``;
- a reduction in an order numpy or Python picks: ``.sum``, ``.mean``,
  ``np.sum``, ``np.mean`` and the builtin ``sum``;
- ``**`` or the builtin ``pow``, unless both operands are int literals.

``np.sqrt``, ``math.sqrt`` and elementwise ``+ - * /`` stay allowed, since
IEEE-754 rounds them correctly. An entry of ``EXCEPTIONS`` that matches no
flagged line fails too, so the table only shrinks as the known float
offenders move into ``exact``.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fusionkit
from fusionkit.cli import main
from fusionkit.exact import _ordered_sum, _ordered_sums

PACKAGE = Path(fusionkit.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "exact.py")

_TRANSCENDENTAL = {
    "np": {"exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "sin",
           "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh",
           "cosh", "tanh", "power", "float_power", "hypot", "cbrt"},
    "math": {"exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "sin",
             "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
             "tanh", "hypot", "pow", "cbrt", "erf", "erfc", "gamma",
             "lgamma", "dist"},
}
_TRANSCENDENTAL["numpy"] = _TRANSCENDENTAL["np"]
# attributes that sum, whatever they are looked up on
_SUMMING = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg",
            "sum", "mean", "average", "nansum", "nanmean"}
_BUILTINS = {"sum", "pow"}

INTEGER = "integer reduction: exact in any order"
ITEM_2 = "float, known: ROADMAP item 2 makes it portable"
ITEM_3 = "float, known: ROADMAP item 3 takes it off libm"

# (module, stripped source line) -> why the flagged arithmetic on it stays
EXCEPTIONS = {
    ("cli", "n = sum(len(ids) for ids, _, _ in parts)"): INTEGER,
    ("driving_eval", "n_gt = sum(map(len, images.values()))"): INTEGER,
    ("driving_eval", "gt_count=sum(map(len, gts.values())),"): INTEGER,
    ("driving_eval", "prediction_count=sum(map(len, preds.values())),"): INTEGER,
    ("driving_eval", "if any(n < 0 for n in sizes) or sum(sizes) != len(rows):"):
        INTEGER,
    ("driving_eval",
     "return np.logical_or.accumulate(hits, axis=1)[:, last].sum(axis=0).tolist()"):
        INTEGER,
    ("driving_eval", "math.hypot(px - gx, py - gy)"): ITEM_3,
    ("driving_eval", "ch, sh = math.cos(heading), math.sin(heading)"): ITEM_3,
    ("driving_eval", "heading = math.atan2(dy, dx)"): ITEM_3,
    ("driving_eval",
     "ch = np.fromiter(map(math.cos, angles), np.float64, len(angles))"): ITEM_3,
    ("driving_eval",
     "sh = np.fromiter(map(math.sin, angles), np.float64, len(angles))"): ITEM_3,
    ("forking", "workers = min(_cpu_count(), -(-sum(costs) // max(costs)))"):
        INTEGER,
    ("interactor", "return sims.mean(axis=1)"): ITEM_2,
    ("interactor", "fused = sum(per_view) + bev_selected"): INTEGER,
    ("interactor", "raw = sum(int(c) for c in counts) + int(bev_token_count)"):
        INTEGER,
    ("masking", "mae = float(np.mean(np.abs(all_data)))"): ITEM_2,
    ("masking", "bleu = 100.0 * float(np.exp(-mae))"): ITEM_2,
    ("numerics",
     "d_logits = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True))"):
        "float, in the gradient, which no command computes",
    ("text_metrics", "geo = product ** (1.0 / max_n)"): ITEM_3,
    ("text_metrics",
     "bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)"):
        ITEM_3,
    ("text_metrics",
     "idf = (np.array([0.0] + [math.log(size / d) for d in range(1, size + 1)])"):
        ITEM_3,
    ("text_metrics", "bleu += (int(grams.clipped(texts, mc, mr).sum()),"): INTEGER,
    ("text_metrics", "int(np.maximum(texts.cand_len - (n - 1), 0).sum()))"):
        INTEGER,
}


def _int_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _flagged(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else ""
            if node.attr in _TRANSCENDENTAL.get(base, ()) or node.attr in _SUMMING:
                found.append((node.lineno, f"{base}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in _TRANSCENDENTAL:
            found += [(node.lineno, f"{node.module}.{alias.name}")
                      for alias in node.names
                      if alias.name in _TRANSCENDENTAL[node.module] | _SUMMING]
        elif isinstance(node, ast.Name) and node.id in _BUILTINS:
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.MatMult):
                found.append((node.lineno, "@"))
            elif isinstance(node.op, ast.Pow) and not (
                    isinstance(node, ast.BinOp) and _int_literal(node.left)
                    and _int_literal(node.right)):
                found.append((node.lineno, "**"))
    return found


def _violations(module: str, source: str, exceptions: dict) -> list[str]:
    """Flagged arithmetic on lines the exceptions do not name, then the
    module's exception entries that name no flagged line."""
    lines = source.splitlines()
    flagged: dict[str, list[str]] = {}
    for lineno, what in sorted(_flagged(ast.parse(source))):
        flagged.setdefault(lines[lineno - 1].strip(), []).append(
            f"{module}:{lineno}: {what}")
    allowed = {line for owner, line in exceptions if owner == module}
    return ([found for line, all_found in flagged.items() if line not in allowed
             for found in all_found]
            + [f"{module}: stale exception {line!r}"
               for line in sorted(allowed - flagged.keys())])


@pytest.mark.parametrize("snippet", [
    "np.exp(x)", "x.sum()", "a @ b", 'np.einsum("ij,jk->ik", a, b)',
    "map(math.cos, xs)", "sum(floats)", "x ** 0.5", "from math import log",
])
def test_the_guard_flags(snippet) -> None:
    assert len(_violations("m", snippet, {})) == 1


@pytest.mark.parametrize("snippet", [
    "np.sqrt(x)", "x.max(axis=1)", "np.add.accumulate(x)", "2**63",
    "math.sqrt(x * x + y * y)",
])
def test_the_guard_passes(snippet) -> None:
    assert _violations("m", snippet, {}) == []


def test_the_guard_honours_an_exception_and_fails_a_stale_one() -> None:
    table = {("m", "y = x.sum()"): INTEGER}
    assert _violations("m", "y = x.sum()\n", table) == []
    assert _violations("m", "y = x.max()\n", table) == [
        "m: stale exception 'y = x.sum()'"]


def test_every_exception_names_a_guarded_module() -> None:
    assert {owner for owner, _ in EXCEPTIONS} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_leaves_float_order_to_exact(path: Path) -> None:
    source = path.read_text(encoding="utf-8")
    assert _violations(path.stem, source, EXCEPTIONS) == []


# ------------------------------------------------------------ the left fold


def test_ordered_sum_keeps_the_left_to_right_bits() -> None:
    # a compensated sum (Python 3.12's builtin) gives 0.6 here
    assert _ordered_sum([0.1, 0.2, 0.3]) == 0.6000000000000001
    assert _ordered_sum(iter([1e16, 1.0, -1e16])) == 0.0
    assert _ordered_sum([]) == 0.0 and _ordered_sum([-0.0]) == 0.0


_FLOATS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20)


@given(values=_FLOATS)
def test_ordered_sum_matches_one_ordered_segment(values) -> None:
    with np.errstate(over="ignore", invalid="ignore"):
        want = _ordered_sums(np.zeros(len(values), np.int64),
                             np.array(values, np.float64), 1)[0] if values else 0.0
    assert np.float64(_ordered_sum(values)).tobytes() == np.float64(want).tobytes()


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="the builtin float sum is compensated from 3.12 on")
@given(values=_FLOATS)
def test_ordered_sum_is_the_builtin_sum_before_3_12(values) -> None:
    assert np.float64(_ordered_sum(values)).tobytes() == \
        np.float64(sum(values)).tobytes()


def test_eval_planning_average_does_not_depend_on_the_python_version(
        tmp_path) -> None:
    # the 1 s, 2 s and 3 s waypoints (indices 1, 3, 5) are off by exactly
    # 0.1, 0.2 and 0.3; their left-to-right mean is 0.6000000000000001 / 3
    gt_plan = [[0.0, 0.0]] * 6
    pred_plan = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.0], [0.2, 0.0], [0.0, 0.0],
                 [0.3, 0.0]]
    pred, gt, report = (tmp_path / n for n in ("pred.jsonl", "gt.jsonl", "r.json"))
    pred.write_text(json.dumps({"sample_id": "s", "trajectory": pred_plan}) + "\n")
    gt.write_text(json.dumps({"sample_id": "s", "trajectory": gt_plan}) + "\n")
    assert main(["eval", "planning", "--pred", str(pred), "--gt", str(gt),
                 "--l2-mode", "at_horizon", "--json", str(report)]) == 0
    l2 = json.loads(report.read_text())["l2"]
    assert [l2[h] for h in ("1s", "2s", "3s")] == [0.1, 0.2, 0.3]
    assert l2["avg"] == 0.20000000000000004
