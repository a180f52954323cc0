"""Property tests for the linear-time eval paths.

Each fast path is checked against a plain reference: the bit-parallel LCS
against a DP table, the numpy separating-axis test against the scalar
``rectangles_collide``, the one-pass caption report against values frozen
from the per-metric implementation it replaced, and the id-alignment
messages against the direct set/count formulation.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.cli import ValidationError, _align_ids
from fusionkit.driving_eval import (
    AgentBox,
    TrajectoryPlan,
    _corner_arrays,
    _ego_headings,
    _rect_corners,
    _rectangles_collide_rows,
    collision_rate,
    rectangles_collide,
    trajectory_collides,
)
from fusionkit.text_metrics import (
    EvalPair,
    _lcs_length,
    compute_caption_report,
    rouge_l,
)

from oracles import oracle_rouge_l


# --------------------------------------------------------------------- LCS


def dp_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


tokens = st.lists(st.sampled_from(["a", "b", "c", "d", "."]), max_size=90)


@settings(max_examples=300, deadline=None)
@given(tokens, tokens)
def test_bit_parallel_lcs_matches_dp(a, b):
    assert _lcs_length(a, b) == dp_lcs(a, b)
    assert _lcs_length(b, a) == dp_lcs(a, b)


texts = st.lists(
    st.sampled_from(["the", "car", "stops", "Left", ",", "."]), max_size=12
).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(texts, st.lists(texts, min_size=1, max_size=3)),
                min_size=1, max_size=5))
def test_rouge_l_matches_oracle(raw):
    pairs = [EvalPair(id=str(i), candidate=c, references=tuple(r))
             for i, (c, r) in enumerate(raw)]
    assert rouge_l(pairs) == pytest.approx(oracle_rouge_l(raw), abs=1e-9)


# --------------------------------------------------------------------- SAT


def vector_verdicts(rows_a, rows_b):
    ax, ay = _corner_arrays(np.asarray(rows_a, dtype=np.float64))
    bx, by = _corner_arrays(np.asarray(rows_b, dtype=np.float64))
    return _rectangles_collide_rows(ax, ay, bx, by).tolist()


def scalar_verdicts(rows_a, rows_b):
    return [rectangles_collide(_rect_corners(*a), _rect_corners(*b))
            for a, b in zip(rows_a, rows_b)]


def test_vector_sat_matches_scalar_on_random_pairs():
    rng = np.random.default_rng(20)
    n = 12000
    rows = []
    for _ in range(2):
        rows.append(np.column_stack([
            rng.uniform(-4, 4, n), rng.uniform(-4, 4, n),
            rng.uniform(0.2, 5.0, n), rng.uniform(0.2, 5.0, n),
            rng.uniform(-math.pi, 2 * math.pi, n),
        ]))
    rows_a, rows_b = (r.tolist() for r in rows)
    got = vector_verdicts(rows_a, rows_b)
    assert got == scalar_verdicts(rows_a, rows_b)
    assert 0 < sum(got) < n  # both verdicts occur

    # every corner equals the scalar corner bit for bit
    xs, ys = _corner_arrays(rows[0])
    for i in range(0, n, 97):
        corners = _rect_corners(*rows_a[i])
        assert xs[:, i].tolist() == [c[0] for c in corners]
        assert ys[:, i].tolist() == [c[1] for c in corners]


def test_vector_sat_touching_and_axis_aligned_cases():
    ego = (0.0, 0.0, 2.0, 2.0, 0.0)
    cases = [
        (2.0, 0.0, 2.0, 2.0, 0.0),            # shared edge
        (2.0, 2.0, 2.0, 2.0, 0.0),            # shared corner
        (-2.0, 0.0, 2.0, 2.0, 0.0),           # shared edge, other side
        (0.0, 2.0, 4.0, 2.0, 0.0),            # edge along the long side
        (1.9, 0.0, 2.0, 2.0, 0.0),            # just overlapping
        (0.0, 0.0, 2.0, 2.0, 0.0),            # identical
        (0.0, 0.0, 0.5, 0.5, 0.0),            # contained
        (2.0 + math.sqrt(2.0), 0.0, 2.0, 2.0, math.pi / 4),  # corner to edge
        (1.0, 1.0, 2.0, 2.0, math.pi / 2),
        (3.5, 0.0, 2.0, 2.0, math.pi),
    ]
    rows_a = [ego] * len(cases)
    assert vector_verdicts(rows_a, cases) == scalar_verdicts(rows_a, cases)
    assert vector_verdicts(cases, rows_a) == scalar_verdicts(cases, rows_a)
    assert vector_verdicts(rows_a[:3], cases[:3]) == [False, False, False]


headings = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, -math.pi / 2]),
    st.floats(-7.0, 7.0),
)
boxes = st.tuples(
    st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
    st.floats(0.01, 5.0), st.floats(0.01, 5.0), headings,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(boxes, boxes), min_size=1, max_size=10))
def test_vector_sat_matches_scalar_property(pairs):
    rows_a = [a for a, _ in pairs]
    rows_b = [b for _, b in pairs]
    assert vector_verdicts(rows_a, rows_b) == scalar_verdicts(rows_a, rows_b)


def scalar_trajectory_flags(plan, ego_length, ego_width, agents):
    headings = _ego_headings(plan.waypoints)
    hit = [
        any(
            rectangles_collide(
                _rect_corners(x, y, ego_length, ego_width, h),
                _rect_corners(a.cx, a.cy, a.length, a.width, a.heading),
            )
            for a in snapshot
        )
        for (x, y), h, snapshot in zip(plan.waypoints, headings, agents)
    ]
    return {"1s": any(hit[:2]), "2s": any(hit[:4]), "3s": any(hit[:6])}


def test_collision_paths_match_scalar_loop_across_blocks():
    rnd = random.Random(21)
    samples = []
    for _ in range(2500):  # more than two numpy blocks
        plan = TrajectoryPlan(tuple(
            (rnd.choice([0.0, 1.5 * (i + 1)]) + rnd.uniform(-1, 1),
             rnd.uniform(-1.5, 1.5)) for i in range(6)))
        agents = [
            [AgentBox(rnd.uniform(-2, 11), rnd.uniform(-4, 4),
                      rnd.uniform(1, 5), rnd.uniform(1, 2.5),
                      rnd.choice([0.0, rnd.uniform(-3.2, 3.2)]))
             for _ in range(rnd.randint(0, 3))]
            for _ in range(6)
        ]
        samples.append((plan, agents))
    want = [scalar_trajectory_flags(p, 4.084, 1.85, a) for p, a in samples]
    for (plan, agents), flags in list(zip(samples, want))[:300]:
        assert trajectory_collides(plan, 4.084, 1.85, agents) == flags
    rates = collision_rate(samples, 4.084, 1.85)
    for h in ("1s", "2s", "3s"):
        count = sum(1 for f in want if f[h])
        assert rates[h] == 100.0 * count / len(samples)
    assert 0.0 < rates["1s"] < rates["3s"] < 100.0


# --------------------------------------------------------- caption report

VOCAB = ("the", "car", "red", "stops", "left", "turn", "bus", "waits", "a",
         "pedestrian", "crosses", "slowly", ".", ",", "!", "?", "Stop", "LEFT")
TAGS = ("perception", "prediction", "planning", None)


def seeded_corpus(seed=2024, n_pairs=60):
    rnd = random.Random(seed)

    def text(lo, hi):
        return " ".join(rnd.choice(VOCAB) for _ in range(rnd.randint(lo, hi)))

    pairs = []
    for i in range(n_pairs):
        refs = tuple(text(0 if i == 7 else 1, 14) for _ in range(rnd.randint(1, 3)))
        cand = "" if i == 3 else (rnd.choice(refs) if i % 9 == 0 else text(1, 14))
        pairs.append(EvalPair(id=f"c{i:02d}", candidate=cand, references=refs,
                              task_tag=TAGS[i % 4]))
    # a tag held by one pair only: its sub-report has no CIDEr
    pairs.append(EvalPair(id="solo", candidate="the bus waits .",
                          references=("a bus waits .",), task_tag="solo"))
    return pairs


# produced by the per-metric implementation (separate BLEU, CIDEr and
# ROUGE-L passes, DP-table LCS) that the one-pass report replaced
FROZEN_SCORES = {
    "BLEU1": 54.24528301886793, "BLEU2": 28.88845471247798,
    "BLEU3": 21.366504027501712, "BLEU4": 18.214460841582948,
    "CIDEr": 12.787553789695913, "ROUGE_L": 33.13473240639788,
    "ACC": 11.475409836065573,
}
FROZEN_PER_TASK = {
    "perception": {"scores": {
        "BLEU1": 36.284591359950966, "BLEU2": 21.246849648271752,
        "BLEU3": 16.171078928183906, "BLEU4": 13.546152308190425,
        "CIDEr": 11.976524442410428, "ROUGE_L": 29.698736855501185,
        "ACC": 13.333333333333334}, "pair_count": 15},
    "planning": {"scores": {
        "BLEU1": 53.17460317460318, "BLEU2": 21.8872218212015,
        "BLEU3": 15.808834169306666, "BLEU4": 13.510762811739488,
        "CIDEr": 11.34159269205207, "ROUGE_L": 35.75772030043797,
        "ACC": 13.333333333333334}, "pair_count": 15},
    "prediction": {"scores": {
        "BLEU1": 60.431654676258994, "BLEU2": 36.27465431082915,
        "BLEU3": 26.830783186054823, "BLEU4": 23.15928023660434,
        "CIDEr": 13.176899035376426, "ROUGE_L": 40.234739475023346,
        "ACC": 13.333333333333334}, "pair_count": 15},
    "solo": {"scores": {
        "BLEU1": 75.0, "BLEU2": 70.71067811865476, "BLEU3": 62.99605249474366,
        "BLEU4": 0.39763536438352537, "CIDEr": None, "ROUGE_L": 75.0,
        "ACC": 0.0}, "pair_count": 1},
}


def test_caption_report_equals_frozen_values_exactly():
    report = compute_caption_report(seeded_corpus())
    assert report.scores == FROZEN_SCORES
    assert report.metadata["per_task"] == FROZEN_PER_TASK
    assert list(report.metadata["per_task"]) == sorted(FROZEN_PER_TASK)
    assert report.pair_count == 61


# --------------------------------------------------------- id alignment


def reference_alignment_error(pred_ids, gt_ids):
    missing = sorted(set(gt_ids) - set(pred_ids))
    extra = sorted(set(pred_ids) - set(gt_ids))
    if missing or extra:
        return (f"prediction ids do not match GT ids "
                f"(missing={missing}, extra={extra})")
    dupes = sorted({i for i in pred_ids if pred_ids.count(i) > 1})
    return f"duplicate prediction ids: {dupes}" if dupes else None


def alignment_error(pred_ids, gt_ids):
    try:
        _align_ids(pred_ids, gt_ids)
    except ValidationError as err:
        return str(err)
    return None


def test_align_ids_messages():
    assert alignment_error(["a", "b"], ["b", "a"]) is None
    assert alignment_error(["a"], ["a", "c", "b"]) == (
        "prediction ids do not match GT ids (missing=['b', 'c'], extra=[])")
    assert alignment_error(["a", "z", "y"], ["a"]) == (
        "prediction ids do not match GT ids (missing=[], extra=['y', 'z'])")
    assert alignment_error(["b", "a", "b", "a", "c", "a"], ["c", "b", "a"]) == (
        "duplicate prediction ids: ['a', 'b']")


ids = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=12)


@settings(max_examples=200, deadline=None)
@given(ids, st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), unique=True))
def test_align_ids_matches_reference(pred_ids, gt_ids):
    assert alignment_error(pred_ids, gt_ids) == (
        reference_alignment_error(pred_ids, gt_ids))
