import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionkit.exact import _ordered_sums
from fusionkit.text_metrics import (
    EvalPair,
    bleu,
    bleu_all,
    cider,
    compute_caption_report,
    rouge_l,
    tokenize,
)

from oracles import oracle_bleu, oracle_cider, oracle_rouge_l


def pair(idx, cand, refs):
    return EvalPair(id=f"p{idx}", candidate=cand, references=tuple(refs))


def random_corpus(rng, n_pairs=None):
    vocab = ["a", "b", "c", "the", "car", "red", "stop", "turn", "left", "."]
    n_pairs = n_pairs or int(rng.integers(3, 9))
    pairs = []
    for i in range(n_pairs):
        cand = " ".join(rng.choice(vocab, size=rng.integers(1, 10)))
        refs = [
            " ".join(rng.choice(vocab, size=rng.integers(1, 10)))
            for _ in range(rng.integers(1, 4))
        ]
        pairs.append(pair(i, cand, refs))
    return pairs


def as_tuples(pairs):
    return [(p.candidate, list(p.references)) for p in pairs]


# ---------------------------------------------------------------- tokenize


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("The car stopped.") == ["the", "car", "stopped", "."]
    assert tokenize("TURN LEFT!") == ["turn", "left", "!"]
    assert tokenize("a,b") == ["a", ",", "b"]
    assert tokenize("") == []


# -------------------------------------------------------------------- bleu


def test_bleu1_fixture():
    pairs = [pair(0, "the cat sat", ["the cat sat down"])]
    got = bleu(pairs, max_n=1)
    want = 100.0 * math.exp(1.0 - 4.0 / 3.0)
    assert abs(got - want) < 1e-12
    assert abs(got - 71.65) < 0.01


def test_bleu_identical_corpus_is_exactly_100():
    pairs = [
        pair(0, "the red car turns left today", ["the red car turns left today"]),
        pair(1, "stop at the light now please", ["stop at the light now please"]),
    ]
    for n in range(1, 5):
        assert bleu(pairs, max_n=n) == 100.0
    assert set(bleu_all(pairs).values()) == {100.0}


def test_bleu_disjoint_corpus_is_epsilon_level():
    pairs = [pair(0, "x y z", ["a b c"])]
    assert bleu(pairs, max_n=1) < 1e-5


def test_bleu_clips_repeated_ngrams():
    pairs = [pair(0, "the the the the", ["the cat"])]
    # one clipped unigram match out of four, candidate longer than reference
    assert abs(bleu(pairs, max_n=1) - 100.0 * (1.0 / 4.0)) < 1e-12


def test_bleu_matches_independent_counter():
    rng = np.random.default_rng(100)
    for _ in range(10):
        pairs = random_corpus(rng)
        for n in (1, 2, 3, 4):
            assert bleu(pairs, max_n=n) == pytest.approx(
                oracle_bleu(as_tuples(pairs), n), abs=1e-9
            )


def test_bleu_empty_candidate_scores_zero():
    assert bleu([pair(0, "", ["a b"])], max_n=4) == 0.0


# ----------------------------------------------------------------- rouge_l


def test_rouge_fixture_value_from_formula():
    # cand "a b c" vs ref "a c": LCS=2, P=2/3, R=1, beta=1.2
    pairs = [pair(0, "a b c", ["a c"])]
    prec, rec, b2 = 2.0 / 3.0, 1.0, 1.44
    want = 100.0 * ((1 + b2) * prec * rec) / (rec + b2 * prec)
    got = rouge_l(pairs)
    assert abs(got - want) < 1e-12
    assert abs(got - oracle_rouge_l(as_tuples(pairs))) < 1e-12


def test_rouge_identity_disjoint_and_duplicates():
    same = [pair(0, "a b c d", ["a b c d"])]
    assert rouge_l(same) == 100.0
    assert rouge_l([pair(0, "a b", ["x y"])]) == 0.0
    once = rouge_l([pair(0, "a b c", ["a c"])])
    thrice = rouge_l([pair(0, "a b c", ["a c", "a c", "a c"])])
    assert once == thrice


def test_rouge_takes_best_reference():
    pairs = [pair(0, "a b c", ["z z z", "a b c"])]
    assert rouge_l(pairs) == 100.0


def test_rouge_matches_independent_oracle():
    rng = np.random.default_rng(101)
    for _ in range(10):
        pairs = random_corpus(rng)
        assert rouge_l(pairs) == pytest.approx(
            oracle_rouge_l(as_tuples(pairs)), abs=1e-9
        )


# ------------------------------------------------------------------- cider


def test_cider_identical_distinct_corpus_is_exactly_100():
    pairs = [
        pair(0, "the red car turns left", ["the red car turns left"]),
        pair(1, "a bus waits at the stop", ["a bus waits at the stop"]),
        pair(2, "pedestrians cross the wide road", ["pedestrians cross the wide road"]),
    ]
    assert cider(pairs) == 100.0


def test_cider_rejects_single_document_corpus():
    with pytest.raises(ValueError):
        cider([pair(0, "a b", ["a b"])])


def test_cider_matches_independent_oracle():
    rng = np.random.default_rng(102)
    for _ in range(10):
        pairs = random_corpus(rng)
        assert cider(pairs) == pytest.approx(
            oracle_cider(as_tuples(pairs)), abs=1e-9
        )


def test_cider_disjoint_candidate_scores_zero():
    pairs = [
        pair(0, "qq ww ee", ["the red car stops"]),
        pair(1, "zz xx", ["a bus turns right"]),
    ]
    assert cider(pairs) == 0.0


# ------------------------------------------------------------------ report


def test_caption_report_shape_and_per_task():
    pairs = [
        pair(0, "a b c d", ["a b c d"]),
        pair(1, "x y", ["x y z"]),
        pair(2, "m n o p", ["m n o p"]),
    ]
    report = compute_caption_report(pairs)
    assert set(report.scores) == {
        "BLEU1",
        "BLEU2",
        "BLEU3",
        "BLEU4",
        "CIDEr",
        "ROUGE_L",
        "ACC",
    }
    assert report.pair_count == 3
    assert set(report.to_dict()) == {"scores", "pair_count", "metadata"}
    assert report.metadata["bleu_smoothing_eps"] == 1e-9
    # one corpus, no per-task sub-reports
    assert "per_task" not in report.metadata
    assert report.scores["ACC"] == pytest.approx(100.0 * 2 / 3)


def test_caption_report_single_pair_has_no_cider():
    report = compute_caption_report([pair(0, "a", ["a"])])
    assert report.scores["CIDEr"] is None
    assert "cider_note" in report.metadata


# ---------------------------------------------------------- ordered sums

# terms of far apart sizes, so that a sum taken in another order rounds
# differently
_TERMS = st.floats(-1e12, 1e12) | st.sampled_from([0.0, -0.0, 0.1, -1.0, 1e16])


@st.composite
def _layouts(draw):
    """(owners, each owner's terms, size): segments of any lengths, one long
    segment, or many of one length; owners are drawn from 0..size-1."""
    kind = draw(st.sampled_from(["any", "one long", "equal"]))
    if kind == "one long":
        lengths = [draw(st.integers(40, 200))]
    elif kind == "equal":
        lengths = [draw(st.integers(1, 6))] * draw(st.integers(2, 30))
    else:
        lengths = draw(st.lists(st.integers(1, 40), max_size=12))
    size = len(lengths) + draw(st.integers(0, 5))
    owners = draw(st.permutations(range(size)))[:len(lengths)]
    terms = [draw(st.lists(_TERMS, min_size=n, max_size=n)) for n in lengths]
    return owners, terms, size


@settings(max_examples=100, deadline=None)
@example(layout=([], [], 0))
@example(layout=([], [], 3))
@example(layout=([4], [[-0.0, -0.0]], 6))
@example(layout=([1, 0], [[1e16, 1.0, -1e16], [-0.0]], 2))
@example(layout=([0, 1, 2, 3], [[1e16] + [1.0] * 39] + [[1.0, 1.0]] * 3, 4))
@given(layout=_layouts())
def test_ordered_sums_match_a_plain_loop_bit_for_bit(layout):
    owners, terms, size = layout
    want = np.zeros(size)
    for owner, values in zip(owners, terms):
        acc = 0.0
        for v in values:
            acc += v
        want[owner] = acc
    seg = np.repeat(np.array(owners, np.int64),
                    np.array([len(t) for t in terms], np.int64))
    val = np.array([v for values in terms for v in values], np.float64)
    got = _ordered_sums(seg, val, size)
    assert got.tobytes() == want.tobytes()
