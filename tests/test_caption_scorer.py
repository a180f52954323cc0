"""The columnar caption scorer against the per-pair ``Counter`` scorer it
replaced (``caption_reference``), bit for bit.

Every float the report prints must keep its summation order, so the
comparisons are ``==``, never a tolerance.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caption_reference as reference
from fusionkit import text_metrics
from fusionkit.text_metrics import EvalPair

WORDS = ("the", "a", "car", "Car", "stops", "left", ".", ",", "?", "red red")

# a few words, runs of one word, or nothing at all
texts = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=14).map(" ".join),
    st.builds(lambda w, k: " ".join([w] * k), st.sampled_from(WORDS),
              st.integers(2, 9)),
)
pairs = st.builds(
    lambda cand, refs: (cand, tuple(refs)),
    texts,
    st.lists(texts, min_size=1, max_size=4),
)


def corpus(rows):
    return [EvalPair(id=f"p{i}", candidate=c, references=refs)
            for i, (c, refs) in enumerate(rows)]


def assert_same_scores(ps):
    for n in range(1, 5):
        assert text_metrics.bleu(ps, max_n=n) == reference.bleu(ps, max_n=n)
    assert text_metrics.bleu_all(ps) == reference.bleu_all(ps)
    assert text_metrics.rouge_l(ps) == reference.rouge_l(ps)
    if len(ps) >= 2:
        for n in (1, 2, 3, 4, 5):
            assert text_metrics.cider(ps, max_n=n) == reference.cider(ps, max_n=n)
    got = text_metrics.compute_caption_report(ps).to_dict()
    want = reference.compute_caption_report(ps).to_dict()
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.lists(pairs, min_size=1, max_size=12))
def test_scores_equal_reference(rows):
    assert_same_scores(corpus(rows))


def test_every_text_empty():
    assert_same_scores(corpus([("", ("",)), ("", ("", ""))]))


def test_cider_rejects_no_orders():
    with pytest.raises(ValueError, match="max_n"):
        text_metrics.cider(corpus([("a", ("a",))] * 2), max_n=0)


def test_more_distinct_tokens_than_16_bits():
    # The first reference holds 2**17 distinct tokens, in first-seen order.
    # The later pairs hold grams whose packed keys collide past the key
    # width: w5 w7 against w32773 w7 as 32-bit (gram id, token) keys,
    # w5 w6 w7 w8 against w8197 w6 w7 w8 as 64-bit t1*V**3 + ... keys. A
    # merged gram counts as a match the reference scorer does not see.
    width = 2**17
    rows = [("w0 w1", (" ".join(f"w{i}" for i in range(width)),))]
    for k in range(5, 45, 4):
        rows.append((f"w{k} w{k + 2} .", (f"w{k + 2**15} w{k + 2} .",)))
        rows.append((f"w{k} w{k + 1} w{k + 2} w{k + 3}",
                     (f"w{k + 2**13} w{k + 1} w{k + 2} w{k + 3}",)))
    rnd = random.Random(7)
    for _ in range(200):
        cand = [f"w{rnd.randrange(width)}" for _ in range(30)]
        refs = tuple(" ".join(cand[s:s + 20] + ["w9", "w10"])
                     for s in rnd.sample(range(10), rnd.randint(1, 3)))
        rows.append((" ".join(cand), refs))
    ps = corpus(rows)
    got = text_metrics.compute_caption_report(ps).to_dict()
    assert got == reference.compute_caption_report(ps).to_dict()

