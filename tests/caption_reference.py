"""Reference caption scorer: the per-pair ``Counter`` implementation that
``fusionkit.text_metrics`` replaced with its columnar pass.

Tests require the columnar scorer to equal it bit for bit on every output
of ``bleu``, ``bleu_all``, ``rouge_l``, ``cider`` and
``compute_caption_report``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from fusionkit.text_metrics import (
    BLEU_SMOOTHING_EPS,
    ROUGE_BETA,
    CIDER_MAX_N,
    EvalPair,
    MetricReport,
    _default_normalizer,
    tokenize,
)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    # keys in first-occurrence order, which fixes every summation order below
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def _bleu_row(cand: list[str], refs: list[list[str]], cand_counts, ref_counts):
    """One pair's BLEU statistics: ``[cand_len, ref_len, m1, t1, m2, t2, ...]``
    with clipped matches ``m`` and candidate n-gram totals ``t`` per order."""
    c_len = len(cand)
    row = [c_len, min((len(r) for r in refs), key=lambda rl: (abs(rl - c_len), rl))]
    for k, counts in enumerate(cand_counts):
        per_ref = [rc[k] for rc in ref_counts]
        matched = 0
        for gram, c in counts.items():
            ceiling = 0
            for rc in per_ref:
                r = rc.get(gram, 0)
                if r > ceiling:
                    ceiling = r
            matched += c if c < ceiling else ceiling
        row += (matched, sum(counts.values()))
    return row


def _bleu_from_stats(stats, max_n: int, eps: float) -> float:
    cand_len, ref_len = stats[0], stats[1]
    if cand_len == 0:
        return 0.0
    product = 1.0
    for n in range(1, max_n + 1):
        matches, totals = stats[2 * n], stats[2 * n + 1]
        p = matches / totals if totals > 0 else 0.0
        if p == 0.0:
            p = eps
        product *= p
    geo = product ** (1.0 / max_n)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * geo * bp


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """LCS length by the bit-parallel recurrence of Allison & Dix (1986),
    in Hyyro's form: one bit of ``v`` per token of ``a``, and the LCS
    length is the number of those bits cleared after scanning ``b``."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(a):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for tok in b:
        u = v & masks.get(tok, 0)
        v = (v + u) | (v - u)  # carries past bit len(a) never come back down
    return len(a) - (v & full).bit_count()


def _rouge_pair(cand: list[str], refs: list[list[str]], b2: float) -> float:
    """Best-reference LCS F-measure of one pair."""
    best = 0.0
    if not cand:
        return best
    for ref in refs:
        if not ref:
            continue
        lcs = _lcs_length(cand, ref)
        if lcs == 0:
            continue
        prec = lcs / len(cand)
        rec = lcs / len(ref)
        score = ((1.0 + b2) * prec * rec) / (rec + b2 * prec)
        if score > best:
            best = score
    return best


def _cider_pair(cand_counts, ref_counts, dfs, idf_of_df) -> float:
    """Mean over orders of the mean TF-IDF cosine against each reference.

    ``idf_of_df[d]`` is the IDF of an n-gram held by ``d`` documents; an
    n-gram no reference holds takes ``d = 1``.
    """
    per_n = 0.0
    for k, df in enumerate(dfs):
        u = {gram: c * idf_of_df[df.get(gram, 1)] for gram, c in cand_counts[k].items()}
        ns_u = 0.0
        for w in u.values():
            ns_u += w * w
        acc = 0.0
        for rc in ref_counts:
            counts = rc[k]
            dot = 0.0
            for gram, w in u.items():
                c = counts.get(gram)
                if c is not None:
                    dot += w * (c * idf_of_df[df[gram]])
            ns_v = 0.0
            for gram, c in counts.items():
                w = c * idf_of_df[df[gram]]
                ns_v += w * w
            denom = math.sqrt(ns_u * ns_v)
            acc += dot / denom if denom > 0.0 else 0.0
        per_n += acc / len(ref_counts)
    return per_n / len(dfs)


class _Totals:
    """Running corpus totals."""

    def __init__(self, size: int, max_n: int, with_cider: bool):
        self.size = size
        self.bleu = [0] * (2 + 2 * max_n)
        self.rouge = 0.0
        self.hits = 0
        self.cider = 0.0
        # document frequencies per order; CIDEr's IDF degenerates below
        # two documents
        self.dfs = (
            [Counter() for _ in range(max_n)] if with_cider and size >= 2 else None
        )
        # IDF by document frequency, log(N / d) for d in 1..N
        self.idf_of_df = (
            [0.0] + [math.log(size / d) for d in range(1, size + 1)]
            if self.dfs is not None
            else None
        )

    def scores(self, smoothing_eps: float) -> dict[str, float | None]:
        out: dict[str, float | None] = {
            f"BLEU{n}": _bleu_from_stats(self.bleu, n, smoothing_eps)
            for n in range(1, 5)
        }
        out["CIDEr"] = (
            100.0 * self.cider / self.size if self.dfs is not None else None
        )
        out["ROUGE_L"] = 100.0 * self.rouge / self.size
        out["ACC"] = 100.0 * self.hits / self.size
        return out


def _score(
    pairs: Sequence[EvalPair],
    max_n: int = 4,
    beta: float = ROUGE_BETA,
    with_cider: bool = True,
) -> _Totals:
    """Every metric in two streaming passes.

    Each text is tokenized once. The first pass collects reference n-gram
    sets for CIDEr's document frequencies; the second counts n-grams once
    per text and feeds the same counts to BLEU clipping and CIDEr.
    """
    g = _Totals(len(pairs), max_n, with_cider)
    texts = [
        (tokenize(p.candidate), [tokenize(r) for r in p.references]) for p in pairs
    ]

    if g.dfs is not None:
        for _, refs in texts:
            for n in range(1, max_n + 1):
                g.dfs[n - 1].update(set().union(
                    *(zip(*[ref[i:] for i in range(n)]) for ref in refs)
                ))

    b2 = beta * beta
    orders = range(1, max_n + 1)
    for p, (cand, refs) in zip(pairs, texts):
        cand_counts = [_ngram_counts(cand, n) for n in orders]
        ref_counts = [[_ngram_counts(ref, n) for n in orders] for ref in refs]
        row = _bleu_row(cand, refs, cand_counts, ref_counts)
        for i, v in enumerate(row):
            g.bleu[i] += v
        g.rouge += _rouge_pair(cand, refs, b2)
        g.hits += _match_any_reference(p)
        if g.dfs is not None:
            g.cider += _cider_pair(cand_counts, ref_counts, g.dfs, g.idf_of_df)
    return g


def bleu(
    pairs: Sequence[EvalPair], max_n: int = 4, smoothing_eps: float = BLEU_SMOOTHING_EPS
) -> float:
    """Corpus BLEU-``max_n``."""
    if not pairs:
        raise ValueError("BLEU needs at least one pair")
    if not 1 <= max_n <= 4:
        raise ValueError("max_n must be in 1..4")
    stats = _score(pairs, max_n, with_cider=False).bleu
    return _bleu_from_stats(stats, max_n, smoothing_eps)


def bleu_all(
    pairs: Sequence[EvalPair], smoothing_eps: float = BLEU_SMOOTHING_EPS
) -> dict[str, float]:
    """BLEU-1 through BLEU-4 from one pass over the corpus."""
    if not pairs:
        raise ValueError("BLEU needs at least one pair")
    stats = _score(pairs, with_cider=False).bleu
    return {
        f"BLEU{n}": _bleu_from_stats(stats, n, smoothing_eps) for n in range(1, 5)
    }


def rouge_l(pairs: Sequence[EvalPair], beta: float = ROUGE_BETA) -> float:
    """Mean best-reference LCS F-measure, recall-weighted by beta^2."""
    if not pairs:
        raise ValueError("ROUGE-L needs at least one pair")
    return 100.0 * _score(pairs, beta=beta, with_cider=False).rouge / len(pairs)


_CIDER_TOO_SMALL = (
    "CIDEr needs at least 2 evaluation pairs; document frequencies "
    "degenerate on a single reference document"
)


def cider(pairs: Sequence[EvalPair], max_n: int = CIDER_MAX_N) -> float:
    """Plain CIDEr; the reported value is 100x the raw mean cosine."""
    if len(pairs) < 2:
        raise ValueError(_CIDER_TOO_SMALL)
    return 100.0 * _score(pairs, max_n).cider / len(pairs)


def _match_any_reference(pair: EvalPair) -> bool:
    cand = _default_normalizer(pair.candidate)
    return any(cand == _default_normalizer(r) for r in pair.references)


def compute_caption_report(
    pairs: Sequence[EvalPair], smoothing_eps: float = BLEU_SMOOTHING_EPS
) -> MetricReport:
    """Full caption-style report: BLEU1-4, CIDEr, ROUGE_L, exact-match ACC.

    CIDEr is reported as None when the corpus is too small for IDF.
    """
    if not pairs:
        raise ValueError("cannot evaluate an empty corpus")
    corpus = _score(pairs)
    metadata: dict[str, object] = {
        "bleu_smoothing_eps": smoothing_eps,
        "rouge_beta": ROUGE_BETA,
        "cider_scale": "100x raw mean TF-IDF cosine",
    }
    if corpus.dfs is None:
        metadata["cider_note"] = _CIDER_TOO_SMALL
    return MetricReport(
        scores=corpus.scores(smoothing_eps), pair_count=len(pairs), metadata=metadata
    )
