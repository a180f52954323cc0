"""Corpus-level language metrics: BLEU, ROUGE-L, CIDEr, accuracy, MAE.

All scores are reported on a 0-100 scale. Conventions are pinned here so
results are reproducible:

- Tokenization lowercases and splits punctuation into standalone tokens.
- BLEU pools clipped n-gram counts over the corpus, takes the geometric
  mean of the n-gram precisions, and applies the brevity penalty
  ``exp(1 - r/c)`` when the candidate corpus is not longer than the
  reference corpus. The effective reference length picks, per pair, the
  reference length closest to the candidate's (ties toward the shorter).
  A zero n-gram precision is floored at a small epsilon so BLEU-4 stays
  defined on short answers; the epsilon is echoed in report metadata.
- ROUGE-L computes an LCS F-measure per reference with recall weighted
  by beta^2 (beta = 1.2), keeps the best reference, and averages pairs.
- CIDEr is the plain TF-IDF-cosine variant: counts times
  ``log(N_docs / df)`` per n-gram order 1..4, cosine against each
  reference averaged, then averaged over orders and pairs. The reported
  value is 100 times the raw mean cosine. It needs at least two
  evaluation pairs, otherwise every IDF degenerates to zero.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

__all__ = [
    "EvalPair",
    "MetricReport",
    "tokenize",
    "bleu",
    "bleu_all",
    "rouge_l",
    "cider",
    "accuracy",
    "mae",
    "compute_caption_report",
]

BLEU_SMOOTHING_EPS = 1e-9
ROUGE_BETA = 1.2
CIDER_MAX_N = 4

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase and split; punctuation becomes standalone tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class EvalPair:
    """One candidate against one or more references."""

    id: str
    candidate: str
    references: tuple[str, ...]
    task_tag: str | None = None

    def __post_init__(self) -> None:
        refs = tuple(self.references)
        if not refs:
            raise ValueError(f"pair {self.id!r} has no references")
        object.__setattr__(self, "references", refs)


@dataclass(frozen=True)
class MetricReport:
    """Scores plus the knobs that produced them; None marks undefined."""

    scores: Mapping[str, float | None]
    pair_count: int
    scale_0_100: bool = True
    metadata: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scores": dict(self.scores),
            "pair_count": self.pair_count,
            "scale_0_100": self.scale_0_100,
            "metadata": dict(self.metadata),
        }


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
    """Running corpus totals for one group of pairs: the whole corpus or
    the pairs of one task tag."""

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
    by_tag: bool = False,
) -> dict[str | None, _Totals]:
    """Every metric in two streaming passes; key None holds the corpus.

    Each text is tokenized once. The first pass collects reference n-gram
    sets for CIDEr's document frequencies; the second counts n-grams once
    per text and feeds the same counts to BLEU clipping and CIDEr.
    """
    corpus = _Totals(len(pairs), max_n, with_cider)
    groups: dict[str | None, _Totals] = {None: corpus}
    members: list[tuple[_Totals, ...]] = []
    if by_tag:
        sizes = Counter(p.task_tag for p in pairs if p.task_tag is not None)
        for tag in sorted(sizes):
            groups[tag] = _Totals(sizes[tag], max_n, with_cider)
    for p in pairs:
        tagged = groups.get(p.task_tag) if p.task_tag is not None else None
        members.append((corpus,) if tagged is None else (corpus, tagged))
    texts = [
        (tokenize(p.candidate), [tokenize(r) for r in p.references]) for p in pairs
    ]

    if any(g.dfs is not None for g in groups.values()):
        for (_, refs), owners in zip(texts, members):
            for n in range(1, max_n + 1):
                seen = set().union(
                    *(zip(*[ref[i:] for i in range(n)]) for ref in refs)
                )
                for g in owners:
                    if g.dfs is not None:
                        g.dfs[n - 1].update(seen)

    b2 = beta * beta
    orders = range(1, max_n + 1)
    for p, (cand, refs), owners in zip(pairs, texts, members):
        cand_counts = [_ngram_counts(cand, n) for n in orders]
        ref_counts = [[_ngram_counts(ref, n) for n in orders] for ref in refs]
        row = _bleu_row(cand, refs, cand_counts, ref_counts)
        rouge = _rouge_pair(cand, refs, b2)
        hit = _match_any_reference(p)
        for g in owners:
            stats = g.bleu
            for i, v in enumerate(row):
                stats[i] += v
            g.rouge += rouge
            g.hits += hit
            if g.dfs is not None:
                g.cider += _cider_pair(cand_counts, ref_counts, g.dfs, g.idf_of_df)
    return groups


def bleu(
    pairs: Sequence[EvalPair], max_n: int = 4, smoothing_eps: float = BLEU_SMOOTHING_EPS
) -> float:
    """Corpus BLEU-``max_n``."""
    if not pairs:
        raise ValueError("BLEU needs at least one pair")
    if not 1 <= max_n <= 4:
        raise ValueError("max_n must be in 1..4")
    stats = _score(pairs, max_n, with_cider=False)[None].bleu
    return _bleu_from_stats(stats, max_n, smoothing_eps)


def bleu_all(
    pairs: Sequence[EvalPair], smoothing_eps: float = BLEU_SMOOTHING_EPS
) -> dict[str, float]:
    """BLEU-1 through BLEU-4 from one pass over the corpus."""
    if not pairs:
        raise ValueError("BLEU needs at least one pair")
    stats = _score(pairs, with_cider=False)[None].bleu
    return {
        f"BLEU{n}": _bleu_from_stats(stats, n, smoothing_eps) for n in range(1, 5)
    }


def rouge_l(pairs: Sequence[EvalPair], beta: float = ROUGE_BETA) -> float:
    """Mean best-reference LCS F-measure, recall-weighted by beta^2."""
    if not pairs:
        raise ValueError("ROUGE-L needs at least one pair")
    return 100.0 * _score(pairs, beta=beta, with_cider=False)[None].rouge / len(pairs)


_CIDER_TOO_SMALL = (
    "CIDEr needs at least 2 evaluation pairs; document frequencies "
    "degenerate on a single reference document"
)


def cider(pairs: Sequence[EvalPair], max_n: int = CIDER_MAX_N) -> float:
    """Plain CIDEr; the reported value is 100x the raw mean cosine."""
    if len(pairs) < 2:
        raise ValueError(_CIDER_TOO_SMALL)
    return 100.0 * _score(pairs, max_n)[None].cider / len(pairs)


def _default_normalizer(text: str) -> str:
    return text.strip().lower()


def accuracy(
    preds: Sequence[str],
    gts: Sequence[str],
    normalizer: Callable[[str], str] | None = None,
) -> float:
    """Exact-match percentage after normalization (default: trim+lowercase)."""
    if len(preds) != len(gts):
        raise ValueError("accuracy needs equal-length prediction and GT lists")
    if not preds:
        raise ValueError("accuracy is undefined on empty lists")
    norm = normalizer if normalizer is not None else _default_normalizer
    hits = sum(1 for p, g in zip(preds, gts) if norm(p) == norm(g))
    return 100.0 * hits / len(preds)


def mae(preds: Sequence[float], gts: Sequence[float]) -> float:
    """Mean absolute error over aligned numeric answers."""
    if len(preds) != len(gts):
        raise ValueError("mae needs equal-length lists")
    if not preds:
        raise ValueError("mae is undefined on empty lists")
    total = 0.0
    for p, g in zip(preds, gts):
        p = float(p)
        g = float(g)
        if not (math.isfinite(p) and math.isfinite(g)):
            raise ValueError("mae inputs must be finite")
        total += abs(p - g)
    return total / len(preds)


def _match_any_reference(pair: EvalPair) -> bool:
    cand = _default_normalizer(pair.candidate)
    return any(cand == _default_normalizer(r) for r in pair.references)


def compute_caption_report(
    pairs: Sequence[EvalPair], smoothing_eps: float = BLEU_SMOOTHING_EPS
) -> MetricReport:
    """Full caption-style report: BLEU1-4, CIDEr, ROUGE_L, exact-match ACC.

    CIDEr is reported as None when the corpus is too small for IDF. When
    pairs carry task tags, per-tag sub-reports land in the metadata.
    """
    if not pairs:
        raise ValueError("cannot evaluate an empty corpus")
    groups = _score(pairs, by_tag=True)
    corpus = groups.pop(None)
    metadata: dict[str, object] = {
        "bleu_smoothing_eps": smoothing_eps,
        "rouge_beta": ROUGE_BETA,
        "cider_scale": "100x raw mean TF-IDF cosine",
    }
    if corpus.dfs is None:
        metadata["cider_note"] = _CIDER_TOO_SMALL
    if groups:
        metadata["per_task"] = {
            tag: {"scores": g.scores(smoothing_eps), "pair_count": g.size}
            for tag, g in groups.items()
        }
    return MetricReport(
        scores=corpus.scores(smoothing_eps), pair_count=len(pairs), metadata=metadata
    )
