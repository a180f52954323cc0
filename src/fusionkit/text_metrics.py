"""Corpus-level language metrics: BLEU, ROUGE-L, CIDEr, exact-match accuracy.

All scores are reported on a 0-100 scale. Conventions are pinned here so
results are reproducible:

- Tokenization lowercases and splits punctuation into standalone tokens.
- BLEU pools clipped n-gram counts over the corpus, takes the geometric
  mean of the n-gram precisions, and applies the brevity penalty
  ``exp(1 - r/c)`` when the candidate corpus is not longer than the
  reference corpus. The effective reference length picks, per pair, the
  reference length closest to the candidate's (ties toward the shorter).
  A zero n-gram precision is floored at ``BLEU_SMOOTHING_EPS`` so BLEU-4
  stays defined on short answers; report metadata echoes it.
- ROUGE-L computes an LCS F-measure per reference with recall weighted
  by ``ROUGE_BETA`` squared, keeps the best reference, and averages pairs.
- CIDEr is the plain TF-IDF-cosine variant: counts times
  ``log(N_docs / df)`` per n-gram order 1..4, cosine against each
  reference averaged, then averaged over orders and pairs. The reported
  value is 100 times the raw mean cosine. It needs at least two
  evaluation pairs, otherwise every IDF degenerates to zero.

The scorer is columnar: each order's n-grams are counted for all texts at
once with numpy. Its floats still match a plain per-pair loop bit for bit,
because every sum keeps that loop's order: a text's n-grams in order of
first occurrence, then references in order, then orders 1..max_n, then
pairs in order; ``exact._ordered_sums`` takes such sums together.
Expressions keep the loop's shape too:
``w_u * (c_v * idf)``, ``sqrt(ns_u * ns_v)``, ``per_n += acc / len(refs)``,
then ``/ max_n``; the IDF table comes from ``math.log``.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .exact import _ordered_sum, _ordered_sums
from .jsontypes import field_dict, require, require_id, require_str

__all__ = [
    "EvalPair",
    "MetricReport",
    "tokenize",
    "bleu",
    "bleu_all",
    "rouge_l",
    "cider",
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

    def __post_init__(self) -> None:
        refs = tuple(self.references)
        if not refs:
            raise ValueError(f"pair {self.id!r} has no references")
        object.__setattr__(self, "references", refs)


def caption_pred_from_dict(d: Mapping) -> tuple[str, str]:
    """A prediction row ``{"id", "caption"}``; the caption must be a string."""
    pair_id = require_id(d, "id")
    return pair_id, require_str(require(d, "caption"), "caption")


def caption_gt_from_dict(d: Mapping) -> tuple[str, tuple[str, ...]]:
    """A ground-truth row ``{"id", "references": [...]}``, or ``{"id",
    "caption"}`` when ``references`` is absent, null or empty."""
    pair_id = require_id(d, "id")
    refs = d.get("references")
    if refs is None or refs == []:
        refs = [require(d, "caption")]
    if not (isinstance(refs, list) and all(isinstance(r, str) for r in refs)):
        raise ValueError(f"references must be a list of strings, got {refs!r}")
    return pair_id, tuple(refs)


@dataclass(frozen=True)
class MetricReport:
    """Scores plus the knobs that produced them; None marks undefined."""

    scores: Mapping[str, float | None]
    pair_count: int
    metadata: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return field_dict(self)


def _bleu_from_stats(stats, max_n: int) -> float:
    cand_len, ref_len = stats[0], stats[1]
    if cand_len == 0:
        return 0.0
    product = 1.0
    for n in range(1, max_n + 1):
        matches, totals = stats[2 * n], stats[2 * n + 1]
        p = matches / totals if totals > 0 else 0.0
        if p == 0.0:
            p = BLEU_SMOOTHING_EPS
        product *= p
    geo = product ** (1.0 / max_n)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * geo * bp


def _lcs_masks(a: Sequence[str]) -> dict[str, int]:
    """Per token, the bit set of its positions in ``a``."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(a):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return masks


def _lcs_scan(masks: dict[str, int], n: int, b: Sequence[str]) -> int:
    """LCS length of ``b`` and the ``n``-token sequence behind ``masks``,
    by the bit-parallel recurrence of Allison & Dix (1986) in Hyyro's
    form: one bit of ``v`` per token of that sequence, and the LCS length
    is the number of those bits cleared after scanning ``b``."""
    full = (1 << n) - 1
    v = full
    for tok in b:
        u = v & masks.get(tok, 0)
        v = (v + u) | (v - u)  # carries past bit n never come back down
    return n - (v & full).bit_count()


def _rouge_pair(cand: list[str], refs: list[list[str]], b2: float) -> float:
    """Best-reference LCS F-measure of one pair."""
    best = 0.0
    if not cand:
        return best
    masks = _lcs_masks(cand)  # built once, scanned against each reference
    for ref in refs:
        if not ref:
            continue
        lcs = _lcs_scan(masks, len(cand), ref)
        if lcs == 0:
            continue
        prec = lcs / len(cand)
        rec = lcs / len(ref)
        score = ((1.0 + b2) * prec * rec) / (rec + b2 * prec)
        if score > best:
            best = score
    return best


class _TokenIds(dict):
    """Dense token ids, handed out in first-seen order."""

    def __missing__(self, token: str) -> int:
        self[token] = i = len(self)
        return i


class _Texts:
    """Every pair's texts as int32 token ids, pair after pair: the
    candidate, then the references in order."""

    def __init__(self, token_ids: array, lengths: array, n_refs: np.ndarray):
        self.tokens = np.frombuffer(token_ids, np.int32)
        self.vocab_size = int(self.tokens.max(initial=0)) + 1
        lengths = np.frombuffer(lengths, np.int32)
        self.count = len(lengths)
        self.n_refs = n_refs
        per_pair = n_refs + 1
        self.pair = np.repeat(np.arange(len(n_refs)), per_pair)
        self.cand = np.cumsum(per_pair) - per_pair  # each pair's candidate
        self.slot = np.arange(self.count) - self.cand[self.pair]  # 0: candidate
        self.cand_len = lengths[self.cand].astype(np.int64)
        self.end = np.cumsum(lengths, dtype=np.int64)
        self.of_position = np.repeat(np.arange(self.count, dtype=np.int32), lengths)
        self.refs = np.flatnonzero(self.slot > 0)  # every reference text


class _Grams:
    """The distinct n-grams of every text at order ``n``: one entry per
    ``(text, gram)``, sorted by gram and then by text.

    ``place`` is an entry's index when the entries are listed in order of
    first occurrence, text after text; ``by_place`` lists them so. A pair's
    texts are adjacent, so the entries of one pair and one gram are
    adjacent too, the candidate's first. Gram ids are dense; each order's
    ids extend the last order's by one token, so the int64 keys stay below
    (positions x vocabulary) however long the grams get.
    """

    def __init__(self, texts: _Texts, n: int, prev: "_Grams | None"):
        if prev is None:
            self.positions = np.arange(len(texts.tokens), dtype=np.int32)
            key = texts.tokens
        else:
            # the positions where an n-gram still fits in its text
            keep = prev.positions + n <= texts.end[texts.of_position[prev.positions]]
            self.positions = prev.positions[keep]
            key = prev.gram_of[keep].astype(np.int64) * texts.vocab_size
            key += texts.tokens[self.positions + (n - 1)]
        size = len(key)
        # a stable sort by key from two faster unstable ones: sort, densify,
        # then sort the unique (dense id, position) below size**2
        order = np.argsort(key)
        new = np.ones(size, bool)
        key_s = key[order]
        new[1:] = key_s[1:] != key_s[:-1]
        del key, key_s
        both = (np.cumsum(new) - 1) * size + order
        del order
        both.sort()
        gram_s, order = np.divmod(both, max(size, 1))
        del both
        gram_s = gram_s.astype(np.int32)
        self.gram_of = np.empty_like(gram_s)  # the dense id at each position
        self.gram_of[order] = gram_s
        text_s = texts.of_position[self.positions[order]]
        new[1:] = (gram_s[1:] != gram_s[:-1]) | (text_s[1:] != text_s[:-1])
        starts = np.flatnonzero(new)
        del new
        self.n_grams = int(gram_s[-1]) + 1 if size else 0
        self.gram = gram_s[starts]
        self.text = text_s[starts]
        self.pair = texts.pair[self.text]
        self.count = np.diff(starts, append=size).astype(np.int32)
        first = order[starts]  # each entry's first position
        del gram_s, text_s, order, starts
        seen = np.zeros(size, np.int32)
        seen[first] = 1
        np.cumsum(seen, out=seen)  # entries up to each position
        # each entry's place in first-occurrence order, text after text
        self.place = seen[first] - 1
        self.by_place = np.empty_like(self.place)
        self.by_place[self.place] = np.arange(len(first), dtype=np.int32)

    def matches(self, texts: _Texts) -> tuple[np.ndarray, np.ndarray]:
        """Each candidate entry paired with every entry of its gram in the
        same pair's references, which are the entries right after it; by
        reference text, then in the candidate's first-occurrence order."""
        live = np.flatnonzero(texts.slot[self.text] == 0)
        cands, refs = [live[:0]], [live[:0]]
        for d in range(1, int(texts.n_refs.max(initial=0)) + 1):
            nxt = live + d
            ok = nxt < len(self.gram)
            live, nxt = live[ok], nxt[ok]
            ok = ((self.gram[nxt] == self.gram[live])
                  & (self.pair[nxt] == self.pair[live]))
            live, nxt = live[ok], nxt[ok]
            cands.append(live)
            refs.append(nxt)
        mc, mr = np.concatenate(cands), np.concatenate(refs)
        order = np.argsort(
            self.text[mr].astype(np.int64) * len(self.gram) + self.place[mc])
        return mc[order], mr[order]

    def clipped(self, texts: _Texts, mc: np.ndarray, mr: np.ndarray) -> np.ndarray:
        """BLEU's clipped matches per pair: each candidate gram's count, at
        most its largest count in one reference."""
        ceiling = np.zeros(len(self.gram), np.int32)
        np.maximum.at(ceiling, mc, self.count[mr])
        cand = texts.slot[self.text] == 0
        clipped = np.minimum(self.count[cand], ceiling[cand])
        per_pair = np.bincount(self.pair[cand], clipped, len(texts.n_refs))
        return per_pair.astype(np.int64)

    def cosines(
        self, texts: _Texts, mc: np.ndarray, mr: np.ndarray, idf: np.ndarray
    ) -> np.ndarray:
        """Per pair: the candidate's TF-IDF cosine with each reference,
        summed in reference order.

        A gram's document frequency ``d`` counts the pairs whose references
        hold it, and its IDF is ``idf[d]``; a gram no reference holds takes
        d = 1. Each norm and dot product adds its terms in the order of the
        grams' first occurrence, as a loop over the candidate's, then the
        reference's, grams would.
        """
        # a reference entry opens a document of its gram unless the entry
        # before it belongs to a reference of the same pair
        ref = texts.slot[self.text] > 0
        opens = ref.copy()
        opens[1:] &= ~(ref[:-1] & (self.gram[1:] == self.gram[:-1])
                       & (self.pair[1:] == self.pair[:-1]))
        del ref
        df = np.bincount(self.gram[opens], minlength=self.n_grams)
        del opens
        idf_of = idf[np.maximum(df[self.gram], 1)]
        del df
        w = self.count * idf_of
        squares = _ordered_sums(
            self.text[self.by_place], (w * w)[self.by_place], texts.count)
        dots = _ordered_sums(
            self.text[mr], w[mc] * (self.count[mr] * idf_of[mc]), texts.count)
        rt = texts.refs
        rp = texts.pair[rt]
        denom = np.sqrt(squares[texts.cand[rp]] * squares[rt])
        cos = np.zeros(len(rt))
        np.divide(dots[rt], denom, out=cos, where=denom > 0.0)
        return _ordered_sums(rp, cos, len(texts.n_refs))


@dataclass(frozen=True)
class _Totals:
    """Corpus totals of every metric; ``cider`` is None when CIDEr's IDF
    degenerates (fewer than two documents)."""

    size: int
    bleu: list[int]  # [cand_len, ref_len, m1, t1, m2, t2, ...]
    rouge: float
    hits: int
    cider: float | None

    def scores(self) -> dict[str, float | None]:
        out: dict[str, float | None] = {
            f"BLEU{n}": _bleu_from_stats(self.bleu, n) for n in range(1, 5)
        }
        out["CIDEr"] = None if self.cider is None else 100.0 * self.cider / self.size
        out["ROUGE_L"] = 100.0 * self.rouge / self.size
        out["ACC"] = 100.0 * self.hits / self.size
        return out


def _score(pairs: Sequence[EvalPair], max_n: int = 4) -> _Totals:
    """Every metric from one pass over the pairs and one columnar pass per
    n-gram order.

    The pass over the pairs tokenizes each text once, scores ROUGE-L, the
    exact match and the BLEU lengths, and keeps only int32 token ids. Each
    order's n-grams are then counted once per text, and the same counts
    feed BLEU clipping and CIDEr.
    """
    b2 = ROUGE_BETA * ROUGE_BETA
    vocab = _TokenIds()
    token_ids, lengths = array("i"), array("i")
    n_refs = np.empty(len(pairs), np.int64)
    rouge, hits, cand_len, ref_len = 0.0, 0, 0, 0
    for i, p in enumerate(pairs):
        cand = tokenize(p.candidate)
        refs = [tokenize(r) for r in p.references]
        rouge += _rouge_pair(cand, refs, b2)
        hits += _match_any_reference(p)
        c_len = len(cand)
        cand_len += c_len
        ref_len += min((len(r) for r in refs), key=lambda rl: (abs(rl - c_len), rl))
        n_refs[i] = len(refs)
        for tokens in (cand, *refs):
            token_ids.extend(map(vocab.__getitem__, tokens))
            lengths.append(len(tokens))
    texts = _Texts(token_ids, lengths, n_refs)

    size = len(pairs)
    # IDF by document frequency, log(N / d) for d in 0..N; CIDEr's IDF
    # degenerates below two documents
    idf = (np.array([0.0] + [math.log(size / d) for d in range(1, size + 1)])
           if size >= 2 else None)
    bleu = [cand_len, ref_len]  # then matches and totals per order
    per_n = np.zeros(size)  # per pair: CIDEr summed over orders
    grams = None
    for n in range(1, max_n + 1):
        grams = _Grams(texts, n, grams)
        mc, mr = grams.matches(texts)
        bleu += (int(grams.clipped(texts, mc, mr).sum()),
                 int(np.maximum(texts.cand_len - (n - 1), 0).sum()))
        if idf is not None:
            per_n += grams.cosines(texts, mc, mr, idf) / n_refs

    cider = None if idf is None else _ordered_sum((per_n / max_n).tolist())
    return _Totals(size, bleu, rouge, hits, cider)


def bleu(pairs: Sequence[EvalPair], max_n: int = 4) -> float:
    """Corpus BLEU-``max_n``."""
    if not pairs:
        raise ValueError("BLEU needs at least one pair")
    if not 1 <= max_n <= 4:
        raise ValueError("max_n must be in 1..4")
    stats = _score(pairs, max_n).bleu
    return _bleu_from_stats(stats, max_n)


def bleu_all(pairs: Sequence[EvalPair]) -> dict[str, float]:
    """BLEU-1 through BLEU-4 from one pass over the corpus."""
    if not pairs:
        raise ValueError("BLEU needs at least one pair")
    stats = _score(pairs).bleu
    return {f"BLEU{n}": _bleu_from_stats(stats, n) for n in range(1, 5)}


def rouge_l(pairs: Sequence[EvalPair]) -> float:
    """Mean best-reference LCS F-measure, recall-weighted by
    ``ROUGE_BETA``^2."""
    if not pairs:
        raise ValueError("ROUGE-L needs at least one pair")
    return 100.0 * _score(pairs).rouge / len(pairs)


_CIDER_TOO_SMALL = (
    "CIDEr needs at least 2 evaluation pairs; document frequencies "
    "degenerate on a single reference document"
)


def cider(pairs: Sequence[EvalPair], max_n: int = CIDER_MAX_N) -> float:
    """Plain CIDEr; the reported value is 100x the raw mean cosine."""
    if len(pairs) < 2:
        raise ValueError(_CIDER_TOO_SMALL)
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    return 100.0 * _score(pairs, max_n).cider / len(pairs)


def _default_normalizer(text: str) -> str:
    return text.strip().lower()


def _match_any_reference(pair: EvalPair) -> bool:
    cand = _default_normalizer(pair.candidate)
    return any(cand == _default_normalizer(r) for r in pair.references)


def compute_caption_report(pairs: Sequence[EvalPair]) -> MetricReport:
    """Full caption-style report: BLEU1-4, CIDEr, ROUGE_L, exact-match ACC.

    CIDEr is reported as None when the corpus is too small for IDF.
    """
    if not pairs:
        raise ValueError("cannot evaluate an empty corpus")
    corpus = _score(pairs)
    metadata: dict[str, object] = {
        "bleu_smoothing_eps": BLEU_SMOOTHING_EPS,
        "rouge_beta": ROUGE_BETA,
        "cider_scale": "100x raw mean TF-IDF cosine",
    }
    if corpus.cider is None:
        metadata["cider_note"] = _CIDER_TOO_SMALL
    return MetricReport(
        scores=corpus.scores(), pair_count=len(pairs), metadata=metadata
    )
