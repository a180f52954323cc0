"""Instruction-guided token selection and fusion.

The pipeline scores every visual token against the instruction embedding
by cosine similarity, keeps the top-k tokens per source, lets the kept
tokens cross-attend into their full source sequence, and concatenates
the per-view results followed by the bird's-eye-view result into one
fused sequence.

Determinism: scoring, selection and attention are pure functions of
their inputs; ties in selection break toward the lower original index.
``fuse`` may compute some sources in forked child processes; each source
runs the same code there, so the fused bits do not depend on the split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .forking import run_pieces
from .jsontypes import check_fields
from .matrix import Matrix, ShapeError
from .numerics import CrossAttnParams, cosine_similarity_matrix, cross_attention

DEFAULT_VIEW_NAMES = (
    "front",
    "front_left",
    "front_right",
    "back",
    "back_left",
    "back_right",
)

REDUCTIONS = ("max", "mean")


@dataclass(frozen=True, eq=False)
class InstructionEmbedding:
    """Instruction token embeddings, one row per instruction token."""

    tokens: Matrix

    @property
    def d(self) -> int:
        return self.tokens.cols


@dataclass(frozen=True, eq=False)
class ViewFeatureSet:
    """Per-camera-view token matrices sharing one feature width.

    ``view_names`` defaults to the canonical six-camera vocabulary,
    truncated to the number of views supplied.
    """

    views: tuple[Matrix, ...]
    view_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        views = tuple(self.views)
        if not views:
            raise ShapeError("a feature set needs at least one view")
        if self.view_names is None:
            if len(views) > len(DEFAULT_VIEW_NAMES):
                raise ShapeError(
                    f"{len(views)} views exceed the default name vocabulary; "
                    "pass view_names explicitly"
                )
            names = DEFAULT_VIEW_NAMES[: len(views)]
        else:
            names = tuple(self.view_names)
        if len(names) != len(views):
            raise ShapeError("view_names length must match the number of views")
        if len(set(names)) != len(names):
            raise ShapeError("view names must be unique")
        d = views[0].cols
        if any(v.cols != d for v in views):
            raise ShapeError("all views must share one feature width")
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "view_names", names)

    @property
    def d(self) -> int:
        return self.views[0].cols

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def token_counts(self) -> tuple[int, ...]:
        return tuple(v.rows for v in self.views)


@dataclass(frozen=True, eq=False)
class BevFeatureMap:
    """Bird's-eye-view tokens; grid_shape documents the h x w flattening."""

    tokens: Matrix
    grid_shape: tuple[int, int]

    def __post_init__(self) -> None:
        h, w = self.grid_shape
        if h < 1 or w < 1:
            raise ShapeError("grid_shape must be positive")
        if h * w != self.tokens.rows:
            raise ShapeError(
                f"grid {h}x{w} does not flatten to {self.tokens.rows} tokens"
            )

    @property
    def d(self) -> int:
        return self.tokens.cols


@dataclass(frozen=True)
class SelectionConfig:
    """Selection knobs: per-image and BEV keep counts, score reduction."""

    k_img: int = 90
    k_bev: int = 300
    reduction: str = "max"

    def __post_init__(self) -> None:
        check_fields(self)
        if self.k_img < 1 or self.k_bev < 1:
            raise ValueError("keep counts must be at least 1")
        if self.reduction not in REDUCTIONS:
            raise ValueError(f"reduction must be one of {REDUCTIONS}")


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Tokens kept for one source, ordered by descending relevance."""

    indices: tuple[int, ...]
    features: Matrix
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("selected indices must be unique")
        if not (len(self.indices) == self.features.rows == len(self.scores)):
            raise ShapeError("indices, features and scores must align")


@dataclass(frozen=True)
class TokenProvenance:
    source: str
    index: int


@dataclass(frozen=True, eq=False)
class FusedTokenSequence:
    tokens: Matrix
    provenance: tuple[TokenProvenance, ...]

    def __post_init__(self) -> None:
        if len(self.provenance) != self.tokens.rows:
            raise ShapeError("provenance must tag every fused token")


@dataclass(frozen=True)
class BudgetReport:
    """Fused-versus-raw token accounting for one input configuration."""

    per_view_selected: tuple[int, ...]
    bev_selected: int
    fused_length: int
    raw_length: int

    @property
    def ratio(self) -> float:
        return self.fused_length / self.raw_length

    def to_dict(self) -> dict:
        return {
            "per_view_selected": list(self.per_view_selected),
            "bev_selected": self.bev_selected,
            "fused_length": self.fused_length,
            "raw_length": self.raw_length,
            "ratio": self.ratio,
        }


def score_tokens(
    features: Matrix, inst: InstructionEmbedding, reduction: str = "max"
) -> np.ndarray:
    """Per-token relevance: cosine against every instruction token, reduced.

    Returns a vector of ``features.rows`` scores in [-1, 1].
    """
    if reduction not in REDUCTIONS:
        raise ValueError(f"reduction must be one of {REDUCTIONS}")
    sims = cosine_similarity_matrix(features, inst.tokens).data
    if reduction == "max":
        return sims.max(axis=1)
    return sims.mean(axis=1)


def select_topk(features: Matrix, scores: Sequence[float], k: int) -> SelectionResult:
    """Keep the ``min(k, N)`` best-scored tokens.

    Output order is descending score; equal scores order by ascending
    original index. With fewer than k tokens everything is kept
    (saturation), never an error.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    vec = np.asarray(scores, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != features.rows:
        raise ShapeError("scores must be one value per feature row")
    if not np.isfinite(vec).all():
        raise ValueError("scores must be finite")
    order = np.lexsort((np.arange(vec.shape[0]), -vec))
    keep = order[: min(k, features.rows)]
    return SelectionResult(
        indices=tuple(keep.tolist()),
        features=Matrix(features.data[keep]),
        scores=tuple(vec[keep].tolist()),
    )


def interact(selected: Matrix, full: Matrix, p: CrossAttnParams) -> Matrix:
    """Selected tokens attend into the full source sequence (keys = values)."""
    return cross_attention(selected, full, full, p)


def _source_macs(rows: int, k: int, inst_rows: int, p: CrossAttnParams) -> int:
    # Multiply-adds of one source, from its shapes: the cosine scores, the
    # key and value projections for all layers, then per layer the query
    # and output projections and the two attention products.
    d, kept = p.d, min(k, rows)
    return (rows * d * inst_rows + 2 * rows * d * d * p.num_layers
            + p.num_layers * (2 * kept * d * d + 2 * kept * rows * d))


def fuse(
    views: ViewFeatureSet,
    bev: BevFeatureMap,
    inst: InstructionEmbedding,
    cfg: SelectionConfig,
    attn_mv: CrossAttnParams,
    attn_bev: CrossAttnParams,
) -> FusedTokenSequence:
    """Select and interact per source, then concatenate views before BEV.

    Every view shares the one per-view parameter set ``attn_mv``; the BEV
    source has its own. Sources are independent, so ``forking.run_pieces``
    may run some in forked children, weighted by their multiply-add counts.
    """
    if views.d != inst.d or bev.d != inst.d:
        raise ShapeError(
            f"feature widths differ: views={views.d} bev={bev.d} inst={inst.d}"
        )
    sources = [(name, view, cfg.k_img, attn_mv)
               for name, view in zip(views.view_names, views.views)]
    sources.append(("bev", bev.tokens, cfg.k_bev, attn_bev))

    def run(i: int) -> tuple[tuple[int, ...], np.ndarray]:
        name, tokens, k, params = sources[i]
        try:
            scores = score_tokens(tokens, inst, cfg.reduction)
            sel = select_topk(tokens, scores, k)
            mixed = interact(sel.features, tokens, params)
        except (ShapeError, ValueError) as err:
            raise type(err)(f"view '{name}': {err}") from err
        return sel.indices, mixed.data

    results = run_pieces(run, [_source_macs(tokens.rows, k, inst.tokens.rows,
                                            params)
                               for _, tokens, k, params in sources])
    return FusedTokenSequence(
        tokens=Matrix(np.concatenate([mixed for _, mixed in results], axis=0)),
        provenance=tuple(TokenProvenance(source[0], j)
                         for source, (indices, _) in zip(sources, results)
                         for j in indices),
    )


def token_budget(
    cfg: SelectionConfig, view_token_counts: Sequence[int], bev_token_count: int
) -> BudgetReport:
    """Predict fused and raw sequence lengths for given token counts."""
    counts = list(view_token_counts)
    if not counts:
        raise ValueError("at least one view token count is required")
    if any(int(c) != c or c < 0 for c in counts):
        raise ValueError("view token counts must be nonnegative integers")
    if int(bev_token_count) != bev_token_count or bev_token_count < 1:
        raise ValueError("the BEV source must contribute at least one token")
    per_view = tuple(min(cfg.k_img, int(c)) for c in counts)
    bev_selected = min(cfg.k_bev, int(bev_token_count))
    fused = sum(per_view) + bev_selected
    raw = sum(int(c) for c in counts) + int(bev_token_count)
    return BudgetReport(
        per_view_selected=per_view,
        bev_selected=bev_selected,
        fused_length=fused,
        raw_length=raw,
    )

