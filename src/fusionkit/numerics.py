"""Matrix operations: a two-layer MLP, a stacked cross-attention block
(row softmax inside), cosine similarity, and a central-difference
gradient oracle.

Everything is computed in float64, and every product goes through
``exact._mm`` on the calling thread; parallel work is split above it,
between the independent sources of ``interactor.fuse``.

Cross-attention projects one layer's keys and values at a time and lets
them go before the next layer's are made. The keys come out transposed,
as ``Wk^T k^T``, whose elements are the products of ``(k Wk)^T`` in the
same ascending order, so each head's keys are contiguous rows.

Memory: each head's logits, row softmax and mix with the values run over
blocks of query rows, ``max(1, _LOGITS_BUDGET // keys)`` rows at a time,
and one block is live at once (Rabe & Staats, "Self-attention Does Not
Need O(n^2) Memory", 2021). Every step is row-local, so the bits do not
depend on the block size. The forward keeps no per-layer cache (only the
gradient collects the probabilities it backpropagates through), and the
row softmax overwrites its logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exact import _mm, _softmax_rows, _squared_norms
from .matrix import Matrix, ShapeError

# Logits elements per query-row block (3 MiB of float64): 157 rows at 2500
# keys, so the paper's 300 BEV queries take two blocks. Each block repeats
# _mm's loop over the keys for its mix with the values; on a 2-vCPU AVX-512
# Xeon, three 2 MiB blocks made that forward about 9% slower than one
# block, two of 3 MiB about 2%.
_LOGITS_BUDGET = 3 << 17

__all__ = [
    "MlpParams",
    "CrossAttnLayer",
    "CrossAttnParams",
    "mlp_forward",
    "mlp_input_grad",
    "cross_attention",
    "cross_attention_input_grad",
    "finite_diff_grad",
    "cosine_similarity_matrix",
]


def _frozen_vector(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ShapeError(f"{what} must be a non-empty 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MlpParams:
    """Weights of the two-layer ReLU MLP ``relu(x W1 + b1) W2 + b2``."""

    w1: Matrix
    b1: np.ndarray
    w2: Matrix
    b2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "b1", _frozen_vector(self.b1, "b1"))
        object.__setattr__(self, "b2", _frozen_vector(self.b2, "b2"))
        if self.w1.cols != self.b1.shape[0]:
            raise ShapeError("b1 length must equal w1 output width")
        if self.w1.cols != self.w2.rows:
            raise ShapeError("w2 input height must equal w1 output width")
        if self.w2.cols != self.b2.shape[0]:
            raise ShapeError("b2 length must equal w2 output width")

    @property
    def d_in(self) -> int:
        return self.w1.rows

    @property
    def d_out(self) -> int:
        return self.w2.cols

    @classmethod
    def identity(cls, d: int) -> "MlpParams":
        eye = Matrix.identity(d)
        zero = np.zeros(d)
        return cls(eye, zero, eye, zero)

    @classmethod
    def random(
        cls, d_in: int, d_hidden: int, d_out: int, rng: np.random.Generator
    ) -> "MlpParams":
        s1 = 1.0 / math.sqrt(d_in)
        s2 = 1.0 / math.sqrt(d_hidden)
        return cls(
            Matrix(rng.standard_normal((d_in, d_hidden)) * s1),
            rng.standard_normal(d_hidden) * 0.1,
            Matrix(rng.standard_normal((d_hidden, d_out)) * s2),
            rng.standard_normal(d_out) * 0.1,
        )


def _mlp(x: Matrix, p: MlpParams, who: str) -> tuple[np.ndarray, np.ndarray]:
    # the checked forward: ``x W1 + b1`` and the output
    if x.cols != p.d_in:
        raise ShapeError(f"{who}: input width {x.cols} != d_in {p.d_in}")
    pre = _mm(x.data, p.w1.data) + p.b1
    return pre, _mm(np.maximum(pre, 0.0), p.w2.data) + p.b2


def mlp_forward(x: Matrix, p: MlpParams) -> Matrix:
    """Row-wise two-layer MLP with ReLU: ``relu(x W1 + b1) W2 + b2``."""
    return Matrix(_mlp(x, p, "mlp_forward")[1])


def mlp_input_grad(x: Matrix, p: MlpParams, upstream: Matrix) -> Matrix:
    """Gradient of ``sum(upstream * mlp_forward(x, p))`` w.r.t. ``x``.

    The ReLU subgradient at exactly zero is taken as zero.
    """
    if upstream.shape != (x.rows, p.d_out):
        raise ShapeError("mlp_input_grad: upstream shape mismatch")
    pre, _ = _mlp(x, p, "mlp_input_grad")
    d_hidden = _mm(upstream.data, p.w2.data.T) * (pre > 0.0)
    return Matrix(_mm(d_hidden, p.w1.data.T))


@dataclass(frozen=True, eq=False)
class CrossAttnLayer:
    """Projection weights of one cross-attention layer (all d x d)."""

    wq: Matrix
    wk: Matrix
    wv: Matrix
    wo: Matrix

    def __post_init__(self) -> None:
        d = self.wq.rows
        for name in ("wq", "wk", "wv", "wo"):
            w: Matrix = getattr(self, name)
            if w.shape != (d, d):
                raise ShapeError(f"{name} must be {d}x{d}, got {w.shape}")

    @property
    def d(self) -> int:
        return self.wq.rows


@dataclass(frozen=True, eq=False)
class CrossAttnParams:
    """A stack of cross-attention layers applied query-chained.

    Layer i+1 consumes layer i's output as its query; keys and values stay
    fixed to the original inputs for every layer.
    """

    layers: tuple[CrossAttnLayer, ...]
    num_heads: int = 1

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ShapeError("cross-attention needs at least one layer")
        d = layers[0].d
        if any(layer.d != d for layer in layers):
            raise ShapeError("all layers must share the same width")
        if self.num_heads < 1 or d % self.num_heads != 0:
            raise ShapeError(
                f"width {d} must be divisible by num_heads {self.num_heads}"
            )

    @property
    def d(self) -> int:
        return self.layers[0].d

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @classmethod
    def identity(cls, d: int, num_layers: int = 2, num_heads: int = 1) -> "CrossAttnParams":
        eye = Matrix.identity(d)
        layer = CrossAttnLayer(eye, eye, eye, eye)
        return cls(tuple(layer for _ in range(num_layers)), num_heads=num_heads)

    @classmethod
    def random(
        cls,
        d: int,
        num_layers: int = 2,
        num_heads: int = 1,
        rng: np.random.Generator | None = None,
    ) -> "CrossAttnParams":
        rng = rng if rng is not None else np.random.default_rng(0)
        scale = 1.0 / math.sqrt(d)
        def w() -> Matrix:
            return Matrix(rng.standard_normal((d, d)) * scale)
        layers = tuple(
            CrossAttnLayer(w(), w(), w(), w()) for _ in range(num_layers)
        )
        return cls(layers, num_heads=num_heads)


def _project_kv(k: np.ndarray, v: np.ndarray, layer: CrossAttnLayer):
    # one layer's (keys transposed, values): Wk^T k^T holds the bits of
    # (k Wk)^T, each element the same products in the same ascending order
    return _mm(layer.wk.data.T, k.T), _mm(v, layer.wv.data)


def _row_blocks(rows: int, keys: int) -> list[slice]:
    # the query-row blocks whose logits fit in _LOGITS_BUDGET
    step = max(1, _LOGITS_BUDGET // keys)
    return [slice(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def _attn_layer_forward(q: np.ndarray, kt: np.ndarray, vp: np.ndarray,
                        layer: CrossAttnLayer, p: CrossAttnParams,
                        probs: list | None) -> np.ndarray:
    # one layer's output; each block's (head columns, rows, probabilities)
    # goes to probs when given
    d = layer.d
    hd = d // p.num_heads
    scale = math.sqrt(hd)
    qp = _mm(q, layer.wq.data)
    mixed = np.zeros((q.shape[0], d))
    blocks = _row_blocks(q.shape[0], kt.shape[1])
    for h in range(p.num_heads):
        sl = slice(h * hd, (h + 1) * hd)
        # this head's values made contiguous once, not by _mm per block
        vh = np.ascontiguousarray(vp[:, sl])
        for rows in blocks:
            attn = _mm(qp[rows, sl], kt[sl])
            attn /= scale
            _softmax_rows(attn)
            mixed[rows, sl] = _mm(attn, vh)
            if probs is not None:
                probs.append((sl, rows, attn))
            # let this block go before the next one is made
            del attn
    return _mm(mixed, layer.wo.data)


def _cross_attention(q: Matrix, k: Matrix, v: Matrix, p: CrossAttnParams,
                     who: str, caches: list | None = None) -> np.ndarray:
    # the checked forward; given a list, caches collects each layer's
    # (query, transposed keys, values, per-block probabilities) for the
    # backward pass
    if not (q.cols == k.cols == v.cols == p.d):
        raise ShapeError(
            f"{who}: widths q={q.cols} k={k.cols} v={v.cols} params={p.d}"
        )
    if k.rows != v.rows:
        raise ShapeError(f"{who}: k and v must agree on row count")
    out = q.data
    for layer in p.layers:
        kt, vp = _project_kv(k.data, v.data, layer)
        probs = None
        if caches is not None:
            probs = []
            caches.append((out, kt, vp, probs))
        out = _attn_layer_forward(out, kt, vp, layer, p, probs)
        # let this layer's keys and values go before the next layer's are made
        del kt, vp
    return out


def cross_attention(q: Matrix, k: Matrix, v: Matrix, p: CrossAttnParams) -> Matrix:
    """Stacked scaled-dot-product cross-attention.

    One layer computes ``softmax((q Wq)(k Wk)^T / sqrt(d/num_heads)) (v Wv) Wo``
    per head (heads are contiguous column blocks, re-mixed by Wo). With
    multiple layers the previous output becomes the next query while keys
    and values remain the original ``k``/``v``.
    """
    return Matrix(_cross_attention(q, k, v, p, "cross_attention"))


def cross_attention_input_grad(
    q: Matrix, k: Matrix, v: Matrix, p: CrossAttnParams, upstream: Matrix
) -> Matrix:
    """Gradient of ``sum(upstream * cross_attention(q, k, v, p))`` w.r.t. ``q``.

    Keys and values are treated as constants, matching how the selection
    pipeline perturbs only the query-side tokens.
    """
    if upstream.shape != (q.rows, p.d):
        raise ShapeError("cross_attention_input_grad: upstream shape mismatch")
    scale = math.sqrt(p.d // p.num_heads)
    caches: list = []
    _cross_attention(q, k, v, p, "cross_attention_input_grad", caches)

    g = upstream.data
    for layer, cache in zip(reversed(p.layers), reversed(caches)):
        q_in, kt, vp, probs = cache
        d_mixed = _mm(g, layer.wo.data.T)
        d_qp = np.zeros((q_in.shape[0], layer.wq.data.shape[1]))
        for sl, rows, attn in probs:
            d_attn = _mm(d_mixed[rows, sl], vp[:, sl].T)
            d_logits = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True))
            d_qp[rows, sl] = _mm(d_logits, kt[sl].T) / scale
        g = _mm(d_qp, layer.wq.data.T)
    return Matrix(g)


def finite_diff_grad(
    f: Callable[[Matrix], float], x: Matrix, eps: float = 1e-6
) -> Matrix:
    """Central-difference gradient of a scalar function of a matrix."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    base = x.data
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            up = base.copy()
            up[i, j] += eps
            down = base.copy()
            down[i, j] -= eps
            grad[i, j] = (f(Matrix(up)) - f(Matrix(down))) / (2.0 * eps)
    return Matrix(grad)


def cosine_similarity_matrix(a: Matrix, b: Matrix) -> Matrix:
    """All-pairs cosine similarity between the rows of ``a`` and ``b``.

    Rows with zero norm define similarity 0 rather than NaN. The shared
    denominator ``sqrt(|a_i|^2 |b_j|^2)`` makes a row compared with itself
    come out exactly 1.0.
    """
    if a.cols != b.cols:
        raise ShapeError("cosine similarity needs equal row widths")
    x, y = a.data, b.data
    dots = _mm(x, y.T)
    denom = np.sqrt(_squared_norms(x)[:, np.newaxis] * _squared_norms(y))
    safe = np.where(denom > 0.0, denom, 1.0)
    return Matrix(np.where(denom > 0.0, dots / safe, 0.0))
