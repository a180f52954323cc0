"""Matrix kernels: matmul, row softmax, a two-layer MLP, a stacked
cross-attention block, cosine similarity, and a central-difference
gradient oracle.

Everything is computed in float64. Reductions accumulate in ascending
index order, so any result is bit-for-bit identical to a naive loop
evaluation of the same formula and reproducible across platforms. The
price is a Python-level loop over the contraction dimension; for the
token counts this package works at (a few thousand) that is well inside
interactive budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .matrix import Matrix, ShapeError

__all__ = [
    "MlpParams",
    "CrossAttnLayer",
    "CrossAttnParams",
    "matmul",
    "softmax_rows",
    "mlp_forward",
    "mlp_input_grad",
    "cross_attention",
    "cross_attention_input_grad",
    "finite_diff_grad",
    "cosine_similarity_matrix",
]


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Accumulate over k in ascending order: per output element this is the
    # exact op sequence of `acc += a[i][k] * b[k][j]` that a naive triple
    # loop produces, so results match such an oracle bitwise.
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for kk in range(k):
        out += a[:, kk, np.newaxis] * b[kk]
    return out


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b with a fixed (ascending-k) summation order."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    return Matrix(_mm(a.data, b.data))


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with per-row max subtraction for stability.

    Each output row is nonnegative and sums to 1 within 1e-12 for inputs
    with entries of magnitude up to about 700.
    """
    return Matrix(_softmax_rows(m.data))


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
    def d_hidden(self) -> int:
        return self.w1.cols

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


def mlp_forward(x: Matrix, p: MlpParams) -> Matrix:
    """Row-wise two-layer MLP with ReLU: ``relu(x W1 + b1) W2 + b2``."""
    if x.cols != p.d_in:
        raise ShapeError(f"mlp_forward: input width {x.cols} != d_in {p.d_in}")
    hidden = np.maximum(_mm(x.data, p.w1.data) + p.b1, 0.0)
    return Matrix(_mm(hidden, p.w2.data) + p.b2)


def mlp_input_grad(x: Matrix, p: MlpParams, upstream: Matrix) -> Matrix:
    """Gradient of ``sum(upstream * mlp_forward(x, p))`` w.r.t. ``x``.

    The ReLU subgradient at exactly zero is taken as zero.
    """
    if upstream.shape != (x.rows, p.d_out):
        raise ShapeError("mlp_input_grad: upstream shape mismatch")
    pre = _mm(x.data, p.w1.data) + p.b1
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
    fixed to the original inputs for every layer. Residual connections and
    layer normalization are off by default and can be switched on.
    """

    layers: tuple[CrossAttnLayer, ...]
    num_heads: int = 1
    use_residual: bool = False
    use_layer_norm: bool = False
    layer_norm_eps: float = 1e-5

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


def _layer_norm_forward(z: np.ndarray, eps: float):
    mu = z.mean(axis=1, keepdims=True)
    var = ((z - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (z - mu) * inv
    return y, (y, inv)


def _layer_norm_backward(g: np.ndarray, cache) -> np.ndarray:
    y, inv = cache
    g_mean = g.mean(axis=1, keepdims=True)
    gy_mean = (g * y).mean(axis=1, keepdims=True)
    return inv * (g - g_mean - y * gy_mean)


def _attn_layer_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                        layer: CrossAttnLayer, p: CrossAttnParams):
    d = layer.d
    hd = d // p.num_heads
    scale = math.sqrt(hd)
    qp = _mm(q, layer.wq.data)
    kp = _mm(k, layer.wk.data)
    vp = _mm(v, layer.wv.data)
    mixed = np.zeros((q.shape[0], d))
    probs = []
    for h in range(p.num_heads):
        sl = slice(h * hd, (h + 1) * hd)
        logits = _mm(qp[:, sl], kp[:, sl].T) / scale
        attn = _softmax_rows(logits)
        mixed[:, sl] = _mm(attn, vp[:, sl])
        probs.append(attn)
    out = _mm(mixed, layer.wo.data)
    if p.use_residual:
        out = out + q
    ln_cache = None
    if p.use_layer_norm:
        out, ln_cache = _layer_norm_forward(out, p.layer_norm_eps)
    cache = (q, kp, vp, probs, ln_cache)
    return out, cache


def cross_attention(q: Matrix, k: Matrix, v: Matrix, p: CrossAttnParams) -> Matrix:
    """Stacked scaled-dot-product cross-attention.

    One layer computes ``softmax((q Wq)(k Wk)^T / sqrt(d/num_heads)) (v Wv) Wo``
    per head (heads are contiguous column blocks, re-mixed by Wo). With
    multiple layers the previous output becomes the next query while keys
    and values remain the original ``k``/``v``.
    """
    if not (q.cols == k.cols == v.cols == p.d):
        raise ShapeError(
            f"cross_attention: widths q={q.cols} k={k.cols} v={v.cols} params={p.d}"
        )
    if k.rows != v.rows:
        raise ShapeError("cross_attention: k and v must agree on row count")
    out = q.data
    for layer in p.layers:
        out, _ = _attn_layer_forward(out, k.data, v.data, layer, p)
    return Matrix(out)


def cross_attention_input_grad(
    q: Matrix, k: Matrix, v: Matrix, p: CrossAttnParams, upstream: Matrix
) -> Matrix:
    """Gradient of ``sum(upstream * cross_attention(q, k, v, p))`` w.r.t. ``q``.

    Keys and values are treated as constants, matching how the selection
    pipeline perturbs only the query-side tokens.
    """
    if upstream.shape != (q.rows, p.d):
        raise ShapeError("cross_attention_input_grad: upstream shape mismatch")
    d = p.d
    hd = d // p.num_heads
    scale = math.sqrt(hd)

    caches = []
    out = q.data
    for layer in p.layers:
        out, cache = _attn_layer_forward(out, k.data, v.data, layer, p)
        caches.append(cache)

    g = upstream.data
    for layer, cache in zip(reversed(p.layers), reversed(caches)):
        q_in, kp, vp, probs, ln_cache = cache
        if p.use_layer_norm:
            g = _layer_norm_backward(g, ln_cache)
        g_residual = g if p.use_residual else None
        d_mixed = _mm(g, layer.wo.data.T)
        d_qp = np.zeros((q_in.shape[0], layer.wq.data.shape[1]))
        for h, attn in enumerate(probs):
            sl = slice(h * hd, (h + 1) * hd)
            d_attn = _mm(d_mixed[:, sl], vp[:, sl].T)
            d_logits = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True))
            d_qp[:, sl] = _mm(d_logits, kp[:, sl]) / scale
        g = _mm(d_qp, layer.wq.data.T)
        if g_residual is not None:
            g = g + g_residual
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
    ns_x = np.zeros(x.shape[0])
    ns_y = np.zeros(y.shape[0])
    for kk in range(x.shape[1]):
        ns_x += x[:, kk] * x[:, kk]
        ns_y += y[:, kk] * y[:, kk]
    denom = np.sqrt(ns_x[:, np.newaxis] * ns_y)
    safe = np.where(denom > 0.0, denom, 1.0)
    return Matrix(np.where(denom > 0.0, dots / safe, 0.0))
