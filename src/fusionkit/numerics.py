"""Matrix kernels: matmul, a two-layer MLP, a stacked cross-attention
block (row softmax inside), cosine similarity, and a central-difference
gradient oracle.

Everything is computed in float64. Reductions accumulate in ascending
index order, so any result is bit-for-bit identical to a naive loop
evaluation of the same formula and reproducible across platforms.

Every product goes through one kernel, ``_mm``. Its one invariant: each
output element is ``acc = +0.0`` followed by ``acc = acc + a[i, k] * b[k, j]``
for k ascending, with the multiply and the add rounded separately. Within
that, the kernel is cache-blocked in the manner of Goto & van de Geijn
(ACM TOMS 2008): the output is cut into row panels that stay in L2, and
each chunk of k is multiplied into a panel-sized scratch buffer by one
``np.einsum("ki,kj->kij")``. That einsum sums over no index, so each of
its elements is one rounded product; the sums stay separate ``np.add``
calls into the panel, one k at a time in ascending order. The kernel runs
on the calling thread and starts none; parallel work is split above it,
between the independent sources of ``interactor.fuse``.

Cross-attention projects each source's keys and values once for all
layers: one product against every layer's key weights side by side, one
against every value weight. Each layer reads its own columns, which are
the bits of a per-layer product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matrix import Matrix, ShapeError

__all__ = [
    "MlpParams",
    "CrossAttnLayer",
    "CrossAttnParams",
    "matmul",
    "mlp_forward",
    "mlp_input_grad",
    "cross_attention",
    "cross_attention_input_grad",
    "finite_diff_grad",
    "cosine_similarity_matrix",
]


# Output elements per row panel: the running sums (256 KB) stay in L2.
_PANEL = 32768
# k values multiplied per numpy call into a (kc, rows, cols) scratch buffer.
_KC = 4


def _mm_panel(at: np.ndarray, b: np.ndarray, out: np.ndarray,
              r0: int, r1: int) -> None:
    # Accumulates rows r0:r1 of at.T @ b into out; at is (k, m) and b is
    # (k, n), both C-contiguous.
    panel = out[r0:r1]
    prods = np.empty((_KC,) + panel.shape)
    for k0 in range(0, at.shape[0], _KC):
        chunk = prods[: min(_KC, at.shape[0] - k0)]
        # no index is summed, so each element is one rounded product (a
        # -0.0 may come back as +0.0, which no sum seeded with +0.0 sees)
        np.einsum("ki,kj->kij", at[k0:k0 + _KC, r0:r1], b[k0:k0 + _KC],
                  out=chunk)
        for prod in chunk:
            np.add(panel, prod, out=panel)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Per output element this is exactly the op sequence of the naive loop
    # `acc = 0.0; acc += a[i][k] * b[k][j]` for k ascending, so results
    # match such an oracle bitwise; panels only split the independent
    # output elements between numpy calls.
    m, k = a.shape
    n = b.shape[1]
    if m > n:
        # run numpy's inner loop along the longer side: x*y == y*x bitwise
        return np.ascontiguousarray(_mm(b.T, a.T).T)
    at = np.ascontiguousarray(a.T)
    b = np.ascontiguousarray(b)
    out = np.zeros((m, n))
    panels = max(1, min(m, -(-m * n // _PANEL)))
    cuts = [m * i // panels for i in range(panels + 1)]
    for r0, r1 in zip(cuts, cuts[1:]):
        _mm_panel(at, b, out, r0, r1)
    return out


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    # per-row max subtraction keeps exp finite for entries up to about 700;
    # one buffer, and x itself is left as it was
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b with a fixed (ascending-k) summation order."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    return Matrix(_mm(a.data, b.data))


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


def _project_kv(k: np.ndarray, v: np.ndarray, p: CrossAttnParams):
    # (k Wk, v Wv) per layer from one product each against all layers'
    # weights side by side; a column's bits depend on its own weight column
    d = p.d
    kp = _mm(k, np.concatenate([layer.wk.data for layer in p.layers], axis=1))
    vp = _mm(v, np.concatenate([layer.wv.data for layer in p.layers], axis=1))
    return [(kp[:, i * d:(i + 1) * d], vp[:, i * d:(i + 1) * d])
            for i in range(p.num_layers)]


def _attn_layer_forward(q: np.ndarray, kp: np.ndarray, vp: np.ndarray,
                        layer: CrossAttnLayer, p: CrossAttnParams):
    d = layer.d
    hd = d // p.num_heads
    scale = math.sqrt(hd)
    qp = _mm(q, layer.wq.data)
    mixed = np.zeros((q.shape[0], d))
    probs = []
    for h in range(p.num_heads):
        sl = slice(h * hd, (h + 1) * hd)
        logits = _mm(qp[:, sl], kp[:, sl].T)
        logits /= scale
        attn = _softmax_rows(logits)
        mixed[:, sl] = _mm(attn, vp[:, sl])
        probs.append(attn)
    return _mm(mixed, layer.wo.data), (q, kp, vp, probs)


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
    for layer, (kp, vp) in zip(p.layers, _project_kv(k.data, v.data, p)):
        out, _ = _attn_layer_forward(out, kp, vp, layer, p)
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
    for layer, (kp, vp) in zip(p.layers, _project_kv(k.data, v.data, p)):
        out, cache = _attn_layer_forward(out, kp, vp, layer, p)
        caches.append(cache)

    g = upstream.data
    for layer, cache in zip(reversed(p.layers), reversed(caches)):
        q_in, kp, vp, probs = cache
        d_mixed = _mm(g, layer.wo.data.T)
        d_qp = np.zeros((q_in.shape[0], layer.wq.data.shape[1]))
        for h, attn in enumerate(probs):
            sl = slice(h * hd, (h + 1) * hd)
            d_attn = _mm(d_mixed[:, sl], vp[:, sl].T)
            d_logits = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True))
            d_qp[:, sl] = _mm(d_logits, kp[:, sl]) / scale
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
    ns_x = np.zeros(x.shape[0])
    ns_y = np.zeros(y.shape[0])
    for kk in range(x.shape[1]):
        ns_x += x[:, kk] * x[:, kk]
        ns_y += y[:, kk] * y[:, kk]
    denom = np.sqrt(ns_x[:, np.newaxis] * ns_y)
    safe = np.where(denom > 0.0, denom, 1.0)
    return Matrix(np.where(denom > 0.0, dots / safe, 0.0))
