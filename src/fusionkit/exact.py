"""The float arithmetic whose order or library decides output bits.

The invariant: ``_mm``, ``_squared_norms``, ``_ordered_sum`` and
``_ordered_sums`` give each result the bits of the plain loop ``acc = 0.0``
then ``acc += term`` over its terms in ascending order, each ``*`` and
``+`` rounded on its own. Being IEEE-754 basic operations in one fixed
order, those bits are the same on every binary64 machine, numpy SIMD level
and Python version. ``_softmax_rows`` is not portable yet: numpy dispatches
its ``np.exp`` by SIMD level and takes its row ``sum`` pairwise, so the
fused output moves with the CPU (the two strict xfail cells of
tests/test_golden_digests.py) until ROADMAP item 2 replaces both here.
No other module may take float sums, means, products or transcendentals
itself; tests/test_exact.py enforces that and lists known exceptions.

``_mm`` is cache-blocked as in Goto & van de Geijn (ACM TOMS 2008): row
panels of the output stay in L2, and one ``np.einsum("ki,kj->kij")``, which
sums over no index, forms a k-chunk's rounded products into a scratch
buffer; one ``np.add`` per k adds them to the panel. It copies the left
operand one k-chunk of a panel's rows at a time, never whole, and runs on
the calling thread.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

# Output elements per row panel: the running sums (256 KB) stay in L2.
_PANEL = 32768
# k values multiplied per numpy call into a (kc, rows, cols) scratch buffer.
_KC = 4


def _mm_panel(a: np.ndarray, b: np.ndarray, out: np.ndarray,
              r0: int, r1: int) -> None:
    # Accumulates rows r0:r1 of a @ b into out; a is (m, k) in any layout
    # and b is (k, n), C-contiguous.
    panel = out[r0:r1]
    at = np.empty((_KC, r1 - r0))
    prods = np.empty((_KC,) + panel.shape)
    for k0 in range(0, a.shape[1], _KC):
        kc = min(_KC, a.shape[1] - k0)
        # the chunk's columns of a, one row per k: a strided read copied
        # once keeps the einsum on contiguous rows
        np.copyto(at[:kc], a[r0:r1, k0:k0 + kc].T)
        chunk = prods[:kc]
        # no index is summed, so each element is one rounded product (a
        # -0.0 may come back as +0.0, which no sum seeded with +0.0 sees)
        np.einsum("ki,kj->kij", at[:kc], b[k0:k0 + kc], out=chunk)
        for prod in chunk:
            np.add(panel, prod, out=panel)


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a @ b with the invariant's bits; panels only split the independent
    # output elements between numpy calls
    m, n = a.shape[0], b.shape[1]
    b = np.ascontiguousarray(b)
    out = np.zeros((m, n))
    panels = max(1, min(m, -(-m * n // _PANEL)))
    cuts = [m * i // panels for i in range(panels + 1)]
    for r0, r1 in zip(cuts, cuts[1:]):
        _mm_panel(a, b, out, r0, r1)
    return out


def _squared_norms(x: np.ndarray) -> np.ndarray:
    ns = np.zeros(x.shape[0])
    for kk in range(x.shape[1]):
        ns += x[:, kk] * x[:, kk]
    return ns


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    # Normalises each row of x in place and returns x, so the caller's fresh
    # logits buffer becomes the probabilities. The per-row max subtraction
    # keeps exp finite for entries up to about 700.
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def _ordered_sum(values: Iterable[float]) -> float:
    # the builtin sum over floats up to Python 3.11; 3.12 compensates
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _ordered_sums(seg: np.ndarray, val: np.ndarray, size: int) -> np.ndarray:
    """Per-segment sums of ``val``, each with the invariant's bits; ``seg``
    lists each segment's terms together, in the order they add, and each
    segment once.

    The segments are sorted longest first, and step r adds term r of every
    segment longer than r in one slice, so each sum still adds its terms
    one after the other; ``np.sum`` and ``np.add.reduceat`` add pairwise
    and give other bits. After ``steps`` steps each of the ``few`` longest
    segments finishes alone, by one ``np.add.accumulate``; ``few`` is the
    count that makes ``steps + few``, the loop passes, least.
    """
    new = np.ones(len(seg), bool)
    new[1:] = seg[1:] != seg[:-1]
    starts = np.flatnonzero(new)
    lengths = np.diff(starts, append=len(seg))
    order = np.argsort(-lengths)
    starts, lengths = starts[order], lengths[order]
    # the steps taken when the first k segments finish alone, k = 0..n
    steps_at = np.append(lengths, 0)
    few = int(np.argmin(steps_at + np.arange(len(steps_at))))
    steps = int(steps_at[few])
    part = np.zeros(len(starts))
    # step r adds term r of the n segments longer than r
    for r, n in enumerate(np.searchsorted(-lengths, -np.arange(steps)).tolist()):
        part[:n] += val[starts[:n] + r]
    for i in range(few):
        rest = val[starts[i] + steps:starts[i] + lengths[i]]
        part[i] = np.add.accumulate(np.concatenate((part[i:i + 1], rest)))[-1]
    acc = np.zeros(size)
    acc[seg[starts]] = part
    return acc
