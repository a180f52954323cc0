import math
import tracemalloc

import numpy as np
import pytest

from fusionkit import numerics
from fusionkit.exact import _KC, _PANEL, _mm, _softmax_rows
from fusionkit.interactor import (
    BevFeatureMap,
    InstructionEmbedding,
    SelectionConfig,
    ViewFeatureSet,
    fuse,
)
from fusionkit.matrix import Matrix, ShapeError
from fusionkit.numerics import (
    CrossAttnLayer,
    CrossAttnParams,
    MlpParams,
    cosine_similarity_matrix,
    cross_attention,
    cross_attention_input_grad,
    finite_diff_grad,
    mlp_forward,
    mlp_input_grad,
)

from oracles import (
    naive_cosine,
    naive_matmul,
    naive_mlp,
    naive_single_head_attention,
    naive_softmax_rows,
)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


# ------------------------------------------------------------- _mm kernel
# The blocked `_mm` must reproduce the plain ascending-k loop it
# replaced bit for bit: `_mm_loop` below is that loop, kept verbatim.


def _mm_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Accumulate over k in ascending order: per output element this is the
    # exact op sequence of `acc += a[i][k] * b[k][j]` that a naive triple
    # loop produces, so results match such an oracle bitwise.
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for kk in range(k):
        out += a[:, kk, np.newaxis] * b[kk]
    return out


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    # tobytes tells -0.0 from +0.0, which array_equal does not
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


_P = _PANEL
_T = 2_000_000  # multiply-adds from which products once ran on a thread pool

KERNEL_SHAPES = [  # (m, k, n)
    (1, 1, 1), (1, 7, 9), (9, 7, 1), (6, 1, 6), (1, 1, 40), (40, 1, 1),
    (3, 5, 8), (8, 5, 3), (6, 6, 6),
    # k across the chunk of products taken per numpy call
    (5, _KC - 1, 7), (5, _KC, 7), (5, _KC + 1, 7), (7, 2 * _KC + 3, 5),
    # output sizes across one panel, on either side of the diagonal
    (1, 3, _P - 1), (1, 3, _P + 1), (_P + 1, 3, 1), (3, 2, _P // 3 + 1),
    (_P // 64 + 3, 5, 64), (181, 2, 181),
    # multiply-adds on either side of the former threading threshold
    (100, 2, _T // 200 - 1), (100, 2, _T // 200), (_T // 200, 2, 100),
    (37, 9, _T // 333 + 5),
    # paper scale: the BEV map's key and value projection
    (2500, 64, 128),
]


@pytest.mark.parametrize("m, k, n", KERNEL_SHAPES)
def test_mm_matches_ascending_loop_bitwise(m, k, n):
    rng = np.random.default_rng([m, k, n])
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    want = _mm_loop(a, b)
    assert_same_bits(_mm(a, b), want)
    if m * k * n <= 400:
        assert_same_bits(_mm(a, b), np.array(naive_matmul(a.tolist(), b.tolist())))


def test_mm_identity_is_exact():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 6))
    assert_same_bits(_mm(np.eye(6), m), m)
    assert_same_bits(_mm(m, np.eye(6)), m)


@pytest.mark.parametrize("m, k, n", [(3, 5, 8), (8, 5, 3), (90, 64, 576),
                                     (300, 70, 64), (120, 64, 120)])
def test_mm_on_transposed_and_strided_operands(m, k, n):
    rng = np.random.default_rng([m, k, n, 1])
    at = rng.standard_normal((k, m))
    bt = rng.standard_normal((n, 2 * k))[:, ::2]
    assert not at.T.flags.c_contiguous and not bt.T.flags.c_contiguous
    want = _mm_loop(at.T, bt.T)
    assert_same_bits(_mm(at.T, bt.T), want)
    assert_same_bits(_mm(np.ascontiguousarray(at.T), np.ascontiguousarray(bt.T)), want)


@pytest.mark.parametrize("m, n", [(3, 5), (5, 3), (200, _P // 100)])
def test_mm_negative_zero_products_sum_to_positive_zero(m, n):
    # an all -0.0 column of products must give +0.0, as the loop's
    # +0.0 seed does; seeding with the first product would give -0.0
    a = np.ones((m, 9))
    b = np.full((9, n), -0.0)
    got = _mm(a, b)
    assert not np.signbit(got).any()
    assert_same_bits(got, _mm_loop(a, b))
    assert_same_bits(_mm(-a, -b), _mm_loop(-a, -b))


def test_mm_keeps_cancellation_order():
    # ascending k: (0 + 1e16) + 1 rounds back to 1e16, then -1e16 gives 0
    a = np.array([[1e16, 1.0, -1e16]])
    assert _mm(a, np.ones((3, 1)))[0, 0] == 0.0
    rng = np.random.default_rng(8)
    values = np.array([1e16, 1.0, -1e16, 3.0, -2.5, 1e-300, -0.0])
    for m, k, n in [(4, 7, 9), (60, 13, 1000), (1000, 13, 60), (250, 35, 250)]:
        a = rng.choice(values, size=(m, k))
        b = rng.choice(values, size=(k, n))
        assert_same_bits(_mm(a, b), _mm_loop(a, b))


def test_paper_scale_fuse_matches_loop_kernel(monkeypatch):
    rng = np.random.default_rng(12)
    d = 64
    views = ViewFeatureSet(tuple(Matrix(rng.standard_normal((576, d)))
                                 for _ in range(6)))
    bev = BevFeatureMap(Matrix(rng.standard_normal((2500, d))), (50, 50))
    inst = InstructionEmbedding(Matrix(rng.standard_normal((4, d))))
    attn_mv = CrossAttnParams.random(d, 2, 1, rng)
    attn_bev = CrossAttnParams.random(d, 2, 1, rng)
    cfg = SelectionConfig(k_img=90, k_bev=300)
    got = fuse(views, bev, inst, cfg, attn_mv, attn_bev)
    calls = []

    def counted_loop(a, b):
        calls.append(a.shape)
        return _mm_loop(a, b)

    # numerics imports the kernel, so its own name is the one the callers
    # resolve; the BEV source runs in this process, so a caller that looked
    # the kernel up elsewhere would leave no call counted here
    monkeypatch.setattr(numerics, "_mm", counted_loop)
    want = fuse(views, bev, inst, cfg, attn_mv, attn_bev)
    assert calls
    assert got.provenance == want.provenance
    assert got.tokens.data.tobytes() == want.tokens.data.tobytes()


@pytest.mark.parametrize("num_heads", [2, 4])
@pytest.mark.parametrize("m, n", [(7, 11), (300, 2500)])
def test_mm_on_head_column_slices_matches_loop(m, n, num_heads):
    # the operands the multi-head path passes: a head's columns of the
    # query projection against the same columns of the keys, transposed,
    # then the probabilities against that head's columns of the values
    rng = np.random.default_rng([m, n, num_heads])
    d = 64
    hd = d // num_heads
    qp = rng.standard_normal((m, d))
    kp = rng.standard_normal((n, d))
    vp = rng.standard_normal((n, d))
    attn = rng.uniform(0.0, 1.0, size=(m, n))
    for h in range(num_heads):
        sl = slice(h * hd, (h + 1) * hd)
        assert_same_bits(_mm(qp[:, sl], kp[:, sl].T),
                         _mm_loop(qp[:, sl], kp[:, sl].T))
        assert_same_bits(_mm(attn, vp[:, sl]), _mm_loop(attn, vp[:, sl]))


@pytest.mark.parametrize("k", [_KC - 1, _KC, _KC + 1, 2 * _KC + 1])
@pytest.mark.parametrize("m, n", [(6, 11), (11, 6), (300, 1000)])
def test_mm_chunk_edges_match_loop(m, k, n):
    # k at and around one and two chunks of products; (300, 1000) also
    # spans several panels
    rng = np.random.default_rng([m, k, n, 2])
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    assert_same_bits(_mm(a, b), _mm_loop(a, b))


@pytest.mark.parametrize("m, k, n", [(5, 2 * _KC + 3, 7), (200, 13, 300)])
def test_mm_subnormal_and_overflowing_products_match_loop(m, k, n):
    # products that land in the subnormal range, underflow to +-0.0, or
    # overflow to +-inf (inf - inf makes a NaN, which must match too)
    rng = np.random.default_rng([m, k, n, 4])
    values = np.array([1e-160, -1e-160, 3e-170, -2e-200, 1e-310, 5e-324,
                       1e200, -1e200, 2e160, 1.0, -0.5, 0.0])
    a = rng.choice(values, size=(m, k))
    b = rng.choice(values, size=(k, n))
    with np.errstate(over="ignore", invalid="ignore"):
        want = _mm_loop(a, b)
        got = _mm(a, b)
    assert np.isinf(want).any() and np.isnan(want).any()
    assert_same_bits(got, want)


def test_mm_subnormal_running_sums_match_loop():
    # every product is subnormal or underflows to +-0.0, so every partial
    # sum is subnormal or zero
    rng = np.random.default_rng(5)
    k = 3 * _KC + 1
    a = rng.integers(-3, 4, size=(40, k)) * 1e-160
    b = rng.choice([-3e-160, -1e-160, 0.0, 2e-160, -1e-170, 1e-170],
                   size=(k, 50))
    want = _mm_loop(a, b)
    assert 0.0 < np.abs(want).max() < 2.3e-308
    assert_same_bits(_mm(a, b), want)


# ----------------------------------------------------------------- softmax
# the row softmax inside cross_attention


def test_softmax_fixture_quarter_three_quarters():
    out = _softmax_rows(np.array([[0.0, math.log(3.0)]]))
    assert out[0] == pytest.approx([0.25, 0.75], abs=1e-12)


def test_softmax_rows_sum_to_one_and_match_oracle():
    rng = np.random.default_rng(3)
    x = rng.uniform(-700.0, 700.0, size=(20, 9))
    out = _softmax_rows(x.copy())
    assert np.all(out >= 0.0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
    want = np.array(naive_softmax_rows(x.tolist()))
    assert rel_err(out, want) < 1e-12


def test_softmax_rows_overwrites_its_argument():
    # the logits buffer becomes the probabilities, with the bits of the
    # former computation into a new buffer
    rng = np.random.default_rng(18)
    x = rng.uniform(-50.0, 50.0, size=(30, 40))
    want = x - x.max(axis=1, keepdims=True)
    np.exp(want, out=want)
    want /= want.sum(axis=1, keepdims=True)
    got = _softmax_rows(x)
    assert got is x
    assert_same_bits(got, want)


def test_softmax_is_deterministic():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 8))
    first = _softmax_rows(x.copy())
    second = _softmax_rows(x.copy())
    assert np.array_equal(first, second)


# --------------------------------------------------------------------- mlp


def test_mlp_matches_naive_oracle_bitwise():
    rng = np.random.default_rng(5)
    p = MlpParams.random(6, 11, 4, rng)
    x = rng.standard_normal((7, 6))
    got = mlp_forward(Matrix(x), p).data
    want = np.array(
        naive_mlp(
            x.tolist(),
            p.w1.data.tolist(),
            p.b1.tolist(),
            p.w2.data.tolist(),
            p.b2.tolist(),
        )
    )
    assert np.array_equal(got, want)


def test_mlp_identity_params_act_as_relu():
    x = np.array([[-1.0, 2.0], [3.0, -4.0]])
    out = mlp_forward(Matrix(x), MlpParams.identity(2)).data
    assert np.array_equal(out, np.maximum(x, 0.0))


def test_mlp_shape_validation():
    p = MlpParams.identity(3)
    with pytest.raises(ShapeError, match="^mlp_forward: input width 4 != d_in 3$"):
        mlp_forward(Matrix.zeros(2, 4), p)
    with pytest.raises(ShapeError,
                       match="^mlp_input_grad: input width 4 != d_in 3$"):
        mlp_input_grad(Matrix.zeros(2, 4), p, Matrix.zeros(2, 3))
    with pytest.raises(ShapeError):
        MlpParams(Matrix.zeros(3, 4), np.zeros(5), Matrix.zeros(4, 2), np.zeros(2))
    with pytest.raises(ShapeError):
        MlpParams(Matrix.zeros(3, 4), np.zeros(4), Matrix.zeros(5, 2), np.zeros(2))


# --------------------------------------------------------- cross attention


def test_single_layer_attention_matches_stepwise_oracle():
    rng = np.random.default_rng(6)
    d = 4
    q = rng.standard_normal((3, d))
    kv = rng.standard_normal((5, d))
    layer = CrossAttnLayer(
        Matrix(rng.standard_normal((d, d))),
        Matrix(rng.standard_normal((d, d))),
        Matrix(rng.standard_normal((d, d))),
        Matrix(rng.standard_normal((d, d))),
    )
    p = CrossAttnParams((layer,))
    got = cross_attention(Matrix(q), Matrix(kv), Matrix(kv), p).data
    want = np.array(
        naive_single_head_attention(
            q.tolist(),
            kv.tolist(),
            kv.tolist(),
            layer.wq.data.tolist(),
            layer.wk.data.tolist(),
            layer.wv.data.tolist(),
            layer.wo.data.tolist(),
        )
    )
    assert rel_err(got, want) < 1e-12


def test_single_key_value_row_identity_returns_v():
    p = CrossAttnParams.identity(3, num_layers=1)
    q = Matrix([[5.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
    v = Matrix([[1.0, 2.0, 3.0]])
    out = cross_attention(q, v, v, p).data
    assert np.array_equal(out, np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))


def test_two_layers_chain_queries_with_fixed_kv():
    rng = np.random.default_rng(7)
    d = 4
    q = Matrix(rng.standard_normal((3, d)))
    kv = Matrix(rng.standard_normal((6, d)))
    p2 = CrossAttnParams.random(d, num_layers=2, rng=np.random.default_rng(8))
    first = CrossAttnParams((p2.layers[0],))
    second = CrossAttnParams((p2.layers[1],))
    chained = cross_attention(
        cross_attention(q, kv, kv, first), kv, kv, second
    )
    assert chained == cross_attention(q, kv, kv, p2)


def test_default_layer_count_is_two():
    assert CrossAttnParams.identity(4).num_layers == 2
    assert CrossAttnParams.random(4).num_layers == 2


def test_multi_head_splits_columns():
    rng = np.random.default_rng(9)
    d = 8
    q = Matrix(rng.standard_normal((3, d)))
    kv = Matrix(rng.standard_normal((5, d)))
    p = CrossAttnParams.random(d, num_layers=1, num_heads=2,
                               rng=np.random.default_rng(10))
    out = cross_attention(q, kv, kv, p).data

    # oracle: run each head on its column block with identity mixing,
    # then apply wo once
    layer = p.layers[0]
    qp = np.array(naive_matmul(q.data.tolist(), layer.wq.data.tolist()))
    kp = np.array(naive_matmul(kv.data.tolist(), layer.wk.data.tolist()))
    vp = np.array(naive_matmul(kv.data.tolist(), layer.wv.data.tolist()))
    mixed = np.zeros_like(qp)
    hd = d // 2
    for h in range(2):
        sl = slice(h * hd, (h + 1) * hd)
        logits = qp[:, sl] @ kp[:, sl].T / math.sqrt(hd)
        probs = np.array(naive_softmax_rows(logits.tolist()))
        mixed[:, sl] = probs @ vp[:, sl]
    want = mixed @ layer.wo.data
    assert rel_err(out, want) < 1e-12


def test_kv_permutation_invariance():
    rng = np.random.default_rng(11)
    d = 6
    q = Matrix(rng.standard_normal((4, d)))
    kv = rng.standard_normal((9, d))
    p = CrossAttnParams.random(d, rng=np.random.default_rng(12))
    base = cross_attention(q, Matrix(kv), Matrix(kv), p).data
    perm = rng.permutation(9)
    out = cross_attention(q, Matrix(kv[perm]), Matrix(kv[perm]), p).data
    assert rel_err(base, out) < 1e-12


def test_cross_attention_shape_checks():
    p = CrossAttnParams.identity(4)
    for q, k, v, message in [
        (Matrix.zeros(2, 3), Matrix.zeros(5, 4), Matrix.zeros(5, 4),
         "widths q=3 k=4 v=4 params=4"),
        (Matrix.zeros(2, 4), Matrix.zeros(5, 6), Matrix.zeros(5, 4),
         "widths q=4 k=6 v=4 params=4"),
        (Matrix.zeros(2, 4), Matrix.zeros(5, 4), Matrix.zeros(5, 6),
         "widths q=4 k=4 v=6 params=4"),
        (Matrix.zeros(2, 4), Matrix.zeros(5, 4), Matrix.zeros(6, 4),
         "k and v must agree on row count"),
    ]:
        # the gradient checks its operands as the forward does
        with pytest.raises(ShapeError, match=f"^cross_attention: {message}$"):
            cross_attention(q, k, v, p)
        with pytest.raises(ShapeError,
                           match=f"^cross_attention_input_grad: {message}$"):
            cross_attention_input_grad(q, k, v, p, Matrix.zeros(2, 4))
    with pytest.raises(ShapeError):
        CrossAttnParams.identity(6, num_heads=4)
    with pytest.raises(ShapeError):
        CrossAttnParams(())


def _forward_peak(q: Matrix, kv: Matrix, p: CrossAttnParams) -> int:
    # tracemalloc's peak over one forward; numpy reports its buffers to it
    tracemalloc.start()
    try:
        cross_attention(q, kv, kv, p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("num_heads", [1, 2])
def test_cross_attention_holds_one_attention_matrix_at_paper_scale(num_heads):
    # the BEV source at paper scale: 300 kept queries attend into 2500 keys
    # over 2 layers. Live at the peak: one layer's keys and values (2.6 MB),
    # one 3 MiB block of logits, _mm's 1 MiB of products, the queries and
    # their mix, and with 2 heads one head's contiguous values (0.6 MB).
    # That measured 1.21 (1 head) and 1.32 (2 heads) 300x2500 matrices;
    # the whole logits matrix, both layers' K/V and a transposed key copy
    # per call measured 2.33 and 2.22
    rng = np.random.default_rng(20)
    q = Matrix(rng.standard_normal((300, 64)))
    kv = Matrix(rng.standard_normal((2500, 64)))
    p = CrossAttnParams.random(64, 2, num_heads, rng)
    assert _forward_peak(q, kv, p) < 1.4 * (300 * 2500 * 8)


def test_cross_attention_peak_grows_only_by_kv_bytes_with_more_keys():
    # the same 300 queries into 10,000 keys: the logits blocks keep their
    # size, so the peak may grow by the extra rows of one layer's keys and
    # values plus one key-sized operand copy (the keys _mm transposes for
    # the projection, or a head's contiguous values), and by nothing that
    # grows with queries x keys. Measured: 7.8 MB of an 11.5 MB allowance
    # (9.7 MB with 2 heads); a whole logits matrix would add 18 MB
    rng = np.random.default_rng(21)
    q = Matrix(rng.standard_normal((300, 64)))
    p = CrossAttnParams.random(64, 2, 1, rng)
    peaks = [_forward_peak(q, Matrix(rng.standard_normal((n, 64))), p)
             for n in (2500, 10000)]
    assert peaks[1] - peaks[0] <= 3 * (10000 - 2500) * 64 * 8


def _project_kv_per_layer(k, v, layer):
    # the reference: one plain K and one V product per layer, the keys
    # transposed afterwards
    return np.ascontiguousarray(_mm(k, layer.wk.data).T), _mm(v, layer.wv.data)


def _count_projections(monkeypatch) -> list:
    calls = []

    def counted(k, v, layer):
        calls.append(layer)
        return _project_kv_per_layer(k, v, layer)

    monkeypatch.setattr(numerics, "_project_kv", counted)
    return calls


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("num_heads", [1, 2, 4])
def test_kv_projected_once_per_source_matches_per_layer(monkeypatch, num_layers,
                                                        num_heads):
    # each source's keys and values are projected once per layer, one
    # layer's at a time, with the keys already transposed: the bits of the
    # plain per-layer products, and so of the forward and the gradient
    rng = np.random.default_rng([num_layers, num_heads])
    d = 8
    p = CrossAttnParams.random(d, num_layers, num_heads, rng)
    q = Matrix(rng.standard_normal((5, d)))
    k = Matrix(rng.standard_normal((9, d)))
    v = Matrix(rng.standard_normal((9, d)))
    upstream = Matrix(rng.standard_normal((5, d)))
    for layer in p.layers:
        kt, vp = numerics._project_kv(k.data, v.data, layer)
        kw, vw = _project_kv_per_layer(k.data, v.data, layer)
        assert kt.shape == (d, 9) and kt.flags.c_contiguous
        assert kt.tobytes() == kw.tobytes() and vp.tobytes() == vw.tobytes()
    got = cross_attention(q, k, v, p).data
    got_grad = cross_attention_input_grad(q, k, v, p, upstream).data
    calls = _count_projections(monkeypatch)
    assert_same_bits(got, cross_attention(q, k, v, p).data)
    assert calls == list(p.layers)
    assert_same_bits(got_grad, cross_attention_input_grad(q, k, v, p, upstream).data)


def test_kv_projected_once_per_source_matches_per_layer_at_bev_width(monkeypatch):
    # a 2500-row source whose transposed-key projection spans many panels
    rng = np.random.default_rng(19)
    d = 64
    p = CrossAttnParams.random(d, 3, 2, rng)
    q = Matrix(rng.standard_normal((20, d)))
    k = Matrix(rng.standard_normal((2500, d)))
    v = Matrix(rng.standard_normal((2500, d)))
    for layer in p.layers:
        kt, vp = numerics._project_kv(k.data, v.data, layer)
        kw, vw = _project_kv_per_layer(k.data, v.data, layer)
        assert kt.tobytes() == kw.tobytes() and vp.tobytes() == vw.tobytes()
    got = cross_attention(q, k, v, p).data
    calls = _count_projections(monkeypatch)
    assert_same_bits(got, cross_attention(q, k, v, p).data)
    assert calls == list(p.layers)


@pytest.mark.parametrize("num_heads", [1, 2, 4])
@pytest.mark.parametrize("keys", [37, 999, 2501])
def test_attention_bits_do_not_depend_on_the_block_size(monkeypatch, keys,
                                                        num_heads):
    # every step of a block is row-local, so one-row blocks, odd-sized
    # blocks that leave a short last one, and a single block give the same
    # forward and gradient bits; key counts are not multiples of 8, and
    # 37, 999 and 2501 keys run 2, 1 and 3 layers
    rows = 13
    num_layers = 1 + keys % 3
    rng = np.random.default_rng([keys, num_heads])
    d = 16
    p = CrossAttnParams.random(d, num_layers, num_heads, rng)
    q = Matrix(rng.standard_normal((rows, d)))
    k = Matrix(rng.standard_normal((keys, d)))
    v = Matrix(rng.standard_normal((keys, d)))
    upstream = Matrix(rng.standard_normal((rows, d)))
    runs = []
    for budget, blocks in [(1, rows), (5 * keys, 3), (rows * keys, 1)]:
        monkeypatch.setattr(numerics, "_LOGITS_BUDGET", budget)
        assert len(numerics._row_blocks(rows, keys)) == blocks
        runs.append((cross_attention(q, k, v, p).data,
                     cross_attention_input_grad(q, k, v, p, upstream).data))
    for out, grad in runs[:-1]:
        assert_same_bits(out, runs[-1][0])
        assert_same_bits(grad, runs[-1][1])


# --------------------------------------------------------------- gradients


def test_finite_diff_on_quadratic():
    rng = np.random.default_rng(13)
    x = Matrix(rng.standard_normal((3, 4)))

    def f(m: Matrix) -> float:
        return float((m.data**2).sum())

    grad = finite_diff_grad(f, x).data
    assert rel_err(grad, 2.0 * x.data) < 1e-8


def test_mlp_analytic_grad_matches_finite_difference():
    rng = np.random.default_rng(14)
    p = MlpParams.random(5, 9, 3, rng)
    x = Matrix(rng.standard_normal((4, 5)))
    upstream = Matrix(rng.standard_normal((4, 3)))

    def loss(m: Matrix) -> float:
        return float((upstream.data * mlp_forward(m, p).data).sum())

    analytic = mlp_input_grad(x, p, upstream).data
    fd = finite_diff_grad(loss, x).data
    assert rel_err(analytic, fd) < 1e-4


@pytest.mark.parametrize("num_heads", [1, 2])
def test_cross_attention_analytic_grad_matches_fd(num_heads):
    rng = np.random.default_rng(15 + num_heads)
    d = 8
    p = CrossAttnParams.random(d, num_layers=2, num_heads=num_heads, rng=rng)
    q = Matrix(rng.standard_normal((3, d)))
    kv = Matrix(rng.standard_normal((6, d)))
    upstream = Matrix(rng.standard_normal((3, d)))

    def loss(m: Matrix) -> float:
        return float((upstream.data * cross_attention(m, kv, kv, p).data).sum())

    analytic = cross_attention_input_grad(q, kv, kv, p, upstream).data
    fd = finite_diff_grad(loss, q).data
    assert rel_err(analytic, fd) < 1e-4


# ------------------------------------------------------------------ cosine


def test_cosine_fixture_and_zero_rows():
    s = cosine_similarity_matrix(
        Matrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]),
        Matrix([[1.0, 0.0]]),
    ).data
    assert s[0, 0] == 1.0
    assert s[1, 0] == 0.0
    assert abs(s[2, 0] - 1.0 / math.sqrt(2.0)) < 1e-12
    assert s[3, 0] == 0.0, "zero-norm row compares as 0 by definition"


def test_cosine_self_similarity_is_exactly_one():
    rng = np.random.default_rng(16)
    a = Matrix(rng.standard_normal((10, 7)))
    s = cosine_similarity_matrix(a, a).data
    assert np.array_equal(np.diag(s), np.ones(10))


def test_cosine_matches_naive_oracle_and_scale_invariance():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((6, 5))
    b = rng.standard_normal((4, 5))
    s = cosine_similarity_matrix(Matrix(a), Matrix(b)).data
    for i in range(6):
        for j in range(4):
            assert abs(s[i, j] - naive_cosine(a[i], b[j])) < 1e-12
    scaled = cosine_similarity_matrix(Matrix(3.7 * a), Matrix(b)).data
    assert np.abs(s - scaled).max() < 1e-12
    assert np.abs(s).max() <= 1.0 + 1e-12


def test_cosine_width_mismatch():
    with pytest.raises(ShapeError):
        cosine_similarity_matrix(Matrix.zeros(2, 3), Matrix.zeros(2, 4))
