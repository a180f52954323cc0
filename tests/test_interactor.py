import math

import numpy as np
import pytest

from fusionkit.matrix import Matrix, ShapeError
from fusionkit.numerics import CrossAttnParams
from fusionkit.interactor import (
    BevFeatureMap,
    BudgetReport,
    DEFAULT_VIEW_NAMES,
    InstructionEmbedding,
    SelectionConfig,
    ViewFeatureSet,
    fuse,
    interact,
    score_tokens,
    select_topk,
    token_budget,
)

from oracles import full_sort_topk


def make_inputs(rng, n_views=3, tokens=12, d=6, bev_tokens=20, inst_tokens=4):
    views = ViewFeatureSet(
        tuple(Matrix(rng.standard_normal((tokens, d))) for _ in range(n_views))
    )
    bev = BevFeatureMap(Matrix(rng.standard_normal((bev_tokens, d))), (bev_tokens, 1))
    inst = InstructionEmbedding(Matrix(rng.standard_normal((inst_tokens, d))))
    return views, bev, inst


# ------------------------------------------------------------------- types


def test_view_feature_set_defaults_and_validation():
    m = Matrix.zeros(3, 4)
    vs = ViewFeatureSet((m, m))
    assert vs.view_names == DEFAULT_VIEW_NAMES[:2]
    assert vs.token_counts == (3, 3)
    with pytest.raises(ShapeError):
        ViewFeatureSet(())
    with pytest.raises(ShapeError):
        ViewFeatureSet((m, Matrix.zeros(3, 5)))
    with pytest.raises(ShapeError):
        ViewFeatureSet((m, m), view_names=("a",))
    with pytest.raises(ShapeError):
        ViewFeatureSet((m, m), view_names=("a", "a"))


def test_zero_row_features_cannot_exist():
    with pytest.raises(ShapeError):
        Matrix(np.zeros((0, 4)))


def test_bev_grid_must_flatten():
    with pytest.raises(ShapeError):
        BevFeatureMap(Matrix.zeros(10, 4), (3, 3))
    bev = BevFeatureMap(Matrix.zeros(12, 4), (3, 4))
    assert bev.d == 4


def test_selection_config_validation():
    cfg = SelectionConfig()
    assert (cfg.k_img, cfg.k_bev, cfg.reduction) == (90, 300, "max")
    with pytest.raises(ValueError):
        SelectionConfig(k_img=0)
    with pytest.raises(ValueError):
        SelectionConfig(reduction="median")


# ----------------------------------------------------------------- scoring


def test_score_tokens_fixture():
    f = Matrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    inst = InstructionEmbedding(Matrix([[1.0, 0.0]]))
    scores = score_tokens(f, inst, "max")
    assert scores[0] == 1.0
    assert scores[1] == 0.0
    assert abs(scores[2] - 1.0 / math.sqrt(2.0)) < 1e-12


def test_score_tokens_mean_reduction():
    f = Matrix([[1.0, 0.0]])
    inst = InstructionEmbedding(Matrix([[1.0, 0.0], [0.0, 1.0]]))
    assert score_tokens(f, inst, "max")[0] == 1.0
    assert abs(score_tokens(f, inst, "mean")[0] - 0.5) < 1e-15


def test_score_scale_invariance_preserves_selection():
    rng = np.random.default_rng(0)
    f = Matrix(rng.standard_normal((40, 8)))
    inst = InstructionEmbedding(Matrix(rng.standard_normal((5, 8))))
    s1 = score_tokens(f, inst)
    s2 = score_tokens(
        f, InstructionEmbedding(Matrix(17.0 * inst.tokens.data)), "max"
    )
    assert np.abs(s1 - s2).max() < 1e-12
    k = 7
    assert select_topk(f, s1, k).indices == select_topk(f, s2, k).indices


# --------------------------------------------------------------- selection


def test_select_topk_matches_full_sort_oracle_with_ties():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(1, 40))
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
        f = Matrix(rng.standard_normal((n, 3)))
        k = int(rng.integers(1, 45))
        got = select_topk(f, scores, k)
        want = full_sort_topk(list(scores), k)
        assert list(got.indices) == want


def test_select_topk_saturation_and_alignment():
    f = Matrix([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    res = select_topk(f, [0.1, 0.9, 0.5], 10)
    assert res.indices == (1, 2, 0)
    assert np.array_equal(res.features.data, f.data[[1, 2, 0]])
    assert res.scores == (0.9, 0.5, 0.1)


def test_select_topk_validation():
    f = Matrix.zeros(3, 2)
    with pytest.raises(ValueError):
        select_topk(f, [0.0, 0.0, 0.0], 0)
    with pytest.raises(ShapeError):
        select_topk(f, [0.0, 0.0], 2)
    with pytest.raises(ValueError):
        select_topk(f, [0.0, float("nan"), 0.0], 2)


# ---------------------------------------------------------------- fuse etc


def test_fuse_length_and_provenance_order():
    rng = np.random.default_rng(3)
    views, bev, inst = make_inputs(rng, n_views=3, tokens=12, bev_tokens=20)
    cfg = SelectionConfig(k_img=5, k_bev=8)
    attn = CrossAttnParams.identity(6)
    fused = fuse(views, bev, inst, cfg, attn, attn)
    assert fused.tokens.rows == 3 * 5 + 8
    sources = [p.source for p in fused.provenance]
    assert sources == ["front"] * 5 + ["front_left"] * 5 + ["front_right"] * 5 + [
        "bev"
    ] * 8
    # saturation: fewer tokens than k keeps everything
    small = ViewFeatureSet((Matrix(rng.standard_normal((3, 6))),))
    fused_small = fuse(small, bev, inst, cfg, attn, attn)
    assert fused_small.tokens.rows == 3 + 8


def test_fuse_permutation_of_view_tokens_is_transparent():
    rng = np.random.default_rng(4)
    views, bev, inst = make_inputs(rng, n_views=2, tokens=15)
    cfg = SelectionConfig(k_img=6, k_bev=5)
    attn = CrossAttnParams.random(6, rng=np.random.default_rng(5))
    base = fuse(views, bev, inst, cfg, attn, attn)

    perm = rng.permutation(15)
    shuffled = ViewFeatureSet(
        (Matrix(views.views[0].data[perm]), views.views[1])
    )
    out = fuse(shuffled, bev, inst, cfg, attn, attn)
    assert np.allclose(base.tokens.data, out.tokens.data, atol=1e-12)
    # indices relabel through the permutation
    inv = np.empty(15, dtype=int)
    inv[perm] = np.arange(15)
    for p_base, p_out in zip(base.provenance[:6], out.provenance[:6]):
        assert inv[p_base.index] == p_out.index


def test_fuse_labels_errors_with_view_name():
    rng = np.random.default_rng(6)
    views, bev, inst = make_inputs(rng, n_views=2)
    cfg = SelectionConfig(k_img=4, k_bev=4)
    good = CrossAttnParams.identity(6)
    bad = CrossAttnParams.identity(5)
    with pytest.raises(ShapeError, match="^view 'front': "):
        fuse(views, bev, inst, cfg, bad, good)
    with pytest.raises(ShapeError, match="^view 'bev': "):
        fuse(views, bev, inst, cfg, good, bad)


# ------------------------------------------------------------------ budget


def test_token_budget_paper_scale():
    cfg = SelectionConfig()
    report = token_budget(cfg, [576] * 6, 2500)
    assert report.fused_length == 6 * 90 + 300 == 840
    assert report.raw_length == 5956
    assert abs(report.ratio - 840 / 5956) < 1e-15
    assert round(report.ratio, 3) == 0.141


def test_token_budget_saturation_and_errors():
    cfg = SelectionConfig(k_img=90, k_bev=300)
    report = token_budget(cfg, [5], 17)
    assert report.fused_length == 5 + 17
    with pytest.raises(ValueError):
        token_budget(cfg, [], 10)
    with pytest.raises(ValueError):
        token_budget(cfg, [5], 0)
    with pytest.raises(ValueError):
        token_budget(cfg, [-1], 10)


def test_budget_matches_real_fuse_lengths():
    rng = np.random.default_rng(9)
    views, bev, inst = make_inputs(rng, n_views=4, tokens=11, bev_tokens=9)
    cfg = SelectionConfig(k_img=6, k_bev=20)
    attn = CrossAttnParams.identity(6)
    fused = fuse(views, bev, inst, cfg, attn, attn)
    report = token_budget(cfg, views.token_counts, bev.tokens.rows)
    assert fused.tokens.rows == report.fused_length

