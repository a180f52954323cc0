import math
import os
import threading
import time
import warnings

import numpy as np
import pytest

from fusionkit import forking, interactor
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

from conftest import (
    _crash,
    _in_child,
    _raise,
    _truncate,
    assert_no_child_left,
    cpus,
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


# ------------------------------------------------- sources split over processes
# fuse hands its sources to forking.run_pieces; the fixtures and helpers
# that force either path are in conftest.py


def paper_inputs(seed):
    rng = np.random.default_rng(seed)
    views, bev, inst = make_inputs(rng, n_views=6, tokens=576, d=64,
                                   bev_tokens=2500)
    return (views, bev, inst, SelectionConfig(k_img=90, k_bev=300),
            CrossAttnParams.random(64, 2, 1, rng),
            CrossAttnParams.random(64, 2, 2, rng))


def small_inputs(seed, bad=()):
    # three 12-token views and a 60-token BEV: the BEV alone is the first
    # group and the views the second; `bad` names the parameter sets
    # ("views", "bev") given a width that fails cross-attention
    rng = np.random.default_rng(seed)
    views, bev, inst = make_inputs(rng, n_views=3, tokens=12, bev_tokens=60)
    attn_mv, attn_bev = (CrossAttnParams.random(5 if name in bad else 6, rng=rng)
                         for name in ("views", "bev"))
    return views, bev, inst, SelectionConfig(k_img=4, k_bev=8), attn_mv, attn_bev


def balanced_inputs(seed):
    # seven sources of 12 tokens: no one source bounds the wall time
    rng = np.random.default_rng(seed)
    views, bev, inst = make_inputs(rng, n_views=6, tokens=12, bev_tokens=12)
    attn = CrossAttnParams.random(6, rng=rng)
    return views, bev, inst, SelectionConfig(k_img=4, k_bev=4), attn, attn


def assert_same_fused(got, want):
    assert got.provenance == want.provenance
    assert got.tokens.data.tobytes() == want.tokens.data.tobytes()


def test_split_stops_where_the_largest_source_bounds_the_wall_time(monkeypatch):
    p = CrossAttnParams.identity(64)
    paper = [interactor._source_macs(576, 90, 4, p)] * 6 + [
        interactor._source_macs(2500, 300, 4, p)]
    assert 0.6 < paper[-1] / sum(paper) < 0.65  # the BEV source
    for n in (2, 3, 16):
        cpus(monkeypatch, n)
        assert forking._split(paper) == [[6], [0, 1, 2, 3, 4, 5]]
        assert forking._split([7]) == [[0]]
    cpus(monkeypatch, 3)
    # longest-processing-time greedy, ties to the lower index
    assert forking._split([5, 5, 5, 5, 4, 1]) == [[0, 3], [1, 4], [2, 5]]
    cpus(monkeypatch, 1)
    assert forking._split(paper) == [list(range(7))]


def test_small_inputs_split_bev_from_views(monkeypatch):
    _, _, _, _, attn_mv, attn_bev = small_inputs(0)
    costs = [interactor._source_macs(12, 4, 4, attn_mv)] * 3 + [
        interactor._source_macs(60, 8, 4, attn_bev)]
    cpus(monkeypatch, 2)
    assert forking._split(costs) == [[3], [0, 1, 2]]


@pytest.mark.parametrize("make, n_cpus, children", [
    (paper_inputs, 2, 1), (small_inputs, 4, 1), (balanced_inputs, 4, 3),
])
def test_forked_fuse_matches_serial_bitwise(monkeypatch, forks, make, n_cpus,
                                            children):
    args = make(11)
    cpus(monkeypatch, 1)
    serial = fuse(*args)
    assert not forks
    cpus(monkeypatch, n_cpus)
    forked = fuse(*args)
    assert len(forks) == children
    assert_same_fused(forked, serial)
    assert_no_child_left()


@pytest.mark.parametrize("bad, first", [
    (("views",), "front"),  # the child's group
    (("bev",), "bev"),  # the calling process's group
    (("views", "bev"), "front"),  # both
])
def test_forked_fuse_raises_the_serial_error(monkeypatch, forks, bad, first):
    args = small_inputs(2, bad)
    cpus(monkeypatch, 1)
    with pytest.raises(ShapeError) as serial:
        fuse(*args)
    assert str(serial.value).startswith(f"view '{first}': cross_attention: ")
    cpus(monkeypatch, 2)
    with pytest.raises(ShapeError) as forked:
        fuse(*args)
    assert forks
    assert str(forked.value) == str(serial.value)
    assert_no_child_left()


@pytest.mark.parametrize("owner, name, fail", [
    (interactor, "interact", _crash),
    (interactor, "interact", _raise),
    (forking.pickle, "dumps", _truncate),
])
def test_failed_child_falls_back_to_serial(monkeypatch, forks, owner, name, fail):
    args = small_inputs(3)
    cpus(monkeypatch, 1)
    serial = fuse(*args)
    cpus(monkeypatch, 2)
    monkeypatch.setattr(owner, name, _in_child(getattr(owner, name), fail))
    assert_same_fused(fuse(*args), serial)
    assert forks
    assert_no_child_left()


def _hang(real, *a, **kw):
    time.sleep(60)
    return real(*a, **kw)


def test_parent_group_error_kills_the_running_child(monkeypatch, forks):
    # the BEV fails here while the child is still on the views; fuse must
    # kill it rather than wait for it
    args = small_inputs(7, bad=("bev",))
    cpus(monkeypatch, 2)
    monkeypatch.setattr(interactor, "interact",
                        _in_child(interactor.interact, _hang))
    start = time.monotonic()
    with pytest.raises(ShapeError, match="^view 'bev': "):
        fuse(*args)
    assert time.monotonic() - start < 30
    assert forks
    assert_no_child_left()


def test_no_fork_while_another_thread_is_alive(monkeypatch, forks):
    args = small_inputs(4)
    cpus(monkeypatch, 1)
    serial = fuse(*args)
    cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert_same_fused(fuse(*args), serial)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not forks
    fuse(*args)
    assert forks


def test_no_fork_on_one_cpu_or_without_sched_getaffinity(monkeypatch, forks):
    args = small_inputs(5)
    probe = forking._cpu_count
    cpus(monkeypatch, 1)
    fuse(*args)
    monkeypatch.setattr(forking, "_cpu_count", probe)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert probe() == 1
    fuse(*args)
    assert not forks


def test_forked_fuse_raises_no_warning(monkeypatch, forks):
    # Python 3.12 warns on a fork while the process runs other threads
    args = small_inputs(6)
    cpus(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fuse(*args)
    assert forks
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


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

