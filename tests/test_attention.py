import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propgraph import (
    AttentionDegrees,
    AttentionParams,
    InputError,
    NumericalError,
    attendable_pairs,
    attention_gradients,
    finite_difference_gradients,
    graph_from_edges,
    multi_head_attend,
)
from propgraph import attention
from propgraph.io import params_from_dict
from propgraph.oracles import max_relative_error, random_connected_graph, reference_attention

from conftest import (
    argsort_attendable_pairs, pair_coords, pair_matrix, pair_scores, permuted_graph,
    score_layout_params, shifted_row, weight_matrix,
)


def single_head_params(keys):
    return AttentionParams(key_weights=np.asarray([keys], dtype=float))


class TestParams:
    def test_initialize_bounds_and_determinism(self):
        first = AttentionParams.initialize(5, head_count=3, output_dim=4, seed=42)
        second = AttentionParams.initialize(5, head_count=3, output_dim=4, seed=42)
        assert np.array_equal(first.key_weights, second.key_weights)
        assert np.array_equal(first.output_projection, second.output_projection)
        bound = 1.0 / np.sqrt(10.0)
        assert np.max(np.abs(first.key_weights)) <= bound
        assert first.key_weights.shape == (3, 5)
        assert first.output_projection.shape == (15, 4)
        assert first.output_dim == 4
        # The stream still draws the earlier layout's query half and bias.
        earlier = score_layout_params(5, head_count=3, output_dim=4, seed=42)
        assert first.key_weights.tobytes() == earlier["score_weights"][:, 5:].tobytes()
        assert first.output_projection.tobytes() == earlier["output_projection"].tobytes()

    def test_non_finite_rejected(self):
        with pytest.raises(InputError, match="key_weights must be finite"):
            single_head_params([np.inf, 0.0])

    @pytest.mark.parametrize("projection", [None, np.zeros((0, 3))])
    def test_zero_heads_rejected(self, projection):
        with pytest.raises(InputError, match=r"heads >= 1.*got \(0, 4\)"):
            AttentionParams(key_weights=np.zeros((0, 4)), output_projection=projection)

    def test_projection_shape_checked(self):
        with pytest.raises(InputError, match="output_projection must have 2 rows"):
            AttentionParams(key_weights=np.zeros((1, 2)), output_projection=np.zeros((5, 2)))


def softmax_average(scores, mask, feats):
    """Row i: the softmax of ``scores[i]`` over ``mask[i]`` applied to ``feats``."""
    masked = np.where(mask, scores, -np.inf)
    weights = np.exp(masked - masked.max(axis=1, keepdims=True))
    return (weights / weights.sum(axis=1, keepdims=True)) @ feats


class TestSimilarityScores:
    def test_hand_computed_pair_score(self):
        feats = np.array([[2.0, 0.0], [0.0, 3.0]])
        g = graph_from_edges(2, [(0, 1, 0.5)], features=feats)
        params = single_head_params([0.0, 1.0])
        # score (i, j) = x_j[1], self pairs included
        scores = np.array([[0.0, 3.0], [0.0, 3.0]])
        expected = softmax_average(scores, np.ones((2, 2), dtype=bool), feats)
        assert pair_matrix(attendable_pairs(g, g.features), True, fill=False).all()
        out = multi_head_attend(feats, params, g)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-12)

    def test_hand_computed_iou_bias(self):
        feats = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        g = graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.0)], features=feats)
        params = single_head_params([0.0, 1.0])
        scores = np.tile([0.0, 3.0, 1.0], (3, 1))
        log_bias = np.zeros((3, 3))
        log_bias[0, 1] = log_bias[1, 0] = np.log(0.5)  # zero-weight edge (1, 2) stays unbiased
        mask = pair_matrix(attendable_pairs(g, g.features), True, fill=False)
        for iou_bias in (False, True):
            expected = softmax_average(scores + log_bias * iou_bias, mask, feats)
            out = multi_head_attend(feats, params, g, iou_bias=iou_bias)
            assert np.allclose(out, expected, rtol=0.0, atol=1e-12)

    def test_zero_parameters_give_zero_scores(self):
        feats = np.random.default_rng(0).normal(size=(4, 3))
        g = graph_from_edges(4, [(0, 1, 0.3), (2, 3, 0.4)], features=feats)
        out = multi_head_attend(feats, single_head_params([0.0] * 3), g)
        mask = pair_matrix(attendable_pairs(g, g.features), True, fill=False)
        for i in range(4):
            assert out[i] == pytest.approx(feats[mask[i]].mean(axis=0), abs=1e-12)

    def test_mask_is_neighbors_plus_self(self):
        feats = np.zeros((3, 1))
        g = graph_from_edges(3, [(0, 1, 0.9)], features=feats)
        mask = pair_matrix(attendable_pairs(g, g.features), True, fill=False)
        expected = np.array([[True, True, False], [True, True, False], [False, False, True]])
        assert np.array_equal(mask, expected)

    def test_dimension_mismatch_rejected(self):
        feats = np.zeros((2, 3))
        g = graph_from_edges(2, [(0, 1, 0.5)], features=feats)
        with pytest.raises(InputError, match="feature dim 3 does not match params dim 1"):
            multi_head_attend(feats, single_head_params([0.0]), g)


class TestAttend:
    def test_single_node_identity(self):
        feats = np.array([[3.0, -1.0, 2.0]])
        g = graph_from_edges(1, [], features=feats)
        params = single_head_params([0.25, 1.0, -3.0])
        assert np.array_equal(multi_head_attend(feats, params, g), feats)

    def test_log_three_softmax(self):
        # score (i, j) = log(3) * x_j[0]: every row weighs node 0 three times node 1
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        g = graph_from_edges(2, [(0, 1, 0.5)], features=feats)
        out = multi_head_attend(feats, single_head_params([np.log(3.0), 0.0]), g)
        assert out[0] == pytest.approx([0.75, 0.25], abs=1e-12)
        assert out[1] == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_uniform_scores_average(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(6, 3))
        g = graph_from_edges(6, [(i, j, 0.5) for i in range(6) for j in range(i + 1, 6)],
                             features=feats)
        out = multi_head_attend(feats, single_head_params([0.0] * 3), g)
        mean = feats.mean(axis=0)
        for row in out:
            assert row == pytest.approx(mean, abs=1e-12)

    def test_non_finite_attendable_score_raises(self):
        # 2 * 1e308 overflows node 0's key score, which row 0 attends.
        feats = np.array([[1e308, 0.0], [0.0, 0.0]])
        g = graph_from_edges(2, [(0, 1, 0.5)], features=feats)
        with pytest.raises(NumericalError, match="row 0: non-finite attention score"):
            multi_head_attend(feats, single_head_params([2.0, 0.0]), g)

    def test_masked_row_softmax_ignores_masked_entries(self):
        scores = np.array([[0.0, 100.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        g = graph_from_edges(3, [(0, 2, 0.5)])
        pairs = attendable_pairs(g, g.features)
        weights = weight_matrix(pairs, scores[pair_coords(pairs)])
        assert weights[0, 1] == 0.0
        assert weights[0, 0] + weights[0, 2] == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_stay_in_hull(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        g = random_connected_graph(rng, m, features=3)
        params = AttentionParams.initialize(3, seed=seed & 0xFFFF)
        pairs = attendable_pairs(g, g.features)
        weights = weight_matrix(pairs, pair_scores(g.features, params, pairs))
        sums = weights.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9
        out = multi_head_attend(g.features, params, g)
        mask = pair_matrix(pairs, True, fill=False)
        for i in range(m):
            idx = np.flatnonzero(mask[i])
            assert np.all(out[i] >= g.features[idx].min(axis=0))
            assert np.all(out[i] <= g.features[idx].max(axis=0))

    @given(st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=-30, max_value=30, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        g = random_connected_graph(rng, m, features=3)
        params = AttentionParams.initialize(3, seed=seed & 0xFFFF)
        base = multi_head_attend(g.features, params, g)
        # Only the scores of row 1's twin class move.
        with shifted_row(1, shift) as twins:
            shifted = multi_head_attend(g.features, params, g)
        assert np.max(np.abs(shifted[twins] - base[twins])) <= 1e-12
        others = np.setdiff1d(np.arange(m), twins)
        assert shifted[others].tobytes() == base[others].tobytes()

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_permutation_equivariance_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        g = random_connected_graph(rng, m, features=3)
        params = AttentionParams.initialize(3, seed=seed & 0xFFFF)
        perm = rng.permutation(m)
        permuted_g = permuted_graph(g, perm)
        for iou_bias in (False, True):
            base = multi_head_attend(g.features, params, g, iou_bias=iou_bias)
            permuted = multi_head_attend(permuted_g.features, params, permuted_g,
                                         iou_bias=iou_bias)
            assert np.array_equal(permuted, base[perm])


class TestMultiHead:
    def test_identical_heads_duplicate_blocks(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 5, features=3)
        one = AttentionParams.initialize(3, head_count=1, seed=9)
        two = AttentionParams(key_weights=np.vstack([one.key_weights, one.key_weights]))
        out = multi_head_attend(g.features, two, g)
        assert out.shape == (5, 6)
        assert np.array_equal(out[:, :3], out[:, 3:])

    def test_detector_scale_shape(self):
        # 8 heads over 7-dim spatial descriptors projected to 1024 dims
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 6, features=7)
        params = AttentionParams.initialize(7, head_count=8, output_dim=1024, seed=1)
        out = multi_head_attend(g.features, params, g)
        assert out.shape == (6, 1024)

    def test_projection_requires_matching_dim(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 4, features=3)
        with pytest.raises(InputError):
            AttentionParams(
                key_weights=np.zeros((2, 3)),
                output_projection=np.zeros((3, 8)),  # needs 2*3 rows
            )
        del g


class TestGradients:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(rng, 4, features=3)
        params = AttentionParams.initialize(3, head_count=2, output_dim=5, seed=2)
        grads = attention_gradients(g.features, params, g, np.zeros((4, 5)))
        assert not grads.features.any()
        assert not grads.key_weights.any()
        assert not grads.output_projection.any()

    def test_single_node_identity_gradient(self):
        g = graph_from_edges(1, [], features=np.array([[1.5, -2.0]]))
        params = AttentionParams.initialize(2, head_count=1, seed=0)
        upstream = np.array([[0.3, 0.7]])
        grads = attention_gradients(g.features, params, g, upstream)
        assert grads.features == pytest.approx(upstream, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=12, deadline=None)
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        d = int(rng.integers(2, 5))
        heads = int(rng.choice([1, 2]))
        g = random_connected_graph(rng, m, features=d)
        out_dim = int(rng.integers(2, 5)) if seed % 2 == 0 else None
        params = AttentionParams.initialize(d, head_count=heads, output_dim=out_dim,
                                            seed=seed & 0xFFFF)
        upstream = rng.normal(size=(m, params.output_dim))
        analytic = attention_gradients(g.features, params, g, upstream)
        numeric = finite_difference_gradients(g.features, params, g, upstream)
        assert max_relative_error(analytic, numeric) < 1e-5


class TestSparseKernel:
    def test_pairs_are_self_plus_both_edge_directions_bucketed_by_degree(self):
        # Nodes 0 and 3 share a feature row. Ranks follow the bits read as
        # uint64, where -1.0 comes after every positive value.
        feats = np.array([[1.0], [5.0], [-1.0], [1.0], [2.0]])
        g = graph_from_edges(5, [(0, 3, 0.5), (1, 3, 0.0), (0, 1, 0.25)], features=feats)
        pairs = attendable_pairs(g, g.features, iou_bias=True)
        rank = attention._content_rank(feats)
        assert rank.tolist() == [0, 2, 3, 0, 1]
        assert pairs.indptr.tolist() == [0, 3, 6, 7, 10, 11]
        # By rank, and the equal-content nodes 0 and 3 by ascending log-weight.
        assert pairs.indices.tolist() == [3, 0, 1, 0, 3, 1, 2, 0, 3, 1, 4]
        # Without the bias any order of equal content sums to the same bits.
        plain = attendable_pairs(g, g.features)
        assert rank[plain.indices].tolist() == [0, 0, 2, 0, 0, 2, 3, 0, 0, 2, 1]
        assert pair_matrix(plain, True, fill=False).tolist() == pair_matrix(
            pairs, True, fill=False).tolist()
        bias = pair_matrix(pairs, pairs.log_weight, fill=np.nan)
        assert bias[0, 3] == bias[3, 0] == np.log(0.5)
        assert bias[0, 1] == bias[1, 0] == np.log(0.25)
        # self pairs and the zero-weight edge carry -0.0, which adds nothing
        for i, j in [(1, 3), (3, 1), (0, 0), (2, 2)]:
            assert bias[i, j] == 0.0 and np.signbit(bias[i, j])
        assert [(k, rows.tolist()) for k, rows in pairs.buckets] == [(1, [2, 4]), (3, [0, 1, 3])]
        assert plain.log_weight is None

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        iou_bias=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_pairs_equal_the_argsort_construction(self, seed, iou_bias):
        # Rows drawn from a small pool repeat, some differing only in a zero's
        # sign; IoU 1.0 gives a +0.0 log-weight beside the self pairs' -0.0.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 30))
        g = random_connected_graph(rng, m)
        if g.num_edges:
            weights = rng.choice([g.edge_weight, np.full(g.num_edges, 0.5),
                                  rng.choice([0.25, 0.5, 1.0], size=g.num_edges)])
            g = graph_from_edges(m, [(int(i), int(j), float(w))
                                     for (i, j), w in zip(g.edge_index, weights)])
        d = int(rng.integers(1, 4))
        feats = rng.choice([-1.5, -0.0, 0.0, 0.5], size=(int(rng.integers(1, 6)), d))
        feats = feats[rng.integers(0, feats.shape[0], size=m)]
        got = attendable_pairs(g, feats, iou_bias=iou_bias)
        want = argsort_attendable_pairs(g, feats, iou_bias=iou_bias)
        assert got.indptr.tobytes() == want.indptr.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()
        assert (got.log_weight is None) == (want.log_weight is None) == (not iou_bias)
        if iou_bias:
            assert got.log_weight.tobytes() == want.log_weight.tobytes()
        assert len(got.buckets) == len(want.buckets)
        for (k, rows), (want_k, want_rows) in zip(got.buckets, want.buckets):
            assert k == want_k and rows.tobytes() == want_rows.tobytes()

    def test_pairs_need_one_feature_row_per_node(self):
        g = graph_from_edges(5, [(0, 3, 0.5)])
        with pytest.raises(InputError, match="^4 feature rows for 5 graph nodes$"):
            attendable_pairs(g, np.zeros((4, 2)))
        with pytest.raises(InputError, match="^features must be a 2-d matrix$"):
            attendable_pairs(g, np.zeros(5))

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        iou_bias=st.booleans(),
        heads=st.sampled_from([1, 4]),
        signed_zeros=st.booleans(),
        block_floats=st.sampled_from([1, 24, 1 << 20]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dense_reference_bitwise(
        self, seed, iou_bias, heads, signed_zeros, block_floats
    ):
        # Random density leaves isolated nodes and mixes degrees (several
        # buckets); a fifth of the edges weigh 0, which the IoU bias skips.
        # Small blocks split buckets across blocks.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 16))
        d = int(rng.integers(1, 5))
        density = rng.uniform(0.0, 0.7)
        edges = [
            (i, j, 0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 1.0)))
            for i in range(m) for j in range(i + 1, m) if rng.random() < density
        ]
        if signed_zeros:
            # Repeated values and both zeros: equal rows tie on content rank.
            feats = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=(m, d))
        else:
            feats = rng.normal(size=(m, d))
        g = graph_from_edges(m, edges, features=feats)
        out_dim = int(rng.integers(1, 6)) if heads > 1 else None
        params = AttentionParams.initialize(d, head_count=heads, output_dim=out_dim,
                                            seed=seed & 0xFFFF)
        reference = reference_attention(feats, params, g, iou_bias=iou_bias)
        # Each worker count also sets the block size, _BLOCK_FLOATS // workers.
        for workers in (1, 2, 3):
            with mock.patch.object(attention, "_BLOCK_FLOATS", block_floats), \
                    mock.patch.object(attention, "_worker_count", return_value=workers):
                out = multi_head_attend(feats, params, g, iou_bias=iou_bias)
            assert np.array_equal(out, reference)
            assert out.tobytes() == reference.tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        iou_bias=st.booleans(),
        heads=st.sampled_from([1, 4]),
        block_floats=st.sampled_from([1, 24, 1 << 20]),
    )
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance_exact_with_tied_rows(
        self, seed, iou_bias, heads, block_floats
    ):
        # Feature rows come from a pool of four over values that include both
        # zeros, so rows repeat, some differing only in a zero's sign. Nodes 0
        # and 1 share a row: node 2 sees them with different IoU, node 3 with
        # equal IoU. IoU 1.0 gives a +0.0 log-weight beside the self pairs' -0.0.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 14))
        d = int(rng.integers(1, 5))
        pool = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=(4, d))
        feats = pool[rng.integers(0, 4, size=m)]
        feats[1] = feats[0]
        ious = [0.0, 0.25, 0.5, 1.0]
        edges = {(0, 2): 0.25, (1, 2): 0.5, (0, 3): 0.5, (1, 3): 0.5}
        density = rng.uniform(0.0, 0.6)
        for i in range(m):
            for j in range(i + 1, m):
                if (i, j) not in edges and rng.random() < density:
                    edges[(i, j)] = float(rng.choice(ious))
        g = graph_from_edges(m, [(i, j, w) for (i, j), w in edges.items()], features=feats)
        out_dim = int(rng.integers(1, 6)) if heads > 1 else None
        params = AttentionParams.initialize(d, head_count=heads, output_dim=out_dim,
                                            seed=seed & 0xFFFF)
        perm = rng.permutation(m)
        permuted_g = permuted_graph(g, perm)
        for workers in (1, 2, 3):
            with mock.patch.object(attention, "_BLOCK_FLOATS", block_floats), \
                    mock.patch.object(attention, "_worker_count", return_value=workers):
                base = multi_head_attend(feats, params, g, iou_bias=iou_bias)
                permuted = multi_head_attend(permuted_g.features, params, permuted_g,
                                             iou_bias=iou_bias)
            assert permuted.tobytes() == base[perm].tobytes()

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        hub=st.booleans(),
        repeated=st.booleans(),
        iou_bias=st.booleans(),
        block_floats=st.sampled_from([1, 24, 1 << 20]),
    )
    @settings(max_examples=150, deadline=None)
    def test_twin_rows_match_the_dense_reference_bitwise(
        self, seed, hub, repeated, iou_bias, block_floats
    ):
        # Disjoint cliques, which share node 0 as a hub when asked. Each
        # clique's edges all weigh 0 or all 0.5. Repeated rows take values
        # that include both zeros.
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 6, size=int(rng.integers(1, 5)))
        m = int(sizes.sum()) + hub
        edges, start = [], int(hub)
        for size in sizes:
            members = range(start, start + int(size))
            weight = float(rng.choice([0.0, 0.5]))
            edges += [(i, j, weight) for i in members for j in members if i < j]
            edges += [(0, i, 0.25) for i in members if hub]
            start += int(size)
        d = int(rng.integers(1, 4))
        if repeated:
            feats = rng.choice([-1.5, -0.0, 0.0, 0.5], size=(m, d))
        else:
            feats = rng.normal(size=(m, d))
        g = graph_from_edges(m, edges, features=feats)
        heads = int(rng.choice([1, 3]))
        params = AttentionParams.initialize(d, head_count=heads,
                                            output_dim=2 if heads > 1 else None,
                                            seed=seed & 0xFFFF)
        reference = reference_attention(feats, params, g, iou_bias=iou_bias)
        # With the bias no rows are shared. Without it, rows with different
        # attendable sets are never twins; without repeated rows the others
        # all are.
        attendable = [{i} for i in range(m)]
        for i, j, _ in edges:
            attendable[i].add(j)
            attendable[j].add(i)
        distinct = m if iou_bias else len({frozenset(row) for row in attendable})
        for workers in (1, 2, 3):
            degrees = AttentionDegrees()
            with mock.patch.object(attention, "_BLOCK_FLOATS", block_floats), \
                    mock.patch.object(attention, "_worker_count", return_value=workers):
                out = multi_head_attend(feats, params, g, iou_bias=iou_bias, degrees=degrees)
            assert out.tobytes() == reference.tobytes()
            assert degrees.computed_rows >= distinct
            if not repeated:
                assert degrees.computed_rows == distinct

    @given(seed=st.integers(min_value=0, max_value=2**31), iou_bias=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_query_half_and_bias_leave_the_bytes_unchanged(self, seed, iou_bias):
        # A params file in the earlier layout, with any query half and bias,
        # attends like its key half alone.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        d = int(rng.integers(1, 4))
        g = random_connected_graph(rng, m, features=d)
        params = AttentionParams.initialize(d, head_count=2, output_dim=d, seed=seed & 0xFFFF)
        earlier = {
            "score_weights": np.hstack([rng.normal(scale=10.0, size=(2, d)),
                                        params.key_weights]).tolist(),
            "score_bias": (rng.normal(size=2) * 10.0).tolist(),
            "output_projection": params.output_projection.tolist(),
        }
        loaded = params_from_dict(earlier)
        base = multi_head_attend(g.features, params, g, iou_bias=iou_bias)
        out = multi_head_attend(g.features, loaded, g, iou_bias=iou_bias)
        assert out.tobytes() == base.tobytes()

    def test_computed_rows_count_the_twin_classes(self):
        feats = np.random.default_rng(3).normal(size=(6, 2))
        params = AttentionParams.initialize(2, seed=0)
        cliques = graph_from_edges(6, [(a + i, a + j, 0.5) for a in (0, 3)
                                       for i, j in [(0, 1), (0, 2), (1, 2)]], features=feats)
        path = graph_from_edges(6, [(i, i + 1, 0.5) for i in range(5)], features=feats)
        for g, rows in [(cliques, 2), (path, 6)]:
            degrees = AttentionDegrees()
            multi_head_attend(feats, params, g, degrees=degrees)
            assert degrees.computed_rows == rows

    def test_non_finite_score_in_another_thread_raises(self):
        # One row per block; the calling thread holds its first block until
        # the other worker has run one, whose scores get an infinity.
        g = graph_from_edges(6, [], features=np.arange(6.0)[:, None])
        params = single_head_params([-1.0])
        softmax = attention.attention_weights
        caller = threading.get_ident()
        worker_ran = threading.Event()
        poisoned = []
        threads_before = threading.active_count()

        def gated(scores):
            if threading.get_ident() == caller:
                assert worker_ran.wait(timeout=10)
                return softmax(scores)
            worker_ran.set()
            poisoned.append(threading.get_ident())
            return softmax(np.full_like(scores, np.inf))

        with mock.patch.object(attention, "_BLOCK_FLOATS", 1), \
                mock.patch.object(attention, "_worker_count", return_value=2), \
                mock.patch.object(attention, "attention_weights", gated):
            with pytest.raises(NumericalError, match="non-finite"):
                multi_head_attend(g.features, params, g)
        assert poisoned and caller not in poisoned
        assert threading.active_count() == threads_before

    def test_thread_that_fails_to_start_is_raised_after_the_started_are_joined(self):
        # Of two extra workers the first starts and takes a block, and the
        # second fails to start. The first stops after its block, the caller
        # runs none, and the start failure is raised once the first is joined.
        g = graph_from_edges(6, [], features=np.arange(6.0)[:, None])
        params = single_head_params([-1.0])
        softmax = attention.attention_weights
        start = threading.Thread.start
        caller = threading.get_ident()
        in_block = threading.Event()
        finished = []
        threads_before = threading.active_count()

        def slow(scores):
            in_block.set()
            time.sleep(0.2)
            finished.append(threading.get_ident())
            return softmax(scores)

        def start_once(thread):
            if in_block.is_set():
                raise RuntimeError("can't start new thread")
            start(thread)
            in_block.wait(timeout=10)

        with mock.patch.object(attention, "_BLOCK_FLOATS", 1), \
                mock.patch.object(attention, "_worker_count", return_value=3), \
                mock.patch.object(attention, "attention_weights", slow), \
                mock.patch.object(threading.Thread, "start", start_once):
            with pytest.raises(RuntimeError, match="can't start new thread"):
                multi_head_attend(g.features, params, g)
        assert len(finished) == 1 and caller not in finished
        assert threading.active_count() == threads_before

    def test_block_error_is_raised_before_a_later_generator_error(self):
        # One thread takes block 0, whose scores overflow; the other's pull
        # then fails inside the block generator before block 0 finishes. The
        # pull comes after block 0 was handed out, so block 0's error wins.
        g = graph_from_edges(6, [], features=np.arange(6.0)[:, None])
        params = single_head_params([-1.0])
        softmax = attention.attention_weights
        blocks = attention._blocks
        pulled = threading.Event()

        def failing(*args):
            generator = blocks(*args)
            yield next(generator)
            pulled.set()
            raise MemoryError("block generator")

        def overflowing(scores):
            assert pulled.wait(timeout=10)
            return softmax(np.full_like(scores, np.inf))

        with mock.patch.object(attention, "_BLOCK_FLOATS", 1), \
                mock.patch.object(attention, "_worker_count", return_value=2), \
                mock.patch.object(attention, "_blocks", failing), \
                mock.patch.object(attention, "attention_weights", overflowing):
            with pytest.raises(NumericalError, match="non-finite"):
                multi_head_attend(g.features, params, g)

    def test_non_finite_score_names_the_head_and_row(self):
        # Only head 1 overflows, and only on node 2's key, which rows 1, 2
        # and 3 attend. The first of them in bucket order is named: row 3,
        # the second row of the degree-2 bucket [0, 3].
        feats = np.array([[1.0, 0.0], [1.0, 0.0], [1e308, 0.0], [1.0, 0.0]])
        g = graph_from_edges(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)], features=feats)
        params = AttentionParams(key_weights=np.array([[0.0, 0], [2.0, 0]]))
        message = "attention: head 1, row 3: non-finite attention score"
        with pytest.raises(NumericalError, match=message):
            multi_head_attend(feats, params, g)
        with pytest.raises(NumericalError, match=message):
            attention_gradients(feats, params, g, np.ones((4, 4)))

    def test_one_block_starts_no_thread(self):
        g = graph_from_edges(4, [(0, 1, 0.5), (2, 3, 0.5)], features=np.ones((4, 2)))
        params = AttentionParams.initialize(2, head_count=2, seed=0)
        degrees = AttentionDegrees()
        with mock.patch.object(attention, "_worker_count", return_value=4), \
                mock.patch.object(threading, "Thread", side_effect=AssertionError("thread")):
            multi_head_attend(g.features, params, g, degrees=degrees)
        assert degrees.workers == 1

    def test_more_workers_than_cores_under_fast_switching(self):
        # Eight workers race for one-row blocks with the interpreter switching
        # threads every microsecond: a block lost or run twice, or a
        # generator advanced by two threads at once, breaks the bytes.
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 60, features=3)
        params = AttentionParams.initialize(3, head_count=2, output_dim=3, seed=1)
        reference = reference_attention(g.features, params, g, iou_bias=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(attention, "_BLOCK_FLOATS", 1), \
                    mock.patch.object(attention, "_worker_count", return_value=8):
                degrees = AttentionDegrees()
                out = multi_head_attend(g.features, params, g, iou_bias=True, degrees=degrees)
        finally:
            sys.setswitchinterval(interval)
        assert degrees.workers == 8
        assert out.tobytes() == reference.tobytes()

    def test_gradients_do_not_depend_on_block_size(self):
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 9, features=3)
        params = AttentionParams.initialize(3, head_count=2, output_dim=4, seed=8)
        upstream = rng.normal(size=(9, 4))
        whole = attention_gradients(g.features, params, g, upstream, iou_bias=True)
        with mock.patch.object(attention, "_BLOCK_FLOATS", 1):
            split = attention_gradients(g.features, params, g, upstream, iou_bias=True)
        for a, b in [(whole.features, split.features),
                     (whole.key_weights, split.key_weights),
                     (whole.output_projection, split.output_projection)]:
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_degree_statistics_come_from_the_buckets(self):
        g = graph_from_edges(5, [(0, 3, 0.5), (1, 3, 0.0), (0, 1, 0.25)],
                             features=np.ones((5, 2)))
        params = AttentionParams.initialize(2, seed=0)
        degrees = AttentionDegrees()
        # Three CPUs: the workers are capped at the two buckets' two blocks.
        with mock.patch.object(attention, "_worker_count", return_value=3):
            multi_head_attend(g.features, params, g, degrees=degrees)
        assert degrees == AttentionDegrees(min_degree=1, median_degree=3.0, max_degree=3,
                                           buckets=2, workers=2, computed_rows=5)
