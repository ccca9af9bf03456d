import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propgraph import (
    AffinityMatrix,
    AttentionParams,
    InputError,
    NumericalError,
    attend,
    attention_gradients,
    attention_weights,
    finite_difference_gradients,
    graph_from_edges,
    multi_head_attend,
    similarity_scores,
)
from propgraph.oracles import max_relative_error, random_connected_graph


def single_head_params(weights, bias=0.0):
    return AttentionParams(
        score_weights=np.asarray([weights], dtype=float),
        score_bias=np.asarray([bias], dtype=float),
    )


class TestParams:
    def test_initialize_bounds_and_determinism(self):
        first = AttentionParams.initialize(5, head_count=3, output_dim=4, seed=42)
        second = AttentionParams.initialize(5, head_count=3, output_dim=4, seed=42)
        assert np.array_equal(first.score_weights, second.score_weights)
        assert np.array_equal(first.output_projection, second.output_projection)
        bound = 1.0 / np.sqrt(10.0)
        assert np.max(np.abs(first.score_weights)) <= bound
        assert first.score_weights.shape == (3, 10)
        assert first.output_projection.shape == (15, 4)
        assert first.output_dim == 4

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            single_head_params([np.inf, 0.0, 0.0, 0.0])

    def test_projection_shape_checked(self):
        with pytest.raises(InputError):
            AttentionParams(
                score_weights=np.zeros((1, 4)),
                score_bias=np.zeros(1),
                output_projection=np.zeros((5, 2)),
            )


class TestSimilarityScores:
    def test_hand_computed_pair_score(self):
        feats = np.array([[2.0, 0.0], [0.0, 3.0]])
        g = graph_from_edges(2, [(0, 1, 0.5)], features=feats)
        aff = similarity_scores(feats, single_head_params([1.0, 0.0, 0.0, 1.0]), g)
        assert aff.scores[0, 1] == 5.0  # 2 + 3
        assert aff.scores[0, 0] == 2.0  # self-concatenation [2,0,2,0]
        assert aff.mask.all()

    def test_hand_computed_iou_bias(self):
        feats = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        g = graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.0)], features=feats)
        params = single_head_params([1.0, 0.0, 0.0, 1.0], bias=0.25)
        for dense in (False, True):
            aff = similarity_scores(feats, params, g, dense_attention=dense, iou_bias=True)
            expected = np.array([
                [2.25, 5.25 + np.log(0.5), 3.25],
                [0.25 + np.log(0.5), 3.25, 1.25],  # zero-weight edge (1, 2) stays unbiased
                [1.25, 4.25, 2.25],
            ])
            assert np.array_equal(aff.scores, expected)

    def test_zero_parameters_give_zero_scores(self):
        feats = np.random.default_rng(0).normal(size=(4, 3))
        g = graph_from_edges(4, [(0, 1, 0.3), (2, 3, 0.4)], features=feats)
        aff = similarity_scores(feats, single_head_params([0.0] * 6), g)
        assert np.all(aff.scores[aff.mask] == 0.0)

    def test_mask_is_neighbors_plus_self(self):
        feats = np.zeros((3, 1))
        g = graph_from_edges(3, [(0, 1, 0.9)], features=feats)
        aff = similarity_scores(feats, single_head_params([0.0, 0.0]), g)
        expected = np.array([[True, True, False], [True, True, False], [False, False, True]])
        assert np.array_equal(aff.mask, expected)
        dense = similarity_scores(feats, single_head_params([0.0, 0.0]), g, dense_attention=True)
        assert dense.mask.all()

    def test_dimension_mismatch_rejected(self):
        feats = np.zeros((2, 3))
        g = graph_from_edges(2, [(0, 1, 0.5)], features=feats)
        with pytest.raises(InputError):
            similarity_scores(feats, single_head_params([0.0, 0.0]), g)


class TestAttend:
    def test_single_node_identity(self):
        aff = AffinityMatrix(scores=np.zeros((1, 1)), mask=np.ones((1, 1), dtype=bool))
        feats = np.array([[3.0, -1.0, 2.0]])
        assert np.array_equal(attend(feats, aff), feats)

    def test_log_three_softmax(self):
        aff = AffinityMatrix(
            scores=np.array([[np.log(3.0), 0.0], [0.0, 0.0]]),
            mask=np.ones((2, 2), dtype=bool),
        )
        out = attend(np.array([[1.0, 0.0], [0.0, 1.0]]), aff)
        assert out[0] == pytest.approx([0.75, 0.25], abs=1e-12)
        assert out[1] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_uniform_scores_average(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(6, 3))
        aff = AffinityMatrix(scores=np.full((6, 6), 2.5), mask=np.ones((6, 6), dtype=bool))
        out = attend(feats, aff)
        mean = feats.mean(axis=0)
        for row in out:
            assert row == pytest.approx(mean, abs=1e-12)

    def test_non_finite_attendable_score_raises(self):
        aff = AffinityMatrix(
            scores=np.array([[0.0, np.inf], [0.0, 0.0]]),
            mask=np.ones((2, 2), dtype=bool),
        )
        with pytest.raises(NumericalError):
            attend(np.zeros((2, 2)), aff)

    def test_masked_row_softmax_ignores_masked_entries(self):
        scores = np.array([[0.0, 100.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        mask = np.eye(3, dtype=bool)
        mask[0, 2] = True
        weights = attention_weights(AffinityMatrix(scores=scores, mask=mask))
        assert weights[0, 1] == 0.0
        assert weights[0, 0] + weights[0, 2] == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_stay_in_hull(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        g = random_connected_graph(rng, m, features=3)
        params = AttentionParams.initialize(3, seed=seed & 0xFFFF)
        aff = similarity_scores(g.features, params, g)
        weights = attention_weights(aff)
        sums = weights.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9
        out = attend(g.features, aff)
        for i in range(m):
            idx = np.flatnonzero(aff.mask[i])
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
        aff = similarity_scores(g.features, params, g)
        base = attend(g.features, aff)
        shifted_scores = aff.scores.copy()
        shifted_scores[1] = shifted_scores[1] + shift
        shifted = attend(g.features, AffinityMatrix(scores=shifted_scores, mask=aff.mask))
        assert np.max(np.abs(shifted[1] - base[1])) <= 1e-12
        others = np.delete(np.arange(m), 1)
        assert np.array_equal(shifted[others], base[others])

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_permutation_equivariance_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        g = random_connected_graph(rng, m, features=3)
        params = AttentionParams.initialize(3, seed=seed & 0xFFFF)
        aff = similarity_scores(g.features, params, g)
        base = attend(g.features, aff)
        perm = rng.permutation(m)
        permuted = attend(
            g.features[perm],
            AffinityMatrix(scores=aff.scores[np.ix_(perm, perm)], mask=aff.mask[np.ix_(perm, perm)]),
        )
        assert np.array_equal(permuted, base[perm])


class TestMultiHead:
    def test_one_head_reduces_to_attend(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 5, features=4)
        params = AttentionParams.initialize(4, head_count=1, seed=7)
        aff = similarity_scores(g.features, params, g)
        assert np.array_equal(multi_head_attend(g.features, params, g), attend(g.features, aff))

    def test_identical_heads_duplicate_blocks(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 5, features=3)
        one = AttentionParams.initialize(3, head_count=1, seed=9)
        two = AttentionParams(
            score_weights=np.vstack([one.score_weights, one.score_weights]),
            score_bias=np.concatenate([one.score_bias, one.score_bias]),
        )
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
                score_weights=np.zeros((2, 6)),
                score_bias=np.zeros(2),
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
        assert not grads.score_weights.any()
        assert not grads.score_bias.any()
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

    def test_dense_mode_gradients_also_check(self):
        rng = np.random.default_rng(77)
        g = random_connected_graph(rng, 5, features=3)
        params = AttentionParams.initialize(3, head_count=2, seed=5)
        upstream = rng.normal(size=(5, params.output_dim))
        analytic = attention_gradients(g.features, params, g, upstream, dense_attention=True)
        numeric = finite_difference_gradients(g.features, params, g, upstream, dense_attention=True)
        assert max_relative_error(analytic, numeric) < 1e-5
