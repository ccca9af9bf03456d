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
    attend,
    attendable_pairs,
    attention_gradients,
    finite_difference_gradients,
    graph_from_edges,
    multi_head_attend,
    similarity_scores,
)
from propgraph import attention
from propgraph.oracles import max_relative_error, random_connected_graph, reference_attention

from conftest import pair_coords, pair_matrix, permuted_graph, weight_matrix


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

    @pytest.mark.parametrize("projection", [None, np.zeros((0, 3))])
    def test_zero_heads_rejected(self, projection):
        with pytest.raises(InputError, match=r"heads >= 1.*got \(0, 4\)"):
            AttentionParams(score_weights=np.zeros((0, 4)), score_bias=np.zeros(0),
                            output_projection=projection)

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
        pairs = attendable_pairs(g)
        params = single_head_params([1.0, 0.0, 0.0, 1.0])
        scores = pair_matrix(pairs, similarity_scores(feats, params, pairs))
        assert scores[0, 1] == 5.0  # 2 + 3
        assert scores[0, 0] == 2.0  # self-concatenation [2,0,2,0]
        assert pair_matrix(pairs, True, fill=False).all()

    def test_hand_computed_iou_bias(self):
        feats = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        g = graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.0)], features=feats)
        params = single_head_params([1.0, 0.0, 0.0, 1.0], bias=0.25)
        for dense in (False, True):
            pairs = attendable_pairs(g, dense_attention=dense, iou_bias=True)
            scores = similarity_scores(feats, params, pairs)
            expected = np.array([
                [2.25, 5.25 + np.log(0.5), 3.25],
                [0.25 + np.log(0.5), 3.25, 1.25],  # zero-weight edge (1, 2) stays unbiased
                [1.25, 4.25, 2.25],
            ])
            assert np.array_equal(scores, expected[pair_coords(pairs)])

    def test_zero_parameters_give_zero_scores(self):
        feats = np.random.default_rng(0).normal(size=(4, 3))
        g = graph_from_edges(4, [(0, 1, 0.3), (2, 3, 0.4)], features=feats)
        scores = similarity_scores(feats, single_head_params([0.0] * 6), attendable_pairs(g))
        assert np.all(scores == 0.0)

    def test_mask_is_neighbors_plus_self(self):
        feats = np.zeros((3, 1))
        g = graph_from_edges(3, [(0, 1, 0.9)], features=feats)
        mask = pair_matrix(attendable_pairs(g), True, fill=False)
        expected = np.array([[True, True, False], [True, True, False], [False, False, True]])
        assert np.array_equal(mask, expected)
        dense = pair_matrix(attendable_pairs(g, dense_attention=True), True, fill=False)
        assert dense.all()

    def test_dimension_mismatch_rejected(self):
        feats = np.zeros((2, 3))
        g = graph_from_edges(2, [(0, 1, 0.5)], features=feats)
        with pytest.raises(InputError):
            similarity_scores(feats, single_head_params([0.0, 0.0]), attendable_pairs(g))


class TestAttend:
    def test_single_node_identity(self):
        pairs = attendable_pairs(graph_from_edges(1, []))
        feats = np.array([[3.0, -1.0, 2.0]])
        assert np.array_equal(attend(feats, pairs, np.zeros(1)), feats)

    def test_log_three_softmax(self):
        pairs = attendable_pairs(graph_from_edges(2, [(0, 1, 0.5)]))
        scores = np.array([[np.log(3.0), 0.0], [0.0, 0.0]])[pair_coords(pairs)]
        out = attend(np.array([[1.0, 0.0], [0.0, 1.0]]), pairs, scores)
        assert out[0] == pytest.approx([0.75, 0.25], abs=1e-12)
        assert out[1] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_uniform_scores_average(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(6, 3))
        pairs = attendable_pairs(graph_from_edges(6, []), dense_attention=True)
        out = attend(feats, pairs, np.full(36, 2.5))
        mean = feats.mean(axis=0)
        for row in out:
            assert row == pytest.approx(mean, abs=1e-12)

    def test_non_finite_attendable_score_raises(self):
        pairs = attendable_pairs(graph_from_edges(2, [(0, 1, 0.5)]))
        scores = np.array([[0.0, np.inf], [0.0, 0.0]])[pair_coords(pairs)]
        with pytest.raises(NumericalError):
            attend(np.zeros((2, 2)), pairs, scores)

    def test_masked_row_softmax_ignores_masked_entries(self):
        scores = np.array([[0.0, 100.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        pairs = attendable_pairs(graph_from_edges(3, [(0, 2, 0.5)]))
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
        pairs = attendable_pairs(g)
        scores = similarity_scores(g.features, params, pairs)
        weights = weight_matrix(pairs, scores)
        sums = weights.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9
        out = attend(g.features, pairs, scores)
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
        pairs = attendable_pairs(g)
        scores = similarity_scores(g.features, params, pairs)
        base = attend(g.features, pairs, scores)
        shifted_scores = scores.copy()
        row_one = pair_coords(pairs)[0] == 1
        shifted_scores[row_one] = shifted_scores[row_one] + shift
        shifted = attend(g.features, pairs, shifted_scores)
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
        pairs = attendable_pairs(g)
        scores = similarity_scores(g.features, params, pairs)
        base = attend(g.features, pairs, scores)
        perm = rng.permutation(m)
        permuted_pairs = attendable_pairs(permuted_graph(g, perm))
        permuted_scores = pair_matrix(pairs, scores)[np.ix_(perm, perm)]
        permuted = attend(
            g.features[perm], permuted_pairs, permuted_scores[pair_coords(permuted_pairs)]
        )
        assert np.array_equal(permuted, base[perm])


class TestMultiHead:
    def test_one_head_reduces_to_attend(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 5, features=4)
        params = AttentionParams.initialize(4, head_count=1, seed=7)
        pairs = attendable_pairs(g)
        scores = similarity_scores(g.features, params, pairs)
        assert np.array_equal(multi_head_attend(g.features, params, g),
                              attend(g.features, pairs, scores))

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


class TestSparseKernel:
    def test_pairs_are_self_plus_both_edge_directions_bucketed_by_degree(self):
        g = graph_from_edges(5, [(0, 3, 0.5), (1, 3, 0.0), (0, 1, 0.25)])
        pairs = attendable_pairs(g, iou_bias=True)
        assert pairs.indptr.tolist() == [0, 3, 6, 7, 10, 11]
        assert pairs.indices.tolist() == [0, 1, 3, 0, 1, 3, 2, 0, 1, 3, 4]
        bias = pair_matrix(pairs, pairs.log_weight, fill=np.nan)
        assert bias[0, 3] == bias[3, 0] == np.log(0.5)
        assert bias[0, 1] == bias[1, 0] == np.log(0.25)
        # self pairs and the zero-weight edge carry -0.0, which adds nothing
        for i, j in [(1, 3), (3, 1), (0, 0), (2, 2)]:
            assert bias[i, j] == 0.0 and np.signbit(bias[i, j])
        assert [(k, rows.tolist()) for k, rows in pairs.buckets] == [(1, [2, 4]), (3, [0, 1, 3])]
        dense = attendable_pairs(g, dense_attention=True)
        assert [(k, rows.tolist()) for k, rows in dense.buckets] == [(5, [0, 1, 2, 3, 4])]
        assert dense.pair_count == 25 and attendable_pairs(g).log_weight is None

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        dense=st.booleans(),
        iou_bias=st.booleans(),
        heads=st.sampled_from([1, 4]),
        signed_zeros=st.booleans(),
        block_floats=st.sampled_from([1, 24, 1 << 20]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dense_reference_bitwise(
        self, seed, dense, iou_bias, heads, signed_zeros, block_floats
    ):
        # Random density leaves isolated nodes and mixes degrees (several
        # buckets); a fifth of the edges weigh 0, which the IoU bias skips.
        # Small blocks split buckets, and the dense bucket, across blocks.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 16))
        d = int(rng.integers(1, 5))
        density = rng.uniform(0.0, 0.7)
        edges = [
            (i, j, 0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 1.0)))
            for i in range(m) for j in range(i + 1, m) if rng.random() < density
        ]
        if signed_zeros:
            # Repeated values and both zeros: the unstable sort must not matter.
            feats = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=(m, d))
        else:
            feats = rng.normal(size=(m, d))
        g = graph_from_edges(m, edges, features=feats)
        out_dim = int(rng.integers(1, 6)) if heads > 1 else None
        params = AttentionParams.initialize(d, head_count=heads, output_dim=out_dim,
                                            seed=seed & 0xFFFF)
        reference = reference_attention(feats, params, g, dense_attention=dense, iou_bias=iou_bias)
        # Each worker count also sets the block size, _BLOCK_FLOATS // workers.
        for workers in (1, 2, 3):
            with mock.patch.object(attention, "_BLOCK_FLOATS", block_floats), \
                    mock.patch.object(attention, "_worker_count", return_value=workers):
                out = multi_head_attend(feats, params, g, dense_attention=dense,
                                        iou_bias=iou_bias)
            assert np.array_equal(out, reference)
            assert out.tobytes() == reference.tobytes()

    def test_dense_mode_builds_no_square_array(self):
        import tracemalloc

        rng = np.random.default_rng(11)
        m = 1000
        g = random_connected_graph(rng, m, features=2)
        params = AttentionParams.initialize(2, head_count=2, output_dim=2, seed=3)
        upstream = rng.normal(size=(m, 2))
        for workers in (1, 2):
            with mock.patch.object(attention, "_BLOCK_FLOATS", 1 << 14), \
                    mock.patch.object(attention, "_worker_count", return_value=workers):
                tracemalloc.start()
                try:
                    degrees = AttentionDegrees()
                    multi_head_attend(g.features, params, g, dense_attention=True,
                                      iou_bias=True, degrees=degrees)
                    attention_gradients(g.features, params, g, upstream, dense_attention=True,
                                        iou_bias=True)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert degrees.workers == workers
            assert peak < m * m * 8 / 4

    def test_non_finite_score_in_another_thread_raises(self):
        # One row per block; the calling thread holds its first block until
        # the other worker has run one, whose scores get an infinity.
        g = graph_from_edges(6, [], features=np.arange(6.0)[:, None])
        params = single_head_params([1.0, -1.0])
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
        params = single_head_params([1.0, -1.0])
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

    def test_non_finite_score_names_the_head_and_row(self):
        # Only head 1 overflows, and only on node 2, the second row of the
        # degree-3 block [1, 2].
        feats = np.array([[1.0, 0.0], [1.0, 0.0], [1e308, 0.0], [1.0, 0.0]])
        g = graph_from_edges(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)], features=feats)
        params = AttentionParams(score_weights=np.array([[0.0, 0, 0, 0], [2.0, 0, 0, 0]]),
                                 score_bias=np.zeros(2))
        message = "attention: head 1, row 2: non-finite attention score"
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
        for dense in (False, True):
            whole = attention_gradients(g.features, params, g, upstream, dense_attention=dense,
                                        iou_bias=True)
            with mock.patch.object(attention, "_BLOCK_FLOATS", 1):
                split = attention_gradients(g.features, params, g, upstream,
                                            dense_attention=dense, iou_bias=True)
            for a, b in [(whole.features, split.features),
                         (whole.score_weights, split.score_weights),
                         (whole.score_bias, split.score_bias),
                         (whole.output_projection, split.output_projection)]:
                assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_degree_statistics_come_from_the_buckets(self):
        g = graph_from_edges(5, [(0, 3, 0.5), (1, 3, 0.0), (0, 1, 0.25)],
                             features=np.ones((5, 2)))
        params = AttentionParams.initialize(2, seed=0)
        degrees = AttentionDegrees()
        # Three CPUs: the workers are capped at the two buckets' two blocks,
        # and the one dense block runs inline.
        with mock.patch.object(attention, "_worker_count", return_value=3):
            multi_head_attend(g.features, params, g, degrees=degrees)
            assert degrees == AttentionDegrees(min_degree=1, median_degree=3.0, max_degree=3,
                                               buckets=2, workers=2)
            multi_head_attend(g.features, params, g, dense_attention=True, degrees=degrees)
            assert degrees == AttentionDegrees(min_degree=5, median_degree=5.0, max_degree=5,
                                               buckets=1, workers=1)
