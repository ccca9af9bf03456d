import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propgraph import (
    AttentionParams,
    InputError,
    NumericalError,
    PipelineConfig,
    forward,
    generate_proposals,
    identical_normalize,
)


def far_apart_boxes(count):
    """Proposals with pairwise IoU zero (one per grid cell)."""
    boxes = []
    for k in range(count):
        x = (k % 4) * 0.25
        y = (k // 4) * 0.25
        boxes.append((x + 0.02, y + 0.02, x + 0.2, y + 0.2))
    return np.array(boxes)


def two_box_clusters():
    """Two tight clusters of three boxes each; zero IoU across clusters."""
    base = [
        (0.05, 0.05, 0.30, 0.30),
        (0.06, 0.05, 0.31, 0.31),
        (0.05, 0.07, 0.30, 0.32),
        (0.60, 0.60, 0.85, 0.85),
        (0.61, 0.60, 0.86, 0.86),
        (0.60, 0.62, 0.85, 0.87),
    ]
    return np.array(base)


class TestIdenticalNormalize:
    def test_moment_match_lambda_zero_is_identity(self):
        rng = np.random.default_rng(0)
        original = rng.normal(1.5, 2.0, size=(8, 5))
        refined = rng.normal(size=(8, 5))
        out = identical_normalize(refined, original, lambda_=0.0, epsilon=1e-8)
        assert np.max(np.abs(out - original)) <= 1e-9

    def test_literal_reference_values(self):
        original = np.array([[0.0], [2.0]])
        out = identical_normalize(np.zeros_like(original), original,
                                  lambda_=0.0, epsilon=1e-300, mode="literal")
        assert out == pytest.approx(np.array([[-1.0], [1.0]]), abs=1e-12)

    def test_moment_match_preserves_statistics(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            original = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2), size=(12, 6))
            refined = rng.normal(size=(12, 6))
            lam = float(rng.uniform(0, 3))
            out = identical_normalize(refined, original, lambda_=lam, epsilon=1e-8)
            assert abs(out.mean() - original.mean()) < 1e-9
            assert abs(out.var() / original.var() - 1.0) < 1e-6

    def test_literal_uses_population_variance_plus_epsilon(self):
        original = np.array([[1.0], [3.0]])  # mean 2, population var 1
        refined = np.array([[2.0], [4.0]])
        out = identical_normalize(refined, original, lambda_=1.0, epsilon=1.0, mode="literal")
        mixed = refined + original
        assert np.array_equal(out, (mixed - 2.0) / 2.0)

    def test_per_channel_mode(self):
        rng = np.random.default_rng(2)
        original = rng.normal(size=(10, 3)) * np.array([1.0, 10.0, 0.1])
        refined = rng.normal(size=(10, 3))
        out = identical_normalize(refined, original, lambda_=1.0, epsilon=1e-8,
                                  per_channel=True)
        assert out.mean(axis=0) == pytest.approx(original.mean(axis=0), abs=1e-9)
        assert out.std(axis=0) == pytest.approx(original.std(axis=0), rel=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            identical_normalize(np.zeros((2, 2)), np.zeros((3, 2)), lambda_=1.0, epsilon=1e-8)

    @pytest.mark.parametrize("options, message", [
        ({"epsilon": 0.0}, "epsilon must be > 0, got 0.0"),
        ({"epsilon": -1e-8}, "epsilon must be > 0, got -1e-08"),
        ({"lambda_": -0.5}, "lambda must be >= 0, got -0.5"),
        ({"mode": "median"}, "unknown normalization mode 'median'"),
    ])
    def test_bad_options_rejected(self, options, message):
        kwargs = {"lambda_": 1.0, "epsilon": 1e-8, **options}
        with pytest.raises(InputError, match=f"^{message}$"):
            identical_normalize(np.zeros((2, 2)), np.ones((2, 2)), **kwargs)

    def test_empty_input(self):
        out = identical_normalize(np.zeros((0, 4)), np.zeros((0, 4)), lambda_=1.0, epsilon=1e-8)
        assert out.shape == (0, 4)

    @pytest.mark.parametrize("mode, per_channel, cause", [
        ("moment_match", False, "mixed std"),
        ("moment_match", True, "original std"),
        ("literal", False, "original variance"),
    ])
    def test_overflowing_statistics_raise_naming_the_first_bad_row(self, mode, per_channel,
                                                                   cause):
        original = np.array([[1.0, 2.0], [3.0, 4.0], [1e200, 5.0], [6.0, 7.0]])
        # A variance past the float range divides the literal output down to zeros.
        with pytest.raises(NumericalError, match=rf"{mode} normalization: (output row "
                                                 rf"\d is not finite; )?overflowed: .*{cause}"):
            identical_normalize(np.zeros_like(original), original, lambda_=1.0, epsilon=1e-8,
                                mode=mode, per_channel=per_channel)


class TestForward:
    def test_single_proposal_identity_with_lambda_zero(self):
        boxes = np.array([[0.1, 0.1, 0.4, 0.4]])
        features = np.array([[2.0, -1.0, 0.5]])
        params = AttentionParams.initialize(3, seed=0)
        config = PipelineConfig(lambda_=0.0)
        result = forward(boxes, features, params, config)
        assert result.features.shape == (1, 3)
        assert np.max(np.abs(result.features - features)) <= 1e-9

    def test_lambda_zero_gates_off_the_relation_branch(self):
        rng = np.random.default_rng(3)
        boxes = two_box_clusters()
        features = rng.normal(size=(6, 4))
        params = AttentionParams.initialize(4, seed=1)
        result = forward(boxes, features, params, PipelineConfig(lambda_=0.0))
        assert np.max(np.abs(result.features - features)) <= 1e-9
        # per-row ordering of entries is untouched
        assert np.array_equal(np.argsort(result.features, axis=1),
                              np.argsort(features, axis=1))

    def test_two_cluster_diagnostics(self):
        rng = np.random.default_rng(4)
        boxes = two_box_clusters()
        features = rng.normal(size=(6, 4))
        params = AttentionParams.initialize(4, seed=2)
        result = forward(boxes, features, params, PipelineConfig())
        assert result.features.shape == (6, 4)
        assert result.diagnostics.component_count == 2
        assert result.diagnostics.part_count == 2
        assert result.diagnostics.pseudo_labels == (0, 0, 0, 1, 1, 1)

    def test_no_gcpool_equals_forward_when_nothing_pools(self):
        # all components are singletons, so gcpool produces nothing
        rng = np.random.default_rng(5)
        boxes = far_apart_boxes(5)
        features = rng.normal(size=(5, 3))
        params = AttentionParams.initialize(3, seed=3)
        config = PipelineConfig()
        with_pool = forward(boxes, features, params, config, use_gcpool=True)
        without = forward(boxes, features, params, config, use_gcpool=False)
        assert with_pool.diagnostics.part_count == 0
        assert np.array_equal(with_pool.features, without.features)

    def test_isolated_proposals_keep_moments(self):
        rng = np.random.default_rng(6)
        boxes = far_apart_boxes(6)
        features = rng.normal(2.0, 1.5, size=(6, 4))
        params = AttentionParams.initialize(4, seed=4)
        config = PipelineConfig(lambda_=1.0)
        result = forward(boxes, features, params, config, use_gcpool=False)
        assert abs(result.features.mean() - features.mean()) < 1e-9
        assert abs(result.features.var() / features.var() - 1.0) < 1e-6

    def test_dense_attention_changes_the_output(self):
        rng = np.random.default_rng(7)
        boxes = far_apart_boxes(4)
        features = rng.normal(size=(4, 3))
        params = AttentionParams.initialize(3, seed=5)
        masked = forward(boxes, features, params, PipelineConfig(), use_gcpool=False)
        dense = forward(boxes, features, params, PipelineConfig(dense_attention=True),
                        use_gcpool=False)
        assert not np.array_equal(masked.features, dense.features)

    def test_empty_input(self):
        params = AttentionParams.initialize(3, seed=0)
        result = forward(np.zeros((0, 4)), np.zeros((0, 3)), params, PipelineConfig())
        assert result.features.shape == (0, 3)
        assert result.diagnostics.filtered_ids == ()

    def test_one_dimensional_features_rejected(self):
        params = AttentionParams.initialize(3, seed=0)
        with pytest.raises(InputError, match="^features must be a 2-d matrix$"):
            forward(far_apart_boxes(2), np.zeros(2), params, PipelineConfig())

    def test_output_dim_mismatch_rejected(self):
        boxes = far_apart_boxes(2)
        features = np.zeros((2, 3))
        params = AttentionParams.initialize(3, head_count=2, seed=0)  # output dim 6
        with pytest.raises(InputError):
            forward(boxes, features, params, PipelineConfig())

    def test_row_count_matches_input_for_many_configs(self):
        doc = generate_proposals(clusters=3, per_cluster=5, seed=9, feature_dim=4)
        boxes, feats = doc.normalized_boxes(), doc.feature_matrix()
        params = AttentionParams.initialize(4, head_count=1, seed=0)
        for config in (
            PipelineConfig(),
            PipelineConfig(iou_thr=0.0),
            PipelineConfig(min_size=10),
            PipelineConfig(stop_ncut=0.0),
            PipelineConfig(dense_attention=True),
            PipelineConfig(norm_mode="literal"),
            PipelineConfig(iou_bias=True),
            PipelineConfig(per_channel=True),
        ):
            result = forward(boxes, feats, params, config)
            assert result.features.shape == (15, 4)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_bit_identical_reruns(self, seed):
        doc = generate_proposals(clusters=2, per_cluster=4, seed=seed, feature_dim=3)
        params = AttentionParams.initialize(3, seed=seed & 0xFFFF)
        config = PipelineConfig()
        first = forward(doc.normalized_boxes(), doc.feature_matrix(), params, config)
        second = forward(doc.normalized_boxes(), doc.feature_matrix(), params, config)
        assert np.array_equal(first.features, second.features)
