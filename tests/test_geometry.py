import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propgraph import InputError, build_graph, spatial_descriptor

from conftest import GRID, Box, box_array, dyadic_boxes, exact_iou, grid_area_iou, iou


def build_box(*corners):
    """``build_graph`` of the one box with these corners."""
    return build_graph(np.array([corners], dtype=np.float64), np.zeros((1, 1)), 0.3)


class TestIoU:
    def test_identical_boxes(self):
        box = Box(0.1, 0.2, 0.5, 0.8)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0, 0, 0.1, 0.1), Box(0.5, 0.5, 0.6, 0.6)) == 0.0

    def test_touching_edge_is_zero(self):
        assert iou(Box(0, 0, 0.5, 0.5), Box(0.5, 0, 1.0, 0.5)) == 0.0
        assert iou(Box(0, 0, 0.5, 0.5), Box(0.5, 0.5, 1.0, 1.0)) == 0.0

    def test_one_seventh_overlap(self):
        # intersection 0.01, union 0.04 + 0.04 - 0.01 = 0.07
        a = Box(0, 0, 0.2, 0.2)
        b = Box(0.1, 0.1, 0.3, 0.3)
        value = iou(a, b)
        assert value == pytest.approx(1.0 / 7.0, abs=1e-15)
        assert value == pytest.approx(float(exact_iou(a, b)), abs=1e-15)
        assert value == pytest.approx(grid_area_iou(a, b), abs=5e-3)

    def test_degenerate_box_rejected(self):
        with pytest.raises(InputError):
            build_box(0.1, 0.1, 0.1, 0.5)
        with pytest.raises(InputError):
            build_box(0.1, 0.5, 0.4, 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            build_box(-0.1, 0, 0.5, 0.5)
        with pytest.raises(InputError):
            build_box(0, 0, 1.5, 0.5)
        with pytest.raises(InputError):
            build_box(0, float("nan"), 0.5, 0.5)

    @given(dyadic_boxes(), dyadic_boxes())
    @settings(max_examples=100)
    def test_symmetric_and_bounded(self, a, b):
        forward, backward = iou(a, b), iou(b, a)
        assert forward == backward
        assert 0.0 <= forward <= 1.0

    @given(dyadic_boxes())
    @settings(max_examples=50)
    def test_self_iou_is_one(self, box):
        assert iou(box, box) == 1.0

    @given(dyadic_boxes(), dyadic_boxes(), st.data())
    @settings(max_examples=100)
    def test_translation_invariance_exact(self, a, b, data):
        # Dyadic shifts keep all coordinate arithmetic exact, so the IoU
        # must be bit-identical after translating both boxes together.
        max_x = GRID - int(max(a.x2, b.x2) * GRID)
        max_y = GRID - int(max(a.y2, b.y2) * GRID)
        min_x = -int(min(a.x1, b.x1) * GRID)
        min_y = -int(min(a.y1, b.y1) * GRID)
        dx = data.draw(st.integers(min_value=min_x, max_value=max_x)) / GRID
        dy = data.draw(st.integers(min_value=min_y, max_value=max_y)) / GRID
        shifted_a = Box(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
        shifted_b = Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
        assert iou(shifted_a, shifted_b) == iou(a, b)

    @given(dyadic_boxes(), dyadic_boxes())
    @settings(max_examples=60)
    def test_matches_exact_rational_oracle(self, a, b):
        assert iou(a, b) == pytest.approx(float(exact_iou(a, b)), abs=1e-14)


def descriptor(*boxes):
    """``spatial_descriptor`` of the given corner tuples as an (M, 4) array."""
    return spatial_descriptor(np.array(boxes, dtype=np.float64))


class TestSpatialDescriptor:
    def test_reference_values(self):
        desc = descriptor((0.2, 0.1, 0.6, 0.5))[0]
        assert tuple(desc[:4]) == (0.2, 0.1, 0.6, 0.5)
        assert desc[4] == pytest.approx(0.4, abs=1e-15)
        assert desc[5] == pytest.approx(0.3, abs=1e-15)
        assert desc[6] == pytest.approx(1.0, rel=1e-12)

    def test_full_image_box(self):
        assert tuple(descriptor((0, 0, 1, 1))[0]) == (0, 0, 1, 1, 0.5, 0.5, 1.0)

    def test_wide_box(self):
        desc = descriptor((0.1, 0.1, 0.5, 0.3))[0]
        assert desc[4] == pytest.approx(0.3, abs=1e-15)
        assert desc[5] == pytest.approx(0.2, abs=1e-15)
        assert desc[6] == pytest.approx(2.0, rel=1e-12)

    def test_tiny_height_rejected(self):
        with pytest.raises(InputError, match=r"^boxes\[1\]: height"):
            descriptor((0.0, 0.0, 0.5, 0.5), (0.0, 0.0, 0.5, 1e-17))

    @given(st.lists(dyadic_boxes(), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_centers_are_exact_midpoints(self, boxes):
        desc = spatial_descriptor(box_array(boxes))
        assert desc.shape == (len(boxes), 7) and desc.dtype == np.float64
        for box, row in zip(boxes, desc.tolist()):
            assert row[:4] == list(box)
            assert row[4] == (box.x1 + box.x2) / 2.0
            assert row[5] == (box.y1 + box.y2) / 2.0
            assert row[6] == (box.x2 - box.x1) / (box.y2 - box.y1) > 0.0
