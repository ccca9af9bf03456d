import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propgraph import (
    InputError,
    build_graph,
    connected_components,
    generate_proposals,
    graph,
    graph_from_edges,
    induced_subgraphs,
)
from propgraph.oracles import random_connected_graph, subgraph

from conftest import GRID, Box, box_array, dyadic_boxes, edge_triples, exact_iou, iou

# Boxes on an 8 x 8 grid share x1 and meet along edges often; GRID boxes rarely do.
_SCENES = st.sampled_from([8, GRID]).flatmap(
    lambda grid: st.lists(dyadic_boxes(grid), max_size=60)
)


def _zero_features(n):
    return np.zeros((n, 1))


# Corner values at and just past the unit square's edges, non-finite values
# and signed zeros; drawing from few values makes equal corners common.
_CORNERS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1.0, 0.5,
                     float(np.nextafter(0.0, -1.0)), float(np.nextafter(1.0, 2.0))]),
    st.floats(min_value=-0.25, max_value=1.25),
)


def _reference_rejects(row):
    """The box rules checked one corner at a time: finite, in [0, 1], x1 < x2 and y1 < y2."""
    x1, y1, x2, y2 = row
    in_range = all(math.isfinite(c) and 0.0 <= c <= 1.0 for c in row)
    return not (in_range and x1 < x2 and y1 < y2)


class TestBuildGraph:
    def test_disjoint_boxes_make_no_edges(self):
        boxes = np.array([[0, 0, 0.1, 0.1], [0.5, 0.5, 0.6, 0.6]])
        g = build_graph(boxes, _zero_features(2), 0.0)
        assert g.num_edges == 0

    def test_threshold_is_strict(self):
        boxes = np.array([[0, 0, 0.2, 0.2], [0.1, 0.1, 0.3, 0.3]])
        g = build_graph(boxes, _zero_features(2), 0.1)
        assert g.num_edges == 1
        assert edge_triples(g)[0][2] == pytest.approx(1.0 / 7.0, abs=1e-15)
        # 1/7 < 0.2, so the same pair disappears at the higher threshold
        assert build_graph(boxes, _zero_features(2), 0.2).num_edges == 0
        # strict: exact-equal threshold drops the edge too
        exact = iou(Box(*boxes[0].tolist()), Box(*boxes[1].tolist()))
        assert build_graph(boxes, _zero_features(2), exact).num_edges == 0

    def test_mismatched_counts_rejected(self):
        with pytest.raises(InputError):
            build_graph(np.array([[0, 0, 0.5, 0.5]]), _zero_features(2), 0.3)

    def test_bad_threshold_rejected(self):
        with pytest.raises(InputError):
            build_graph(np.zeros((0, 4)), np.zeros((0, 1)), 1.0)

    def test_empty_input(self):
        g = build_graph(np.zeros((0, 4)), np.zeros((0, 3)), 0.3)
        assert g.num_nodes == 0 and g.num_edges == 0

    @given(_SCENES, st.sampled_from([0.0, 0.1, 0.3, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_recomputation_exactly(self, boxes, thr):
        expected = {}
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                w = iou(boxes[i], boxes[j])
                if w > thr:
                    expected[(i, j)] = w.hex()
        # Chunks of 1 and 3 pairs split boxes' candidate runs at every boundary.
        for chunk in (1, 3, 2**20):
            with mock.patch.object(graph, "_CHUNK_PAIRS", chunk):
                g = build_graph(box_array(boxes), _zero_features(len(boxes)), thr)
            got = {(i, j): w.hex() for i, j, w in edge_triples(g)}
            assert got == expected  # identical edge set, bitwise-equal weights
        for i, j, w in edge_triples(g):
            assert abs(Fraction(w) - exact_iou(boxes[i], boxes[j])) <= 1e-15

    @given(st.lists(dyadic_boxes(8), max_size=40), st.sampled_from([1, 3, 2**20]))
    @settings(max_examples=60, deadline=None)
    def test_sweep_stages_emit_exactly_the_overlapping_pairs(self, boxes, chunk):
        xyxy = box_array(boxes)
        pairs = [(i, j) for i in range(len(boxes)) for j in range(i + 1, len(boxes))]
        x_overlap = {(i, j) for i, j in pairs
                     if min(boxes[i].x2, boxes[j].x2) > max(boxes[i].x1, boxes[j].x1)}
        area_overlap = {(i, j) for i, j in pairs if iou(boxes[i], boxes[j]) > 0.0}
        # The candidate sweep yields positions in x1 order.
        order = np.argsort(xyxy[:, 0], kind="stable")
        with mock.patch.object(graph, "_CHUNK_PAIRS", chunk):
            candidates = [tuple(sorted(pair))
                          for a, b in graph._candidate_chunks(xyxy[order, 0], xyxy[order, 2])
                          for pair in zip(order[a].tolist(), order[b].tolist())]
            overlaps = [pair for i, j, _ in graph._overlap_chunks(xyxy)
                        for pair in zip(i.tolist(), j.tolist())]
        # Each pair once; boxes that only touch in x or y are never candidates.
        assert sorted(candidates) == sorted(x_overlap)
        assert sorted(overlaps) == sorted(area_overlap)

    @given(_SCENES, st.lists(st.integers(min_value=0, max_value=59), max_size=8),
           st.sampled_from([0.0, 0.1, 0.3, 0.5]), st.sampled_from([1, 3, 2**20]))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_checking_constructor_bitwise(self, boxes, repeats, thr, chunk):
        # Repeated boxes are duplicates; on the 8 x 8 grid boxes often touch
        # along an edge, with IoU 0 and no edge.
        boxes = boxes + [boxes[k % len(boxes)] for k in repeats] if boxes else boxes
        xyxy = box_array(boxes)
        feats = np.random.default_rng(len(boxes)).normal(size=(len(boxes), 2))
        with mock.patch.object(graph, "_CHUNK_PAIRS", chunk):
            g = build_graph(xyxy, feats, thr)
        checked = graph.ProposalGraph(feats, g.edge_index, g.edge_weight)
        for name in ("features", "edge_index", "edge_weight"):
            got, want = getattr(g, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        assert np.all((g.edge_weight > thr) & (g.edge_weight <= 1.0))

    def test_stable_argsort_packs_or_falls_back(self):
        rng = np.random.default_rng(8)
        for n in (0, 1, 2, 7, 300):
            keys = rng.integers(0, 5, size=n)
            # A bound past 63 bits with the positions takes the stable argsort.
            for bound in (5, 1 << 40, 1 << 62):
                assert np.array_equal(graph._stable_argsort(keys, bound),
                                      np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_features_rejected(self, value):
        feats = np.zeros((2, 3))
        feats[1, 2] = value
        with pytest.raises(InputError, match="^node features must be finite$"):
            build_graph(np.array([[0, 0, 0.5, 0.5], [0.1, 0.1, 0.6, 0.6]]), feats, 0.3)

    @given(st.tuples(_CORNERS, _CORNERS, _CORNERS, _CORNERS))
    @settings(max_examples=300, deadline=None)
    def test_rejects_a_row_exactly_when_the_reference_box_does(self, row):
        boxes = np.array([row])
        if _reference_rejects(row):
            with pytest.raises(InputError, match=r"^boxes\[0\]: "):
                build_graph(boxes, _zero_features(1), 0.3)
        else:
            assert build_graph(boxes, _zero_features(1), 0.3).num_nodes == 1

    @given(st.lists(st.tuples(_CORNERS, _CORNERS, _CORNERS, _CORNERS), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_error_names_the_first_rejected_row(self, rows):
        rejected = [k for k, row in enumerate(rows) if _reference_rejects(row)]
        boxes = np.array(rows)
        if rejected:
            with pytest.raises(InputError, match=rf"^boxes\[{rejected[0]}\]: "):
                build_graph(boxes, _zero_features(len(rows)), 0.3)
        else:
            assert build_graph(boxes, _zero_features(len(rows)), 0.3).num_nodes == len(rows)

    @pytest.mark.parametrize("boxes", [np.zeros(0), np.zeros((2, 3)), np.zeros((1, 2, 4))])
    def test_box_array_shape_checked(self, boxes):
        with pytest.raises(InputError, match=r"shape \(M, 4\)"):
            build_graph(boxes, _zero_features(len(boxes)), 0.3)

    def test_full_width_strips_build_in_bounded_memory(self):
        # Every pair overlaps in x, so the sweep tests all M^2 / 2 pairs, but
        # the strips only meet along their long edges and no pair is an edge.
        m = 3000
        k = np.arange(m)
        strips = np.stack([np.zeros(m), k / 4096, np.ones(m), (k + 1) / 4096], axis=1)
        features = _zero_features(m)
        tracemalloc.start()
        try:
            g = build_graph(strips, features, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.num_edges == 0
        assert peak < m * m * 8 / 4  # a quarter of one M x M float64 array

    def test_edge_limit_stops_the_build(self, monkeypatch):
        boxes = np.tile([0.0, 0.0, 0.5, 0.5], (5, 1))  # 10 pairs, each of IoU 1
        monkeypatch.setattr(graph, "_CHUNK_PAIRS", 4)
        monkeypatch.setattr(graph, "_EDGE_LIMIT", 10)
        assert build_graph(boxes, _zero_features(5), 0.3).num_edges == 10
        monkeypatch.setattr(graph, "_EDGE_LIMIT", 6)
        # The count is checked after each chunk of 4 pairs: 4, then 8 > 6.
        with pytest.raises(InputError, match=r"^5 proposals reached 8 IoU edges at iou_thr 0.3, "
                                             r"over the limit of 6 edges$"):
            build_graph(boxes, _zero_features(5), 0.3)


def _strip_only(xyxy):
    """The strip route, as ``_sweep_route`` takes it where it has fewer candidates."""
    route = graph._strip_route(xyxy, graph._x_route(xyxy))
    assert route is not None
    return route


def _assert_reference_edges(boxes, thr, force_strips=False):
    """``build_graph`` at chunks of 1, 3 and 2**20 pairs equals the pairwise
    reference ``iou`` and the checking constructor, bit for bit."""
    expected = {}
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            w = iou(boxes[i], boxes[j])
            if w > thr:
                expected[(i, j)] = w.hex()
    xyxy = box_array(boxes)
    feats = np.random.default_rng(len(boxes)).normal(size=(len(boxes), 2))
    for chunk in (1, 3, 2**20):
        with mock.patch.object(graph, "_CHUNK_PAIRS", chunk), \
                mock.patch.object(graph, "_sweep_route",
                                  _strip_only if force_strips else graph._sweep_route):
            g = build_graph(xyxy, feats, thr)
        assert {(i, j): w.hex() for i, j, w in edge_triples(g)} == expected
        checked = graph.ProposalGraph(feats, g.edge_index, g.edge_weight)
        for name in ("features", "edge_index", "edge_weight"):
            got, want = getattr(g, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name


def _route(boxes):
    return "x" if graph._sweep_route(box_array(boxes))[3] is None else "strip"


# Boxes that all overlap in x, 1/32 to 1/8 of the image high, with every y
# on a multiple of 1/32: the strip height is a multiple of 1/32 too, so
# corners often fall exactly on a strip boundary k * h.
_FLAT_BOXES = st.builds(
    lambda x1, x2, y1, height: Box(x1 / 8, y1 / 32, x2 / 8, min(y1 + height, 32) / 32),
    st.integers(0, 3), st.integers(5, 8), st.integers(0, 31), st.integers(1, 4),
)


class TestStripRoute:
    @given(st.one_of(_SCENES, st.lists(_FLAT_BOXES, max_size=40)),
           st.lists(st.integers(min_value=0, max_value=59), max_size=8),
           st.sampled_from([0.0, 0.1, 0.3, 0.5]))
    @settings(max_examples=100, deadline=None)
    def test_strip_route_equals_the_reference_bitwise(self, boxes, repeats, thr):
        # Any boxes may be swept by strips; repeated boxes are duplicates.
        boxes = boxes + [boxes[k % len(boxes)] for k in repeats] if boxes else boxes
        if boxes:
            _assert_reference_edges(boxes, thr, force_strips=True)
        _assert_reference_edges(boxes, thr)

    @given(st.lists(_FLAT_BOXES, min_size=1, max_size=30), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_corners_on_strip_boundaries(self, boxes, thr):
        # A box of height h = 1/8 from 0 to 1/8; the others meet it and each
        # other on the boundaries k / 8 and between them.
        boxes = [Box(0.0, 0.0, 1.0, 0.125)] + boxes + [Box(0.25, 0.125, 0.75, 0.25)]
        _assert_reference_edges(boxes, thr, force_strips=True)
        _assert_reference_edges(boxes, thr)

    def test_a_full_height_box_over_small_ones_takes_the_x_route(self):
        # h = 1 puts every box in strip 0, so the strips save nothing.
        grid = [Box(a / 16, b / 16, (a + 1.5) / 16, (b + 1.5) / 16)
                for a in range(0, 14, 2) for b in range(0, 14, 2)]
        boxes = grid[:20] + [Box(0.0, 0.0, 1.0, 1.0)] + grid[20:]
        assert _route(boxes) == "x"
        _assert_reference_edges(boxes, 0.0)
        _assert_reference_edges(boxes, 0.0, force_strips=True)

    @pytest.mark.parametrize("units, route", [((1, 2), "x"), ((1, 2, 5), "strip")])
    def test_heights_near_float_epsilon(self, units, route):
        # Heights of a few ulps of 0.5 (2**-53): a largest height of 2**-52 or
        # less has 1 / h >= 2**52, and floor(y / h) might not fit an int64.
        ulp = 2.0**-53
        boxes = [Box(x1, 0.5 + k * ulp, x2, 0.5 + (k + units[(k + n) % len(units)]) * ulp)
                 for n, (x1, x2) in enumerate([(0.0, 0.5), (0.25, 1.0), (0.0, 1.0)])
                 for k in range(12)]
        assert max(b.y2 - b.y1 for b in boxes) == units[-1] * ulp
        assert (graph._strip_route(box_array(boxes), graph._x_route(box_array(boxes))) is None) \
            == (route == "x")
        assert _route(boxes) == route
        for thr in (0.0, 0.3):
            _assert_reference_edges(boxes, thr)

    @pytest.mark.parametrize("clusters, per_cluster, route", [(16, 10, "strip"), (1, 120, "x")])
    def test_each_route_is_taken_on_a_scene_built_for_it(self, clusters, per_cluster, route):
        # Clusters side by side overlap in x across rows of the grid, which
        # the strips separate; the boxes of one cluster each span two strips.
        doc = generate_proposals(clusters=clusters, per_cluster=per_cluster, seed=3)
        boxes = [Box(*row) for row in doc.normalized_boxes().tolist()]
        assert _route(boxes) == route
        _assert_reference_edges(boxes, 0.3)

    @pytest.mark.parametrize("clusters, per_cluster, ratio", [(1, 1500, 1.48), (400, 50, 1.68)])
    def test_build_peak_is_a_small_multiple_of_its_edges(self, clusters, per_cluster, ratio):
        # The unsorted chunks, keys and weights are freed as the edges are put
        # in order. The ratios are the measured 1.34 and 1.53 with 10% headroom.
        doc = generate_proposals(clusters=clusters, per_cluster=per_cluster, seed=123,
                                 feature_dim=2)
        boxes, features = doc.normalized_boxes(), doc.feature_matrix()
        tracemalloc.start()
        try:
            g = build_graph(boxes, features, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ratio * (g.edge_index.nbytes + g.edge_weight.nbytes)


class TestConnectedComponents:
    def test_edgeless_graph(self):
        g = graph_from_edges(3, [])
        comp = connected_components(g)
        assert comp.count == 3
        assert list(comp.labels) == [0, 1, 2]

    def test_path_plus_isolated(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0)])
        comp = connected_components(g)
        assert comp.count == 2
        assert list(comp.labels) == [0, 0, 0, 1]
        assert list(comp.sizes) == [3, 1]

    def test_chain_merges_everything(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)])
        comp = connected_components(g)
        assert comp.count == 1
        assert list(comp.sizes) == [4]

    @given(st.integers(min_value=0, max_value=40),
           st.sampled_from([0.0, 0.02, 0.06, 0.15, 0.5]),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=80, deadline=None)
    def test_matches_reachability_closure(self, n, density, seed):
        rng = np.random.default_rng(seed)
        ii, jj = np.triu_indices(n, k=1)
        hit = rng.random(ii.size) < density
        g = graph_from_edges(n, zip(ii[hit], jj[hit], rng.uniform(0.1, 1.0, hit.sum())))
        # Boolean closure of A + I by repeated squaring.
        reach = np.eye(n, dtype=bool)
        reach[ii[hit], jj[hit]] = reach[jj[hit], ii[hit]] = True
        while True:
            closed = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
            if np.array_equal(closed, reach):
                break
            reach = closed
        comp = connected_components(g)
        assert comp.labels.dtype == np.int64 and comp.sizes.dtype == np.int64
        assert np.array_equal(comp.labels[:, None] == comp.labels[None, :], reach)
        # Ids are dense and ascend with each component's smallest member.
        _, first_member = np.unique(comp.labels, return_index=True)
        assert np.all(np.diff(first_member) > 0)
        assert np.array_equal(comp.labels[first_member], np.arange(comp.count))
        assert np.array_equal(comp.sizes, np.bincount(comp.labels, minlength=comp.count))

    def test_shuffled_long_path_is_one_component(self):
        n = 2000
        order = np.random.default_rng(5).permutation(n)
        g = graph_from_edges(n, [(a, b, 1.0) for a, b in zip(order[:-1], order[1:])])
        comp = connected_components(g)
        assert comp.count == 1
        assert list(comp.sizes) == [n]
        assert not comp.labels.any()

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_sizes_sum_to_node_count(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n)
        comp = connected_components(g)
        assert int(comp.sizes.sum()) == n


class TestSubgraph:
    def test_induced_edges(self):
        g = graph_from_edges(5, [(0, 1, 0.3), (1, 2, 0.4), (2, 3, 0.5), (3, 4, 0.6)],
                             features=np.arange(5.0).reshape(5, 1))
        sub = subgraph(g, np.array([1, 2, 4]))
        assert sub.features.ravel().tolist() == [1.0, 2.0, 4.0]
        assert edge_triples(sub) == [(0, 1, 0.4)]

    def test_rejects_unsorted_indices(self):
        g = graph_from_edges(3, [(0, 1, 0.3)])
        with pytest.raises(InputError):
            subgraph(g, np.array([2, 1]))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_induced_subgraphs_equal_subgraph(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 25))
        ii, jj = np.triu_indices(n, k=1)
        hit = rng.random(ii.size) < 0.3
        g = graph_from_edges(n, zip(ii[hit], jj[hit], rng.choice([0.0, 0.5, 1.0], hit.sum())),
                             features=rng.normal(size=(n, 2)))
        count = int(rng.integers(0, 5))
        labels = rng.integers(-1, count, size=n) if count else np.full(n, -1)
        groups = list(induced_subgraphs(g, labels, count))
        assert len(groups) == count
        for k, (members, sub) in enumerate(groups):
            assert np.array_equal(members, np.flatnonzero(labels == k))
            expected = subgraph(g, members)
            for name in ("features", "edge_index", "edge_weight"):
                assert np.array_equal(getattr(sub, name), getattr(expected, name))
                assert getattr(sub, name).dtype == getattr(expected, name).dtype
            # The unchecked graph is one the checking constructor accepts unchanged.
            checked = graph_from_edges(sub.num_nodes, edge_triples(sub), features=sub.features)
            assert np.array_equal(checked.edge_index, sub.edge_index)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(InputError):
            graph_from_edges(3, [(0, 1, 0.3), (1, 0, 0.4)])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            graph_from_edges(3, [(1, 1, 0.3)])
