import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propgraph import (
    InputError,
    NumericalError,
    PseudoLabeling,
    SolveCounts,
    augment_with_coarse,
    gcpool,
    graph_from_edges,
    pool_part,
    recursive_ncut,
)
from propgraph.io import dumps_canonical, partition_to_dict
from propgraph.oracles import (
    bridged_cliques,
    reference_augment_with_coarse,
    reference_gcpool,
    reference_recursive_ncut,
    subgraph,
)

from conftest import edge_triples


def bridged_triangles_plus_isolated():
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0), (0, 3, 0.1)]
    features = np.arange(14, dtype=float).reshape(7, 2)
    return graph_from_edges(7, edges, features=features)


class TestPoolPart:
    def test_mean(self):
        assert np.array_equal(pool_part(np.array([[1, 3], [3, 5], [2, 1]], dtype=float)),
                              np.array([2.0, 3.0]))

    def test_single_vector(self):
        assert np.array_equal(pool_part(np.array([[4.0, -1.0]])), np.array([4.0, -1.0]))

    def test_symmetric_pair(self):
        assert np.array_equal(pool_part(np.array([[-1.0, 0.0], [1.0, 0.0]])), np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            pool_part(np.zeros((0, 3)))

    @given(st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=-4, max_value=4, allow_nan=False))
    @settings(max_examples=40)
    def test_commutes_with_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(int(rng.integers(1, 6)), 3))
        assert pool_part(scale * x) == pytest.approx(scale * pool_part(x), rel=1e-12, abs=1e-12)


class TestGcpool:
    def test_bridged_triangles_with_isolated_node(self):
        g = bridged_triangles_plus_isolated()
        labeling, coarse = gcpool(g, min_size=2, stop_ncut=0.5)
        assert labeling.labels.dtype == np.int64
        assert labeling.labels.tolist() == [0, 0, 0, 1, 1, 1, -1]
        assert labeling.part_count == 2
        assert coarse.shape == (2, 2) and coarse.dtype == np.float64
        assert np.array_equal(coarse[0], g.features[:3].mean(axis=0))
        assert np.array_equal(coarse[1], g.features[3:6].mean(axis=0))

    def test_edgeless_graph_filters_everything(self):
        g = graph_from_edges(4, [], features=np.ones((4, 2)))
        labeling, coarse = gcpool(g, min_size=2, stop_ncut=0.5)
        assert labeling.labels.tolist() == [-1] * 4
        assert labeling.part_count == 0
        assert coarse.shape == (0, 2)

    def test_unsplittable_clique_is_one_part(self):
        features = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        g = graph_from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], features=features)
        labeling, coarse = gcpool(g, min_size=1, stop_ncut=0.5)
        assert labeling.labels.tolist() == [0, 0, 0]
        assert np.array_equal(coarse, features.mean(axis=0, keepdims=True))

    def test_empty_graph(self):
        labeling, coarse = gcpool(graph_from_edges(0, []), min_size=1, stop_ncut=0.5)
        assert labeling.labels.shape == (0,) and coarse.shape == (0, 0)

    def test_disjoint_cliques_give_one_coarse_node_each(self):
        rng = np.random.default_rng(7)
        edges = []
        features = rng.normal(size=(9, 4))
        for base in (0, 3, 6):
            edges.extend(
                (base + i, base + j, 1.0) for i in range(3) for j in range(i + 1, 3)
            )
        g = graph_from_edges(9, edges, features=features)
        labeling, coarse = gcpool(g, min_size=3, stop_ncut=0.5)
        assert labeling.part_count == 3
        assert labeling.labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        for k, feature in enumerate(coarse):
            assert np.max(np.abs(feature - features[3 * k : 3 * k + 3].mean(axis=0))) <= 1e-12

    def test_filtered_nodes_never_appear(self):
        g = bridged_triangles_plus_isolated()
        labeling, coarse = gcpool(g, min_size=4, stop_ncut=0.01)
        # bridged component survives stage 1 (size 6) but the 0.0328 cut is
        # rejected at stop_ncut=0.01, so it stays one 6-node part
        assert labeling.part_count == 1
        assert labeling.labels.tolist() == [0] * 6 + [-1]

    def test_order_invariance_up_to_relabeling(self):
        g = bridged_triangles_plus_isolated()
        rng = np.random.default_rng(13)
        perm = rng.permutation(7)
        inverse = np.argsort(perm)
        # rebuild the same graph with nodes renamed by perm
        edges = [(int(min(perm[i], perm[j])), int(max(perm[i], perm[j])), w)
                 for i, j, w in edge_triples(g)]
        permuted = graph_from_edges(7, edges, features=g.features[inverse])
        def parts(labels):
            return {frozenset(np.flatnonzero(labels == k).tolist())
                    for k in range(labels.max(initial=-1) + 1)}

        base = gcpool(g, min_size=2, stop_ncut=0.5)[0].labels
        permuted_labels = gcpool(permuted, min_size=2, stop_ncut=0.5)[0].labels
        assert parts(base) == parts(permuted_labels[perm])


    @pytest.mark.parametrize("stop_ncut, min_part, field", [
        (float("nan"), 1, "stop_ncut"), (-0.5, 1, "stop_ncut"), (float("inf"), 1, "stop_ncut"),
        (0.5, 0, "min_part"), (float("nan"), 0, "stop_ncut"),
    ])
    def test_split_rule_checked_when_no_component_survives(self, stop_ncut, min_part, field):
        g = bridged_triangles_plus_isolated()  # components of 6 and 1 nodes
        with pytest.raises(InputError, match=field):
            gcpool(g, min_size=7, stop_ncut=stop_ncut, min_part=min_part)
        with pytest.raises(InputError, match=field):
            gcpool(graph_from_edges(0, []), min_size=1, stop_ncut=stop_ncut, min_part=min_part)


class TestAugment:
    def test_no_coarse_nodes_is_identity(self):
        g = bridged_triangles_plus_isolated()
        assert augment_with_coarse(g, np.full(7, -1), np.zeros((0, 2))) is g

    def test_pair_part_uses_its_edge_weight(self):
        # a 2-node split costs exactly 2.0, so stop_ncut=0.5 keeps the pair whole
        g = graph_from_edges(2, [(0, 1, 0.37)], features=np.ones((2, 1)))
        labeling, coarse = gcpool(g, min_size=2, stop_ncut=0.5)
        assert labeling.labels.tolist() == [0, 0]
        augmented = augment_with_coarse(g, labeling.labels, coarse)
        assert augmented.num_nodes == 3
        new_edges = [e for e in edge_triples(augmented) if e[1] == 2]
        assert new_edges == [(0, 2, 0.37), (1, 2, 0.37)]

    def test_singleton_part_weight_is_one(self):
        g = graph_from_edges(3, [(0, 1, 0.5)], features=np.zeros((3, 1)))
        labeling, coarse = gcpool(g, min_size=1, stop_ncut=0.5)
        sizes = np.bincount(labeling.labels, minlength=labeling.part_count)
        singleton = np.flatnonzero(sizes == 1)
        assert singleton.size
        augmented = augment_with_coarse(g, labeling.labels, coarse)
        base = g.num_nodes
        for k in singleton:
            member = int(np.flatnonzero(labeling.labels == k)[0])
            edge = [e for e in edge_triples(augmented) if e[1] == base + k and e[0] == member]
            assert edge and edge[0][2] == 1.0

    def test_bad_labels_or_coarse_rejected(self):
        g = bridged_triangles_plus_isolated()
        labels = np.array([0, 0, 0, 1, 1, 1, -1])
        coarse = np.zeros((2, 2))
        for outside in (2, 9, -2):
            with pytest.raises(InputError,
                               match=rf"^label {outside} is not -1 or a part in \[0, 2\)$"):
                augment_with_coarse(g, np.where(labels == 1, outside, labels), coarse)
        with pytest.raises(InputError, match=r"^label 0 is not -1 or a part in \[0, 0\)$"):
            augment_with_coarse(g, labels, np.zeros((0, 2)))
        with pytest.raises(InputError, match=r"labels must be an \(7,\) integer array"):
            augment_with_coarse(g, labels[:6], coarse)
        with pytest.raises(InputError, match=r"labels must be an \(7,\) integer array"):
            augment_with_coarse(g, labels.astype(float), coarse)
        with pytest.raises(InputError, match=r"coarse features must have shape \(P, 2\)"):
            augment_with_coarse(g, labels, np.zeros((2, 3)))
        with pytest.raises(InputError, match="coarse features must be finite"):
            augment_with_coarse(g, labels, np.array([[0.0, 1.0], [np.nan, 0.0]]))

    def test_original_structure_untouched(self):
        g = bridged_triangles_plus_isolated()
        labeling, coarse = gcpool(g, min_size=2, stop_ncut=0.5)
        augmented = augment_with_coarse(g, labeling.labels, coarse)
        assert augmented.num_nodes == g.num_nodes + len(coarse)
        old = [e for e in edge_triples(augmented) if e[1] < g.num_nodes]
        assert old == edge_triples(g)
        assert np.array_equal(augmented.features[: g.num_nodes], g.features)

    def test_clique_part_weights_are_mean_adjacency(self):
        g = bridged_cliques(3, 0.1)
        g = graph_from_edges(6, edge_triples(g), features=np.zeros((6, 1)))
        labeling, coarse = gcpool(g, min_size=3, stop_ncut=0.5)
        augmented = augment_with_coarse(g, labeling.labels, coarse)
        # triangle members connect to their coarse node with mean weight 1.0
        for e in edge_triples(augmented):
            if e[1] >= 6:
                assert e[2] == 1.0

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_weights_equal_mean_adjacency_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        ii, jj = np.triu_indices(n, k=1)
        hit = rng.random(ii.size) < 0.5
        g = graph_from_edges(n, zip(ii[hit], jj[hit], rng.random(hit.sum())),
                             features=rng.normal(size=(n, 2)))
        parts = int(rng.integers(1, n + 1))
        labels = rng.integers(0, parts, size=n)
        augmented = augment_with_coarse(g, labels, np.zeros((parts, 2)))
        got = {(int(i), int(j)): w
               for (i, j), w in zip(augmented.edge_index, augmented.edge_weight)}
        adjacency = g.adjacency()
        for k in range(parts):
            member_idx = np.flatnonzero(labels == k)
            for idx in member_idx:
                others = member_idx[member_idx != idx]
                if not others.size:
                    assert got[(int(idx), n + k)] == 1.0
                    continue
                # In edge order: the sum over edges (idx, j > idx), plus the
                # sum over edges (i < idx, idx); a missing edge adds 0.0.
                after = before = 0.0
                for other in others[others > idx]:
                    after += adjacency[idx, other]
                for other in others[others < idx]:
                    before += adjacency[idx, other]
                assert got[(int(idx), n + k)] == (after + before) / others.size
        assert len(got) == g.num_edges + n


def pooling_scene(rng):
    """A graph of several components in which pooling meets its hard cases.

    Components are random trees plus chords. About one edge in eight weighs
    0.0, which still connects its endpoints. Twins copy another node's
    edges exactly, so their Fiedler entries tie. The nodes are shuffled, so
    components interleave in index order.
    """
    def weight():
        return 0.0 if rng.random() < 0.12 else float(rng.choice([0.25, 0.5, rng.uniform(0.05, 1)]))

    edges: dict = {}
    size = 0
    for _ in range(int(rng.integers(1, 6))):
        n = int(rng.integers(1, 14))
        for node in range(size + 1, size + n):
            edges[(int(rng.integers(size, node)), node)] = weight()
        for _ in range(int(rng.integers(0, 2 * n))):
            i, j = sorted(rng.integers(size, size + n, size=2))
            if i != j:
                edges[(int(i), int(j))] = weight()
        for _ in range(int(rng.integers(0, 3))):
            source, twin = int(rng.integers(size, size + n)), size + n
            for (i, j), w in list(edges.items()):
                if source in (i, j):
                    other = j if i == source else i
                    edges[(min(other, twin), max(other, twin))] = w
            if rng.random() < 0.5:
                edges[(source, twin)] = weight()
            n += 1
        size += n
    perm = rng.permutation(size)
    features = rng.normal(size=(size, 3))
    return graph_from_edges(size, [(int(perm[i]), int(perm[j]), w) for (i, j), w in edges.items()],
                            features=features)


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (InputError, NumericalError) as exc:
        return type(exc), str(exc)


def raised(result) -> bool:
    return isinstance(result, tuple) and isinstance(result[0], type)


def assert_same_graph(got, expected):
    for name in ("features", "edge_index", "edge_weight"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestGroupedEdgeSlices:
    """Pooling from grouped edge slices gives the subgraph route's bits."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0, 2.0]),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=200, deadline=None)
    # Random draws seldom make a sweep side that falls apart (seed 33) or that
    # holds together only through a zero-weight edge (seed 83).
    @example(seed=33, min_size=1, stop_ncut=0.5, min_part=1)
    @example(seed=83, min_size=1, stop_ncut=0.5, min_part=1)
    def test_matches_the_subgraph_reference_bitwise(self, seed, min_size, stop_ncut, min_part):
        g = pooling_scene(np.random.default_rng(seed))
        got = outcome(gcpool, g, min_size, stop_ncut, min_part=min_part)
        expected = outcome(reference_gcpool, g, min_size, stop_ncut, min_part=min_part)
        if raised(expected):
            assert got == expected
            return
        (labeling, coarse), (ref_labeling, ref_coarse) = got, expected
        assert np.array_equal(labeling.labels, ref_labeling.labels)
        assert labeling.part_count == ref_labeling.part_count == coarse.shape[0]
        assert labeling.component_count == ref_labeling.component_count
        assert labeling.solves == ref_labeling.solves
        assert coarse.shape == ref_coarse.shape and coarse.tobytes() == ref_coarse.tobytes()
        assert_same_graph(augment_with_coarse(g, labeling.labels, coarse),
                          reference_augment_with_coarse(g, labeling.labels, coarse))

        partition = outcome(recursive_ncut, g, stop_ncut, min_part=min_part)
        reference = outcome(reference_recursive_ncut, g, stop_ncut, min_part=min_part)
        if raised(reference):
            assert partition == reference
        else:
            assert partition.set_count == reference.set_count
            assert np.array_equal(partition.labels, reference.labels)

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=6),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_augment_and_partition_match_for_random_labellings(self, seed, parts, data):
        # Labels in [-1, P) drawn per node: filtered nodes, singleton parts,
        # empty parts and P = 0 all occur.
        rng = np.random.default_rng(seed)
        g = pooling_scene(rng)
        n = g.num_nodes
        labels = np.array(data.draw(st.lists(st.integers(min_value=-1, max_value=parts - 1),
                                             min_size=n, max_size=n)), dtype=np.int64)
        coarse = rng.normal(size=(parts, 3))
        augmented = augment_with_coarse(g, labels, coarse)
        assert_same_graph(augmented, reference_augment_with_coarse(g, labels, coarse))
        # Each coarse weight is its member's dense-row mean, up to rounding.
        coarse_edge = augmented.edge_index[:, 1] >= n
        weight = dict(zip(augmented.edge_index[coarse_edge, 0].tolist(),
                          augmented.edge_weight[coarse_edge].tolist()))
        for k in range(parts):
            members = np.flatnonzero(labels == k)
            size = members.size
            if size > 1:
                block = subgraph(g, members).adjacency()
                dense = block[~np.eye(size, dtype=bool)].reshape(size, size - 1).mean(axis=1)
                got = np.array([weight[member] for member in members.tolist()])
                assert np.all(np.abs(got - dense) <= size * np.finfo(float).eps * dense)

        labeling = PseudoLabeling(labels=labels, part_count=parts, component_count=0,
                                  solves=SolveCounts())
        written = json.loads(dumps_canonical(partition_to_dict(labeling, coarse)))
        assert written["labels"] == [None if label == -1 else label for label in labels.tolist()]
        assert [part["members"] for part in written["coarse"]] == \
            [np.flatnonzero(labels == k).tolist() for k in range(parts)]
        assert np.array_equal(np.array([part["feature"] for part in written["coarse"]],
                                       dtype=np.float64).reshape(parts, 3), coarse)

        bad_inputs = [
            (labels[:-1], coarse),  # labels not of shape (M,)
            (np.append(labels, 0), coarse),
            (labels[None, :], coarse),
            (labels.astype(np.float64), coarse),
            (np.where(np.arange(n) == n - 1, parts, labels), coarse),  # label P
            (np.where(np.arange(n) == 0, -2, labels), coarse),  # label below -1
            (labels, coarse[:, :2]),  # coarse not of shape (P, d)
            (labels, coarse.ravel()),
        ]
        if parts:
            nonfinite = coarse.copy()
            nonfinite[data.draw(st.integers(0, parts - 1)), 1] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
            bad_inputs.append((labels, nonfinite))
        for bad_labels, bad_coarse in bad_inputs:
            with pytest.raises(InputError):
                augment_with_coarse(g, bad_labels, bad_coarse)
