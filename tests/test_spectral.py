import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propgraph import spectral
from propgraph import (
    InputError,
    NumericalError,
    Partition,
    PipelineConfig,
    brute_force_ncut,
    build_graph,
    connected_components,
    fiedler_vector,
    gcpool,
    generate_proposals,
    graph_from_edges,
    ncut_value,
    normalized_laplacian,
    recursive_ncut,
    symmetric_eigendecomposition,
    two_way_ncut,
)
from propgraph.oracles import bridged_cliques, random_connected_graph, reference_recursive_ncut

from conftest import spy_tie_route


def path4():
    return graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


def triangle(weight=1.0, offset=0):
    return [(offset, offset + 1, weight), (offset, offset + 2, weight), (offset + 1, offset + 2, weight)]


class TestNcutValue:
    def test_disconnected_split_is_zero(self):
        g = graph_from_edges(6, triangle() + triangle(offset=3))
        report = ncut_value(g, Partition(labels=np.array([0, 0, 0, 1, 1, 1]), set_count=2))
        assert report.ncut_value == 0.0

    def test_path_balanced_split(self):
        report = ncut_value(path4(), Partition(labels=np.array([0, 0, 1, 1]), set_count=2))
        assert report.ncut_value == 2.0 / 3.0
        assert report.per_set == ((1.0, 3.0), (1.0, 3.0))

    def test_path_singleton_split(self):
        report = ncut_value(path4(), Partition(labels=np.array([0, 1, 1, 1]), set_count=2))
        assert report.ncut_value == pytest.approx(1.2, abs=1e-15)

    def test_degenerate_partition_rejected(self):
        g = graph_from_edges(3, [(0, 1, 1.0)])
        with pytest.raises(InputError):
            ncut_value(g, Partition(labels=np.array([0, 0, 1]), set_count=2))

    def test_report_is_reconstructible(self):
        g = bridged_cliques(4, 0.17)
        report = ncut_value(g, Partition(labels=np.array([0] * 4 + [1] * 4), set_count=2))
        rebuilt = sum(cut / a for cut, a in report.per_set)
        assert abs(rebuilt - report.ncut_value) <= 1e-12

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50)
    def test_label_permutation_and_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[-1] = 0, 1
        p = Partition(labels=labels, set_count=2)
        base = ncut_value(g, p).ncut_value
        swapped = ncut_value(g, Partition(labels=1 - labels, set_count=2)).ncut_value
        assert swapped == pytest.approx(base, abs=1e-12)
        scale = float(rng.uniform(0.2, 5.0))
        scaled_graph = graph_from_edges(n, [(i, j, w * scale) for i, j, w in g.edges()])
        assert ncut_value(scaled_graph, p).ncut_value == pytest.approx(base, rel=1e-12)
        # the two cut terms of any 2-way partition agree
        report = ncut_value(g, p)
        assert report.per_set[0][0] == pytest.approx(report.per_set[1][0], abs=1e-12)


class TestNormalizedLaplacian:
    def test_two_node_graph(self):
        # off-diagonal w / sqrt(w * w) is exactly -1 up to rounding, for any w
        g = graph_from_edges(2, [(0, 1, 0.7)])
        assert normalized_laplacian(g) == pytest.approx(
            np.array([[1.0, -1.0], [-1.0, 1.0]]), abs=1e-15
        )

    def test_unit_triangle(self):
        lap = normalized_laplacian(graph_from_edges(3, triangle()))
        expected = np.full((3, 3), -0.5)
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(lap, expected, atol=1e-15)

    def test_kernel_vector(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 12)
        lap = normalized_laplacian(g)
        kernel = np.sqrt(g.adjacency().sum(axis=1))
        assert np.max(np.abs(lap @ kernel)) <= 1e-9

    def test_zero_degree_rejected(self):
        with pytest.raises(InputError):
            normalized_laplacian(graph_from_edges(3, [(0, 1, 1.0)]))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30)
    def test_eigenvalues_within_zero_two(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, int(rng.integers(2, 12)))
        values, _ = symmetric_eigendecomposition(normalized_laplacian(g))
        assert values[0] >= -1e-9 and values[-1] <= 2.0 + 1e-9
        assert abs(values[0]) <= 1e-9


class TestOverflowingDegrees:
    """Weights whose degrees overflow a float raise NumericalError, not numpy's warning.

    pytest's ``filterwarnings`` turns a RuntimeWarning into a failure.
    """

    @staticmethod
    def path3():
        return graph_from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)])

    @pytest.mark.parametrize("call", [
        lambda g: recursive_ncut(g, 0.5),
        lambda g: recursive_ncut(g, 0.5, connected=True),
        two_way_ncut,
        normalized_laplacian,
        lambda g: ncut_value(g, Partition(labels=np.array([0, 0, 1]), set_count=2)),
    ], ids=["recursive", "recursive-connected", "two-way", "laplacian", "ncut-value"])
    def test_raises_numerical_error_without_a_warning(self, call):
        with pytest.raises(NumericalError, match="^weighted degrees of 3 nodes overflow"):
            call(self.path3())

    def test_largest_finite_total_still_cuts(self):
        g = graph_from_edges(3, [(0, 1, 4e307), (1, 2, 4e307)])
        assert recursive_ncut(g, 0.5).set_count == 1
        assert two_way_ncut(g)[1].ncut_value == pytest.approx(4 / 3)


class TestEigensolver:
    def test_matches_lapack_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 7, 20, 45):
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2.0
            values, vectors = symmetric_eigendecomposition(m)
            assert np.max(np.abs(values - np.linalg.eigvalsh(m))) <= 1e-10
            assert np.max(np.abs(m @ vectors - vectors * values)) <= 1e-9
            assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            symmetric_eigendecomposition(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sweep_budget_exhaustion(self, monkeypatch):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(30, 30))
        m = (m + m.T) / 2.0
        monkeypatch.setattr(spectral, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NumericalError):
            symmetric_eigendecomposition(m)

    def test_budget_error_names_size_sweeps_and_off_norm(self, monkeypatch):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(30, 30))
        m = (m + m.T) / 2.0
        monkeypatch.setattr(spectral, "_JACOBI_MAX_SWEEPS", 2)
        with pytest.raises(NumericalError, match=r"30x30 .* norm \d\.\d+e[-+]\d+ after 2 sweep"):
            symmetric_eigendecomposition(m)

    def test_convergence_in_the_last_sweep_counts(self, monkeypatch):
        # one rotation diagonalizes a 2x2 matrix
        monkeypatch.setattr(spectral, "_JACOBI_MAX_SWEEPS", 1)
        values, _ = symmetric_eigendecomposition(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert values == pytest.approx([1.0, 3.0], abs=1e-15)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(25, 25))
        m = (m + m.T) / 2.0
        first = symmetric_eigendecomposition(m)
        second = symmetric_eigendecomposition(m)
        assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])


class TestFiedlerVector:
    def test_two_node_analytic(self):
        lap = normalized_laplacian(graph_from_edges(2, [(0, 1, 0.4)]))
        value, vector = fiedler_vector(lap)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert vector == pytest.approx(np.array([1.0, -1.0]) / np.sqrt(2.0), abs=1e-12)

    def test_sign_pattern_splits_bridge(self):
        g = bridged_cliques(3, 0.1)
        _, vector = fiedler_vector(normalized_laplacian(g))
        first, second = vector[:3], vector[3:]
        assert np.all(np.sign(first) == np.sign(first[0]))
        assert np.all(np.sign(second) == np.sign(second[0]))
        assert np.sign(first[0]) != np.sign(second[0])

    def test_path_ordering_matches_dense_oracle(self):
        lap = normalized_laplacian(path4())
        value, vector = fiedler_vector(lap)
        # independent dense decomposition
        ref_values, ref_vectors = np.linalg.eigh(lap)
        assert value == pytest.approx(ref_values[1], abs=1e-10)
        ref = ref_vectors[:, 1]
        gap = min(np.max(np.abs(vector - ref)), np.max(np.abs(vector + ref)))
        assert gap <= 1e-9
        # entries are monotone along the path, so the sweep order is the path order
        diffs = np.diff(vector)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_sign_rule_makes_largest_entry_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            _, vector = fiedler_vector(normalized_laplacian(g))
            assert vector[np.argmax(np.abs(vector))] > 0


class TestTwoWayNcut:
    def test_bridged_triangles(self):
        partition, report = two_way_ncut(bridged_cliques(3, 0.1))
        assert list(partition.labels) == [0, 0, 0, 1, 1, 1]
        assert report.ncut_value == pytest.approx(0.2 / 6.1, abs=1e-12)

    def test_path_of_four(self):
        partition, report = two_way_ncut(path4())
        assert list(partition.labels) == [0, 0, 1, 1]
        assert report.ncut_value == 2.0 / 3.0

    def test_two_node_forced_split(self):
        partition, report = two_way_ncut(graph_from_edges(2, [(0, 1, 0.9)]))
        assert list(partition.labels) == [0, 1]
        assert report.ncut_value == pytest.approx(2.0, abs=1e-12)

    def test_report_matches_recomputation(self):
        g = bridged_cliques(5, 0.05)
        partition, report = two_way_ncut(g)
        assert abs(report.ncut_value - ncut_value(g, partition).ncut_value) <= 1e-12

    def test_requires_connected(self):
        with pytest.raises(InputError):
            two_way_ncut(graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]))


class TestRecursiveNcut:
    def test_triangle_refuses_to_split(self):
        partition = recursive_ncut(graph_from_edges(3, triangle()), stop_ncut=0.5)
        assert partition.set_count == 1

    def test_bridged_triangles_split_once(self):
        partition = recursive_ncut(bridged_cliques(3, 0.1), stop_ncut=0.5)
        assert partition.set_count == 2
        assert list(partition.labels) == [0, 0, 0, 1, 1, 1]

    def test_stop_zero_keeps_one_set(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, 8)
        assert recursive_ncut(g, stop_ncut=0.0).set_count == 1

    def test_min_part_blocks_slivers(self):
        # generous threshold: without min_part the path would shatter
        g = graph_from_edges(6, [(i, i + 1, 1.0) for i in range(5)])
        shattered = recursive_ncut(g, stop_ncut=2.0, min_part=1)
        limited = recursive_ncut(g, stop_ncut=2.0, min_part=3)
        assert shattered.set_count > limited.set_count
        sizes = np.bincount(limited.labels)
        assert sizes.min() >= 3

    def test_labels_ordered_by_smallest_member(self):
        partition = recursive_ncut(bridged_cliques(4, 0.02), stop_ncut=0.5)
        first_of = [int(np.flatnonzero(partition.labels == s)[0]) for s in range(partition.set_count)]
        assert first_of == sorted(first_of)

    def test_dense_blocks_stay_component_sized(self):
        # 1,000 triangles with interleaved indices: one 3,000-node dense block
        # would take 72 MB of weights alone.
        perm = np.random.default_rng(3).permutation(3000)
        edges = [(int(perm[a]), int(perm[b]), 1.0) for t in range(1000)
                 for a, b in ((3 * t, 3 * t + 1), (3 * t, 3 * t + 2), (3 * t + 1, 3 * t + 2))]
        g = graph_from_edges(3000, edges)
        tracemalloc.start()
        try:
            partition = recursive_ncut(g, stop_ncut=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert partition.set_count == 1000
        assert peak < 3000 * 3000 / 8

    def test_component_past_the_float_limit_is_refused_before_its_blocks(self):
        # A 12,000-node chain: each dense block would hold 144M floats (1.15 GB).
        n = 12_000
        g = graph_from_edges(n, [(i, i + 1, 0.5) for i in range(n - 1)])
        tracemalloc.start()
        try:
            for connected in (False, True):
                with pytest.raises(InputError, match="a 12000-node connected set need "
                                                     "144000000 float64 values"):
                    recursive_ncut(g, stop_ncut=0.5, connected=connected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n / 8

    def test_peeling_stops_where_a_side_would_be_too_small(self):
        # Components {0, 1, 2}, {3, 4} and {5}: with min_part 2 the last two
        # stay one set, because peeling {3, 4} would leave {5} alone.
        g = graph_from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0)])
        assert list(recursive_ncut(g, stop_ncut=0.5, min_part=2).labels) == [0, 0, 0, 1, 1, 1]
        assert list(recursive_ncut(g, stop_ncut=0.5, min_part=1).labels) == [0, 0, 0, 1, 1, 2]

    def test_a_side_in_pieces_too_small_to_peel_stays_whole(self, monkeypatch):
        # An 11-node graph whose sweep cuts off a 4-node side made of two
        # 2-node components; min_part 3 peels neither, so the side is one set.
        rng = np.random.default_rng(2291)
        g = random_connected_graph(rng, int(rng.integers(4, 14)))
        first_component = spectral._first_component
        split_sets = []

        def recording(linked):
            first = first_component(linked)
            split_sets.append((first.size, int(first.sum())))
            return first

        monkeypatch.setattr(spectral, "_first_component", recording)
        partition = recursive_ncut(g, stop_ncut=2.0, min_part=3)
        assert g.num_nodes == 11 and (4, 2) in split_sets
        assert 4 in np.bincount(partition.labels)
        assert np.array_equal(partition.labels,
                              reference_recursive_ncut(g, 2.0, min_part=3).labels)


def lambda_2(g):
    """lambda_2 exactly as recursive_ncut computes it for the whole graph."""
    return float(np.linalg.eigh(normalized_laplacian(g))[0][1])


def count_jacobi_calls(monkeypatch):
    calls = []
    solver = spectral.symmetric_eigendecomposition

    def counting(matrix, *args, **kwargs):
        calls.append(len(matrix))
        return solver(matrix, *args, **kwargs)

    monkeypatch.setattr(spectral, "symmetric_eigendecomposition", counting)
    return calls


def force_jacobi(monkeypatch):
    """Certify no LAPACK Fiedler vector, so every sweep runs on the Jacobi one."""
    monkeypatch.setattr(spectral, "_certified_order", lambda *args: None)


def drawn_graph(rng):
    """A random connected graph or bridged cliques, at most 10 nodes."""
    if rng.random() < 0.5:
        return random_connected_graph(rng, int(rng.integers(2, 11)))
    return bridged_cliques(int(rng.integers(2, 6)), float(rng.uniform(0.01, 1.0)))


class TestCertifiedNoSplit:
    """recursive_ncut keeps a set whole, unsolved, when lambda_2 > stop_ncut + 1e-9."""

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=80, deadline=None)
    def test_every_bipartition_is_at_least_lambda_2(self, seed):
        g = drawn_graph(np.random.default_rng(seed))
        _, best = brute_force_ncut(g)
        assert best.ncut_value >= lambda_2(g) - 1e-12

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=80, deadline=None)
    def test_exit_fires_only_where_the_sweep_split_is_rejected(self, seed):
        rng = np.random.default_rng(seed)
        g = drawn_graph(rng)
        lam = lambda_2(g)
        stop = lam * float(rng.uniform(0.5, 1.5))
        if lam > stop + 1e-9:
            _, report = two_way_ncut(g)
            assert report.ncut_value > stop
            assert recursive_ncut(g, stop_ncut=stop).set_count == 1

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_partition_with_and_without_the_exit(self, seed, stop, min_part):
        rng = np.random.default_rng(seed)
        g = drawn_graph(rng)
        if rng.random() < 0.5:
            # a second component exercises peeling before the certificate
            h = random_connected_graph(rng, int(rng.integers(1, 6)))
            m = g.num_nodes
            g = graph_from_edges(
                m + h.num_nodes,
                g.edges() + [(i + m, j + m, w) for i, j, w in h.edges()],
            )
        with_exit = recursive_ncut(g, stop_ncut=stop, min_part=min_part)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_CERTIFY_MARGIN", np.inf)
            force_jacobi(mp)
            calls = count_jacobi_calls(mp)
            without_exit = recursive_ncut(g, stop_ncut=stop, min_part=min_part)
        assert np.array_equal(with_exit.labels, without_exit.labels)
        assert with_exit.set_count == without_exit.set_count
        if g.num_nodes > 1 and connected_components(g).count == 1:
            assert calls  # the reference run really took the solver path

    def test_exit_skips_the_solver(self, monkeypatch):
        g = graph_from_edges(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
        calls = count_jacobi_calls(monkeypatch)
        assert recursive_ncut(g, stop_ncut=lambda_2(g) - 2e-9).set_count == 1
        assert calls == []

    def test_near_ties_take_the_solver_path(self, monkeypatch):
        g = random_connected_graph(np.random.default_rng(4), 8)
        lam = lambda_2(g)
        # stop + 1e-9 == lambda_2 exactly: the strict comparison must not fire.
        boundary = lam - 1e-9
        while boundary + 1e-9 < lam:
            boundary = float(np.nextafter(boundary, np.inf))
        while boundary + 1e-9 > lam:
            boundary = float(np.nextafter(boundary, -np.inf))
        assert boundary + 1e-9 == lam
        for stop in (lam, lam - 5e-10, boundary):
            force_jacobi(monkeypatch)
            calls = count_jacobi_calls(monkeypatch)
            recursive_ncut(g, stop_ncut=stop)
            assert calls and calls[0] == 8, stop
            monkeypatch.undo()


def generic_graph(rng, n=None):
    """A connected graph, random weights on a spanning path plus random chords."""
    n = int(rng.integers(3, 13)) if n is None else n
    perm = rng.permutation(n)
    edges = {(min(a, b), max(a, b)) for a, b in zip(perm[:-1], perm[1:])}
    p = rng.uniform(0.2, 1.0)
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return graph_from_edges(n, [(i, j, float(rng.uniform(0.05, 1.0))) for i, j in sorted(edges)])


def loose_scene(seed, boxes=12, duplicate_first=False):
    """Largest component of a loose generated scene's IoU graph (IoU > 0.5)."""
    doc = generate_proposals(1, boxes, seed=seed, feature_dim=2, jitter=0.24)
    boxes, features = doc.normalized_boxes(), doc.feature_matrix()
    if duplicate_first:
        boxes, features = np.vstack([boxes, boxes[:1]]), np.vstack([features, features[:1]])
    g = build_graph(boxes, features, 0.5)
    components = connected_components(g)
    return g.subgraph(components.members(int(components.labels[0])))


def drawn_cut_graph(rng, kind):
    if kind == "generic":
        return generic_graph(rng)
    if kind == "cliques":
        return bridged_cliques(int(rng.integers(2, 6)), float(rng.uniform(0.01, 1.0)))
    g = loose_scene(int(rng.integers(0, 2**31)), boxes=int(rng.integers(4, 25)))
    return g if g.num_nodes >= 2 else generic_graph(rng)


def top_set_fell_back(g, monkeypatch):
    """Whether recursive_ncut solves the whole graph with Jacobi (stop 2 forces a sweep)."""
    calls = count_jacobi_calls(monkeypatch)
    recursive_ncut(g, stop_ncut=2.0)
    monkeypatch.undo()
    return bool(calls) and calls[0] == g.num_nodes


def tied_graph(rng):
    """A connected graph whose Fiedler entries tie, exactly or within 1e-10.

    A generic graph gains pendant siblings (leaves of one node with equal
    weights), a twin that copies a node's edges (joined to it or not) or a
    near twin with one copied weight times 1 + 1e-10; a loose scene gains a
    duplicate of its first box.
    """
    kind = int(rng.integers(4))
    if kind == 3:
        g = loose_scene(int(rng.integers(0, 2**31)), boxes=int(rng.integers(6, 25)),
                        duplicate_first=True)
        if g.num_nodes >= 2:
            return g
    g = generic_graph(rng)
    n, edges = g.num_nodes, g.edges()
    source = int(rng.integers(n))
    if kind == 0:
        leaves, w = int(rng.integers(2, 4)), float(rng.uniform(0.05, 1.0))
        return graph_from_edges(n + leaves, edges + [(source, n + k, w) for k in range(leaves)])
    twin = [(j if i == source else i, n, w) for i, j, w in edges if source in (i, j)]
    if kind == 2:
        twin[0] = (twin[0][0], n, twin[0][2] * (1.0 + 1e-10))
    if rng.random() < 0.5:
        twin.append((source, n, float(rng.uniform(0.05, 1.0))))
    return graph_from_edges(n + 1, edges + twin)


def assert_same_as_forced_jacobi(g, stop, min_part):
    """``recursive_ncut`` gives the labels and set count of its all-Jacobi run."""
    certified = recursive_ncut(g, stop_ncut=stop, min_part=min_part)
    with pytest.MonkeyPatch.context() as mp:
        force_jacobi(mp)
        jacobi = recursive_ncut(g, stop_ncut=stop, min_part=min_part)
    assert np.array_equal(certified.labels, jacobi.labels)
    assert certified.set_count == jacobi.set_count


class TestCertifiedFiedler:
    """The sweep runs on LAPACK's Fiedler vector only when its order sweeps to the Jacobi split."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(["generic", "cliques", "scene"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_certified_cut_is_the_jacobi_cut(self, seed, kind):
        g = drawn_cut_graph(np.random.default_rng(seed), kind)
        block = spectral._block_of(g.adjacency())
        values, vectors = np.linalg.eigh(block.laplacian)
        with pytest.MonkeyPatch.context() as mp:
            settled = spy_tie_route(mp)
            order = spectral._certified_order(block, values, vectors)
        if order is None:
            return
        if not settled:
            # The plain certificate settles the order itself, not only its split.
            _, z = fiedler_vector(block.laplacian)
            assert np.array_equal(order, np.argsort(z / np.sqrt(block.degrees), kind="stable"))
        partition, report = two_way_ncut(g, block=block, order=order)
        with pytest.MonkeyPatch.context() as mp:
            force_jacobi(mp)
            jacobi_partition, jacobi_report = two_way_ncut(g)
        assert np.array_equal(partition.labels, jacobi_partition.labels)
        assert report == jacobi_report

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(["generic", "cliques", "scene"]),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_partition_as_the_forced_jacobi_path(self, seed, kind, stop, min_part):
        g = drawn_cut_graph(np.random.default_rng(seed), kind)
        counts = spectral.SolveCounts()
        certified = recursive_ncut(g, stop_ncut=stop, min_part=min_part, counts=counts)
        with pytest.MonkeyPatch.context() as mp:
            force_jacobi(mp)
            calls = count_jacobi_calls(mp)
            jacobi = recursive_ncut(g, stop_ncut=stop, min_part=min_part)
        assert np.array_equal(certified.labels, jacobi.labels)
        assert certified.set_count == jacobi.set_count
        assert counts.fiedler_certified + counts.jacobi_fallbacks == len(calls)

    def test_certificate_fires_on_loose_scenes(self):
        hits = 0
        for seed in range(10):
            g = loose_scene(seed, boxes=20)
            counts = spectral.SolveCounts()
            recursive_ncut(g, stop_ncut=0.5, counts=counts)
            hits += counts.fiedler_certified
        assert hits >= 10

    def test_tie_route_matches_forced_jacobi(self):
        settled: list[int] = []

        @given(
            st.integers(min_value=0, max_value=2**31),
            st.floats(min_value=0.0, max_value=2.0),
            st.integers(min_value=1, max_value=3),
        )
        @settings(max_examples=120, deadline=None)
        def check(seed, stop, min_part):
            g = tied_graph(np.random.default_rng(seed))
            with pytest.MonkeyPatch.context() as mp:
                tie_settled = spy_tie_route(mp)
                assert_same_as_forced_jacobi(g, stop, min_part)
            settled.extend(tie_settled)

        check()
        # the draws really reach the route, so the equality is not vacuous
        assert settled

    def test_split_scene_runs_no_jacobi(self, monkeypatch):
        doc = generate_proposals(16, 60, seed=123, feature_dim=64, jitter=0.24)
        config = PipelineConfig(iou_thr=0.5)
        g = build_graph(doc.normalized_boxes(), doc.feature_matrix(), config.iou_thr)

        def pool():
            return gcpool(g, config.min_size, config.stop_ncut, min_part=config.min_part)[0]

        settled = spy_tie_route(monkeypatch)
        calls = count_jacobi_calls(monkeypatch)
        labeling = pool()
        assert calls == [] and labeling.solves.jacobi_fallbacks == 0
        assert settled
        monkeypatch.undo()
        force_jacobi(monkeypatch)
        jacobi = pool()
        assert jacobi.solves.jacobi_fallbacks > 0
        assert np.array_equal(labeling.labels, jacobi.labels)

    def test_twin_nodes_fall_back(self, monkeypatch):
        star = graph_from_edges(5, [(0, leaf, 1.0) for leaf in range(1, 5)])
        assert top_set_fell_back(star, monkeypatch)
        scene = loose_scene(3)
        assert not top_set_fell_back(scene, monkeypatch)
        twinned = loose_scene(3, duplicate_first=True)
        assert twinned.num_nodes == scene.num_nodes + 1
        assert top_set_fell_back(twinned, monkeypatch)

    def test_near_twins_settle_without_jacobi(self, monkeypatch):
        # y of a twin moves by about 1e-10: far more than LAPACK's own error,
        # far less than the 1e-9 residual the Jacobi vector is allowed. The
        # twins form one tie group, and both of its orders sweep to one split.
        base = generic_graph(np.random.default_rng(8), n=6)
        assert not top_set_fell_back(base, monkeypatch)
        twin = [(j if i == 5 else i, 6, w) for i, j, w in base.edges() if 5 in (i, j)]
        twin[0] = (twin[0][0], 6, twin[0][2] * (1.0 + 1e-10))
        near_twins = graph_from_edges(7, base.edges() + twin + [(5, 6, 1.0)])
        assert not top_set_fell_back(near_twins, monkeypatch)
        for stop in (2.0, 0.5, 0.2):
            assert_same_as_forced_jacobi(near_twins, stop, min_part=1)

    def test_tied_anchor_falls_back(self, monkeypatch):
        # The symmetric path's Fiedler vector is antisymmetric, so its two
        # largest entries tie in magnitude; the sign pin is then a coin toss.
        symmetric = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert top_set_fell_back(symmetric, monkeypatch)
        skewed = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        assert not top_set_fell_back(skewed, monkeypatch)

    def test_order_needs_strict_margins(self):
        def groups(z, degrees=np.ones(3)):
            found = spectral._certified_boundaries(np.array(z), np.asarray(degrees), 0.125)
            return None if found is None else [group.tolist() for group in np.split(*found)]

        # the anchor must beat the runner-up by more than 2 * distance
        assert groups([0.0, 0.5, 0.75]) is None
        assert groups([0.0, 0.5, 0.875]) == [[0], [1], [2]]
        # adjacent y must differ by more than both moves
        assert groups([0.0, 0.25, 1.0]) == [[0, 1], [2]]
        assert groups([0.3125, 0.0, 1.0]) == [[1], [0], [2]]
        # y = z / sqrt(d): a low degree widens its node's move
        assert groups([0.3125, 0.0, 1.0], [1.0, 0.25, 1.0]) == [[1, 0], [2]]
        # a wide move can reach past its neighbour: node 0's y lies in
        # [-0.5, 0.5] and node 2's in [0.475, 0.725], so all three may swap
        assert groups([0.0, 0.3, 0.6, 1.0], [0.0625, 1.0, 1.0, 1.0]) == [[0, 1, 2], [3]]

    def test_counts_add_up(self):
        counts = spectral.SolveCounts()
        g = bridged_cliques(4, 0.02)
        partition = recursive_ncut(g, stop_ncut=0.5, counts=counts)
        assert partition.set_count == 2
        # one sweep splits the bridge; each 4-clique is kept whole by lambda_2
        assert counts.fiedler_certified + counts.jacobi_fallbacks == 1
        assert counts.kept_whole == 2


class TestBruteForce:
    def test_path_of_four(self):
        partition, report = brute_force_ncut(path4())
        assert list(partition.labels) == [0, 0, 1, 1]
        assert report.ncut_value == 2.0 / 3.0

    def test_triangle_value(self):
        _, report = brute_force_ncut(graph_from_edges(3, triangle()))
        assert report.ncut_value == pytest.approx(1.5, abs=1e-15)

    def test_disconnected_graph_splits_components(self):
        g = graph_from_edges(5, triangle() + [(3, 4, 1.0)])
        partition, report = brute_force_ncut(g)
        assert report.ncut_value == 0.0
        assert list(partition.labels) == [0, 0, 0, 1, 1]

    def test_size_cap(self):
        g = graph_from_edges(16, [(i, i + 1, 1.0) for i in range(15)])
        with pytest.raises(InputError):
            brute_force_ncut(g)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_spectral_cut_on_bridged_cliques_is_optimal(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.choice([3, 4, 5]))
        g = bridged_cliques(k, float(rng.uniform(0.01, 0.2)))
        partition, report = two_way_ncut(g)
        oracle_partition, oracle_report = brute_force_ncut(g)
        assert np.array_equal(partition.labels, oracle_partition.labels)
        assert abs(report.ncut_value - oracle_report.ncut_value) <= 1e-10
