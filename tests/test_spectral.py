import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propgraph import spectral
from propgraph import (
    InputError,
    NumericalError,
    Partition,
    assoc,
    brute_force_ncut,
    connected_components,
    fiedler_vector,
    graph_from_edges,
    ncut_value,
    normalized_laplacian,
    recursive_ncut,
    symmetric_eigendecomposition,
    two_way_ncut,
)
from propgraph.oracles import bridged_cliques, random_connected_graph


def path4():
    return graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])


def triangle(weight=1.0, offset=0):
    return [(offset, offset + 1, weight), (offset, offset + 2, weight), (offset + 1, offset + 2, weight)]


class TestAssoc:
    def test_empty_set(self):
        assert assoc(path4(), []) == 0.0

    def test_path_prefix(self):
        # degrees along the path are 1, 2, 2, 1
        g = path4()
        assert assoc(g, [0, 1]) == 3.0
        # cross-check by brute-force edge enumeration
        total = 0.0
        for i, j, w in g.edges():
            total += w * ((i in (0, 1)) + (j in (0, 1)))
        assert assoc(g, [0, 1]) == total

    def test_whole_graph_is_twice_total_weight(self):
        g = path4()
        assert assoc(g, range(4)) == 2.0 * sum(w for _, _, w in g.edges())


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
        kernel = np.sqrt(g.degrees())
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

    def test_sweep_budget_exhaustion(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(30, 30))
        m = (m + m.T) / 2.0
        with pytest.raises(NumericalError):
            symmetric_eigendecomposition(m, max_sweeps=1)

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


def lambda_2(g):
    """lambda_2 exactly as recursive_ncut computes it for the whole graph."""
    return float(np.linalg.eigvalsh(normalized_laplacian(g))[1])


def count_jacobi_calls(monkeypatch):
    calls = []
    solver = spectral.symmetric_eigendecomposition

    def counting(matrix, *args, **kwargs):
        calls.append(len(matrix))
        return solver(matrix, *args, **kwargs)

    monkeypatch.setattr(spectral, "symmetric_eigendecomposition", counting)
    return calls


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
            calls = count_jacobi_calls(monkeypatch)
            recursive_ncut(g, stop_ncut=stop)
            assert calls and calls[0] == 8, stop
            monkeypatch.undo()


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
