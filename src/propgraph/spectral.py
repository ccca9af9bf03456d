"""Normalized-cut machinery.

The partition objective for disjoint sets A_1..A_k of a weighted graph is

    sum_j cut(A_j, rest) / assoc(A_j, all nodes)

where assoc is the weighted-degree sum of the set. Bipartitioning relaxes
the objective through the symmetric normalized Laplacian: take the
eigenvector of the second-smallest eigenvalue, map it back through
D^{-1/2}, and sweep every prefix split of the induced node ordering,
scoring each with the exact objective. Recursive application with a stop
threshold yields a k-way partition without fixing k in advance.

Before a connected set is bipartitioned, ``recursive_ncut`` asks whether
any split could be kept at all. Shi & Malik (2000, "Normalized Cuts and
Image Segmentation") show that every bipartition (A, B) has
Ncut(A, B) >= lambda_2 of the normalized Laplacian, so when lambda_2 clears
the stop threshold no sweep split can pass it and the set stays whole
without a sweep.

The reference eigensolver is a cyclic Jacobi iteration (no BLAS) with
pinned eigenvector signs, and all ties break on explicit keys, so every
result is deterministic. ``recursive_ncut`` takes its spectrum from one
LAPACK ``np.linalg.eigh`` call per connected set, whose low bits vary with
the BLAS thread count; neither use of it reaches the output bytes:

- lambda_2 only feeds the yes/no no-split decision above, behind a margin
  far above those low bits.
- The sweep needs only the split that the node order of y = D^{-1/2} z
  picks, not the bits of the Fiedler vector z. LAPACK's z is used only when
  a Davis & Kahan (1970, "The rotation of eigenvectors by a perturbation
  III") residual bound proves that it and the Jacobi vector order the nodes
  alike outside a few small groups of near ties, such as twin nodes, and
  every order within those groups sweeps to the same split. Other sets
  fall back to the Jacobi solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, check_float_count
from .graph import ProposalGraph, connected_components, induced_subgraphs

# The Jacobi fallback's off-diagonal target, sweep budget and Fiedler
# residual bound; the solvers read them at call time.
_JACOBI_TOL = 1e-10
_JACOBI_MAX_SWEEPS = 100
_RESIDUAL_TOL = 1e-9
# A set stays whole without a solve only when lambda_2 > stop_ncut + this.
# LAPACK's lambda_2 is accurate to about n * 1e-16, so a decision this far
# from the threshold is the same at every BLAS thread count.
_CERTIFY_MARGIN = 1e-9
# The most orders of tied Fiedler entries that ``_certified_order`` sweeps
# before it leaves the set to the Jacobi solve.
_TIE_ORDERS = 24
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class SolveCounts:
    """How ``recursive_ncut`` settled the connected sets it considered.

    ``kept_whole`` sets needed no sweep (the lambda_2 certificate); in
    ``fiedler_certified`` sweeps LAPACK's vector fixed the sweep's partition,
    and ``jacobi_fallbacks`` ran on a Jacobi vector.
    """

    kept_whole: int = 0
    fiedler_certified: int = 0
    jacobi_fallbacks: int = 0


@dataclass(frozen=True, eq=False)
class Partition:
    """Dense labeling of nodes into ``set_count`` non-empty disjoint sets."""

    labels: np.ndarray
    set_count: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "labels", labels)
        if self.set_count < 1:
            raise InputError("a partition needs at least one set")
        if labels.size == 0:
            raise InputError("a partition must cover at least one node")
        if labels.min() < 0 or labels.max() >= self.set_count:
            raise InputError("labels must lie in [0, set_count)")
        if np.unique(labels).size != self.set_count:
            raise InputError("every set in a partition must be non-empty")


@dataclass(frozen=True)
class CutReport:
    """Objective value plus the per-set (cut, assoc) pairs it was built from."""

    ncut_value: float
    per_set: tuple[tuple[float, float], ...]


def ncut_value(g: ProposalGraph, partition: Partition) -> CutReport:
    """Evaluate the exact partition objective.

    Raises InputError when the partition does not cover the graph or when a
    set has zero association (an all-isolated set makes the ratio undefined).
    """
    labels = partition.labels
    if labels.shape[0] != g.num_nodes:
        raise InputError(f"partition covers {labels.shape[0]} nodes, graph has {g.num_nodes}")
    w = g.adjacency()
    return _cut_report(w, _degrees(w), partition)


def _cut_report(w: np.ndarray, degrees: np.ndarray, partition: Partition) -> CutReport:
    labels = partition.labels
    per_set: list[tuple[float, float]] = []
    total = 0.0
    for label in range(partition.set_count):
        inside = labels == label
        cut = float(w[np.ix_(inside, ~inside)].sum())
        assoc_j = float(degrees[inside].sum())
        if assoc_j == 0.0:
            raise InputError(f"degenerate partition: set {label} has zero association")
        per_set.append((cut, assoc_j))
        total += cut / assoc_j
    return CutReport(ncut_value=total, per_set=tuple(per_set))


def normalized_laplacian(g: ProposalGraph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2}.

    Requires every weighted degree to be positive (connected graphs with at
    least one edge qualify). Eigenvalues lie in [0, 2]; for a connected
    graph the eigenvalue 0 is simple with eigenvector D^{1/2} 1.
    """
    if g.num_nodes == 0:
        raise InputError("empty graph has no Laplacian")
    return _block_of(g.adjacency()).laplacian


@dataclass(frozen=True, eq=False)
class _Block:
    """Dense weights, weighted degrees and normalized Laplacian of one node set."""

    weights: np.ndarray
    degrees: np.ndarray
    laplacian: np.ndarray


def _degrees(w: np.ndarray) -> np.ndarray:
    """Weighted degrees, the row sums of ``w``.

    Their total, the whole set's association, bounds every partial sum of
    degrees or weights that the sweep and ``_cut_report`` form, so a finite
    total keeps all of them finite. An overflowing one is a NumericalError.
    """
    with np.errstate(over="ignore"):
        degrees = w.sum(axis=1)
        total = degrees.sum()
    if not np.isfinite(total):
        raise NumericalError(
            f"weighted degrees of {w.shape[0]} nodes overflow: their total is not finite"
        )
    return degrees


def _block_of(w: np.ndarray) -> _Block:
    degrees = _degrees(w)
    if np.any(degrees <= 0.0):
        raise InputError("normalized Laplacian undefined for zero-degree nodes")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = -(w * inv_sqrt[:, None]) * inv_sqrt[None, :]
    np.fill_diagonal(lap, 1.0)
    return _Block(weights=w, degrees=degrees, laplacian=lap)


def _round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Chess-tournament schedule: n-1 rounds of disjoint index pairs covering all pairs."""
    players = list(range(n)) if n % 2 == 0 else list(range(n)) + [-1]
    size = len(players)
    rounds = []
    for _ in range(size - 1):
        p = []
        q = []
        for k in range(size // 2):
            a, b = players[k], players[size - 1 - k]
            if a != -1 and b != -1:
                p.append(min(a, b))
                q.append(max(a, b))
        rounds.append((np.array(p, dtype=np.int64), np.array(q, dtype=np.int64)))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def symmetric_eigendecomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by Jacobi rotations.

    Returns (eigenvalues ascending, eigenvector columns). One sweep visits
    every index pair once, organized as rounds of mutually disjoint pairs so
    each round's rotations apply as one vectorized orthogonal update.
    Convergence is declared when the off-diagonal Frobenius norm drops below
    ``_JACOBI_TOL``; exhausting ``_JACOBI_MAX_SWEEPS`` raises NumericalError.
    The iteration is pure numpy with a fixed rotation order, so results are
    bit-reproducible and independent of any BLAS threading.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if not np.all(np.isfinite(a)):
        raise InputError("matrix entries must be finite")
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-12 * max(1.0, float(np.max(np.abs(a)))):
        raise InputError("matrix must be symmetric")
    a = (a + a.T) / 2.0
    vectors = np.eye(n)
    if n == 1:
        return a[0, :1].copy(), vectors
    rounds = _round_robin_rounds(n)
    # Entries below skip_tol stay unrotated; together they cannot lift the
    # off-norm above _JACOBI_TOL.
    skip_tol = _JACOBI_TOL / (2.0 * n)
    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        upper = np.triu(a, 1)
        off = np.sqrt(2.0 * np.sum(upper * upper))
        if off <= _JACOBI_TOL:
            eigenvalues = np.diag(a).copy()
            order = np.argsort(eigenvalues, kind="stable")
            return eigenvalues[order], vectors[:, order]
        if sweep == _JACOBI_MAX_SWEEPS:
            break
        # Rounding in the two-sided updates drifts symmetry by ~eps per
        # sweep; rebuild from the upper triangle to keep it exact.
        diagonal = np.diag(a).copy()
        a = upper + upper.T
        np.fill_diagonal(a, diagonal)
        for p, q in rounds:
            apq = a[p, q]
            active = np.abs(apq) > skip_tol
            if not np.any(active):
                continue
            apq_safe = np.where(active, apq, 1.0)
            theta = (a[q, q] - a[p, p]) / (2.0 * apq_safe)
            sign = np.where(theta < 0.0, -1.0, 1.0)
            with np.errstate(over="ignore", divide="ignore"):
                t = sign / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                big = np.abs(theta) > 1e10
                t = np.where(big, 1.0 / (2.0 * theta), t)
            t = np.where(active, t, 0.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            diag_p = a[p, p] - t * apq
            diag_q = a[q, q] + t * apq
            rows_p = a[p, :]
            rows_q = a[q, :]
            a[p, :] = c[:, None] * rows_p - s[:, None] * rows_q
            a[q, :] = s[:, None] * rows_p + c[:, None] * rows_q
            cols_p = a[:, p]
            cols_q = a[:, q]
            a[:, p] = c[None, :] * cols_p - s[None, :] * cols_q
            a[:, q] = s[None, :] * cols_p + c[None, :] * cols_q
            # Pivot entries and the rotated diagonal are known analytically.
            a[p, q] = np.where(active, 0.0, a[p, q])
            a[q, p] = np.where(active, 0.0, a[q, p])
            a[p, p] = np.where(active, diag_p, a[p, p])
            a[q, q] = np.where(active, diag_q, a[q, q])
            vec_p = vectors[:, p]
            vec_q = vectors[:, q]
            vectors[:, p] = c[None, :] * vec_p - s[None, :] * vec_q
            vectors[:, q] = s[None, :] * vec_p + c[None, :] * vec_q
    raise NumericalError(
        f"Jacobi eigensolver on a {n}x{n} matrix did not converge: off-diagonal norm "
        f"{off:.3e} after {_JACOBI_MAX_SWEEPS} sweep(s), target {_JACOBI_TOL:.1e}"
    )


def fiedler_vector(laplacian: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenpair of the second-smallest eigenvalue of a symmetric Laplacian.

    The Jacobi solver runs with a fixed tolerance and sweep budget. The
    vector is unit-norm with its largest-magnitude entry made positive, so
    repeated runs agree bit-for-bit. Every residual entry must be <= 1e-9.
    """
    lap = np.asarray(laplacian, dtype=np.float64)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1] or lap.shape[0] < 2:
        raise InputError("Fiedler pair needs a square matrix of size >= 2")
    eigenvalues, vectors = symmetric_eigendecomposition(lap)
    value = float(eigenvalues[1])
    vector = _pinned_unit(vectors[:, 1])
    residual = np.max(np.abs(np.einsum("ij,j->i", lap, vector) - value * vector))
    if residual > _RESIDUAL_TOL:
        raise NumericalError(
            f"Fiedler pair of a {lap.shape[0]}x{lap.shape[0]} Laplacian has residual "
            f"{residual:.3e}, above {_RESIDUAL_TOL:.1e}"
        )
    return value, vector


def _pinned_unit(vector: np.ndarray) -> np.ndarray:
    """``vector`` scaled to unit norm with its largest-magnitude entry positive."""
    vector = vector / np.sqrt(np.sum(vector * vector))
    anchor = int(np.argmax(np.abs(vector)))
    return -vector if vector[anchor] < 0.0 else vector


def _certified_order(block: _Block, values: np.ndarray, vectors: np.ndarray) -> np.ndarray | None:
    """A sweep order whose split is provably the Jacobi vector's, else None.

    ``values`` and ``vectors`` are ``np.linalg.eigh(block.laplacian)``. By
    Davis & Kahan, a unit vector x with residual r = Lx - mu x lies within
    2 |r| / delta of the exact Fiedler vector (up to sign) when mu is at
    least delta from every other eigenvalue. Here delta is the spectral gap
    around lambda_2, less LAPACK's eigenvalue error and Jacobi's tolerance.
    Jacobi's vector passes ``fiedler_vector`` only with every residual entry
    <= 1e-9, so the two vectors are within the sum of both bounds of each
    other; each residual is widened by its rounding, at most n(n + 2)eps an
    entry, since every Laplacian entry and every |z_i| is at most 1.

    When some nodes' y lie too close to order outright, the Jacobi order is
    one of the orders within the tie groups that ``_certified_boundaries``
    leaves. If there are at most ``_TIE_ORDERS`` of them and every one
    sweeps to the same split, that split is the Jacobi order's, and LAPACK's
    order is returned.
    """
    n = values.size
    lam = float(values[1])
    upper = float(values[2]) if n > 2 else np.inf
    delta = min(lam - float(values[0]), upper - lam) - 2.0 * _CERTIFY_MARGIN - _JACOBI_TOL
    if not delta > 0.0:
        return None
    z = _pinned_unit(vectors[:, 1])
    rounding = np.sqrt(n) * n * (n + 2) * _EPS
    residual = float(np.linalg.norm(block.laplacian @ z - lam * z)) + rounding
    jacobi_residual = np.sqrt(n) * _RESIDUAL_TOL + rounding
    # The last term covers the normalization of z and the division by sqrt(d).
    distance = 2.0 * (residual + jacobi_residual) / delta + (n + 2) * _EPS
    found = _certified_boundaries(z, block.degrees, distance)
    if found is None:
        return None
    order, boundaries = found
    if boundaries.size == n - 1:
        return order
    groups = np.split(order, boundaries)
    if math.prod(math.factorial(group.size) for group in groups) > _TIE_ORDERS:
        return None
    orders = itertools.product(*(itertools.permutations(group) for group in groups))
    first = _sweep_split(block, np.concatenate(next(orders)))
    if all(np.array_equal(_sweep_split(block, np.concatenate(o)), first) for o in orders):
        return order
    return None


def _sweep_order(block: _Block, values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, bool]:
    """Node order for the sweep and whether LAPACK's vector was certified for it.

    ``values`` and ``vectors`` are ``np.linalg.eigh(block.laplacian)``. The
    order sweeps to the Jacobi Fiedler vector's split either way: certified
    from LAPACK's vector when possible, solved for with Jacobi when not.
    """
    order = _certified_order(block, values, vectors)
    if order is not None:
        return order, True
    _, z = fiedler_vector(block.laplacian)
    return np.argsort(z / np.sqrt(block.degrees), kind="stable"), False


def _certified_boundaries(
    z: np.ndarray, degrees: np.ndarray, distance: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Stable sort order of y = z / sqrt(d) and its certified boundaries: the
    positions k at which every sign-pinned vector within ``distance`` of
    ``z`` puts all of order[:k] below all of order[k:]. None when such a
    vector may pin its sign on another anchor.

    A largest |z_i| that beats the runner-up by more than 2 * distance is
    the anchor of every such vector, so its sign pin matches ``z``'s; then
    y_i moves by at most distance / sqrt(d_i). A boundary falls at k when
    the largest y + move before k is strictly below the smallest y - move
    from k on. The runs between boundaries are the tie groups, whose nodes
    such a vector may order any way.
    """
    magnitudes = np.sort(np.abs(z))
    if not magnitudes[-1] - magnitudes[-2] > 2.0 * distance:
        return None
    y = z / np.sqrt(degrees)
    order = np.argsort(y, kind="stable")
    moves = distance / np.sqrt(degrees[order])
    highest = np.maximum.accumulate(y[order] + moves)
    lowest = np.minimum.accumulate((y[order] - moves)[::-1])[::-1]
    return order, np.flatnonzero(highest[:-1] < lowest[1:]) + 1


def _canonical_two_way(in_first: np.ndarray) -> np.ndarray:
    """Binary labels with the set containing node 0 relabeled to 0."""
    labels = np.where(in_first, 0, 1).astype(np.int64)
    if labels[0] == 1:
        labels = 1 - labels
    return labels


def _sweep_split(block: _Block, order: np.ndarray) -> np.ndarray:
    """Mask of the first set of the best prefix split of ``order``, as ``two_way_ncut`` picks it."""
    m = block.weights.shape[0]
    w_ord = block.weights[np.ix_(order, order)]
    deg_ord = block.degrees[order]
    total_assoc = float(deg_ord.sum())
    position_of_node0 = int(np.flatnonzero(order == 0)[0])

    best_key: tuple[float, int, int] | None = None
    best_split = -1
    prefix_assoc = 0.0
    internal = 0.0
    for split in range(1, m):
        k = split - 1
        prefix_assoc += float(deg_ord[k])
        internal += float(w_ord[k, :k].sum())
        cut = prefix_assoc - 2.0 * internal
        rest_assoc = total_assoc - prefix_assoc
        value = cut / prefix_assoc + cut / rest_assoc
        first_size = split if position_of_node0 < split else m - split
        key = (value, first_size, split)
        if best_key is None or key < best_key:
            best_key = key
            best_split = split
    in_first = np.zeros(m, dtype=bool)
    in_first[order[:best_split]] = True
    return in_first


def two_way_ncut(
    g: ProposalGraph | None,
    *,
    block: _Block | None = None,
    order: np.ndarray | None = None,
) -> tuple[Partition, CutReport]:
    """Best sweep-cut bipartition along the Fiedler ordering.

    The Fiedler vector z of the normalized Laplacian is mapped back via
    y = D^{-1/2} z; nodes are sorted by y and each of the M-1 prefix splits
    is scored with the exact objective. Ties break toward the smaller
    node-0 set, then the smaller split index.

    ``block`` and ``order`` are for ``recursive_ncut``, which has already
    found the set connected, built its dense block and found the sweep
    order. With ``block`` given, ``g`` is not read: ``recursive_ncut``
    passes None, because its sets are index subsets of one dense block, not
    graphs. Without ``block`` the graph is checked and the block built here;
    without ``order`` it comes from ``_sweep_order``, as in
    ``recursive_ncut``.
    """
    if block is None:
        if g.num_nodes < 2:
            raise InputError("two-way cut needs at least 2 nodes")
        if connected_components(g).count != 1:
            raise InputError("two-way cut requires a connected graph")
        block = _block_of(g.adjacency())
    if order is None:
        order, _ = _sweep_order(block, *np.linalg.eigh(block.laplacian))
    in_first = _sweep_split(block, order)
    partition = Partition(labels=_canonical_two_way(in_first), set_count=2)
    return partition, _cut_report(block.weights, block.degrees, partition)


def _check_split_rule(stop_ncut: float, min_part: int) -> None:
    """``recursive_ncut``'s argument checks, shared with ``PipelineConfig`` and ``gcpool``."""
    if not np.isfinite(stop_ncut) or stop_ncut < 0.0:
        raise InputError(f"stop_ncut must be finite and >= 0, got {stop_ncut}")
    if min_part < 1:
        raise InputError(f"min_part must be >= 1, got {min_part}")


def _first_component(linked: np.ndarray) -> np.ndarray:
    """Mask of the nodes joined to node 0 in the boolean edge-existence block ``linked``.

    Breadth-first search: each node joins the frontier once, so the cost is
    O(n^2) for an n x n block.
    """
    reached = np.zeros(linked.shape[0], dtype=bool)
    reached[0] = True
    frontier = reached
    while frontier.any():
        frontier = linked[frontier].any(axis=0) & ~reached
        reached |= frontier
    return reached


def recursive_ncut(
    g: ProposalGraph,
    stop_ncut: float,
    min_part: int = 1,
    counts: SolveCounts | None = None,
    *,
    connected: bool = False,
) -> Partition:
    """Hierarchical bipartitioning with a stop threshold on the child objective.

    A split is kept only when its objective is <= ``stop_ncut`` and both
    sides have at least ``min_part`` nodes; otherwise the current node set
    becomes one final part. Sides that fall apart into components are peeled
    component-by-component (a zero-cut split) under the same size rule.
    Final labels are dense and ordered by each part's smallest node index.

    Every bipartition of a connected set has an objective >= lambda_2 of its
    normalized Laplacian (Shi & Malik, 2000). A set whose lambda_2 exceeds
    ``stop_ncut`` by more than 1e-9 is therefore kept whole without solving
    for its Fiedler vector, which is the partition the sweep would reach.
    Otherwise the sweep runs on LAPACK's Fiedler vector when its node order
    is certified to pick the Jacobi vector's split, and on the Jacobi vector
    when not. ``counts``, when given, is incremented by how each set was settled.

    ``g``'s components are peeled from the edge lists, so dense blocks are
    only ever as large as one component; ``connected=True`` says the caller
    knows ``g`` is one component, which skips labelling it.
    """
    if counts is None:
        counts = SolveCounts()
    _check_split_rule(stop_ncut, min_part)
    m = g.num_nodes
    if m == 0:
        raise InputError("cannot partition an empty graph")
    if connected:
        parts = _split_connected(g, stop_ncut, min_part, counts)
    else:
        components = connected_components(g)
        parts = []
        remaining = m
        groups = induced_subgraphs(g, components.labels, components.count)
        for label, (members, sub) in enumerate(groups):
            remaining -= members.size
            if remaining and min(members.size, remaining) < min_part:
                # Peeling this component would leave a side under min_part,
                # so it and every later component stay one set.
                parts.append(np.flatnonzero(components.labels >= label))
                break
            parts.extend(members[p] for p in _split_connected(sub, stop_ncut, min_part, counts))
    parts.sort(key=lambda members: int(members[0]))
    labels = np.zeros(m, dtype=np.int64)
    for label, members in enumerate(parts):
        labels[members] = label
    return Partition(labels=labels, set_count=len(parts))


def _split_connected(
    g: ProposalGraph, stop_ncut: float, min_part: int, counts: SolveCounts
) -> list[np.ndarray]:
    """``recursive_ncut``'s final sets of the connected graph ``g``, as ascending indices.

    ``g``'s dense weight block and boolean edge-existence block are built
    once; every set is an ascending index subset of them. A set's
    components come from the existence block, so a zero-weight edge
    connects its endpoints just as it does in ``connected_components``. A
    ``g`` whose n x n blocks would pass ``FLOAT_LIMIT`` values is an
    ``InputError`` before any block is built.
    """
    m = g.num_nodes
    check_float_count(m * m, f"the dense blocks of a {m}-node connected set")
    weights = g.adjacency()
    linked = np.zeros((m, m), dtype=bool)
    linked[g.edge_index[:, 0], g.edge_index[:, 1]] = True
    linked[g.edge_index[:, 1], g.edge_index[:, 0]] = True
    parts: list[np.ndarray] = []
    # Each entry is a set of ascending indices and whether it is known connected.
    stack: list[tuple[np.ndarray, bool]] = [(np.arange(m, dtype=np.int64), True)]
    while stack:
        idx, known_connected = stack.pop()
        if idx.size == 1:
            parts.append(idx)
            continue
        square = np.ix_(idx, idx)
        if not known_connected:
            first = _first_component(linked[square])
            if not first.all():
                if min(np.count_nonzero(first), np.count_nonzero(~first)) >= min_part:
                    stack.append((idx[~first], False))
                    stack.append((idx[first], True))
                else:
                    parts.append(idx)
                continue
        block = _block_of(weights[square])
        values, vectors = np.linalg.eigh(block.laplacian)
        if values[1] > stop_ncut + _CERTIFY_MARGIN:
            counts.kept_whole += 1
            parts.append(idx)
            continue
        order, certified = _sweep_order(block, values, vectors)
        if certified:
            counts.fiedler_certified += 1
        else:
            counts.jacobi_fallbacks += 1
        partition, report = two_way_ncut(None, block=block, order=order)
        side_a = idx[partition.labels == 0]
        side_b = idx[partition.labels == 1]
        if report.ncut_value <= stop_ncut and min(side_a.size, side_b.size) >= min_part:
            stack.append((side_b, False))
            stack.append((side_a, False))
        else:
            parts.append(idx)
    return parts
