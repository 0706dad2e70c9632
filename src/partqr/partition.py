"""Data partitioners: CART regression trees, k-means clusters, nearest-neighbor scans.

These produce the disjoint (or, for neighborhoods, per-query) row partitions
that the composite models fit their per-partition estimators on. All three are
deterministic given their seeds, and correctness is the contract: tests back
each one with a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import EncodedMatrix

_MIN_SSE_GAIN = 1e-12


def _values_of(X) -> np.ndarray:
    if isinstance(X, EncodedMatrix):
        return X.values
    return np.atleast_2d(np.asarray(X, dtype=float))


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = float("nan")
    left: int = -1
    right: int = -1
    leaf_id: int = -1
    rows: np.ndarray | None = None
    value: float = float("nan")

    @property
    def is_leaf(self) -> bool:
        return self.left < 0


@dataclass
class RegressionTree:
    """CART tree over an encoded design matrix; leaves keep their row lists."""

    nodes: list[TreeNode]
    n_features: int
    max_depth: int
    min_samples_split: int
    min_samples_leaf: int

    def leaf_nodes(self) -> list[TreeNode]:
        return [nd for nd in self.nodes if nd.is_leaf]

    @property
    def n_leaves(self) -> int:
        return sum(1 for nd in self.nodes if nd.is_leaf)

    @property
    def n_internal(self) -> int:
        return sum(1 for nd in self.nodes if not nd.is_leaf)

    @property
    def depth(self) -> int:
        depths = {0: 0}
        out = 0
        for i, nd in enumerate(self.nodes):
            d = depths[i]
            if nd.is_leaf:
                out = max(out, d)
            else:
                depths[nd.left] = d + 1
                depths[nd.right] = d + 1
        return out


def _node_sse(prefix_sum: float, prefix_sq: float, count: int) -> float:
    return prefix_sq - prefix_sum * prefix_sum / count


def _best_split(values: np.ndarray, y: np.ndarray, rows: np.ndarray, min_samples_leaf: int):
    """Scan all features/midpoints; returns (cost, feature, threshold) or None.

    Ties keep the first candidate found, i.e. lowest feature index, then
    lowest threshold.
    """
    n = rows.size
    best = None
    for j in range(values.shape[1]):
        x = values[rows, j]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[rows][order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        total, total_sq = csum[-1], csq[-1]
        cut = np.flatnonzero(xs[1:] > xs[:-1]) + 1  # left sizes at distinct boundaries
        cut = cut[(cut >= min_samples_leaf) & (n - cut >= min_samples_leaf)]
        if cut.size == 0:
            continue
        sum_l = csum[cut - 1]
        sq_l = csq[cut - 1]
        sse = (
            sq_l
            - sum_l * sum_l / cut
            + (total_sq - sq_l)
            - (total - sum_l) * (total - sum_l) / (n - cut)
        )
        k = int(np.argmin(sse))
        cost = float(sse[k])
        if best is None or cost < best[0]:
            i = int(cut[k])
            best = (cost, j, float(0.5 * (xs[i - 1] + xs[i])))
    return best


def build_cart(
    X,
    y,
    max_depth: int,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
) -> RegressionTree:
    """Greedy CART: axis-aligned splits minimizing the children's summed SSE.

    Split candidates are midpoints between consecutive distinct sorted values;
    a node becomes a leaf when depth/size limits are hit or when no candidate
    reduces the SSE by more than 1e-12.
    """
    values = _values_of(X)
    y = np.asarray(y, dtype=float)
    n = values.shape[0]
    if n == 0:
        raise ValueError("empty data")
    if values.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if max_depth < 0 or min_samples_split < 2 or min_samples_leaf < 1:
        raise ValueError("invalid tree hyperparameters")

    nodes: list[TreeNode] = []
    leaf_counter = [0]

    def grow(rows: np.ndarray, depth: int) -> int:
        idx = len(nodes)
        nodes.append(TreeNode())
        node = nodes[idx]
        node.value = float(np.mean(y[rows]))
        split = None
        if depth < max_depth and rows.size >= min_samples_split:
            ysub = y[rows]
            parent_sse = float(np.sum(ysub * ysub) - rows.size * node.value**2)
            cand = _best_split(values, y, rows, min_samples_leaf)
            if cand is not None and parent_sse - cand[0] > _MIN_SSE_GAIN:
                split = cand
        if split is None:
            node.leaf_id = leaf_counter[0]
            leaf_counter[0] += 1
            node.rows = np.sort(rows)
            return idx
        _, feature, threshold = split
        node.feature = feature
        node.threshold = threshold
        mask = values[rows, feature] <= threshold
        node.left = grow(rows[mask], depth + 1)
        node.right = grow(rows[~mask], depth + 1)
        return idx

    grow(np.arange(n), 0)
    return RegressionTree(nodes, values.shape[1], max_depth, min_samples_split, min_samples_leaf)


def _leaf(tree: RegressionTree, x) -> TreeNode:
    """Follow splits (x[feature] <= threshold goes left) to the leaf node."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != tree.n_features:
        raise ValueError(f"row width {x.shape[0]} does not match tree width {tree.n_features}")
    node = tree.nodes[0]
    while not node.is_leaf:
        node = tree.nodes[node.left if x[node.feature] <= node.threshold else node.right]
    return node


def route(tree: RegressionTree, x) -> int:
    """Leaf id of the row x."""
    return _leaf(tree, x).leaf_id


def predict_tree_mean(tree: RegressionTree, x) -> float:
    """Mean training target of the leaf the row x falls in."""
    return _leaf(tree, x).value


@dataclass
class ClusterPartition:
    """k-means centroids in the one-hot categorical subspace."""

    centroids: np.ndarray
    n_iter: int = 0
    objective_history: tuple[float, ...] = field(default=(), repr=False)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _sq_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    if X.shape[1] == 0:
        return np.zeros((X.shape[0], centroids.shape[0]))
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def fit_kmeans(
    X_cat,
    k: int,
    seed: int,
    max_iter: int = 300,
    init_centroids: np.ndarray | None = None,
) -> ClusterPartition:
    """Lloyd's algorithm from seeded k-means++ starts.

    Empty clusters are reseeded to the point farthest from its assigned
    centroid; iteration stops at an assignment fixpoint or after max_iter.
    """
    X = np.atleast_2d(np.asarray(X_cat, dtype=float))
    n = X.shape[0]
    if k < 1:
        raise ValueError("k must be positive")
    n_distinct = np.unique(X, axis=0).shape[0]
    if k > n_distinct:
        raise ValueError(f"k={k} exceeds the {n_distinct} distinct rows")

    rng = np.random.default_rng(seed)
    if init_centroids is not None:
        centroids = np.array(init_centroids, dtype=float)
        if centroids.shape != (k, X.shape[1]):
            raise ValueError("init_centroids shape mismatch")
    else:
        centroids = np.empty((k, X.shape[1]))
        centroids[0] = X[int(rng.integers(n))]
        for j in range(1, k):
            d2 = _sq_distances(X, centroids[:j]).min(axis=1)
            probs = d2 / d2.sum()
            centroids[j] = X[int(rng.choice(n, p=probs))]

    history = []
    assign = None
    it = 0
    for it in range(1, max_iter + 1):
        d2 = _sq_distances(X, centroids)
        new_assign = np.argmin(d2, axis=1)

        counts = np.bincount(new_assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            own = d2[np.arange(n), new_assign].copy()
            for cid in empties:
                far = int(np.argmax(own))
                centroids[cid] = X[far]
                own[far] = -1.0
            d2 = _sq_distances(X, centroids)
            new_assign = np.argmin(d2, axis=1)

        history.append(float(d2[np.arange(n), new_assign].sum()))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for cid in range(k):
            members = X[assign == cid]
            if members.shape[0]:
                centroids[cid] = members.mean(axis=0)

    return ClusterPartition(centroids=centroids, n_iter=it, objective_history=tuple(history))


def assign_cluster(partition: ClusterPartition, x_cat) -> int:
    """Nearest centroid by Euclidean distance; ties go to the lowest index."""
    x = np.asarray(x_cat, dtype=float)
    if x.shape[0] != partition.centroids.shape[1]:
        raise ValueError("row width does not match centroid width")
    d2 = _sq_distances(x[None, :], partition.centroids)[0]
    return int(np.argmin(d2))


def knn_query(points, x_cat, k: int) -> list[tuple[int, float]]:
    """Exact k nearest rows of points, nondecreasing distance, ties by lower index.

    A stable sort of squared distances keeps equal distances in index order;
    on one-hot rows the squared distances are small integers, so ties are exact.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.asarray(x_cat, dtype=float)
    if x.shape[0] != points.shape[1]:
        raise ValueError("row width does not match point width")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"neighbor count {k} out of range 1..{n}")
    d2 = ((points - x) ** 2).sum(axis=1)
    nearest = np.argsort(d2, kind="stable")[:k]
    return [(int(i), float(np.sqrt(d2[i]))) for i in nearest]
