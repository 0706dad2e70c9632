"""Data partitioners: CART regression trees, k-means clusters, nearest-neighbor scans.

These produce the disjoint (or, for neighborhoods, per-query) row partitions
that the composite models fit their per-partition estimators on. All three are
deterministic given their seeds, and correctness is the contract: tests back
each one with a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import EncodedMatrix, encoded_stack

_MIN_SSE_GAIN = 1e-12


def _values_of(X) -> np.ndarray:
    if isinstance(X, EncodedMatrix):
        return X.values
    return np.atleast_2d(np.asarray(X, dtype=float))


@dataclass(slots=True)
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


@dataclass(frozen=True)
class TreeArrays:
    """The nodes of a tree as parallel arrays, indexed by node id."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_id: np.ndarray
    value: np.ndarray

    @classmethod
    def from_lists(cls, feature, threshold, left, right, leaf_id, value) -> "TreeArrays":
        """The arrays of per-node sequences: node ids and features as intp,
        thresholds and values as float."""
        return cls(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            leaf_id=np.array(leaf_id, dtype=np.intp),
            value=np.array(value, dtype=float),
        )


@dataclass
class RegressionTree:
    """CART tree over an encoded design matrix; a fitted tree's leaves keep
    their row lists (a forest's trees excepted), which model files do not store.

    `arrays` is derived from the nodes on first use; a loaded tree gets it
    from the arrays its model file stores.
    """

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

    def parameter_count(self) -> int:
        """Two parameters (feature, threshold) per internal node."""
        return 2 * self.n_internal

    @cached_property
    def arrays(self) -> TreeArrays:
        nodes = self.nodes
        return TreeArrays.from_lists(
            feature=[nd.feature for nd in nodes],
            threshold=[nd.threshold for nd in nodes],
            left=[nd.left for nd in nodes],
            right=[nd.right for nd in nodes],
            leaf_id=[nd.leaf_id for nd in nodes],
            value=[nd.value for nd in nodes],
        )

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


def presort(values: np.ndarray) -> np.ndarray:
    """Row ids of each column in ascending value order, ties by row id: a (p, n) array."""
    return np.ascontiguousarray(np.argsort(values, axis=0, kind="stable").T)


def _best_split(xs: np.ndarray, ys: np.ndarray, min_samples_leaf: int):
    """Best (cost, feature, threshold) over the valid cuts of every feature, or None.

    Row j of xs and ys holds the node's feature-j values and targets in
    ascending feature-j order, ties by row id. That is the order a per-node
    stable argsort of the ascending row list gives, so the cumulative sums
    are bitwise those of a one-feature-at-a-time scan. A cut is valid
    between two distinct values and when it leaves both children at least
    min_samples_leaf rows; a one-hot column has at most one. Only valid cuts
    are scored, each by the expression, in the order of operations, that a
    scan of all p * (n - 1) positions uses, so every cost is bitwise that
    scan's. One argmin over the (feature, cut) pairs in row-major order
    keeps the lowest feature index, then the lowest threshold, among equal
    costs.
    """
    p, n = xs.shape
    # position i of row j cuts after xs[j, i]; the last position cuts off nothing
    valid = np.empty((p, n), dtype=bool)
    np.greater(xs[:, 1:], xs[:, :-1], out=valid[:, :-1])  # distinct boundaries
    valid[:, : min_samples_leaf - 1] = False
    valid[:, max(n - min_samples_leaf, 0) :] = False
    at = valid.ravel().nonzero()[0]  # flat j * n + i, row-major
    if at.size == 0:
        return None
    csum = ys.cumsum(axis=1)
    csq = (ys * ys).cumsum(axis=1)
    cut = at % n + 1  # left child sizes
    right = n - cut
    end = at + right  # each pair's row end, where the totals are
    total, total_sq = csum.take(end), csq.take(end)
    sum_l, sq_l = csum.take(at), csq.take(at)
    sse = (
        sq_l
        - sum_l * sum_l / cut
        + (total_sq - sq_l)
        - (total - sum_l) * (total - sum_l) / right
    )
    best = int(sse.argmin())
    j, i = divmod(int(at[best]), n)
    return float(sse[best]), j, float(0.5 * (xs[j, i] + xs[j, i + 1]))


def build_cart(
    X,
    y,
    max_depth: int,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    *,
    order: np.ndarray | None = None,
) -> RegressionTree:
    """Greedy CART: axis-aligned splits minimizing the children's summed SSE.

    Split candidates are midpoints between consecutive distinct sorted values;
    a node becomes a leaf when depth/size limits are hit or when no candidate
    reduces the SSE by more than 1e-12.

    Each column is sorted once, at the root (`presort`; pass `order` to reuse
    one sort across builds on the same X). A node holds its rows per feature
    in that order, with their feature values (`xs`), and a split hands each
    child the stable sub-sequence of both, so every node sees each feature
    sorted by value, ties by row id, exactly as a per-node stable sort of its
    ascending rows would give. `_best_split` scores only a node's valid cut
    positions, and every tree is bitwise the one a scan of all positions
    grows. Leaf row lists stay ascending.
    """
    values = _values_of(X)
    y = np.asarray(y, dtype=float)
    n, p = values.shape
    if n == 0:
        raise ValueError("empty data")
    if n != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if max_depth < 0 or min_samples_split < 2 or min_samples_leaf < 1:
        raise ValueError("invalid tree hyperparameters")
    if order is None:
        order = presort(values)
    elif order.shape != (p, n):
        raise ValueError(f"order has shape {order.shape}, expected {(p, n)}")

    nodes: list[TreeNode] = []
    leaf_counter = [0]
    goes_left = np.empty(n, dtype=bool)

    def splits(size: int, depth: int) -> bool:
        return depth < max_depth and size >= min_samples_split

    def grow(
        rows: np.ndarray, sorted_rows: np.ndarray | None, xs: np.ndarray | None, depth: int
    ) -> int:
        idx = len(nodes)
        nodes.append(TreeNode())
        node = nodes[idx]
        ysub = y[rows]
        node.value = float(np.add.reduce(ysub) / rows.size)  # bitwise np.mean
        split = None
        if sorted_rows is not None:
            parent_sse = float(np.add.reduce(ysub * ysub) - rows.size * node.value**2)
            cand = _best_split(xs, y[sorted_rows], min_samples_leaf)
            if cand is not None and parent_sse - cand[0] > _MIN_SSE_GAIN:
                split = cand
        if split is None:
            node.leaf_id = leaf_counter[0]
            leaf_counter[0] += 1
            node.rows = rows
            return idx
        _, feature, threshold = split
        node.feature = feature
        node.threshold = threshold
        mask = values[rows, feature] <= threshold
        goes_left[rows] = mask  # by row id, read back in each feature's order
        to_left = goes_left[sorted_rows]

        def child(keep_rows, keep_sorted) -> int:
            sub = rows[keep_rows]
            if not splits(sub.size, depth + 1):
                return grow(sub, None, None, depth + 1)
            shape = (p, sub.size)
            sub_sorted = sorted_rows[keep_sorted].reshape(shape)
            return grow(sub, sub_sorted, xs[keep_sorted].reshape(shape), depth + 1)

        node.left = child(mask, to_left)
        node.right = child(~mask, ~to_left)
        return idx

    if splits(n, 0):
        grow(np.arange(n), order, np.take_along_axis(values.T, order, axis=1), 0)
    else:
        grow(np.arange(n), None, None, 0)
    return RegressionTree(nodes, p, max_depth, min_samples_split, min_samples_leaf)


def prune(tree: RegressionTree, max_depth: int, min_samples_split: int = 2) -> RegressionTree:
    """The tree `build_cart` grows with these two settings, cut from `tree`.

    CART picks a node's split without reading max_depth or
    min_samples_split, so a tree grown deeper, or with a smaller split size,
    holds the smaller tree at its top (the nested subtrees of a maximal tree,
    Breiman, Friedman, Olshen & Stone 1984, ch. 3). Cutting it below depth
    `max_depth` and at every node with fewer than `min_samples_split` rows
    gives `build_cart`'s tree node for node: nodes and leaves renumbered in
    its depth-first order, a cut node's rows ascending, and the requested
    settings recorded. `tree` must be a fitted tree grown on the same data
    with the same min_samples_leaf, at least this deep and with at most this
    split size; it is not changed.
    """
    return _prune(tree, max_depth, min_samples_split)[0]


def _prune(
    tree: RegressionTree,
    max_depth: int,
    min_samples_split: int,
    leaf_sizes: np.ndarray | None = None,
):
    """`prune`, and the new leaf id of each of `tree`'s leaf ids.

    A tree whose leaves keep no rows (a forest's) gives its row count per
    leaf id in `leaf_sizes`, and its cut leaves keep no rows either.
    """
    if max_depth < 0 or min_samples_split < 2:
        raise ValueError("invalid tree hyperparameters")
    if max_depth > tree.max_depth or min_samples_split < tree.min_samples_split:
        raise ValueError(
            f"cannot cut depth {max_depth}, split {min_samples_split} from a tree grown "
            f"to depth {tree.max_depth}, split {tree.min_samples_split}"
        )
    old = tree.nodes
    # depth-first numbering puts node i's subtree at old[i:end[i]]
    end = [0] * len(old)
    size = [0] * len(old)
    for i in range(len(old) - 1, -1, -1):
        nd = old[i]
        if nd.is_leaf:
            end[i] = i + 1
            size[i] = nd.rows.size if leaf_sizes is None else int(leaf_sizes[nd.leaf_id])
        else:
            end[i], size[i] = end[nd.right], size[nd.left] + size[nd.right]
    nodes: list[TreeNode] = []
    leaf_map = np.empty(tree.n_leaves, dtype=np.intp)
    n_leaves = 0

    def keep(i: int, depth: int) -> int:
        nonlocal n_leaves
        nd = old[i]
        idx = len(nodes)
        if not nd.is_leaf and depth < max_depth and size[i] >= min_samples_split:
            node = TreeNode(feature=nd.feature, threshold=nd.threshold, value=nd.value)
            nodes.append(node)
            node.left = keep(nd.left, depth + 1)
            node.right = keep(nd.right, depth + 1)
            return idx
        below = [d for d in old[i : end[i]] if d.is_leaf]
        for d in below:
            leaf_map[d.leaf_id] = n_leaves
        if nd.is_leaf or leaf_sizes is not None:
            rows = nd.rows
        else:
            rows = np.sort(np.concatenate([d.rows for d in below]))
        nodes.append(TreeNode(leaf_id=n_leaves, rows=rows, value=nd.value))
        n_leaves += 1
        return idx

    keep(0, 0)
    return RegressionTree(
        nodes, tree.n_features, max_depth, min_samples_split, tree.min_samples_leaf
    ), leaf_map


def _leaf(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Node id of the leaf each row of the 2-D X falls in.

    x[feature] <= threshold goes left. Every row still at an inner node
    moves down one level per step, so the loop runs once per tree level.
    """
    if X.shape[1] != tree.n_features:
        raise ValueError(f"row width {X.shape[1]} does not match tree width {tree.n_features}")
    a = tree.arrays
    node = np.zeros(X.shape[0], dtype=np.intp)
    todo = np.flatnonzero(a.left[node] >= 0)
    while todo.size:
        at = node[todo]
        goes_left = X[todo, a.feature[at]] <= a.threshold[at]
        node[todo] = np.where(goes_left, a.left[at], a.right[at])
        todo = todo[a.left[node[todo]] >= 0]
    return node


def route(tree: RegressionTree, x):
    """Leaf id of one encoded row (an int), or of each row of a stack (an array)."""
    X, one = encoded_stack(x)
    ids = tree.arrays.leaf_id[_leaf(tree, X)]
    return int(ids[0]) if one else ids


def predict_tree_mean(tree: RegressionTree, x):
    """Mean training target of the leaf one row falls in (a float), or per row of a stack."""
    X, one = encoded_stack(x)
    means = tree.arrays.value[_leaf(tree, X)]
    return float(means[0]) if one else means


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


def assign_cluster(partition: ClusterPartition, x_cat):
    """Nearest centroid by Euclidean distance; ties go to the lowest index.

    One row gives an int, a stack an array of cluster ids. Each row's
    distances are bitwise those of its one-row call.
    """
    X, one = encoded_stack(x_cat)
    if X.shape[1] != partition.centroids.shape[1]:
        raise ValueError("row width does not match centroid width")
    ids = np.argmin(_sq_distances(X, partition.centroids), axis=1)
    return int(ids[0]) if one else ids


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
