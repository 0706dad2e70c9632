"""Data partitioners: CART regression trees, k-means clusters, nearest-neighbor scans.

These produce the disjoint (or, for neighborhoods, per-query) row partitions
that the composite models fit their per-partition estimators on. All three are
deterministic given their seeds, and correctness is the contract: tests back
each one with a brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import design_arrays, encoded_batch

_MIN_SSE_GAIN = 1e-12
# a tree's per-node arrays, in the order `RegressionTree` takes them
NODE_ARRAYS = ("feature", "threshold", "left", "right", "leaf_id", "value")


@dataclass
class RegressionTree:
    """CART tree over an encoded design matrix, as parallel arrays indexed by node id.

    Nodes are numbered depth first: a node, then its left subtree, then its
    right one. An inner node splits on x[feature] <= threshold (left) against
    x > threshold (right); a leaf has left == right == -1, feature -1 and a
    NaN threshold. `leaf_id` numbers the leaves 0..L-1 in node order and is
    -1 at inner nodes; `value` is each node's mean training target.

    `n_features` is the tree's width. The growth settings (`max_depth`,
    `min_samples_split`, `min_samples_leaf`) are read only by `prune`, and
    `leaf_rows[l]` holds leaf l's ascending training rows. A loaded tree has
    its width from its model file's layout and none of these (None); a
    forest's trees keep no leaf rows.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_id: np.ndarray
    value: np.ndarray
    n_features: int
    max_depth: int | None = None
    min_samples_split: int | None = None
    min_samples_leaf: int | None = None
    leaf_rows: list[np.ndarray] | None = None

    def __post_init__(self):
        # node ids and features as intp, thresholds and values as float
        self.feature = np.asarray(self.feature, dtype=np.intp)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=np.intp)
        self.right = np.asarray(self.right, dtype=np.intp)
        self.leaf_id = np.asarray(self.leaf_id, dtype=np.intp)
        self.value = np.asarray(self.value, dtype=float)

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.left < 0))

    def parameter_count(self) -> int:
        """Two parameters (feature, threshold) per internal node."""
        return 2 * (self.left.size - self.n_leaves)

    @property
    def depth(self) -> int:
        # a child's id exceeds its parent's, so one pass in node order sees each parent first
        depths = np.zeros(self.left.size, dtype=np.intp)
        for i in np.flatnonzero(self.left >= 0).tolist():
            depths[self.left[i]] = depths[self.right[i]] = depths[i] + 1
        return int(depths.max())


def check_trees(trees) -> None:
    """Raise ValueError unless each tree's arrays form a tree that prediction can walk.

    The six node arrays are one-dimensional, of one length n >= 1. A leaf
    has left == right == -1; an inner node i has both children in (i, n),
    and every node but the root is the child of exactly one node, so every
    walk from the root ends at a leaf. Inner nodes split on a feature in
    [0, n_features) at a finite threshold, and the leaves carry leaf ids
    0..L-1 in node order and a finite value.
    A loaded tree comes from outside input and is checked before use. All
    trees of a forest or a boosting run are checked in one pass over their
    node arrays laid end to end: node i of tree t is node start[t] + i.
    """
    if not trees:
        return
    for tree in trees:
        shapes = {key: getattr(tree, key).shape for key in NODE_ARRAYS}
        n = tree.value.size
        if set(shapes.values()) != {(n,)} or n == 0:
            raise ValueError(f"tree node arrays must be non-empty, flat and of one length: {shapes}")
        if type(tree.n_features) is not int or tree.n_features < 0:
            raise ValueError(f"tree n_features must be a count, not {tree.n_features!r}")
    feature, threshold, left, right, leaf_id, value = (
        np.concatenate([getattr(tree, key) for tree in trees]) for key in NODE_ARRAYS
    )
    sizes = np.array([tree.value.size for tree in trees])
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)  # each node's tree's first node
    local = np.arange(value.size) - start  # each node's id within its tree
    leaf = left == -1
    inner = np.flatnonzero(~leaf)
    children = np.concatenate([left[inner], right[inner]])
    parents = np.concatenate([inner, inner])
    if (right[leaf] != -1).any() or (
        (children <= local[parents]) | (children >= np.repeat(sizes, sizes)[parents])
    ).any():
        raise ValueError("tree children must follow their parent within the node arrays")
    if (np.bincount(children + start[parents], minlength=value.size)[local > 0] != 1).any():
        raise ValueError("tree nodes other than the root must each have exactly one parent")
    width = np.repeat([tree.n_features for tree in trees], sizes)[inner]
    split = feature[inner]
    out = np.flatnonzero((split < 0) | (split >= width))
    if out.size:
        raise ValueError(f"tree split features must lie in [0, {width[out[0]]})")
    leaves = np.count_nonzero(leaf)
    per_tree = np.bincount(np.repeat(np.arange(len(trees)), sizes)[leaf], minlength=len(trees))
    first_leaf = np.repeat(np.cumsum(per_tree) - per_tree, per_tree)
    if not np.array_equal(leaf_id[leaf], np.arange(leaves) - first_leaf):
        raise ValueError("tree leaf ids must number the leaves 0, 1, ... in node order")
    if not np.isfinite(value[leaf]).all():
        raise ValueError("tree key 'value' must be finite at every leaf")
    if not np.isfinite(threshold[inner]).all():
        raise ValueError("tree key 'threshold' must be finite at every inner node")


def _add_node(nodes: dict, value: float, feature=-1, threshold=np.nan, leaf_id=-1) -> int:
    """Append a node, its children not yet set, to the lists of `nodes`
    (one per `NODE_ARRAYS` key); its node id."""
    idx = len(nodes["value"])
    for key, v in zip(NODE_ARRAYS, (feature, threshold, -1, -1, leaf_id, value)):
        nodes[key].append(v)
    return idx


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
    a, b = float(xs[j, i]), float(xs[j, i + 1])
    # the midpoint, unless it rounds onto b (adjacent doubles) or overflows:
    # `x <= threshold` must send a's rows left and b's right, as scored
    threshold = a / 2 + b / 2
    return float(sse[best]), j, a if threshold == b or math.isinf(threshold) else threshold


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

    Split candidates lie between consecutive distinct sorted values a < b.
    The threshold is the midpoint a / 2 + b / 2, or a itself when that
    rounds to b (a and b adjacent doubles) or overflows, so `x <= threshold`
    always separates a from b. A node becomes a leaf when depth/size limits
    are hit or when no candidate reduces the SSE by more than 1e-12.

    Each column is sorted once, at the root (`presort`; pass `order` to reuse
    one sort across builds on the same X). A node holds its rows per feature
    in that order, with their feature values (`xs`), and a split hands each
    child the stable sub-sequence of both, so every node sees each feature
    sorted by value, ties by row id, exactly as a per-node stable sort of its
    ascending rows would give. `_best_split` scores only a node's valid cut
    positions, and every tree is bitwise the one a scan of all positions
    grows. Leaf row lists stay ascending.
    """
    values, _ = design_arrays(X)
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

    nodes = {key: [] for key in NODE_ARRAYS}
    leaf_rows: list[np.ndarray] = []
    goes_left = np.empty(n, dtype=bool)

    def splits(size: int, depth: int) -> bool:
        return depth < max_depth and size >= min_samples_split

    def grow(
        rows: np.ndarray, sorted_rows: np.ndarray | None, xs: np.ndarray | None, depth: int
    ) -> int:
        ysub = y[rows]
        mean = float(np.add.reduce(ysub) / rows.size)  # bitwise np.mean
        split = None
        if sorted_rows is not None:
            parent_sse = float(np.add.reduce(ysub * ysub) - rows.size * mean**2)
            cand = _best_split(xs, y[sorted_rows], min_samples_leaf)
            if cand is not None and parent_sse - cand[0] > _MIN_SSE_GAIN:
                split = cand
        if split is None:
            leaf_rows.append(rows)
            return _add_node(nodes, mean, leaf_id=len(leaf_rows) - 1)
        _, feature, threshold = split
        idx = _add_node(nodes, mean, feature, threshold)
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

        nodes["left"][idx] = child(mask, to_left)
        nodes["right"][idx] = child(~mask, ~to_left)
        return idx

    if splits(n, 0):
        grow(np.arange(n), order, np.take_along_axis(values.T, order, axis=1), 0)
    else:
        grow(np.arange(n), None, None, 0)
    settings = (p, max_depth, min_samples_split, min_samples_leaf)
    return RegressionTree(*nodes.values(), *settings, leaf_rows)


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
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    leaf_id, value = tree.leaf_id.tolist(), tree.value.tolist()
    rows_of = tree.leaf_rows if leaf_sizes is None else None
    if rows_of is not None:
        leaf_sizes = [rows.size for rows in rows_of]
    # depth-first numbering puts node i's subtree at nodes i..end[i] - 1
    end = [0] * len(left)
    size = [0] * len(left)
    for i in range(len(left) - 1, -1, -1):
        if left[i] < 0:
            end[i] = i + 1
            size[i] = int(leaf_sizes[leaf_id[i]])
        else:
            end[i], size[i] = end[right[i]], size[left[i]] + size[right[i]]
    cut = {key: [] for key in NODE_ARRAYS}
    cut_rows = None if rows_of is None else []
    leaf_map = np.empty(tree.n_leaves, dtype=np.intp)
    n_leaves = 0

    def keep(i: int, depth: int) -> int:
        nonlocal n_leaves
        if left[i] >= 0 and depth < max_depth and size[i] >= min_samples_split:
            idx = _add_node(cut, value[i], feature[i], threshold[i])
            cut["left"][idx] = keep(left[i], depth + 1)
            cut["right"][idx] = keep(right[i], depth + 1)
            return idx
        below = [leaf_id[d] for d in range(i, end[i]) if left[d] < 0]
        leaf_map[below] = n_leaves
        if cut_rows is not None:
            rows = [rows_of[leaf] for leaf in below]
            cut_rows.append(rows[0] if left[i] < 0 else np.sort(np.concatenate(rows)))
        n_leaves += 1
        return _add_node(cut, value[i], leaf_id=n_leaves - 1)

    keep(0, 0)
    settings = (tree.n_features, max_depth, min_samples_split, tree.min_samples_leaf)
    return RegressionTree(*cut.values(), *settings, cut_rows), leaf_map


def _leaf(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Node id of the leaf each row of the 2-D X falls in.

    x[feature] <= threshold goes left. Every row still at an inner node
    moves down one level per step, so the loop runs once per tree level.
    """
    if X.shape[1] != tree.n_features:
        raise ValueError(f"row width {X.shape[1]} does not match tree width {tree.n_features}")
    node = np.zeros(X.shape[0], dtype=np.intp)
    todo = np.flatnonzero(tree.left[node] >= 0)
    while todo.size:
        at = node[todo]
        goes_left = X[todo, tree.feature[at]] <= tree.threshold[at]
        node[todo] = np.where(goes_left, tree.left[at], tree.right[at])
        todo = todo[tree.left[node[todo]] >= 0]
    return node


def route(tree: RegressionTree, X) -> np.ndarray:
    """Leaf id of each row of a batch of encoded rows."""
    return tree.leaf_id[_leaf(tree, encoded_batch(X))]


def predict_tree_mean(tree: RegressionTree, X) -> np.ndarray:
    """Mean training target of the leaf each row of a batch falls in."""
    return tree.value[_leaf(tree, encoded_batch(X))]


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


def assign_cluster(partition: ClusterPartition, X_cat) -> np.ndarray:
    """Nearest centroid of each row of a batch, by Euclidean distance; ties
    go to the lowest index. Each row's distances are bitwise those of the
    row as a batch of one.
    """
    X = encoded_batch(X_cat)
    if X.shape[1] != partition.centroids.shape[1]:
        raise ValueError("row width does not match centroid width")
    return np.argmin(_sq_distances(X, partition.centroids), axis=1)


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
