"""Data partitioners: CART regression trees, k-means clusters, nearest-neighbor scans.

These produce the disjoint (or, for neighborhoods, per-query) row partitions
that the composite models fit their per-partition estimators on. All three are
deterministic given their seeds, and correctness is the contract: tests back
each one with a brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import design_arrays, encoded_batch

_MIN_SSE_GAIN = 1e-12


@dataclass
class RegressionTree:
    """CART tree over an encoded design matrix, as its depth-first node arrays.

    Nodes are numbered depth first: a node, then its left subtree, then its
    right one, so `feature` alone (-1 at a leaf) fixes the tree's shape. An
    inner node splits on x[feature] <= threshold (left, always the next node)
    against x > threshold (right); a leaf has a NaN threshold. `value` is
    each node's mean training target. `leaf_id` (the leaves 0..L-1 in node
    order, -1 at inner nodes) is read from the tree's `walk`, whose shape
    `_shape` derives from `feature`.

    `n_features` is the tree's width. The growth settings (`max_depth`,
    `min_samples_split`, `min_samples_leaf`) and the inner nodes' values are
    read only by `prune`, and `leaf_rows[l]` holds leaf l's ascending
    training rows. A loaded tree (`unpack_trees`) has its width from its
    model file's layout, none of these (None, and a NaN value at inner
    nodes), and NaN leaf values where its file stores none; a forest's trees
    keep no leaf rows.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    n_features: int
    max_depth: int | None = None
    min_samples_split: int | None = None
    min_samples_leaf: int | None = None
    leaf_rows: list[np.ndarray] | None = None

    def __post_init__(self):
        # features as intp, thresholds and values as float
        self.feature = np.asarray(self.feature, dtype=np.intp)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.value = np.asarray(self.value, dtype=float)

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def parameter_count(self) -> int:
        """Two parameters (feature, threshold) per internal node."""
        return 2 * (self.feature.size - self.n_leaves)

    @cached_property
    def walk(self) -> "TreeStack":
        """The tree as a stack of one, as `_leaf` walks it."""
        return TreeStack.of([self], self.n_features)

    @property
    def leaf_id(self) -> np.ndarray:
        return self.walk.leaf_id


@dataclass(frozen=True, eq=False)
class TreeStack:
    """Trees laid end to end, in the arrays that one walk of them all reads.

    Node i of tree t is node roots[t] + i of the stack. An inner node sends a
    row whose cell `column` is <= `threshold` to the next node, its left
    child, and any other row to `right`, its right child. A leaf has a NaN
    threshold, which no cell is <= to, and is its own right child, so a row
    that reached it stays there, and `depth` steps take every row to its
    leaf in every tree. A leaf's column is any in reach: -1 reads the cell
    before the row's first. The trees read rows of `n_features` cells;
    `value` and `leaf_id` are the trees' own.
    """

    column: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    leaf_id: np.ndarray
    roots: np.ndarray
    depth: int
    n_features: int

    @classmethod
    def of(cls, trees, n_features: int, columns=None) -> "TreeStack":
        """The stack of `trees`, each splitting on the columns of the walked
        rows that its entry of `columns` lists (a forest's feature subsets),
        or on the walked rows' own columns. `_shape` derives the rest from
        the trees' `feature` arrays."""
        sizes = [tree.feature.size for tree in trees]
        feature, threshold, value = (
            np.concatenate([getattr(tree, key) for tree in trees])
            for key in ("feature", "threshold", "value")
        )
        right, leaf_id, roots, depth = _shape(feature, sizes)
        if columns is not None:  # a leaf reads any column, here its subset's last
            feature = np.concatenate([cols[tree.feature] for tree, cols in zip(trees, columns)])
        return cls(feature, threshold, right, value, leaf_id, roots, depth, n_features)


def _shape(feature: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The shape of trees of `sizes` nodes laid end to end, each depth first
    in `feature` (-1 at a leaf): each node's right child in the stack (a
    leaf's is itself), each tree's leaf ids (-1 at inner nodes), each tree's
    root, and the longest path from a root to a leaf, in splits.

    Let before[i] be the inner nodes ahead of node i less the leaves ahead
    of it. An inner node's left child is the next node, and its left subtree
    fills the one extra place the node opens, so its right child is the
    first later node with the same `before`: a stable sort by `before` puts
    each right child just after its parent. So a node's subtree ends after
    the first leaf at or after it in that order, the foot of its chain of
    right children, and a node's depth is the number of nodes ahead of it
    whose subtrees have not ended. The leaves ahead of node i are
    (i - before[i]) / 2, which numbers each tree's leaves in node order.
    """
    n = feature.size
    sizes = np.asarray(sizes, dtype=np.intp)
    roots = np.add.accumulate(sizes) - sizes
    leaf = feature < 0
    node = np.arange(n, dtype=np.intp)
    before = np.zeros(n, dtype=np.intp)
    np.add.accumulate(np.where(leaf[:-1], -1, 1), out=before[1:])
    order = np.argsort(before, kind="stable")
    after = np.empty(n, dtype=np.intp)  # the next node in that order
    after[order[:-1]] = order[1:]
    right = np.where(leaf, node, after)
    # each position of `order`: the first at or after it that holds a leaf
    foot = np.minimum.accumulate(np.where(leaf[order], node, n)[::-1])[::-1]
    end = np.empty(n, dtype=np.intp)  # one past each node's subtree
    end[order] = order[foot] + 1
    ended = np.add.accumulate(np.bincount(end, minlength=n + 1)[:n])
    leaves_before = (node - before) // 2
    leaf_id = np.where(leaf, leaves_before - np.repeat(leaves_before[roots], sizes), -1)
    return right, leaf_id, roots, int((node - ended).max())


def check_trees(feature: np.ndarray, sizes, widths) -> None:
    """Raise ValueError unless `feature` holds trees of `sizes` nodes laid end
    to end, each in depth-first order over `widths[t]` features.

    This is the one structural check of a loaded tree. A node's feature is
    -1 at a leaf and in [0, width) at an inner node. Depth first, the root
    opens one place and each inner node two, and each node fills one, so a
    tree's sequence must fill its last open place exactly at its last node:
    then every inner node has both children within its tree and every node
    but the root one parent, and every walk from the root ends at a leaf.
    """
    for width in widths:
        if type(width) is not int or width < 0:
            raise ValueError(f"tree n_features must be a count, not {width!r}")
    sizes = np.asarray(sizes, dtype=np.intp)
    if not sizes.size or ((sizes < 1) | (sizes > feature.size)).any() or sizes.sum() != feature.size:
        raise ValueError(
            f"tree key 'nodes' must count at least one tree, each of at least one node, "
            f"and the {feature.size} nodes of tree key 'feature' in all"
        )
    width = np.repeat(np.asarray(widths, dtype=np.intp), sizes)
    out = np.flatnonzero((feature < -1) | (feature >= width))
    if out.size:
        raise ValueError(f"tree key 'feature' must lie in [-1, {width[out[0]]})")
    ends = np.cumsum(sizes) - 1
    # open places after each node, less one, counted within its tree
    filled = np.cumsum(np.where(feature < 0, -1, 1))
    filled -= np.repeat(np.concatenate([[0], filled[ends[:-1]]]), sizes)
    wrong = filled < 0  # closed before the last node ...
    wrong[ends] = filled[ends] != -1  # ... or not closed at it
    bad = np.flatnonzero(wrong)
    if bad.size:
        at = int(bad[0])
        t = int(np.searchsorted(ends, at))
        how = "does not close" if at == ends[t] else f"closes at node {at - ends[t] + sizes[t] - 1}"
        raise ValueError(
            f"tree key 'feature' must list each tree depth first, closing at its last "
            f"node: tree {t} of {sizes[t]} nodes {how}"
        )


def unpack_trees(feature, threshold, value, sizes, widths) -> list[RegressionTree]:
    """The trees whose depth-first arrays are laid end to end: `feature`
    (-1 at a leaf), tree t's `sizes[t]` nodes over `widths[t]` features, the
    inner nodes' `threshold`s and, unless `value` is None, the leaves'
    values, each in node order. After `check_trees` checks the shape and
    the threshold and value counts are checked, each tree is its slice of
    the three arrays, with a NaN threshold at a leaf and a NaN value at an
    inner node (and at every node when `value` is None).
    """
    check_trees(feature, sizes, widths)
    leaf = feature < 0
    n_leaves = int(np.count_nonzero(leaf))
    if threshold.size != leaf.size - n_leaves:
        raise ValueError(
            f"tree key 'threshold' must hold one number per inner node: {leaf.size - n_leaves}"
        )
    if value is not None and value.size != n_leaves:
        raise ValueError(f"tree key 'value' must hold one number per leaf: {n_leaves}")
    thresholds, values = np.full(leaf.size, np.nan), np.full(leaf.size, np.nan)
    thresholds[~leaf] = threshold
    if value is not None:
        values[leaf] = value
    ends = np.cumsum(sizes).tolist()
    return [
        RegressionTree(feature[s:e], thresholds[s:e], values[s:e], w)
        for s, e, w in zip([0, *ends[:-1]], ends, widths)
    ]


def presort(values: np.ndarray) -> np.ndarray:
    """Row ids of each column in ascending value order, ties by row id: a (p, n) array."""
    return np.ascontiguousarray(np.argsort(values, axis=0, kind="stable").T)


def _child_order(sorted_rows: np.ndarray, xs: np.ndarray, to_left: np.ndarray, left: bool):
    """A searched child's (p, m) `sorted_rows` and `xs`: the parent's where
    the (p, n) mask `to_left` holds (or, for the right child, does not),
    `take`n at the flat positions of one `nonzero`, so each feature's row
    keeps its order."""
    at = (to_left if left else ~to_left).ravel().nonzero()[0]
    shape = (to_left.shape[0], at.size // to_left.shape[0])
    return sorted_rows.take(at).reshape(shape), xs.take(at).reshape(shape)


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
    csum = np.add.accumulate(ys, axis=1)
    csq = np.add.accumulate(ys * ys, axis=1)
    cut = at % n + 1  # left child sizes
    right = n - cut
    end = at + right  # each pair's row end, where the totals are
    total, total_sq = csum.take(end), csq.take(end)
    sum_l, sq_l = csum.take(at), csq.take(at)
    rest = total - sum_l
    sse = sq_l - sum_l * sum_l / cut + (total_sq - sq_l) - rest * rest / right
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
    in that order, with their feature values (`xs`), both (p, m) arrays. A
    split marks its left rows by row id and reads the marks back in that
    order; a child that will be searched gets the flat positions of its
    rows (one `nonzero`) and `take`s both arrays at them, which is their
    stable sub-sequence. So every node sees each feature sorted by value,
    ties by row id, exactly as a per-node stable sort of its ascending rows
    would give. A child that the depth or size limit makes a leaf gets only
    its ascending rows, and a split with two such children marks nothing.
    Nodes are numbered depth first. `_best_split` scores only a node's valid
    cut positions, and every tree is bitwise the one a scan of all positions
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

    features, thresholds, means = [], [], []  # per node, depth first
    leaf_rows: list[np.ndarray] = []
    goes_left = np.empty(n, dtype=bool)

    def splits(size: int, depth: int) -> bool:
        return depth < max_depth and size >= min_samples_split

    def grow(
        rows: np.ndarray, sorted_rows: np.ndarray | None, xs: np.ndarray | None, depth: int
    ) -> None:
        ysub = y[rows]
        mean = float(np.add.reduce(ysub) / rows.size)  # bitwise np.mean
        means.append(mean)
        split = None
        if sorted_rows is not None:
            parent_sse = float(np.add.reduce(ysub * ysub) - rows.size * mean**2)
            cand = _best_split(xs, y.take(sorted_rows), min_samples_leaf)
            if cand is not None and parent_sse - cand[0] > _MIN_SSE_GAIN:
                split = cand
        if split is None:
            features.append(-1)
            thresholds.append(np.nan)
            leaf_rows.append(rows)
            return
        _, feature, threshold = split
        features.append(feature)
        thresholds.append(threshold)
        mask = values[rows, feature] <= threshold
        sides = (rows[mask], rows[~mask])
        searched = [splits(sub.size, depth + 1) for sub in sides]
        if any(searched):
            goes_left[rows] = mask  # by row id, read back in each feature's order
            to_left = goes_left.take(sorted_rows)
        for left, sub, search in zip((True, False), sides, searched):
            child = _child_order(sorted_rows, xs, to_left, left) if search else (None, None)
            grow(sub, *child, depth + 1)

    if splits(n, 0):
        grow(np.arange(n), order, np.take_along_axis(values.T, order, axis=1), 0)
    else:
        grow(np.arange(n), None, None, 0)
    del grow  # grow's closure holds grow: free this build's arrays now, not at a gc pass
    settings = (p, max_depth, min_samples_split, min_samples_leaf)
    return RegressionTree(features, thresholds, means, *settings, leaf_rows)


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
    return _prune(tree, tree.walk.right, tree.walk.leaf_id, max_depth, min_samples_split)[0]


def _prune(
    tree: RegressionTree,
    right: np.ndarray,
    leaf_id: np.ndarray,
    max_depth: int,
    min_samples_split: int,
    leaf_sizes: np.ndarray | None = None,
):
    """`prune`, and the new leaf id of each of `tree`'s leaf ids.

    `right` and `leaf_id` are the tree's right children and leaf ids, as
    its `walk` derives them (a forest's walk derives every tree's at once).
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
    value = tree.value.tolist()
    right, leaf_id = right.tolist(), leaf_id.tolist()
    rows_of = tree.leaf_rows if leaf_sizes is None else None
    if rows_of is not None:
        leaf_sizes = [rows.size for rows in rows_of]
    # depth-first numbering keeps each subtree's leaves together: node i's
    # are leaf ids first[i]..last[i]; its left child is node i + 1
    first, last, size = [0] * len(feature), [0] * len(feature), [0] * len(feature)
    for i in range(len(feature) - 1, -1, -1):
        if feature[i] < 0:
            first[i] = last[i] = leaf_id[i]
            size[i] = int(leaf_sizes[leaf_id[i]])
        else:
            first[i], last[i] = first[i + 1], last[right[i]]
            size[i] = size[i + 1] + size[right[i]]
    features, thresholds, means = [], [], []  # per kept node, depth first
    cut_rows = None if rows_of is None else []
    leaf_map = np.empty(tree.n_leaves, dtype=np.intp)
    n_leaves = 0

    def keep(i: int, depth: int) -> None:
        nonlocal n_leaves
        means.append(value[i])
        if feature[i] >= 0 and depth < max_depth and size[i] >= min_samples_split:
            features.append(feature[i])
            thresholds.append(threshold[i])
            keep(i + 1, depth + 1)
            keep(right[i], depth + 1)
            return
        features.append(-1)
        thresholds.append(np.nan)
        below = slice(first[i], last[i] + 1)
        leaf_map[below] = n_leaves
        if cut_rows is not None:
            rows = rows_of[below]
            cut_rows.append(rows[0] if feature[i] < 0 else np.sort(np.concatenate(rows)))
        n_leaves += 1

    keep(0, 0)
    del keep  # as in build_cart: no cycle left for the gc
    settings = (tree.n_features, max_depth, min_samples_split, tree.min_samples_leaf)
    return RegressionTree(features, thresholds, means, *settings, cut_rows), leaf_map


# cells of the (rows, trees) node table that one block of the walk holds:
# bounds the walk's temporaries, whatever the batch and the number of trees
_WALK_CELLS = 1 << 14


def block_rows(trees: int) -> int:
    """Rows per block of a walk through `trees` trees."""
    return max(1, _WALK_CELLS // trees)


def _leaf(stack: TreeStack, X: np.ndarray) -> np.ndarray:
    """Stack node id of the leaf each row of the 2-D X falls in, in each tree
    of `stack`: a C-contiguous (rows, trees) array.

    x[column] <= threshold goes left. The walk takes a block of rows through
    every tree at once, one level per step, `depth` steps per block; a row
    that reached a leaf stays there. Each row's path is its own, so the
    blocks do not change any leaf.
    """
    if X.shape[1] != stack.n_features:
        raise ValueError(f"row width {X.shape[1]} does not match tree width {stack.n_features}")
    n, trees = X.shape[0], stack.roots.size
    cells = np.ascontiguousarray(X).reshape(-1)
    nodes = np.empty((n, trees), dtype=np.intp)
    step = block_rows(trees)
    for start in range(0, n, step):
        stop = min(n, start + step)
        row = (np.arange(start, stop, dtype=np.intp) * X.shape[1])[:, None]  # first cell
        node = stack.roots  # every row at every root: broadcast to (rows, trees) by the first step
        for _ in range(stack.depth):
            goes_left = cells.take(row + stack.column.take(node)) <= stack.threshold.take(node)
            node = np.where(goes_left, node + 1, stack.right.take(node))
        nodes[start:stop] = node
    return nodes


def route(tree: RegressionTree, X) -> np.ndarray:
    """Leaf id of each row of a batch of encoded rows."""
    return tree.leaf_id[_leaf(tree.walk, encoded_batch(X))[:, 0]]


def predict_tree_mean(tree: RegressionTree, X) -> np.ndarray:
    """Mean training target of the leaf each row of a batch falls in."""
    return tree.value[_leaf(tree.walk, encoded_batch(X))[:, 0]]


@dataclass
class ClusterPartition:
    """k-means centroids in the one-hot categorical subspace."""

    centroids: np.ndarray
    objective_history: tuple[float, ...] = field(default=(), repr=False)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


KMEANS_MAX_ITER = 300


def _sq_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    if X.shape[1] == 0:
        return np.zeros((X.shape[0], centroids.shape[0]))
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def fit_kmeans(
    X_cat,
    k: int,
    seed: int,
    init_centroids: np.ndarray | None = None,
) -> ClusterPartition:
    """Lloyd's algorithm from seeded k-means++ starts.

    Empty clusters are reseeded to the point farthest from its assigned
    centroid; iteration stops at an assignment fixpoint or after
    KMEANS_MAX_ITER iterations.
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
    for _ in range(KMEANS_MAX_ITER):
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

    return ClusterPartition(centroids=centroids, objective_history=tuple(history))


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
