"""Independent brute-force oracles shared by the unit and acceptance suites.

Each oracle recomputes the quantity under test by direct enumeration or the
plain textbook formula, deliberately avoiding the implementation's code path.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.sparse
from scipy.optimize import linprog


def ridge_oracle(X, y, lam):
    """Closed-form ridge: standardize, pseudo-inverse normal equations, map back."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    sd = X.std(axis=0)
    active = sd > 0
    Xs = (X[:, active] - X[:, active].mean(axis=0)) / sd[active]
    yc = y - y.mean()
    p = Xs.shape[1]
    beta_s = np.linalg.pinv(Xs.T @ Xs + lam * np.eye(p)) @ (Xs.T @ yc)
    coef = np.zeros(X.shape[1])
    coef[active] = beta_s / sd[active]
    intercept = y.mean() - X.mean(axis=0) @ coef
    return coef, intercept


def quantile_grid_oracle(X, y, alpha, lam, resolution=15, zoom=7):
    """Pinball+L1 minimum by coarse-to-fine box enumeration on the
    standardized design (safe for a convex objective)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    sd = X.std(axis=0)
    active = sd > 0
    Xs = (X[:, active] - X[:, active].mean(axis=0)) / sd[active]
    p = Xs.shape[1]
    scale = max(1.0, float(np.max(np.abs(y))))
    lo = np.full(p + 1, -4 * scale)
    hi = np.full(p + 1, 4 * scale)
    lo[0], hi[0] = float(y.min()) - scale, float(y.max()) + scale
    best = None
    for _ in range(zoom):
        axes = [np.linspace(lo[i], hi[i], resolution) for i in range(p + 1)]
        grids = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([g.ravel() for g in grids], axis=1)
        resid = y[None, :] - flat[:, :1] - flat[:, 1:] @ Xs.T
        obj = np.sum(
            np.where(resid >= 0, alpha * resid, (alpha - 1) * resid), axis=1
        ) + lam * np.sum(np.abs(flat[:, 1:]), axis=1)
        k = int(np.argmin(obj))
        best = float(obj[k])
        center = flat[k]
        width = (hi - lo) / (resolution - 1)
        lo = center - 2 * width
        hi = center + 2 * width
    return best


def quantile_primal_oracle(X, y, alpha, lam, indicator=None):
    """Optimum of pinball + lam*L1 from the primal LP in residual splits.

    Numeric columns are centered and scaled to unit population variance,
    indicator columns stay 0/1, and zero-variance columns are dropped, so the
    penalty is the one `fit_quantile` applies. Variables are [b0, b+, b-, u, v]
    with y - b0 - Xs.b = u - v; returns the LP's optimal value.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    indicator = np.zeros(X.shape[1], dtype=bool) if indicator is None else np.asarray(indicator)
    sd = X.std(axis=0)
    active = sd > 0
    center = np.where(indicator, 0.0, X.mean(axis=0))
    scale = np.where(indicator | ~active, 1.0, sd)
    Xs = (X[:, active] - center[active]) / scale[active]
    p = Xs.shape[1]
    eye = scipy.sparse.identity(n, format="csc")
    Xsp = scipy.sparse.csc_matrix(Xs)
    ones = scipy.sparse.csc_matrix(np.ones((n, 1)))
    A_eq = scipy.sparse.hstack([ones, Xsp, -Xsp, eye, -eye], format="csc")
    c = np.concatenate(
        [[0.0], np.full(2 * p, lam), np.full(n, alpha), np.full(n, 1.0 - alpha)]
    )
    bounds = [(None, None)] + [(0, None)] * (2 * p + 2 * n)
    res = linprog(c, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def quantile_objective(model, X, y):
    """The penalized objective of a fitted linear quantile model, recomputed
    from its coefficients: pinball loss plus lam * ||scaled_coef||_1."""
    r = np.asarray(y, dtype=float) - model.intercept - np.asarray(X, dtype=float) @ model.coef
    pinball = np.sum(np.where(r >= 0, model.alpha * r, (model.alpha - 1.0) * r))
    return float(pinball) + model.lam * float(np.sum(np.abs(model.scaled_coef)))


def standardize_oracle(values, is_indicator):
    """`linear._standardize` column by column: (Xs, active, center, scale).

    Each column's `np.std` and `np.mean` are taken on its own; a column with
    zero spread is dropped, an indicator keeps center 0 and scale 1.
    """
    n, p = values.shape
    center, scale, active = np.zeros(p), np.ones(p), np.zeros(p, dtype=bool)
    for j in range(p):
        sd = float(np.std(values[:, j]))
        if sd > 0:
            active[j] = True
            if not is_indicator[j]:
                center[j], scale[j] = float(np.mean(values[:, j])), sd
    Xs = (values[:, active] - center[active]) / scale[active]
    return Xs, active, center, scale


def quantile_dual_linprog(X, y, alpha, lam, indicator=None):
    """`fit_quantile`'s dual LP solved by `scipy.optimize.linprog`, one level
    per call: returns (coef, intercept, objective).

    Standardizes column by column (`standardize_oracle`: numeric columns
    centered and scaled to unit population variance, indicators 0/1,
    zero-variance columns dropped) and maps the dual's constraint marginals
    back to the original units by the same arithmetic, so on the same vertex
    the three results agree with `fit_quantile` bit for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    indicator = np.zeros(p, dtype=bool) if indicator is None else np.asarray(indicator)
    Xs, active, center, scale = standardize_oracle(X, indicator)
    k = Xs.shape[1]
    res = linprog(
        -y,
        A_ub=np.vstack([Xs.T, -Xs.T]),
        b_ub=np.full(2 * k, float(lam)),
        A_eq=np.ones((1, n)),
        b_eq=[0.0],
        bounds=(alpha - 1.0, alpha),
        method="highs",
    )
    assert res.status == 0, res.message
    w = res.ineqlin.marginals
    scaled = w[k:] - w[:k]
    coef = np.zeros(p)
    coef[active] = scaled / scale[active]
    intercept = -float(res.eqlin.marginals[0]) - float(
        np.dot(center[active] / scale[active], scaled)
    )
    r = y - intercept - X @ coef
    pinball = float(np.sum(alpha * np.maximum(r, 0.0) + (1.0 - alpha) * np.maximum(-r, 0.0)))
    return coef, intercept, pinball + lam * float(np.sum(np.abs(scaled)))


def node_sse(y):
    return float(np.sum((y - np.mean(y)) ** 2)) if y.size else 0.0


def cut_between(a, b):
    """The threshold between two sorted distinct values a < b: their midpoint,
    summed from halves so it cannot overflow, if it lies strictly between
    them, else a. So `x <= threshold` sends a left and b right even when a
    and b are adjacent doubles."""
    a, b = float(a), float(b)
    mid = math.fsum((a / 2, b / 2))
    return mid if a < mid < b else a


def split_scan_oracle(xs, ys, min_samples_leaf):
    """CART's split search scored at all p * (n - 1) cut positions of a node.

    Row j of xs and ys holds the node's feature-j values and targets in
    ascending feature-j order, ties by row id. Every position gets the SSE
    of its two children; invalid cuts (inside a run of equal values, or
    leaving a child below min_samples_leaf) are then set to inf. The argmin
    per feature, then across features, keeps the lowest feature and then
    the lowest threshold (`cut_between`). Returns (cost, feature, threshold)
    or None.
    """
    n = xs.shape[1]
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys * ys, axis=1)
    total, total_sq = csum[:, -1:], csq[:, -1:]
    cut = np.arange(1, n)
    sum_l = csum[:, :-1]
    sq_l = csq[:, :-1]
    sse = (
        sq_l
        - sum_l * sum_l / cut
        + (total_sq - sq_l)
        - (total - sum_l) * (total - sum_l) / (n - cut)
    )
    valid = xs[:, 1:] > xs[:, :-1]
    valid[:, : min_samples_leaf - 1] = False
    valid[:, max(n - min_samples_leaf, 0) :] = False
    usable = np.flatnonzero(valid.any(axis=1))
    if usable.size == 0:
        return None
    sse[~valid] = np.inf
    k = np.argmin(sse[usable], axis=1)
    costs = sse[usable, k]
    best = int(np.argmin(costs))
    j, i = int(usable[best]), int(k[best]) + 1
    return float(costs[best]), j, cut_between(xs[j, i - 1], xs[j, i])


def node_view(X, y, rows):
    """A node's (xs, ys) as `build_cart` hands them to `_best_split`: each
    feature's values and targets in ascending value order, ties by row id."""
    rows = np.sort(rows)
    sorted_rows = rows[np.argsort(X[rows], axis=0, kind="stable")].T
    return np.take_along_axis(X.T, sorted_rows, axis=1), y[sorted_rows]


def exact_sse(y):
    """Sum of squared deviations from the mean, in rational arithmetic."""
    values = [Fraction(v) for v in np.asarray(y, dtype=float).tolist()]
    if not values:
        return Fraction(0)
    total = sum(values)
    return sum(v * v for v in values) - total * total / len(values)


def cart_oracle(X, y, max_depth, min_samples_split=2, min_samples_leaf=1):
    """Exhaustive split enumeration with naive per-candidate SSE.

    The candidates whose float cost lies within a relative 1e-9 of the
    lowest are scored again exactly, in rational arithmetic (`exact_sse`).
    A node's split is the unique exact best. Where several cuts tie exactly,
    each is optimal and floats cannot tell them apart, so the split is the
    one the builder's documented tie rule on float costs picks
    (`split_scan_oracle`), which must be among them. A split node keeps its
    tied cuts in "ties" (one cut when the best is unique).
    """

    def best_split(rows):
        cands = []
        for j in range(X.shape[1]):
            vals = np.sort(np.unique(X[rows, j]))
            for a, b in zip(vals, vals[1:]):
                thr = cut_between(a, b)
                left = rows[X[rows, j] <= thr]
                right = rows[X[rows, j] > thr]
                if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                    continue
                cands.append((node_sse(y[left]) + node_sse(y[right]), j, thr, left, right))
        if not cands:
            return None
        lowest = min(c[0] for c in cands)
        near = [c for c in cands if c[0] <= lowest + 1e-9 * max(1.0, abs(lowest))]
        exact = [exact_sse(y[left]) + exact_sse(y[right]) for *_, left, right in near]
        ties = [(j, thr) for (_, j, thr, _, _), e in zip(near, exact) if e == min(exact)]
        if len(ties) == 1:
            j, thr = ties[0]
        else:
            xs, ys = node_view(X, y, rows)
            _, j, thr = split_scan_oracle(xs, ys, min_samples_leaf)
            assert (j, thr) in ties, f"the tie rule's cut {(j, thr)} is not among {ties}"
        cost = next(c[0] for c in near if c[1:3] == (j, thr))
        return cost, j, thr, ties

    def grow(rows, depth):
        node = {"rows": sorted(rows.tolist())}
        if depth < max_depth and rows.size >= min_samples_split:
            cand = best_split(rows)
            if cand is not None and node_sse(y[rows]) - cand[0] > 1e-12:
                _, j, thr, node["ties"] = cand
                node["feature"] = j
                node["threshold"] = thr
                node["left"] = grow(rows[X[rows, j] <= thr], depth + 1)
                node["right"] = grow(rows[X[rows, j] > thr], depth + 1)
        return node

    return grow(np.arange(len(y)), 0)


def depth_first_shape_oracle(feature):
    """The shape of one tree listed depth first in `feature` (-1 at a leaf),
    by recursive descent: (left, right, leaf_id, depth).

    An inner node's left child is the next node and its right child the node
    after its left subtree; -1 stands for no child. Leaves are numbered in
    node order (-1 at inner nodes), and depth is the longest root-to-leaf
    path, in splits. The sequence must end at the root's subtree's end.
    """
    feature = [int(f) for f in feature]
    left, right, leaf_id = ([-1] * len(feature) for _ in range(3))
    leaves = deepest = 0

    def subtree(node, depth):
        """Parse the subtree at `node`; the node after it."""
        nonlocal leaves, deepest
        deepest = max(deepest, depth)
        if feature[node] < 0:
            leaf_id[node] = leaves
            leaves += 1
            return node + 1
        left[node] = node + 1
        right[node] = subtree(node + 1, depth + 1)
        return subtree(right[node], depth + 1)

    assert subtree(0, 0) == len(feature), "the sequence runs past its root's subtree"
    return left, right, leaf_id, deepest


def assert_tree_equals_oracle(tree, oracle_node):
    left, right, leaf_id, _ = depth_first_shape_oracle(tree.feature)
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()

    def check(node_id, oracle_node):
        if "feature" not in oracle_node:
            assert left[node_id] < 0, f"node {node_id}: expected a leaf"
            assert tree.leaf_rows[leaf_id[node_id]].tolist() == oracle_node["rows"]
            return
        assert left[node_id] >= 0, f"node {node_id}: expected an internal node"
        cut = (feature[node_id], threshold[node_id])
        assert cut in oracle_node["ties"], f"node {node_id}: {cut} is not an exact best cut"
        # bit for bit: between adjacent doubles any tolerance would hide a wrong side
        assert cut == (oracle_node["feature"], oracle_node["threshold"])
        check(left[node_id], oracle_node["left"])
        check(right[node_id], oracle_node["right"])

    check(0, oracle_node)


def knn_scan(points, x, k):
    d = np.sqrt(((points - x) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(len(points)), d))[:k]
    return [(int(i), float(d[i])) for i in order]


def leaf_node_oracle(tree, x):
    """Node id of the leaf the encoded row x falls in: a walk from the root,
    one node at a time, x[feature] <= threshold going left."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right, _, _ = depth_first_shape_oracle(feature)
    xv = np.asarray(x, dtype=float).tolist()
    node = 0
    while left[node] >= 0:
        node = left[node] if xv[feature[node]] <= threshold[node] else right[node]
    return node


def _forest_leaf(tree, cols, x):
    """Leaf id of the encoded row x in one forest tree, by a walk from the root."""
    leaf_id = depth_first_shape_oracle(tree.feature)[2]
    return leaf_id[leaf_node_oracle(tree, np.asarray(x, dtype=float)[cols])]


def qrf_oracle(forest, x, alpha):
    """Independent Meinshausen weight accumulation and quantile lookup.

    A leaf's members are the training rows that `in_bag_leaf` places in it,
    so the oracle reads a loaded forest as it reads a fitted one.
    """
    n = forest.y_train.shape[0]
    w = np.zeros(n)
    for tree, in_bag, cols in zip(forest.trees, forest.in_bag_leaf, forest.feature_subsets):
        members = np.flatnonzero(in_bag == _forest_leaf(tree, cols, x)).tolist()
        for i in members:
            w[i] += 1.0 / (len(members) * forest.n_trees)
    order = np.argsort(forest.y_train, kind="stable")
    acc = 0.0
    for i in order:
        acc += w[i]
        if acc >= alpha - 1e-12:
            return float(forest.y_train[i])
    return float(forest.y_train[order[-1]])


def qrf_weights_by_tree(forest, X):
    """QRF weights of each row of the 2-D X over the training rows, added
    tree by tree: tree t adds 1/|leaf| to every member of the row's leaf,
    and the sums are divided by the number of trees at the end.

    The shares of one weight meet in tree order, so the float bits of every
    weight are fixed; they are the bits `baselines.qrf_weights` must give.
    """
    n = forest.y_train.shape[0]
    w = np.zeros((len(X), n))
    for tree, in_bag, cols in zip(forest.trees, forest.in_bag_leaf, forest.feature_subsets):
        for i, x in enumerate(X):
            members = np.flatnonzero(in_bag == _forest_leaf(tree, cols, x))
            w[i, members] += 1.0 / members.size
    w /= forest.n_trees
    return w


def qrf_quantiles_by_tree(forest, X, levels):
    """Per row of the 2-D X and level, the smallest training target whose
    cumulative `qrf_weights_by_tree` weight, summed in ascending target
    order (ties by row index), reaches the level less 1e-12."""
    order = np.argsort(forest.y_train, kind="stable")
    out = np.empty((len(X), len(levels)))
    for i, w in enumerate(qrf_weights_by_tree(forest, X)):
        for j, alpha in enumerate(levels):
            acc, pick = 0.0, order[-1]
            for row in order:
                acc += w[row]
                if acc >= alpha - 1e-12:
                    pick = row
                    break
            out[i, j] = forest.y_train[pick]
    return out


def csv_kinds_oracle(header, raw_rows, overrides=None):
    """The (name, kind) of each header column, read one cell at a time: its
    override if it has one, else numeric when every non-empty cell parses as
    a float (`nan` and `inf` do), else categorical."""
    columns = []
    for j, name in enumerate(header):
        if overrides and name in overrides:
            columns.append((name, overrides[name]))
            continue
        numeric = True
        for raw in raw_rows:
            v = raw[j] if j < len(raw) else ""
            if v != "":
                try:
                    float(v)
                except ValueError:
                    numeric = False
        columns.append((name, "numeric" if numeric else "categorical"))
    return tuple(columns)


def csv_cells_oracle(header, raw_rows, schema, path):
    """A CSV's dataset rows, read one cell at a time: rows whose cells are all
    empty are skipped, an empty or absent cell is None, a numeric cell is a
    float. Returns (rows, None), or (None, message) for the first cell, in
    row-major order, that is not a finite number of magnitude at most 1e150."""
    import math

    rows = []
    for line, raw in enumerate(raw_rows, start=2):
        if not any(raw):
            continue
        vals = []
        for name, kind in schema.columns:
            pos = header.index(name) if name in header else None
            v = raw[pos] if pos is not None and pos < len(raw) else ""
            if v == "":
                vals.append(None)
            elif kind != "numeric":
                vals.append(v)
            else:
                try:
                    x = float(v)
                except ValueError:
                    return None, f"{path}:{line}: column {name!r}: {v!r} is not a number"
                if not math.isfinite(x):
                    return None, f"{path}:{line}: column {name!r}: non-finite value {v!r}"
                if abs(x) > 1e150:
                    fault = f"value {v!r} is out of range (|value| > 1e+150)"
                    return None, f"{path}:{line}: column {name!r}: {fault}"
                vals.append(x)
        rows.append(tuple(vals))
    return tuple(rows), None
