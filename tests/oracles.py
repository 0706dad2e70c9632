"""Independent brute-force oracles shared by the unit and acceptance suites.

Each oracle recomputes the quantity under test by direct enumeration or the
plain textbook formula, deliberately avoiding the implementation's code path.
"""

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


def node_sse(y):
    return float(np.sum((y - np.mean(y)) ** 2)) if y.size else 0.0


def cart_oracle(X, y, max_depth, min_samples_split=2, min_samples_leaf=1):
    """Exhaustive split enumeration with naive per-candidate SSE."""

    def best_split(rows):
        best = None
        for j in range(X.shape[1]):
            vals = np.sort(np.unique(X[rows, j]))
            for a, b in zip(vals, vals[1:]):
                thr = 0.5 * (a + b)
                left = rows[X[rows, j] <= thr]
                right = rows[X[rows, j] > thr]
                if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                    continue
                cost = node_sse(y[left]) + node_sse(y[right])
                if best is None or cost < best[0]:
                    best = (cost, j, thr)
        return best

    def grow(rows, depth):
        node = {"rows": sorted(rows.tolist())}
        if depth < max_depth and rows.size >= min_samples_split:
            cand = best_split(rows)
            if cand is not None and node_sse(y[rows]) - cand[0] > 1e-12:
                _, j, thr = cand
                node["feature"] = j
                node["threshold"] = thr
                node["left"] = grow(rows[X[rows, j] <= thr], depth + 1)
                node["right"] = grow(rows[X[rows, j] > thr], depth + 1)
        return node

    return grow(np.arange(len(y)), 0)


def assert_tree_equals_oracle(tree, oracle_node, node_id=0):
    node = tree.nodes[node_id]
    if "feature" not in oracle_node:
        assert node.is_leaf, f"node {node_id}: expected a leaf"
        assert node.rows.tolist() == oracle_node["rows"]
        return
    assert not node.is_leaf, f"node {node_id}: expected an internal node"
    assert node.feature == oracle_node["feature"]
    assert abs(node.threshold - oracle_node["threshold"]) <= 1e-12 * max(
        1.0, abs(oracle_node["threshold"])
    )
    assert_tree_equals_oracle(tree, oracle_node["left"], node.left)
    assert_tree_equals_oracle(tree, oracle_node["right"], node.right)


def knn_scan(points, x, k):
    d = np.sqrt(((points - x) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(len(points)), d))[:k]
    return [(int(i), float(d[i])) for i in order]


def qrf_oracle(forest, x, alpha):
    """Independent Meinshausen weight accumulation and quantile lookup."""
    n = forest.y_train.shape[0]
    w = np.zeros(n)
    for tree, sample, cols in zip(forest.trees, forest.sample_indices, forest.feature_subsets):
        node = tree.nodes[0]
        xv = np.asarray(x, dtype=float)[cols]
        while not node.is_leaf:
            node = tree.nodes[node.left if xv[node.feature] <= node.threshold else node.right]
        members = sorted(set(sample[node.rows].tolist()))
        for i in members:
            w[i] += 1.0 / (len(members) * forest.n_trees)
    order = np.argsort(forest.y_train, kind="stable")
    acc = 0.0
    for i in order:
        acc += w[i]
        if acc >= alpha - 1e-12:
            return float(forest.y_train[i])
    return float(forest.y_train[order[-1]])
