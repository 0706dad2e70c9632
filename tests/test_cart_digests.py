"""CART's node loop, pinned by digest: the trees `build_cart`, `fit_rf` and
`fit_gb` grow on one seeded synthetic design must keep every bit.

A digest covers each tree's node arrays, the stored `feature`, `threshold`
and `value` and the derived `left`, `right` and `leaf_id`, its depth and its
leaf rows, in tree order, and for a forest also each tree's `in_bag_leaf`. The digests were recorded from
the node loop that handed a searched child its sorted rows by boolean mask;
any rewrite of the loop must grow the same trees.
"""

import hashlib

import numpy as np
import pytest

from partqr.baselines import fit_gb, fit_rf
from partqr.data import encode
from partqr.evaluation import SyntheticSpec, generate_synthetic
from partqr.partition import build_cart

# the node arrays a digest covers, in the order it reads them
NODE_ARRAYS = ("feature", "threshold", "left", "right", "leaf_id", "value")

DIGESTS = {
    "build_cart": "115f827b0157c427f30dc53a9fa3148190ff07e8fcf0d2f6cf8974f059968855",
    "fit_gb": "e3608668b384a3dd3c47a7ae591cd7cd47890a438fddff650670ae12a70b67c6",
    "fit_rf": "379bb374a33fbfee8ec59852963d911b2e7e131aa1d6f057c8761895cd317085",
    "fit_rf_feature_fraction": "acf6f35c5b491df2f5121525df23af6719c51ccd920652733c89bdb201c183d4",
    "fit_rf_min_samples_leaf": "9f65834ef5abe452d30ab1b0d26568458cda2729180efde083c9cb652866c92b",
}

FITS = {
    "build_cart": lambda X, y: [build_cart(X, y, 8)],
    "fit_gb": lambda X, y: fit_gb(X, y, 50, 0.1, max_depth=4),
    "fit_rf": lambda X, y: fit_rf(X, y, 10, seed=7, max_depth=8, min_samples_split=10),
    "fit_rf_feature_fraction": lambda X, y: fit_rf(
        X, y, 10, seed=7, max_depth=8, min_samples_split=10, feature_fraction=0.5
    ),
    "fit_rf_min_samples_leaf": lambda X, y: fit_rf(
        X, y, 10, seed=7, max_depth=8, min_samples_split=10, min_samples_leaf=5
    ),
}


@pytest.fixture(scope="module")
def design():
    """The first 960 encoded rows of a seeded synthetic dataset and their targets."""
    matrix, y, _ = encode(generate_synthetic(SyntheticSpec(1200, seed=301, contamination=0.05)))
    return matrix.values[:960], y[:960]


def _update(digest, array) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def tree_digest(fit) -> str:
    """sha256 of every tree of `fit` (a list of trees, a forest or a boosting run)."""
    digest = hashlib.sha256()
    trees = fit if isinstance(fit, list) else fit.trees
    for tree in trees:
        for key in NODE_ARRAYS:
            _update(digest, getattr(tree, key))
        digest.update(str(tree.depth).encode())
        for rows in tree.leaf_rows or ():
            _update(digest, rows)
    for leaf in getattr(fit, "in_bag_leaf", None) or ():
        _update(digest, leaf)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(FITS))
def test_trees_keep_their_digest(design, name):
    assert tree_digest(FITS[name](*design)) == DIGESTS[name]
