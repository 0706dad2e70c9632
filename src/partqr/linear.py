"""Linear base estimators: ridge regression and L1-penalized quantile regression.

Both fits standardize numeric predictor columns internally (zero mean, unit
variance over the fitting rows) so the penalty treats days and counts alike;
indicator columns stay 0/1 and zero-variance columns get coefficient 0. The
coefficients are mapped back to the original units before being stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .data import EncodedMatrix


@dataclass(frozen=True)
class RidgeModel:
    """beta0 + x.beta minimizing ||y - beta0 - X.beta||^2 + lam*||beta_std||^2."""

    coef: np.ndarray
    intercept: float
    lam: float
    scaled_coef: np.ndarray = field(repr=False)
    feature_center: np.ndarray = field(repr=False)
    feature_scale: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class LinearQuantileModel:
    """Pinball-loss linear model for one quantile level.

    `objective` is the optimized value: total pinball loss of the stored
    (coef, intercept) plus lam * ||scaled_coef||_1 (penalty applies in the
    standardized coordinates where the fit ran).
    """

    alpha: float
    coef: np.ndarray
    intercept: float
    lam: float
    objective: float
    scaled_coef: np.ndarray = field(repr=False)
    feature_scale: np.ndarray = field(repr=False)


def pinball_loss(residuals: np.ndarray, alpha: float) -> np.ndarray:
    r = np.asarray(residuals, dtype=float)
    return alpha * np.maximum(r, 0.0) + (1.0 - alpha) * np.maximum(-r, 0.0)


def pinball_total(residuals: np.ndarray, alpha: float) -> float:
    return float(np.sum(pinball_loss(residuals, alpha)))


def pinball_quantile(y, alpha: float) -> float:
    """Empirical alpha-quantile minimizing total pinball loss.

    When alpha*n lands on an integer the minimizer is an interval; we return
    its midpoint, which makes alpha=0.5 agree with the usual even-count median
    and keeps the result nondecreasing in alpha.
    """
    ys = np.sort(np.asarray(y, dtype=float))
    n = ys.size
    if n == 0:
        raise ValueError("empty sample")
    h = alpha * n
    k = int(round(h))
    if abs(h - k) < 1e-9 * max(1.0, n) and 1 <= k <= n - 1:
        return float(0.5 * (ys[k - 1] + ys[k]))
    idx = min(max(int(np.ceil(h)), 1), n)
    return float(ys[idx - 1])


def _as_array(X) -> tuple[np.ndarray, np.ndarray]:
    """Return (values, from_categorical mask); plain arrays are all-numeric."""
    if isinstance(X, EncodedMatrix):
        return X.values, X.categorical_mask
    arr = np.atleast_2d(np.asarray(X, dtype=float))
    return arr, np.zeros(arr.shape[1], dtype=bool)


def _standardize(values: np.ndarray, is_indicator: np.ndarray):
    """Center/scale numeric columns; keep indicators 0/1; drop constant columns.

    Returns (Xs, active, center, scale) where Xs holds only active columns.
    `center` is zero for indicator columns so predictions map back without an
    intercept shift from them.
    """
    n, p = values.shape
    center = np.zeros(p)
    scale = np.ones(p)
    active = np.zeros(p, dtype=bool)
    for j in range(p):
        col = values[:, j]
        sd = float(np.std(col))
        if sd == 0.0:
            continue
        active[j] = True
        if not is_indicator[j]:
            center[j] = float(np.mean(col))
            scale[j] = sd
    Xs = (values[:, active] - center[active]) / scale[active]
    return Xs, active, center, scale


def fit_ridge(X, y, lam: float) -> RidgeModel:
    """Closed-form ridge fit with unpenalized intercept.

    Solves the penalized normal equations on the standardized, column-centered
    design; a jitter of 1e-10*trace/p is added when lam=0 leaves the Gram
    matrix rank-deficient.
    """
    values, indicator = _as_array(X)
    y = np.asarray(y, dtype=float)
    if values.shape[0] == 0:
        raise ValueError("empty data")
    if values.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if lam < 0:
        raise ValueError("lam must be nonnegative")

    Xs, active, center, scale = _standardize(values, indicator)
    y_mean = float(np.mean(y))
    p_act = Xs.shape[1]
    coef = np.zeros(values.shape[1])
    scaled = np.zeros(p_act)
    if p_act > 0:
        # Center every active column (indicators included) for the solve; this
        # is pure reparameterization of the intercept, not a scale change.
        col_means = Xs.mean(axis=0)
        Xc = Xs - col_means
        yc = y - y_mean
        gram = Xc.T @ Xc + lam * np.eye(p_act)
        rhs = Xc.T @ yc
        try:
            c, low = scipy.linalg.cho_factor(gram)
            scaled = scipy.linalg.cho_solve((c, low), rhs)
        except scipy.linalg.LinAlgError:
            gram = gram + (1e-10 * np.trace(gram) / p_act) * np.eye(p_act)
            c, low = scipy.linalg.cho_factor(gram)
            scaled = scipy.linalg.cho_solve((c, low), rhs)
        coef[active] = scaled / scale[active]
        intercept = y_mean - float(np.dot(col_means, scaled)) - float(
            np.dot(center[active] / scale[active], scaled)
        )
    else:
        intercept = y_mean
    return RidgeModel(
        coef=coef,
        intercept=float(intercept),
        lam=float(lam),
        scaled_coef=scaled,
        feature_center=center,
        feature_scale=scale,
    )


def fit_quantile(X, y, alpha: float, lam: float) -> LinearQuantileModel:
    """Fit pinball loss + lam*L1 by linear programming (exact optimum).

    The primal problem min sum_i rho_alpha(y_i - b0 - x_i b) + lam*||b||_1 is
    an LP with n equality rows and 2n+2p+1 columns. HiGHS solves its dual
    (Koenker & Bassett 1978; Koenker, *Quantile Regression*, 2005, ch. 6)
    instead, which has n columns and only 1 + 2p rows:

        max y'd  s.t.  1'd = 0,  |Xs'd| <= lam,  alpha-1 <= d <= alpha.

    The primal solution is read from the dual's constraint marginals: the
    intercept is the marginal of 1'd = 0 and each coefficient is the
    difference of the marginals of its two rows Xs_j'd <= lam and
    -Xs_j'd <= lam. Both problems share one optimum, so the returned
    objective sits at the true minimum rather than a smoothed proxy.
    """
    values, indicator = _as_array(X)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n == 0:
        raise ValueError("empty data")
    if values.shape[0] != n:
        raise ValueError("X and y row counts differ")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if lam < 0:
        raise ValueError("lam must be nonnegative")

    Xs, active, center, scale = _standardize(values, indicator)
    p_act = Xs.shape[1]
    p = values.shape[1]

    if p_act == 0:
        b0 = pinball_quantile(y, alpha)
        obj = pinball_total(y - b0, alpha)
        return LinearQuantileModel(
            alpha=float(alpha),
            coef=np.zeros(p),
            intercept=float(b0),
            lam=float(lam),
            objective=obj,
            scaled_coef=np.zeros(0),
            feature_scale=scale,
        )

    # linprog minimizes, so the dual objective is -y'd and every marginal
    # (d objective / d right-hand side) is the negated primal variable.
    res = linprog(
        -y,
        A_ub=np.vstack([Xs.T, -Xs.T]),
        b_ub=np.full(2 * p_act, float(lam)),
        A_eq=np.ones((1, n)),
        b_eq=[0.0],
        bounds=(alpha - 1.0, alpha),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"quantile LP failed: {res.message}")

    b0_std = -float(res.eqlin.marginals[0])
    w = res.ineqlin.marginals
    scaled = w[p_act:] - w[:p_act]
    coef = np.zeros(p)
    coef[active] = scaled / scale[active]
    intercept = b0_std - float(np.dot(center[active] / scale[active], scaled))
    residuals = y - intercept - values @ coef
    obj = pinball_total(residuals, alpha) + lam * float(np.sum(np.abs(scaled)))
    return LinearQuantileModel(
        alpha=float(alpha),
        coef=coef,
        intercept=float(intercept),
        lam=float(lam),
        objective=obj,
        scaled_coef=scaled,
        feature_scale=scale,
    )


def predict_linear(model, x) -> float:
    """Evaluate beta0 + x.beta for a single encoded row."""
    x = np.asarray(x, dtype=float)
    if x.shape != model.coef.shape:
        raise ValueError(f"row width {x.shape} does not match model width {model.coef.shape}")
    return float(model.intercept + x @ model.coef)


def quantile_objective(model: LinearQuantileModel, X, y) -> float:
    """Recompute the penalized objective of a fitted quantile model."""
    values, _ = _as_array(X)
    residuals = np.asarray(y, dtype=float) - model.intercept - values @ model.coef
    return pinball_total(residuals, model.alpha) + model.lam * float(
        np.sum(np.abs(model.scaled_coef))
    )
