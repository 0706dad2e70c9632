"""Linear base estimators: ridge regression and L1-penalized quantile regression.

Both fits standardize numeric predictor columns internally (zero mean, unit
variance over the fitting rows) so the penalty treats days and counts alike;
indicator columns stay 0/1 and zero-variance columns get coefficient 0. The
coefficients are mapped back to the original units before being stored.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

try:  # HiGHS's own binding, shipped inside scipy since 1.15
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # pragma: no cover - depends on the installed scipy
    raise ImportError(
        "partqr needs a scipy release that ships scipy.optimize._highspy (1.15 or later)"
    ) from exc

from .data import design_arrays, encoded_batch


@dataclass(frozen=True)
class RidgeModel:
    """beta0 + x.beta minimizing ||y - beta0 - X.beta||^2 + lam*||beta_std||^2.

    `predict_linear` reads coef and intercept only. The other fields record
    the fit; a fitted model has them and a loaded one does without (None).
    """

    coef: np.ndarray
    intercept: float
    lam: float | None = None
    scaled_coef: np.ndarray | None = field(default=None, repr=False)
    feature_center: np.ndarray | None = field(default=None, repr=False)
    feature_scale: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class LinearQuantileModel:
    """Pinball-loss linear model for one quantile level.

    `objective` is the optimized value: total pinball loss of the stored
    (coef, intercept) plus lam * ||scaled_coef||_1 (penalty applies in the
    standardized coordinates where the fit ran). Like `RidgeModel`, a
    loaded model keeps only what prediction reads: alpha, coef, intercept.
    """

    alpha: float
    coef: np.ndarray
    intercept: float
    lam: float | None = None
    objective: float | None = None
    scaled_coef: np.ndarray | None = field(default=None, repr=False)
    feature_scale: np.ndarray | None = field(default=None, repr=False)


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


def _standardize(values: np.ndarray, is_indicator: np.ndarray):
    """Center/scale numeric columns; keep indicators 0/1; drop constant columns.

    Returns (Xs, active, center, scale) where Xs holds only active columns.
    `center` is zero for indicator columns so predictions map back without an
    intercept shift from them.

    The moments are reduced along the rows of a contiguous copy of values.T,
    so each column is summed as one contiguous run, pairwise, with the bits
    of `np.std` and `np.mean` of that column alone.
    """
    columns = np.ascontiguousarray(values.T)
    sd = np.std(columns, axis=1)
    active = sd != 0.0
    numeric = active & ~is_indicator
    center = np.where(numeric, np.mean(columns, axis=1), 0.0)
    scale = np.where(numeric, sd, 1.0)
    Xs = (values[:, active] - center[active]) / scale[active]
    return Xs, active, center, scale


def fit_ridge(X, y, lam: float) -> RidgeModel:
    """Closed-form ridge fit with unpenalized intercept.

    Solves the penalized normal equations on the standardized, column-centered
    design; a jitter of 1e-10*trace/p is added when lam=0 leaves the Gram
    matrix rank-deficient.
    """
    values, indicator = design_arrays(X)
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


# HiGHS stops without a status ("Not Set") on duals whose costs, the
# targets, pass about 2^27 on some fits and about 1e9 on others. A target
# whose largest |y| is 2^24 or more is passed scaled by a power of two into
# [2^23, 2^24), and the row duals are scaled back: the objective's two terms
# are both degree-1 homogeneous in (y, coefficients), so the optimum scales
# with y, and a power of two scales every value HiGHS sees without rounding.
# A target from 2^24 up that HiGHS solves unscaled gets the same bits scaled.
_COST_EXPONENT = 24

# HiGHS's primal and dual feasibility tolerance: a vertex whose basic values
# or nonbasic duals come this close to a bound or to zero counts as degenerate.
_DEGENERATE_TOL = 1e-7


def _dual_model(Xs: np.ndarray, nonzero: np.ndarray, y: np.ndarray, lam: float, a: float,
                ranged: bool):
    """`passModel`'s arguments for the quantile dual at level `a`: an LP with
    the columns d_i in [a-1, a], whose column i is row i of [Xs, -Xs, 1], so
    its rows are Xs'd <= lam, -Xs'd <= lam, then 1'd = 0.

    With `ranged` column i is row i of [Xs, 1], and each pair of rows is one
    ranged row -lam <= Xs_j'd <= lam: the LP HiGHS's presolve makes of the
    full one. `nonzero` is Xs's nonzero pattern; the column-wise matrix
    leaves the zeros out.
    """
    n, p = Xs.shape
    if ranged:
        dense, mask = np.hstack([Xs, np.ones((n, 1))]), np.hstack([nonzero, np.ones((n, 1), bool)])
        row_lower = np.append(np.full(p, -lam), 0.0)
    else:
        dense = np.hstack([Xs, -Xs, np.ones((n, 1))])
        mask = np.hstack([nonzero, nonzero, np.ones((n, 1), bool)])
        row_lower = np.append(np.full(2 * p, -_highs.kHighsInf), 0.0)
    m = dense.shape[1]
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(mask, axis=1), out=start[1:])
    index = np.nonzero(mask)[1].astype(np.int32)
    return (
        n, m, int(start[n]), _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize, 0.0,
        -y, np.full(n, a - 1.0), np.full(n, a), row_lower, np.append(np.full(m - 1, lam), 0.0),
        start, index, dense[mask], np.zeros(n, dtype=np.int32),  # every column continuous
    )


_instances = threading.local()


def _instance(presolve: bool):
    """This thread's silent HiGHS instance with presolve on or off, made on
    first use and reused by every later fit: each fit passes it a new model,
    which clears the last one's LP, basis and solution. Within a fit,
    `fit_quantile` never clears the presolve-off instance, so each level
    starts hot from the last one's solve, and clears the presolve one only
    right before each cold run.

    An instance of a class other than `_highs._Highs` (replaced by a test
    double) is made again.
    """
    key = "presolve" if presolve else "no_presolve"
    highs = getattr(_instances, key, None)
    if type(highs) is not _highs._Highs:
        highs = _highs._Highs()
        highs.setOptionValue("output_flag", False)
        if not presolve:
            highs.setOptionValue("presolve", "off")
        setattr(_instances, key, highs)
    return highs


def _ok(status, call: str) -> None:
    """Raise unless a HiGHS call was accepted. On a reused instance a rejected
    model, bound change or basis leaves the previous one in place, so a solve
    after it would answer another LP."""
    if status == _highs.HighsStatus.kError:
        raise RuntimeError(f"quantile LP failed: HiGHS rejected {call}")


def _run(highs) -> None:
    """Solve; raise unless HiGHS reports an optimum."""
    highs.run()
    status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"quantile LP failed: {highs.modelStatusToString(status)}")


def _full_basis(ranged, a: float, lam: float):
    """The basis of the full dual at the optimal vertex of the ranged one, or
    None when that vertex is degenerate.

    A nondegenerate vertex has p+1 variables strictly inside their bounds
    (columns inside (a-1, a), ranged rows inside (-lam, lam)) and a nonzero
    reduced cost or dual on every other one. Its full-dual basis is then the
    only optimal one: an interior ranged row makes both of its rows basic, a
    ranged row at a bound makes the one row that its dual's sign names
    nonbasic at lam, and the 1'd = 0 row keeps its status.

    Nonbasic variables sit exactly at a bound, so when p+1 variables are
    inside, they are the p+1 basic ones, and the ranged basis already holds
    the column statuses: basic inside, kLower or kUpper at a bound. Only the
    row statuses are rebuilt.
    """
    solution = ranged.getSolution()
    d = np.asarray(solution.col_value)
    reduced = np.asarray(solution.col_dual)
    p = ranged.getNumRow() - 1
    activity = np.asarray(solution.row_value)[:p]
    row_dual = np.asarray(solution.row_dual)[:p]
    tol = _DEGENERATE_TOL
    col_inside = (d > a - 1.0 + tol) & (d < a - tol)
    row_inside = (activity > -lam + tol) & (activity < lam - tol)
    if np.count_nonzero(col_inside) + np.count_nonzero(row_inside) != p + 1:
        return None
    if np.any(np.abs(reduced[~col_inside]) <= tol) or np.any(np.abs(row_dual[~row_inside]) <= tol):
        return None
    basic, upper = _highs.HighsBasisStatus.kBasic, _highs.HighsBasisStatus.kUpper
    # a ranged row at a bound keeps Xs_j'd <= lam nonbasic when its dual is
    # negative (activity at +lam), else -Xs_j'd <= lam; the other row is basic
    plus = [basic if inside or dual > 0 else upper for inside, dual in zip(row_inside, row_dual)]
    minus = [basic if inside or dual < 0 else upper for inside, dual in zip(row_inside, row_dual)]
    basis = ranged.getBasis()
    basis.row_status = plus + minus + [basis.row_status[p]]
    return basis


def fit_quantile(X, y, alpha, lam: float, *, bases: dict | None = None):
    """Fit pinball loss + lam*L1 by linear programming (exact optimum).

    `alpha` is one level or a sequence of levels: one level gives a
    LinearQuantileModel, a sequence gives a list with one model per level.

    The primal problem min sum_i rho_alpha(y_i - b0 - x_i b) + lam*||b||_1 is
    an LP with n equality rows and 2n+2p+1 columns. HiGHS solves its dual
    (Koenker & Bassett 1978; Koenker, *Quantile Regression*, 2005, ch. 6)
    instead, which has n columns and only 1 + 2p rows:

        max y'd  s.t.  1'd = 0,  |Xs'd| <= lam,  alpha-1 <= d <= alpha.

    The primal solution is read from the dual's row duals: the intercept is
    the negated dual of 1'd = 0 and each coefficient is the difference of the
    duals of its two rows Xs_j'd <= lam and -Xs_j'd <= lam. Strong duality
    makes the dual's optimum the primal's, so the returned objective sits at
    the true minimum rather than a smoothed proxy.

    Both duals are passed once per call, as arrays with the first level's
    column bounds (`_dual_model`), to the thread's two reused HiGHS instances
    (`_instance`), and later levels only move their column bounds. Each
    level with lam > 0 runs two solves, and its answer is the one a cold
    call for that level alone gives:

    1. The ranged dual, with one row -lam <= Xs_j'd <= lam per column pair
       and HiGHS's presolve off, finds the optimal vertex. It is the LP that
       presolve makes of the full dual, at the cost of its simplex alone.
       `bases`, when given, is the caller's dict of ranged-dual bases of
       these rows, keyed by level: a level found in it starts from that
       basis, and its optimal basis is filed under it. A grid search passes
       the basis of the same rows and level at the lam solved before
       (Friedman, Hastie & Tibshirani 2010): only the ranged rows' bounds
       differ, so that basis stays dual feasible and the dual simplex
       starts close to the optimum. This instance is never cleared within
       a call, so any other level after the first starts hot from the
       optimal basis, factorization and scaled LP of the level before it:
       only the column bounds move, so that basis too stays dual feasible.
    2. The full dual is run from that vertex's basis (`_full_basis`). HiGHS
       skips presolve for a valid basis and confirms it without an
       iteration, and the row duals are read from this solve. A
       confirmation that iterates started from a basis that was not the
       optimal one, and the level is solved again cold, as in the fallback
       below.

    A nondegenerate vertex has exactly one optimal basis, the one HiGHS's
    presolve, solve and postsolve of the full dual end at, so its row duals
    match that path bit for bit. A degenerate vertex (tied targets, alpha*n
    an integer) can have several, and another basis could give other
    coefficients; such a level falls back to that path: the full dual
    solved cold, without a basis. At lam = 0 every level takes that path
    without the ranged solve: both rows of each pair then sit at their
    bound for every feasible d, so the full dual's row duals are never the
    only optimal ones. A warm- or hot-started ranged solve ends at the same
    basis as a cold one when the vertex is nondegenerate, and a degenerate
    one falls back whatever the start, so a fit never depends on the basis
    its ranged solve started from. The full dual starts only from the
    ranged vertex's own basis, which `setBasis` puts in place of the last
    level's, or, falling back, from a cleared one: that instance is
    cleared right before every cold run, so no full-dual solve starts
    from another level's basis. There a warm start could stop at another
    optimal vertex, which would make a fit depend on the levels solved
    before it.

    Targets whose largest |y| is 2^24 or more reach HiGHS as y * 2^-k, with
    that largest value in [2^23, 2^24), and the row duals are scaled back
    by 2^k (`_COST_EXPONENT`); smaller targets are passed as they are.
    """
    one = np.ndim(alpha) == 0
    levels = [float(a) for a in np.reshape(alpha, -1)]
    values, indicator = design_arrays(X)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n == 0:
        raise ValueError("empty data")
    if values.shape[0] != n:
        raise ValueError("X and y row counts differ")
    if not all(0.0 < a < 1.0 for a in levels):
        raise ValueError("alpha must lie in (0, 1)")
    if lam < 0:
        raise ValueError("lam must be nonnegative")

    Xs, active, center, scale = _standardize(values, indicator)
    p_act = Xs.shape[1]
    p = values.shape[1]
    fits = []
    if p_act == 0:
        for a in levels:
            b0 = pinball_quantile(y, a)
            fits.append(
                LinearQuantileModel(
                    alpha=a,
                    coef=np.zeros(p),
                    intercept=float(b0),
                    lam=float(lam),
                    objective=pinball_total(y - b0, a),
                    scaled_coef=np.zeros(0),
                    feature_scale=scale,
                )
            )
        return fits[0] if one else fits

    lam = float(lam)
    nonzero = Xs != 0.0
    shift = max(0, int(np.frexp(np.max(np.abs(y)))[1]) - _COST_EXPONENT)
    costs = np.ldexp(y, -shift)
    highs = _instance(presolve=True)
    model = _dual_model(Xs, nonzero, costs, lam, levels[0], ranged=False)
    _ok(highs.passModel(*model), "passModel")
    ranged = None
    if lam > 0:
        ranged = _instance(presolve=False)
        model = _dual_model(Xs, nonzero, costs, lam, levels[0], ranged=True)
        _ok(ranged.passModel(*model), "passModel")
    every_col = np.arange(n, dtype=np.int32)
    for i, a in enumerate(levels):
        if i > 0:  # the first level's bounds came with the models
            lower, upper = np.full(n, a - 1.0), np.full(n, a)
            _ok(highs.changeColsBounds(n, every_col, lower, upper), "changeColsBounds")
            if ranged is not None:
                _ok(ranged.changeColsBounds(n, every_col, lower, upper), "changeColsBounds")
        basis = None
        if ranged is not None:
            if bases is not None and a in bases:
                _ok(ranged.setBasis(bases[a]), "setBasis")
            _run(ranged)
            if bases is not None:
                bases[a] = ranged.getBasis()
            basis = _full_basis(ranged, a, lam)
        if basis is not None:
            _ok(highs.setBasis(basis), "setBasis")
            _run(highs)
            if highs.getInfoValue("simplex_iteration_count")[1] != 0:
                basis = None  # not the optimal basis: solve the full dual cold
        if basis is None:
            highs.clearSolver()
            _run(highs)
        # HiGHS minimizes -y'd, so each row dual is the negated primal variable.
        w = np.ldexp(highs.getSolution().row_dual, shift)
        b0_std = -float(w[2 * p_act])
        scaled = w[p_act : 2 * p_act] - w[:p_act]
        coef = np.zeros(p)
        coef[active] = scaled / scale[active]
        intercept = b0_std - float(np.dot(center[active] / scale[active], scaled))
        residuals = y - intercept - values @ coef
        fits.append(
            LinearQuantileModel(
                alpha=a,
                coef=coef,
                intercept=float(intercept),
                lam=float(lam),
                objective=pinball_total(residuals, a) + lam * float(np.sum(np.abs(scaled))),
                scaled_coef=scaled,
                feature_scale=scale,
            )
        )
    return fits[0] if one else fits


def predict_linear(model, X) -> np.ndarray:
    """Evaluate beta0 + x.beta for each row of a batch of encoded rows.

    `np.vecdot` over C-ordered rows gives every row bitwise its one-row dot
    product `x @ coef`; a matrix-vector product (`X @ coef`) can differ from it
    in the last ulp.
    """
    X = encoded_batch(X)
    if X.shape[1:] != model.coef.shape:
        raise ValueError(
            f"row width {X.shape[1:]} does not match model width {model.coef.shape}"
        )
    return model.intercept + np.vecdot(X, model.coef)
