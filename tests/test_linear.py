import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    quantile_dual_linprog,
    quantile_grid_oracle,
    quantile_objective,
    quantile_primal_oracle,
    ridge_oracle,
    standardize_oracle,
)
from test_composite import toy_dataset

from partqr import linear
from partqr.data import EncodedColumn, EncodedMatrix, encode
from partqr.linear import (
    LinearQuantileModel,
    fit_quantile,
    fit_ridge,
    pinball_quantile,
    pinball_total,
    predict_linear,
)


class TestRidge:
    def test_exact_line(self):
        model = fit_ridge(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 2.0]), 0.0)
        assert model.coef[0] == pytest.approx(1.0, abs=1e-9)
        assert model.intercept == pytest.approx(0.0, abs=1e-9)

    def test_infinite_shrinkage(self):
        model = fit_ridge(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 2.0]), 1e12)
        assert model.coef[0] == pytest.approx(0.0, abs=1e-6)
        assert model.intercept == pytest.approx(1.0, abs=1e-6)

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        model = fit_ridge(X, y, 0.7)
        coef, intercept = ridge_oracle(X, y, 0.7)
        assert model.coef == pytest.approx(coef, abs=1e-8)
        assert model.intercept == pytest.approx(intercept, abs=1e-8)

    def test_penalized_normal_equations_residual(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 4)) * np.array([1.0, 10.0, 0.1, 3.0])
        y = rng.normal(size=30)
        lam = 0.5
        model = fit_ridge(X, y, lam)
        sd = X.std(axis=0)
        Xs = (X - X.mean(axis=0)) / sd
        yc = y - y.mean()
        beta = model.scaled_coef
        resid = (Xs.T @ Xs + lam * np.eye(4)) @ beta - Xs.T @ yc
        bound = 1e-8 * max(1.0, float(np.max(np.abs(Xs.T @ yc))))
        assert float(np.max(np.abs(resid))) <= bound

    def test_shrinkage_monotone(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        norms = [
            float(np.linalg.norm(fit_ridge(X, y, lam).scaled_coef))
            for lam in (0.0, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fit_ridge(np.zeros((0, 1)), np.zeros(0), 0.0)
        with pytest.raises(ValueError):
            fit_ridge(np.zeros((2, 1)), np.zeros(2), -1.0)

    def test_zero_variance_column_gets_zero_coef(self):
        X = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        model = fit_ridge(X, np.array([1.0, 2.0, 3.0]), 0.0)
        assert model.coef[0] == 0.0
        assert model.coef[1] == pytest.approx(1.0, abs=1e-8)


class TestQuantile:
    def test_intercept_only_median(self):
        model = fit_quantile(np.zeros((5, 0)), np.array([1.0, 2, 3, 4, 5]), 0.5, 0.0)
        assert model.intercept == pytest.approx(3.0)
        assert model.objective == pytest.approx(pinball_total(np.array([1.0, 2, 3, 4, 5]) - 3, 0.5))

    def test_interpolating_fit_zero_loss(self):
        x = np.arange(10.0).reshape(-1, 1)
        for alpha in (0.1, 0.5, 0.9):
            model = fit_quantile(x, 2 * x[:, 0], alpha, 0.0)
            assert model.coef[0] == pytest.approx(2.0, abs=1e-7)
            assert model.intercept == pytest.approx(0.0, abs=1e-6)
            assert model.objective == pytest.approx(0.0, abs=1e-8)

    def test_intercept_only_alpha_080(self):
        y = np.array([1.0, 2, 3, 4, 5])
        model = fit_quantile(np.zeros((5, 0)), y, 0.8, 0.0)
        # minimizer set is [4, 5]; any point in it gives the same objective
        assert model.objective == pytest.approx(pinball_total(y - 4.0, 0.8), abs=1e-6)
        assert 4.0 <= model.intercept <= 5.0

    def test_pinball_quantile_examples(self):
        assert pinball_quantile([1, 2, 3, 4, 5], 0.5) == 3.0
        assert pinball_quantile([1, 2], 0.5) == 1.5
        assert pinball_quantile([5.0], 0.3) == 5.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=30),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    def test_pinball_quantile_monotone_in_alpha(self, ys, a1, a2):
        lo, hi = sorted((a1, a2))
        assert pinball_quantile(ys, lo) <= pinball_quantile(ys, hi) + 1e-12

    def test_objective_recomputable_from_coefficients(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        model = fit_quantile(X, y, 0.3, 0.1)
        assert quantile_objective(model, X, y) == pytest.approx(model.objective, rel=1e-9)

    def test_matches_grid_oracle_small(self):
        rng = np.random.default_rng(8)
        for lam in (0.0, 0.1):
            X = rng.normal(size=(15, 1))
            y = 1.5 * X[:, 0] + rng.normal(size=15)
            for alpha in (0.25, 0.5, 0.9):
                model = fit_quantile(X, y, alpha, lam)
                oracle = quantile_grid_oracle(X, y, alpha, lam)
                assert model.objective <= oracle * (1 + 1e-4) + 1e-9

    def test_dual_matches_primal_oracle(self):
        rng = np.random.default_rng(17)
        cases = []
        # numeric columns on different scales; alpha*n is never an integer
        X = rng.normal(size=(37, 3)) * np.array([1.0, 20.0, 0.2])
        cases.append((X, X @ np.array([1.0, 0.1, -3.0]) + rng.standard_t(3, size=37), None))
        # alpha*n is an integer at every level and the targets tie: many optimal vertices
        X = rng.integers(0, 3, size=(40, 1)).astype(float)
        cases.append((X, np.round(rng.normal(size=40)), None))
        # one-hot indicators (one level never seen), a constant and a numeric column
        levels = rng.integers(0, 3, size=50)
        X = np.column_stack(
            [(levels[:, None] == np.arange(4)).astype(float), np.full(50, 7.0), rng.normal(size=50)]
        )
        y = np.array([0.0, 5.0, 12.0])[levels] + 2.0 * X[:, 5] + rng.exponential(3.0, size=50)
        indicator = np.array([True, True, True, True, False, False])
        columns = tuple(
            EncodedColumn("site", str(j), True) if ind else EncodedColumn(f"x{j}", None, False)
            for j, ind in enumerate(indicator)
        )
        cases.append((EncodedMatrix(X, columns), y, indicator))
        for X, y, indicator in cases:
            values = X.values if isinstance(X, EncodedMatrix) else X
            for lam in (0.0, 0.1, 1.0):
                for alpha in (0.05, 0.5, 0.95):
                    model = fit_quantile(X, y, alpha, lam)
                    oracle = quantile_primal_oracle(values, y, alpha, lam, indicator)
                    assert model.objective == pytest.approx(oracle, rel=1e-9)

    def test_subgradient_counts(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60) + X @ np.array([1.0, -2.0])
        for alpha in (0.2, 0.5, 0.8):
            model = fit_quantile(X, y, alpha, 0.0)
            resid = y - model.intercept - X @ model.coef
            n_neg = int(np.sum(resid < -1e-9))
            n_pos = int(np.sum(resid > 1e-9))
            assert n_neg <= alpha * 60 + 3
            assert n_pos <= (1 - alpha) * 60 + 3

    def test_monotone_intercepts(self):
        y = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        fits = [fit_quantile(np.zeros((8, 0)), y, a, 0.0).intercept for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a <= b + 1e-12 for a, b in zip(fits, fits[1:]))

    def test_rejects_bad_inputs(self):
        X = np.zeros((3, 1))
        y = np.zeros(3)
        with pytest.raises(ValueError):
            fit_quantile(X, y, 0.0, 0.0)
        with pytest.raises(ValueError):
            fit_quantile(X, y, 1.0, 0.0)
        with pytest.raises(ValueError):
            fit_quantile(X, y, 0.5, -0.1)
        with pytest.raises(ValueError):
            fit_quantile(np.zeros((0, 1)), np.zeros(0), 0.5, 0.0)


def _level_cases():
    """Designs whose quantile LPs have many optimal vertices."""
    rng = np.random.default_rng(29)
    quartiles = (0.25, 0.5, 0.75)  # alpha*n is an integer at n = 40
    lams = (0.0, 0.1, 1.0)
    X = np.round(rng.normal(size=(40, 2)) * 2)
    y = np.round(X @ np.array([1.0, -0.5]) + rng.normal(size=40))
    yield "rounded", X, y, quartiles, lams
    X = rng.integers(0, 2, size=(40, 3)).astype(float)
    yield "binary", X, X @ np.array([2.0, 0.0, -1.0]) + rng.integers(0, 2, size=40), quartiles, lams
    X = rng.normal(size=(40, 2))
    yield "tied_y", X, rng.integers(0, 3, size=40).astype(float), (0.05, 0.5, 0.95), lams
    matrix, y, _ = encode(toy_dataset(60, seed=5))
    yield "toy_60_5", matrix, y, (0.05, 0.5, 0.95), (0.0,)


class TestLevelSequence:
    """fit_quantile over a sequence of levels solves every level cold."""

    @staticmethod
    def _bits(coef, intercept, objective):
        return coef.tobytes(), np.float64(intercept).tobytes(), np.float64(objective).tobytes()

    @pytest.mark.parametrize(
        "X, y, levels, lams", [pytest.param(*case[1:], id=case[0]) for case in _level_cases()]
    )
    def test_sequence_equals_scalar_calls_and_linprog(self, X, y, levels, lams):
        values = X.values if isinstance(X, EncodedMatrix) else X
        indicator = X.categorical_mask if isinstance(X, EncodedMatrix) else None
        for lam in lams:
            want = {
                a: self._bits(*quantile_dual_linprog(values, y, a, lam, indicator)) for a in levels
            }
            for order in (levels, levels[::-1]):
                fits = fit_quantile(X, y, order, lam)
                assert [f.alpha for f in fits] == list(order)
                for a, fit in zip(order, fits):
                    assert self._bits(fit.coef, fit.intercept, fit.objective) == want[a], (a, lam)
                    one = fit_quantile(X, y, a, lam)
                    assert self._bits(one.coef, one.intercept, one.objective) == want[a], (a, lam)

    def test_return_shapes(self):
        X = np.arange(12.0).reshape(-1, 1)
        y = np.arange(12.0) % 5
        assert isinstance(fit_quantile(X, y, 0.5, 0.0), LinearQuantileModel)
        assert [f.alpha for f in fit_quantile(X, y, [0.5], 0.0)] == [0.5]
        constant = fit_quantile(np.zeros((12, 1)), y, (0.2, 0.8), 0.0)
        assert [f.intercept for f in constant] == [pinball_quantile(y, 0.2), pinball_quantile(y, 0.8)]
        with pytest.raises(ValueError, match="alpha"):
            fit_quantile(X, y, (0.5, 1.0), 0.0)

    def test_non_optimal_status_raises(self, monkeypatch):
        highs = linear._highs

        class Infeasible(highs._Highs):
            def getModelStatus(self):
                return highs.HighsModelStatus.kInfeasible

        monkeypatch.setattr(highs, "_Highs", Infeasible)
        X = np.arange(12.0).reshape(-1, 1)
        with pytest.raises(RuntimeError, match="quantile LP failed: Infeasible"):
            fit_quantile(X, X[:, 0] % 5, 0.5, 0.0)


SWEEP_KINDS = ("continuous", "rounded", "binary", "one_hot", "tied_y")
SWEEP_LAMS = (0.0, 0.01, 0.1, 1.0)


def _sweep_design(kind, rng):
    """(X, y) of one seeded design: an EncodedMatrix where columns are indicators."""
    n, p = int(rng.integers(10, 70)), int(rng.integers(1, 4))
    if kind == "continuous":
        X = rng.normal(size=(n, p)) * rng.uniform(0.2, 20.0, size=p)
        return X, X @ rng.normal(size=p) + rng.standard_t(3, size=n)
    if kind == "rounded":
        X = np.round(rng.normal(size=(n, p)) * 2)
        return X, np.round(X @ rng.normal(size=p) + rng.normal(size=n))
    if kind == "tied_y":
        return rng.normal(size=(n, p)), rng.integers(0, 3, size=n).astype(float)
    if kind == "binary":
        X = rng.integers(0, 2, size=(n, p)).astype(float)
        y = X @ rng.normal(size=p) + rng.integers(0, 3, size=n)
    else:  # one-hot levels: the columns sum to the intercept's column
        levels = rng.integers(0, p + 1, size=n)
        X = (levels[:, None] == np.arange(p + 1)).astype(float)
        y = 1.5 * levels + rng.normal(size=n)
    columns = tuple(EncodedColumn("site", str(j), True) for j in range(X.shape[1]))
    return EncodedMatrix(X, columns), y


class TestVertexSweep:
    """fit_quantile finds its vertex on the ranged dual and confirms it on the
    full one, or falls back to a cold solve of the full one when the vertex
    is degenerate. Either way its bits are those of the presolved cold solve
    that `quantile_dual_linprog` makes."""

    def test_bits_equal_presolved_cold_solve(self):
        rng = np.random.default_rng(61)
        levels = (0.05, 0.5, 0.95)
        compared = 0
        for i in range(100):
            kind, lam = SWEEP_KINDS[i % 5], SWEEP_LAMS[(i // 5) % 4]
            X, y = _sweep_design(kind, rng)
            values = X.values if isinstance(X, EncodedMatrix) else X
            indicator = X.categorical_mask if isinstance(X, EncodedMatrix) else None
            if not np.any(np.std(values, axis=0) > 0):
                continue  # no active column: the pinball_quantile path, not an LP
            for a, fit in zip(levels, fit_quantile(X, y, levels, lam)):
                want = quantile_dual_linprog(values, y, a, lam, indicator)
                got = (fit.coef, fit.intercept, fit.objective)
                assert TestLevelSequence._bits(*got) == TestLevelSequence._bits(*want), (
                    i, kind, lam, a,
                )
                compared += 1
        assert compared >= 250

    def test_fast_path_and_fallback_both_taken(self, monkeypatch):
        taken = []
        full_basis = linear._full_basis

        def spy(*args):
            basis = full_basis(*args)
            taken.append("fallback" if basis is None else "fast")
            return basis

        monkeypatch.setattr(linear, "_full_basis", spy)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(45, 2))
        y = X @ np.array([1.0, -2.0]) + rng.normal(size=45)
        fit_quantile(X, y, (0.1, 0.5, 0.9), 0.1)
        assert taken == ["fast"] * 3
        tied = rng.integers(0, 3, size=45).astype(float)
        for lam, path in ((0.1, ["fallback"]), (0.0, [])):  # lam = 0 skips the ranged solve
            taken.clear()
            fit = fit_quantile(X, tied, 0.5, lam)
            assert taken == path
            want = quantile_dual_linprog(X, tied, 0.5, lam)
            assert TestLevelSequence._bits(fit.coef, fit.intercept, fit.objective) == (
                TestLevelSequence._bits(*want)
            )


class TestLargeTargets:
    """A target past HiGHS's range is solved on a power-of-two scaled copy:
    the fit of y * 2^k is 2^k times the fit of y, bit for bit, whichever
    path (confirmed ranged vertex, degenerate fallback, cold at lam = 0)
    the level takes."""

    @staticmethod
    def _bits(fit, k=0):
        """The fit's bits, each value first scaled by 2^k."""
        return TestLevelSequence._bits(
            np.ldexp(fit.coef, k), np.ldexp(fit.intercept, k), np.ldexp(fit.objective, k)
        ) + (np.ldexp(fit.scaled_coef, k).tobytes(),)

    @staticmethod
    def _cases(monkeypatch, taken, top):
        """X, and (y, lam, path) for each path with the largest |y| in
        [2^(top - 1), 2^top); each level's path is appended to `taken`."""
        full_basis = linear._full_basis

        def spy(*args):
            basis = full_basis(*args)
            taken.append("fallback" if basis is None else "confirmed")
            return basis

        monkeypatch.setattr(linear, "_full_basis", spy)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(45, 2))
        smooth = X @ np.array([1.0, -2.0]) + rng.normal(size=45)
        tied = rng.integers(0, 3, size=45).astype(float)
        cases = ((smooth, 0.1, "confirmed"), (tied, 0.1, "fallback"), (smooth, 0.0, None))
        return X, [
            (np.ldexp(y, top - int(np.frexp(np.max(np.abs(y)))[1])), lam, path) for y, lam, path in cases
        ]

    @pytest.mark.parametrize("k", [31, 42, 52])
    def test_fit_scales_with_the_target(self, monkeypatch, k):
        taken = []
        # largest |y| in [2^23, 2^24): the largest targets passed unscaled
        X, cases = self._cases(monkeypatch, taken, 24)
        levels = (0.1, 0.5, 0.9)
        for y, lam, path in cases:
            taken.clear()
            want = fit_quantile(X, y, levels, lam)
            assert taken == ([path] * 3 if path else [])
            got = fit_quantile(X, np.ldexp(y, k), levels, lam)
            assert taken[3:] == taken[:3]
            for a, w, g in zip(levels, want, got):
                assert self._bits(g) == self._bits(w, k), (a, lam)

    @pytest.mark.parametrize("top", [28, 30])
    def test_targets_that_solved_unscaled_keep_their_bits(self, monkeypatch, top):
        """Targets from 2^24 up are scaled, though some solved unscaled
        (up to about 1e9 on some fits; others fail from 2^27). Where the
        unscaled solve succeeds, the scaled one gives the same bits."""
        exponent = linear._COST_EXPONENT
        taken = []
        X, cases = self._cases(monkeypatch, taken, top)  # largest |y| from 2^27, 2^29
        levels = (0.1, 0.5, 0.9)
        for y, lam, path in cases:
            taken.clear()
            monkeypatch.setattr(linear, "_COST_EXPONENT", 1024)  # nothing is scaled
            want = fit_quantile(X, y, levels, lam)
            monkeypatch.setattr(linear, "_COST_EXPONENT", exponent)
            got = fit_quantile(X, y, levels, lam)
            assert taken == ([path] * 6 if path else [])
            for a, w, g in zip(levels, want, got):
                assert self._bits(g) == self._bits(w), (a, lam)

def _leaf_design(kind, rng):
    """(X, y) of one seeded design of a grid search's leaf size: n in
    [300, 900], 1-3 columns; two_regime's first column, when it has two or
    more, is the region's indicator."""
    n, p = int(rng.integers(300, 901)), int(rng.integers(1, 4))
    if kind == "continuous":
        X = rng.normal(size=(n, p)) * rng.uniform(0.2, 20.0, size=p)
        return X, X @ rng.normal(size=p) + rng.standard_t(3, size=n)
    if kind == "tied_y":
        return rng.normal(size=(n, p)), rng.integers(0, 3, size=n).astype(float)
    east = rng.random(n) < 0.5
    x = rng.uniform(0, 8, size=(n, p))
    y = np.where(east, x[:, 0], 10 - x[:, 0]) + rng.standard_normal(n) * np.where(east, 0.5, 1.5)
    if p == 1:
        return x, y
    X = np.column_stack([east.astype(float), x[:, : p - 1]])
    columns = (EncodedColumn("region", "east", True),) + tuple(
        EncodedColumn(f"x{j}", None, False) for j in range(p - 1)
    )
    return EncodedMatrix(X, columns), y


class TestReusedSolvers:
    """Every fit passes its LPs to the same two HiGHS instances, so a call
    that HiGHS rejects or a fit that leaves state behind must not reach the
    next fit's answer."""

    @pytest.mark.parametrize("call", ["passModel", "changeColsBounds", "setBasis"])
    def test_rejected_call_raises(self, monkeypatch, call):
        highs = linear._highs

        class Rejecting(highs._Highs):
            pass

        setattr(Rejecting, call, lambda self, *args: highs.HighsStatus.kError)
        monkeypatch.setattr(highs, "_Highs", Rejecting)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(45, 2))
        y = X @ np.array([1.0, -2.0]) + rng.normal(size=45)
        with pytest.raises(RuntimeError, match=f"HiGHS rejected {call}"):
            fit_quantile(X, y, (0.1, 0.5), 0.1)
        monkeypatch.undo()  # the real class again: the rejecting instances are replaced
        want = quantile_dual_linprog(X, y, 0.5, 0.1)
        fit = fit_quantile(X, y, 0.5, 0.1)
        assert TestLevelSequence._bits(fit.coef, fit.intercept, fit.objective) == (
            TestLevelSequence._bits(*want)
        )

    def test_wrong_basis_is_solved_again_cold(self, monkeypatch):
        # every level is confirmed from the first level's basis: HiGHS must
        # iterate away from it, and the level is then solved cold
        full_basis = linear._full_basis
        bases = []

        def stale(*args):
            bases.append(full_basis(*args))
            return bases[0]

        monkeypatch.setattr(linear, "_full_basis", stale)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 2))
        y = X @ np.array([1.0, -2.0]) + rng.normal(size=300)
        levels = (0.05, 0.5, 0.95)
        for a, fit in zip(levels, fit_quantile(X, y, levels, 0.1)):
            want = quantile_dual_linprog(X, y, a, 0.1)
            assert TestLevelSequence._bits(fit.coef, fit.intercept, fit.objective) == (
                TestLevelSequence._bits(*want)
            ), a
        assert len(bases) == 3 and all(b is not None for b in bases)

    def test_bits_equal_presolved_cold_solve_at_leaf_size(self, monkeypatch):
        # tied targets (the cold fallback) between the other designs, so state
        # a fit left in a reused instance would show in the next fit
        taken = []
        full_basis = linear._full_basis

        def spy(*args):
            basis = full_basis(*args)
            taken.append(basis is not None)
            return basis

        monkeypatch.setattr(linear, "_full_basis", spy)
        rng = np.random.default_rng(67)
        levels = (0.05, 0.5, 0.95)
        kinds = ("continuous", "tied_y", "two_regime", "tied_y")
        for i in range(16):
            kind, lam = kinds[i % 4], (0.01, 1.0)[(i // 4) % 2]
            X, y = _leaf_design(kind, rng)
            values = X.values if isinstance(X, EncodedMatrix) else X
            indicator = X.categorical_mask if isinstance(X, EncodedMatrix) else None
            for a, fit in zip(levels, fit_quantile(X, y, levels, lam)):
                want = quantile_dual_linprog(values, y, a, lam, indicator)
                got = (fit.coef, fit.intercept, fit.objective)
                assert TestLevelSequence._bits(*got) == TestLevelSequence._bits(*want), (
                    i, kind, lam, a,
                )
        assert len(taken) == 48 and True in taken and False in taken


PATH_LAMS = (0.01, 0.1, 1.0)


def _path_designs():
    """(id, X, y) of the seeded leaf-size and sweep designs of every kind."""
    rng = np.random.default_rng(71)
    for kind in ("continuous", "tied_y", "two_regime"):
        yield f"leaf-{kind}", *_leaf_design(kind, rng)
    for kind in SWEEP_KINDS:
        X, y = _sweep_design(kind, rng)
        if np.any(np.std(X.values if isinstance(X, EncodedMatrix) else X, axis=0) > 0):
            yield f"sweep-{kind}", X, y


class TestLambdaPath:
    """Fits of one design that share a `bases` dict start each level's ranged
    solve from its optimal basis at the λ solved before. The guard and the
    confirming solve keep every fit at the bits of its cold solve, whatever
    the λ order and whatever basis the dict holds."""

    LEVELS = (0.05, 0.5, 0.95)

    @pytest.mark.parametrize("X, y", [pytest.param(*d[1:], id=d[0]) for d in _path_designs()])
    def test_shared_bases_give_cold_bits_in_either_order(self, X, y):
        values = X.values if isinstance(X, EncodedMatrix) else X
        indicator = X.categorical_mask if isinstance(X, EncodedMatrix) else None
        want = {
            (a, lam): TestLevelSequence._bits(*quantile_dual_linprog(values, y, a, lam, indicator))
            for lam in PATH_LAMS for a in self.LEVELS
        }
        for lam in PATH_LAMS:
            for a, fit in zip(self.LEVELS, fit_quantile(X, y, self.LEVELS, lam)):
                assert TestLevelSequence._bits(fit.coef, fit.intercept, fit.objective) == want[a, lam]
        for order in (PATH_LAMS, PATH_LAMS[::-1]):
            bases = {}
            for lam in order:
                for a, fit in zip(self.LEVELS, fit_quantile(X, y, self.LEVELS, lam, bases=bases)):
                    got = TestLevelSequence._bits(fit.coef, fit.intercept, fit.objective)
                    assert got == want[a, lam], (order, lam, a)
            assert sorted(bases) == sorted(self.LEVELS)

    def test_tied_targets_reach_the_fallback_from_a_warm_start(self, monkeypatch):
        taken = []
        full_basis = linear._full_basis

        def spy(*args):
            basis = full_basis(*args)
            taken.append(basis is not None)
            return basis

        monkeypatch.setattr(linear, "_full_basis", spy)
        X, y = _leaf_design("tied_y", np.random.default_rng(71))
        bases = {}
        for lam in PATH_LAMS:
            fit_quantile(X, y, self.LEVELS, lam, bases=bases)
        assert False in taken[len(self.LEVELS):]  # a warm-started level fell back

    def test_basis_under_the_wrong_level_gives_the_cold_bits(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 2))
        y = X @ np.array([1.0, -2.0]) + rng.normal(size=300)
        bases = {}
        fit_quantile(X, y, self.LEVELS, 0.1, bases=bases)
        lower, median, upper = (bases[a] for a in self.LEVELS)
        wrong = dict(zip(self.LEVELS, (upper, lower, median)))
        for a, fit in zip(self.LEVELS, fit_quantile(X, y, self.LEVELS, 1.0, bases=wrong)):
            want = quantile_dual_linprog(X, y, a, 1.0)
            assert TestLevelSequence._bits(fit.coef, fit.intercept, fit.objective) == (
                TestLevelSequence._bits(*want)
            ), a

    def test_rejected_warm_start_raises_and_the_next_fit_is_clean(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(45, 2))
        y = X @ np.array([1.0, -2.0]) + rng.normal(size=45)
        bases = {}
        fit_quantile(X[:40], y[:40], 0.5, 0.1, bases=bases)
        # a basis of 40 columns: HiGHS rejects it for an LP of 45
        with pytest.raises(RuntimeError, match="HiGHS rejected setBasis"):
            fit_quantile(X, y, 0.5, 1.0, bases=bases)
        want = TestLevelSequence._bits(*quantile_dual_linprog(X, y, 0.5, 1.0))
        for fresh in (None, {}):
            fit = fit_quantile(X, y, 0.5, 1.0, bases=fresh)
            assert TestLevelSequence._bits(fit.coef, fit.intercept, fit.objective) == want

    def test_warm_start_takes_fewer_ranged_iterations(self, monkeypatch):
        counts = []
        run = linear._run

        def spy(highs):
            run(highs)
            if highs is linear._instance(presolve=False):
                counts.append(highs.getInfoValue("simplex_iteration_count")[1])

        monkeypatch.setattr(linear, "_run", spy)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(600, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_t(3, size=600)
        for a in self.LEVELS:  # one level per call: each ranged solve starts cold
            fit_quantile(X, y, a, 1.0)
        cold = sum(counts)
        bases = {}
        fit_quantile(X, y, self.LEVELS, 0.1, bases=bases)
        counts.clear()
        fit_quantile(X, y, self.LEVELS, 1.0, bases=bases)
        assert len(counts) == len(self.LEVELS)
        assert sum(counts) < cold


class TestHotLevels:
    """Within one fit the ranged instance is never cleared, so every level
    after the first starts hot from the optimal basis of the level before
    it; the full-dual instance is cleared right before each cold run. Either
    way each level keeps the bits of its cold presolved solve."""

    ORDERS = ((0.95, 0.05, 0.5), (0.5, 0.95, 0.05), (0.05, 0.5, 0.95))

    @pytest.mark.parametrize(
        "kind, lam, paths",
        [("continuous", 0.1, {True}), ("tied_y", 0.1, {False}), ("continuous", 0.0, set())],
        ids=["continuous", "tied_y-fallback", "lam0"],
    )
    def test_shuffled_levels_after_another_design_give_cold_bits(self, monkeypatch, kind, lam, paths):
        taken = []
        full_basis = linear._full_basis

        def spy(*args):
            basis = full_basis(*args)
            taken.append(basis is not None)
            return basis

        monkeypatch.setattr(linear, "_full_basis", spy)
        rng = np.random.default_rng(83)
        X, y = _leaf_design(kind, rng)
        n = y.shape[0]
        other = rng.normal(size=(n, 2))
        other_y = other @ np.array([0.5, 3.0]) + rng.standard_t(3, size=n)
        want = {a: TestLevelSequence._bits(*quantile_dual_linprog(X, y, a, lam)) for a in self.ORDERS[0]}
        for order in self.ORDERS:
            # another LP of n columns solved on the same instances just before
            fit_quantile(other, other_y, order, 0.1)
            taken.clear()
            for a, fit in zip(order, fit_quantile(X, y, order, lam)):
                assert TestLevelSequence._bits(fit.coef, fit.intercept, fit.objective) == want[a], (
                    order, a,
                )
            assert set(taken) == paths

    def test_ranged_instance_is_never_cleared_and_full_one_before_each_cold_run(self, monkeypatch):
        highs = linear._highs
        log = []

        class Logged(highs._Highs):
            def clearSolver(self):
                log.append((self, "clear"))
                return super().clearSolver()

            def setBasis(self, *args):
                log.append((self, "setBasis"))
                return super().setBasis(*args)

            def run(self):
                log.append((self, "run"))
                return super().run()

        monkeypatch.setattr(highs, "_Highs", Logged)
        full_basis = linear._full_basis
        first = []

        def stale_after(*args):
            # when stale, every level is confirmed from the first level's
            # basis, so the confirmations of the later two iterate and are
            # solved cold
            basis = full_basis(*args)
            first.append(basis)
            return first[0] if stale else basis

        monkeypatch.setattr(linear, "_full_basis", stale_after)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 2))
        smooth = X @ np.array([1.0, -2.0]) + rng.normal(size=300)
        tied = rng.integers(0, 3, size=300).astype(float)
        levels = (0.95, 0.05, 0.5)
        for stale, y, lam, cold_runs in (
            (False, smooth, 0.1, 0), (False, tied, 0.1, 3), (True, smooth, 0.1, 2), (False, smooth, 0.0, 3),
        ):
            log.clear()
            first.clear()
            fit_quantile(X, y, levels, lam)
            ranged, full = linear._instance(presolve=False), linear._instance(presolve=True)
            assert type(ranged) is type(full) is Logged
            assert (ranged, "clear") not in log
            assert [e for h, e in log if h is ranged] == (["run"] * 3 if lam > 0 else [])
            events = [e for h, e in log if h is full]
            runs = [i for i, e in enumerate(events) if e == "run"]
            # every full-dual run follows a setBasis (a confirmation) or a clear (a cold run)
            assert all(i > 0 and events[i - 1] in ("setBasis", "clear") for i in runs)
            assert sum(events[i - 1] == "clear" for i in runs) == cold_runs
            assert events.count("clear") == cold_runs


class TestStandardize:
    """`_standardize` reduces all columns at once and keeps the bits of the
    column-by-column loop."""

    @pytest.mark.parametrize("n", [1, 2, 17, 8191, 8192, 8193, 20001])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bits_equal_the_column_loop(self, n, layout):
        rng = np.random.default_rng(n)
        p = 6
        X = rng.normal(size=(n, p)) * rng.uniform(0.1, 1e6, size=p) + rng.uniform(-1e7, 1e7, size=p)
        X[:, 1] = -2.5  # constant
        X[:, 2] = rng.integers(0, 2, size=n)  # an indicator
        X[:, 3] = rng.integers(0, 2, size=n)  # 0/1, but numeric
        X[:, 5] = 1.0  # a constant indicator
        indicator = np.array([False, False, True, False, False, True])
        if layout == "F":
            X = np.asfortranarray(X)
        elif layout == "strided":
            big = np.zeros((2 * n, 2 * p))
            big[::2, ::2] = X
            X = big[::2, ::2]
        got, want = linear._standardize(X, indicator), standardize_oracle(X, indicator)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        assert not got[1][1] and not got[1][5] and (n == 1 or got[1][0])


class TestPredictLinear:
    def test_arithmetic(self):
        model = fit_ridge(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                          np.array([5.0, 6.0, 4.0, 5.0]), 0.0)
        manual = model.intercept + np.array([2.0, 3.0]) @ model.coef
        assert predict_linear(model, [[2.0, 3.0]])[0] == pytest.approx(manual)

    def test_zero_row_returns_intercept(self):
        model = fit_ridge(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), 0.1)
        assert predict_linear(model, [[0.0]])[0] == pytest.approx(model.intercept)

    def test_fit_on_line_predicts_line(self):
        x = np.arange(10.0).reshape(-1, 1)
        model = fit_quantile(x, 2 * x[:, 0], 0.5, 0.0)
        assert predict_linear(model, [[7.0]])[0] == pytest.approx(14.0, abs=1e-6)

    def test_dimension_mismatch(self):
        model = fit_ridge(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            predict_linear(model, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            predict_linear(model, np.zeros((3, 2)))

    @pytest.mark.parametrize("width", range(1, 13))
    def test_stack_equals_one_row_dot(self, width):
        # every row of a batch gets bitwise its one-row dot product x @ coef,
        # whatever the memory order of the stack
        rng = np.random.default_rng(width)
        X = rng.normal(size=(40, width)) * rng.choice([1e-3, 1.0, 1e3], size=width)
        X[:, ::2] = rng.integers(0, 2, size=X[:, ::2].shape)  # indicator columns
        y = X @ rng.normal(size=width) + rng.normal(size=40)
        for model in (fit_ridge(X, y, 0.1), fit_quantile(X, y, 0.3, 0.1)):
            want = [float(model.intercept + x @ model.coef) for x in X]
            assert [predict_linear(model, x[None])[0] for x in X] == want
            assert predict_linear(model, X).tolist() == want
            assert predict_linear(model, np.asfortranarray(X)).tolist() == want
        assert predict_linear(model, np.zeros((0, width))).shape == (0,)
