import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quantile_grid_oracle, quantile_primal_oracle, ridge_oracle

from partqr.data import EncodedColumn, EncodedMatrix
from partqr.linear import (
    fit_quantile,
    fit_ridge,
    pinball_quantile,
    pinball_total,
    predict_linear,
    quantile_objective,
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


class TestPredictLinear:
    def test_arithmetic(self):
        model = fit_ridge(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                          np.array([5.0, 6.0, 4.0, 5.0]), 0.0)
        manual = model.intercept + np.array([2.0, 3.0]) @ model.coef
        assert predict_linear(model, [2.0, 3.0]) == pytest.approx(manual)

    def test_zero_row_returns_intercept(self):
        model = fit_ridge(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), 0.1)
        assert predict_linear(model, [0.0]) == pytest.approx(model.intercept)

    def test_fit_on_line_predicts_line(self):
        x = np.arange(10.0).reshape(-1, 1)
        model = fit_quantile(x, 2 * x[:, 0], 0.5, 0.0)
        assert predict_linear(model, [7.0]) == pytest.approx(14.0, abs=1e-6)

    def test_dimension_mismatch(self):
        model = fit_ridge(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            predict_linear(model, [1.0, 2.0])
