"""partqr: milestone completion-time forecasting with partitioned regression.

Statistical estimators (quantile and ridge regression) fitted inside data
partitions produced by CART trees, k-means clusters, or nearest-neighbor
search, with prediction intervals, ensemble baselines, and a cross-validated
benchmark harness.
"""

from .composite import (
    CompositeQuantileModel,
    count_parameters,
    fit_composite,
    predict_quantile,
)
from .data import CategoricalEncoding, Dataset, EncodedMatrix, FeatureSchema, encode, split_kfold
from .evaluation import (
    EvaluationReport,
    benchmark,
    cross_validate,
    grid_search,
    interval_coverage,
    mean_ae,
    median_ae,
)
from .linear import LinearQuantileModel, RidgeModel, fit_quantile, fit_ridge, predict_linear
from .synthetic import SyntheticSpec, generate_synthetic

__all__ = [
    "CategoricalEncoding",
    "CompositeQuantileModel",
    "Dataset",
    "EncodedMatrix",
    "EvaluationReport",
    "FeatureSchema",
    "LinearQuantileModel",
    "RidgeModel",
    "SyntheticSpec",
    "benchmark",
    "count_parameters",
    "cross_validate",
    "encode",
    "fit_composite",
    "fit_quantile",
    "fit_ridge",
    "generate_synthetic",
    "grid_search",
    "interval_coverage",
    "mean_ae",
    "median_ae",
    "predict_linear",
    "predict_quantile",
    "split_kfold",
]

__version__ = "0.1.0"
