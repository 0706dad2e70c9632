"""Benchmark the full model zoo on synthetic cascading-delay data.

Generates a dataset with a known ground truth, grid-searches every model, and
prints the comparison table (Median AE / Mean AE / parameter count / interval
coverage). Use --full for the complete default grids; the trimmed grids keep
a laptop run under a minute or two.
"""

import argparse
import sys

from partqr.evaluation import benchmark
from partqr.models import MODEL_NAMES
from partqr.synthetic import SyntheticSpec, generate_synthetic

TRIMMED_GRIDS = {
    "ridge": {"lam": [0.01, 0.1, 1.0]},
    "quantile": {"lam": [0.01, 0.1, 1.0]},
    "decision_tree": {"max_depth": [2, 4, 8], "min_samples_split": [10, 30]},
    "random_forest": {"max_depth": [4, 8], "min_samples_split": [10], "n_trees": [50]},
    "qrf": {"max_depth": [4, 8], "min_samples_split": [10], "n_trees": [50]},
    "gradient_boosting": {"n_stages": [50], "learning_rate": [0.1]},
    "quantile_tree": {"lam": [0.1], "max_depth": [2, 4], "min_samples_split": [10, 30]},
    "piecewise_qr": {"lam": [0.1], "n_clusters": [2, 4]},
    "piecewise_rr": {"lam": [0.1], "n_clusters": [2, 4]},
    "nn_qr": {"lam": [0.1], "n_neighbors": [50, 100]},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1200, help="number of synthetic projects")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--contamination", type=float, default=0.05, help="long-tail probability")
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--full", action="store_true", help="use the full default grids")
    parser.add_argument(
        "--models", nargs="*", default=list(MODEL_NAMES), help="subset of models to run"
    )
    parser.add_argument("--report-json", default=None)
    args = parser.parse_args()

    spec = SyntheticSpec(n_projects=args.n, seed=args.seed, contamination=args.contamination)
    dataset = generate_synthetic(spec)
    print(f"generated {dataset.n_rows} projects (seed {args.seed})")

    grids = {} if args.full else TRIMMED_GRIDS
    report = benchmark(dataset, args.models, grids=grids, k=args.folds, seed=args.seed)
    print()
    print(report.to_text())
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"JSON report written to {args.report_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
