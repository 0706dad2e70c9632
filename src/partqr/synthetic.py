"""The synthetic cascading-delay generator and its exact conditional quantiles.

A spec (`SyntheticSpec`) fixes every parameter of the generator, so the true
conditional quantile of the target given any row of its dataset is
computable (`synthetic_true_quantile_rows`); `partqr synth` writes the spec
beside the CSV as the truth sidecar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, ndtri

from .data import Dataset, FeatureSchema, is_int, is_number


@dataclass(frozen=True)
class SyntheticSpec:
    """Cascading-delay generator: intermediate durations feed later ones, the
    target is linear in all of them plus a site-category effect, noise scales
    vary by category, and a long-tail exponential delay hits with probability
    `contamination`. Every parameter is recorded so the true conditional
    quantiles stay computable."""

    n_projects: int
    seed: int
    categories: tuple[str, ...] = ("metro", "suburban", "remote")
    category_probs: tuple[float, ...] | None = None
    category_effects: tuple[float, ...] = (0.0, 6.0, 14.0)
    noise_scales: tuple[float, ...] = (2.0, 4.0, 8.0)
    base_durations: tuple[float, ...] = (12.0, 18.0, 25.0, 15.0)
    cascade_weights: tuple[tuple[float, ...], ...] = ((), (0.4,), (0.2, 0.3), (0.1, 0.0, 0.5))
    target_coeffs: tuple[float, ...] = (0.6, 0.9, 0.5, 0.8)
    target_intercept: float = 8.0
    contamination: float = 0.0
    tail_scale: float = 40.0

    def __post_init__(self):
        """Every field has its type and range, else ValueError naming it."""
        if not (is_int(self.n_projects) and self.n_projects >= 1):
            raise ValueError(f"n_projects must be a positive integer, not {self.n_projects!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, not {self.seed!r}")
        cats = self.categories
        if not (isinstance(cats, (tuple, list)) and cats and all(isinstance(c, str) for c in cats)
                and len(set(cats)) == len(cats)):
            raise ValueError(f"categories must be distinct strings, at least one, not {cats!r}")
        _numbers("category_effects", self.category_effects, len(cats), "categories")
        _numbers("noise_scales", self.noise_scales, len(cats), "categories", low=0.0)
        if self.category_probs is not None:
            _numbers("category_probs", self.category_probs, len(cats), "categories", low=0.0)
            total = math.fsum(self.category_probs)
            if abs(total - 1.0) > _PROBS_TOL:
                raise ValueError(f"category_probs must sum to 1, not {total!r}")
        _numbers("base_durations", self.base_durations)
        _numbers("target_coeffs", self.target_coeffs, self.n_steps, "base_durations")
        rows = self.cascade_weights
        if not (isinstance(rows, (tuple, list)) and len(rows) == self.n_steps
                and all(isinstance(row, (tuple, list)) and len(row) == j for j, row in enumerate(rows))):
            raise ValueError(f"cascade_weights must be lower-triangular with one row per step, not {rows!r}")
        for row in rows:
            _numbers("cascade_weights", row, low=0.0)
        if not _finite(self.target_intercept):
            raise ValueError(f"target_intercept must be a finite number, not {self.target_intercept!r}")
        if not (_finite(self.contamination, 0.0) and self.contamination < 1):
            raise ValueError(f"contamination must lie in [0, 1), not {self.contamination!r}")
        if not (_finite(self.tail_scale) and self.tail_scale > 0):
            raise ValueError(f"tail_scale must be a positive finite number, not {self.tail_scale!r}")

    @property
    def n_steps(self) -> int:
        return len(self.base_durations)


# how far from 1 numpy's `Generator.choice` lets a sequence of probabilities sum
_PROBS_TOL = math.sqrt(np.finfo(np.float64).eps)


def _finite(value, low=-math.inf) -> bool:
    """A JSON number that is finite and at least `low` (NaN is not)."""
    return is_number(value) and low <= value < math.inf


def _numbers(name: str, values, length=None, per=None, low=-math.inf) -> None:
    """Spec field `name`, `values`, must be a sequence of `_finite` numbers
    (>= `low`), as long as field `per` (`length`) when that is given; else
    ValueError naming the field."""
    if not (isinstance(values, (tuple, list)) and all(_finite(v, low) for v in values)):
        bound = "" if low == -math.inf else f" >= {low}"
        raise ValueError(f"{name} must be a list of finite numbers{bound}, not {values!r}")
    if length is not None and len(values) != length:
        raise ValueError(f"{name} has {len(values)} values, but {per} has {length}")


def spec_from_json(doc: dict) -> SyntheticSpec:
    """The spec of a JSON object such as `partqr synth` reads and writes as
    its sidecar: every list in it, nested ones too, becomes a tuple."""

    def tuples(value):
        return tuple(map(tuples, value)) if isinstance(value, list) else value

    return SyntheticSpec(**{key: tuples(value) for key, value in doc.items()})


def synthetic_schema(spec: SyntheticSpec) -> FeatureSchema:
    columns = [("site_category", "categorical")]
    columns += [(f"step{j + 1}_days", "numeric") for j in range(spec.n_steps)]
    columns += [("target_days", "numeric")]
    return FeatureSchema(tuple(columns), target="target_days", weight_units="days")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    probs = spec.category_probs
    categories, steps, targets = [], [[] for _ in range(spec.n_steps)], []
    for _ in range(spec.n_projects):
        c = int(rng.choice(len(spec.categories), p=probs))
        sigma = spec.noise_scales[c]
        durations = []
        for base, weights in zip(spec.base_durations, spec.cascade_weights):
            d = base + sum(w * durations[i] for i, w in enumerate(weights))
            durations.append(d + rng.standard_normal() * sigma)
        target = (
            spec.target_intercept
            + sum(g * d for g, d in zip(spec.target_coeffs, durations))
            + spec.category_effects[c]
            + rng.standard_normal() * sigma
        )
        if rng.random() < spec.contamination:
            target += rng.exponential(spec.tail_scale)
        categories.append(spec.categories[c])
        for column, d in zip(steps, durations):
            column.append(d)
        targets.append(target)
    return Dataset.from_columns(synthetic_schema(spec), [categories, *steps, targets])


def _emg_cdf(s: float, sigma: float, tau: float) -> float:
    """CDF of Normal(0, sigma^2) + Exponential(mean tau) at s."""
    if sigma == 0.0:
        return float(max(0.0, 1.0 - np.exp(-s / tau))) if s > 0 else 0.0
    u = s / sigma
    v = sigma / tau
    log_term = log_ndtr(u - v) + 0.5 * v * v - s / tau
    return float(ndtr(u) - np.exp(log_term))


def mixture_cdf(s: float, sigma: float, rho: float, tau: float) -> float:
    """CDF of the target noise: Normal plus, with probability rho, an
    exponential long-tail delay."""
    base = (1.0 if s >= 0 else 0.0) if sigma == 0.0 else float(ndtr(s / sigma))
    if rho == 0.0:
        return base
    return (1.0 - rho) * base + rho * _emg_cdf(s, sigma, tau)


def mixture_quantile(alpha: float, sigma: float, rho: float, tau: float) -> float:
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if rho == 0.0:
        return 0.0 if sigma == 0.0 else float(sigma * ndtri(alpha))
    if sigma == 0.0:
        if alpha <= 1.0 - rho:
            return 0.0
        return float(-tau * np.log((1.0 - alpha) / rho))
    lo = float(sigma * ndtri(alpha)) - 1.0
    hi = max(1.0, float(sigma * ndtri(alpha))) + tau
    while mixture_cdf(hi, sigma, rho, tau) < alpha:
        hi = hi * 2 + tau
    return float(brentq(lambda s: mixture_cdf(s, sigma, rho, tau) - alpha, lo, hi, xtol=1e-12))


def synthetic_true_quantile_rows(spec: SyntheticSpec, dataset: Dataset, alpha: float) -> np.ndarray:
    """The true conditional alpha-quantile of the target given each row of a
    dataset of `synthetic_schema(spec)`'s layout: the row's mean, summed in
    the generator's order, plus its category's noise quantile."""
    names = [name for name, _ in dataset.schema.columns]
    c = np.array([spec.categories.index(v) for v in dataset.column(names[0])], dtype=np.intp)
    steps = [dataset.numeric(name).data for name in names[1 : 1 + spec.n_steps]]
    noise = [mixture_quantile(alpha, s, spec.contamination, spec.tail_scale) for s in spec.noise_scales]
    linear = sum(g * d for g, d in zip(spec.target_coeffs, steps))
    return spec.target_intercept + linear + np.asarray(spec.category_effects)[c] + np.asarray(noise)[c]
