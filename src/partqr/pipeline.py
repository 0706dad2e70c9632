"""Preprocessing: date/zip/climate features, milestone wrangling, feature
selection, lag construction, imputation, and trace ingestion.

Everything here is a pure transformation; statistics that could leak (medians,
caps) are learned from training rows only and applied elsewhere.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from datetime import date, datetime, timezone

import numpy as np
from scipy.special import chdtrc

from .data import Dataset, FeatureSchema, NumericColumn, SchemaError, _finite_cell


@dataclass(frozen=True)
class MilestoneRecord:
    """One milestone row from a rollout export; actual_date is None while open."""

    project_id: str
    site_id: str
    milestone: str
    phase: str | None = None
    actual_date: date | None = None
    city: str | None = None
    state: str | None = None
    region: str | None = None
    market: str | None = None
    latitude: float | None = None
    longitude: float | None = None
    zip_code: str | None = None


def parse_date(value) -> date:
    if isinstance(value, datetime):
        return value.date()
    if isinstance(value, date):
        return value
    try:
        return date.fromisoformat(str(value).strip())
    except ValueError as exc:
        raise ValueError(f"unparseable date {value!r}") from exc


def derive_date_features(value) -> tuple[int, int, int]:
    """(month 1-12, quarter 1-4, year) of a calendar date."""
    d = parse_date(value)
    return d.month, (d.month + 2) // 3, d.year


def zip_region(zip_code: str) -> str:
    """First two characters of a zip/postal code; short codes pass through."""
    z = str(zip_code)
    if not z:
        raise ValueError("empty zip code")
    return z[:2]


def load_climate_table(path) -> dict[str, str]:
    """CSV with header region,climate (extra columns rejected as malformed)."""
    table = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["region", "climate"]:
            raise ValueError(f"{path}: expected header 'region,climate'")
        for row in reader:
            if len(row) != 2:
                raise ValueError(f"{path}:{reader.line_num}: malformed row {row!r}")
            table[row[0]] = row[1]
    return table


def attach_climate(region: str | None, table: dict[str, str]) -> str:
    if region is None:
        return "unknown"
    return table.get(region, "unknown")


@dataclass
class ExclusionReport:
    """Counts of projects silently skipped while building duration rows."""

    missing_milestone: int = 0
    ordering_violation: int = 0

    @property
    def total(self) -> int:
        return self.missing_milestone + self.ordering_violation


def _projects_by_id(records) -> dict[str, list[MilestoneRecord]]:
    grouped: dict[str, list[MilestoneRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.project_id, []).append(rec)
    return grouped


def _dated(recs) -> dict[str, date]:
    """First dated occurrence per milestone name within a project."""
    out: dict[str, date] = {}
    for rec in recs:
        if rec.actual_date is not None and rec.milestone not in out:
            out[rec.milestone] = rec.actual_date
    return out


def _usable_projects(records, source: str, intermediates: list[str], target: str):
    """Projects that date every listed milestone and complete no intermediate
    after the target, in project-id order, as (project_id, records, dates,
    durations): days from source to each intermediate, then to the target.

    Returns them with an ExclusionReport counting the projects skipped for a
    missing milestone or an ordering violation.
    """
    report = ExclusionReport()
    kept = []
    for project_id, recs in sorted(_projects_by_id(records).items()):
        dates = _dated(recs)
        if any(m not in dates for m in (source, *intermediates, target)):
            report.missing_milestone += 1
            continue
        if any(dates[m] > dates[target] for m in intermediates):
            report.ordering_violation += 1
            continue
        durations = tuple(float((dates[m] - dates[source]).days) for m in (*intermediates, target))
        kept.append((project_id, recs, dates, durations))
    return kept, report


def intermediate_durations(
    records,
    source: str,
    intermediates: list[str],
    target: str,
) -> tuple[list[tuple], ExclusionReport]:
    """Per project: days from source to each intermediate, and to the target.

    Projects missing any listed milestone are skipped; so are projects where
    an intermediate completes after the target (ordering violation). Skips are
    silent but counted.
    """
    projects, report = _usable_projects(records, source, intermediates, target)
    return [durations for *_, durations in projects], report


def prune_tail(dataset: Dataset, column: str, cap: float) -> tuple[Dataset, int]:
    """Drop training rows whose column value exceeds the cap (rows are removed,
    never clipped, so quantile fits stay unbiased)."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    values = dataset.numeric(column)
    kept = np.flatnonzero(values.missing | (values.data <= cap))
    if not kept.size:
        warnings.warn(f"prune_tail removed every row of {column!r} (cap={cap})")
    return dataset.subset(kept), dataset.n_rows - kept.size


def _average_ranks(values: list[date]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def rank_milestones(records) -> dict[str, list[str]]:
    """Typical milestone ordering per phase: sort by mean within-project rank
    of the completion date, ties broken by name.

    A paper artefact (the milestone-ordering analysis): only tests call it.
    """
    any_dated = False
    per_phase: dict[str, dict[str, list[float]]] = {}
    for _, recs in sorted(_projects_by_id(records).items()):
        by_phase: dict[str, list[MilestoneRecord]] = {}
        for rec in recs:
            if rec.actual_date is None:
                continue
            any_dated = True
            by_phase.setdefault(rec.phase or "", []).append(rec)
        for phase, phase_recs in by_phase.items():
            dates = _dated(phase_recs)
            names = sorted(dates)
            ranks = _average_ranks([dates[m] for m in names])
            bucket = per_phase.setdefault(phase, {})
            for name, rank in zip(names, ranks):
                bucket.setdefault(name, []).append(rank)
    if not any_dated:
        raise ValueError("no dated milestones")
    return {
        phase: sorted(stats, key=lambda m: (float(np.mean(stats[m])), m))
        for phase, stats in sorted(per_phase.items())
    }


@dataclass
class GapMatrix:
    """Aggregated day gaps between milestone pairs; cell (i, j) is j minus i."""

    milestones: tuple[str, ...]
    mean_days: np.ndarray
    median_days: np.ndarray
    support: np.ndarray

    def cell(self, a: str, b: str) -> tuple[float, float, int]:
        i = self.milestones.index(a)
        j = self.milestones.index(b)
        return (
            float(self.mean_days[i, j]),
            float(self.median_days[i, j]),
            int(self.support[i, j]),
        )


def gap_matrix(records) -> GapMatrix:
    """Mean and median day gaps between every pair of dated milestones.

    A paper artefact (the milestone-gap analysis): only tests call it.
    """
    names = sorted({rec.milestone for rec in records})
    m = len(names)
    pos = {name: i for i, name in enumerate(names)}
    gaps: dict[tuple[int, int], list[float]] = {}
    for _, recs in _projects_by_id(records).items():
        dates = _dated(recs)
        present = [n for n in names if n in dates]
        for a in present:
            for b in present:
                gaps.setdefault((pos[a], pos[b]), []).append(
                    float((dates[b] - dates[a]).days)
                )
    mean = np.full((m, m), np.nan)
    median = np.full((m, m), np.nan)
    support = np.zeros((m, m), dtype=int)
    for (i, j), vals in gaps.items():
        mean[i, j] = float(np.mean(vals))
        median[i, j] = float(np.median(vals))
        support[i, j] = len(vals)
    return GapMatrix(tuple(names), mean, median, support)


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sx, sy = np.std(x), np.std(y)
    if sx == 0 or sy == 0:
        return float("nan")
    return float(np.mean((x - np.mean(x)) * (y - np.mean(y))) / (sx * sy))


def select_numeric(dataset: Dataset, target: str, threshold: float) -> list[str]:
    """Keep numeric predictors with |Pearson r| vs target at or above the
    threshold. Each column is screened over the rows where its cell and the
    target cell are present; a column with fewer than two such rows, or
    zero variance on them, has undefined r and is dropped."""
    if not 0 <= threshold <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    y = dataset.numeric(target)
    kept = []
    for name in dataset.schema.numeric_predictors():
        col = dataset.numeric(name)
        rows = ~(col.missing | y.missing)
        if np.count_nonzero(rows) < 2:
            continue
        r = pearson_r(col.data[rows], y.data[rows])
        if not np.isnan(r) and abs(r) >= threshold:
            kept.append(name)
    return kept


def chi_square_statistic(table: np.ndarray) -> tuple[float, int, float]:
    """(statistic, dof, p) for an observed contingency table; all-zero rows
    and columns are dropped so no expected count is zero."""
    table = np.asarray(table, dtype=float)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    r, c = table.shape
    if r < 2 or c < 2:
        return 0.0, 0, 1.0
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(np.sum((table - expected) ** 2 / expected))
    dof = (r - 1) * (c - 1)
    # chdtrc is the survival function that scipy.stats.chi2.sf evaluates; calling
    # it directly keeps scipy.stats, and its start-up cost, out of the process
    return stat, dof, float(chdtrc(dof, stat))


def quartile_bins(y) -> np.ndarray:
    """Quartile bin index per value (0..3, fewer when quartiles coincide)."""
    y = np.asarray(y, dtype=float)
    edges = np.unique(np.quantile(y, [0.25, 0.5, 0.75]))
    return np.searchsorted(edges, y, side="left")


def select_categorical(dataset: Dataset, target: str, p_threshold: float = 0.05) -> list[str]:
    """Chi-square screen of categorical predictors against target quartiles.
    Each column is screened over the rows where its cell and the target cell
    are present, binned by the quartiles of those rows' targets."""
    y = dataset.numeric(target)
    kept = []
    for name in dataset.schema.categorical_predictors():
        cells = dataset.stored(name)
        present = np.fromiter((v is not None for v in cells), bool, len(cells))
        rows = np.flatnonzero(present & ~y.missing)
        col = [cells[i] for i in rows.tolist()]
        levels = sorted(set(col))
        if len(levels) < 2:
            continue
        bins = quartile_bins(y.data[rows])
        index = {lv: i for i, lv in enumerate(levels)}
        table = np.zeros((len(levels), int(bins.max()) + 1))
        for v, b in zip(col, bins):
            table[index[v], b] += 1
        _, dof, p = chi_square_statistic(table)
        if dof > 0 and p < p_threshold:
            kept.append(name)
    return kept


def lag_features(values, lag_count: int) -> list[tuple]:
    """Rows (y_{t-1}, ..., y_{t-L}, y_t) for t > L; the first L rows drop out."""
    if lag_count < 1:
        raise ValueError("lag_count must be at least 1")
    vals = [None if v is None else float(v) for v in values]
    if len(vals) <= lag_count:
        raise ValueError(f"series of length {len(vals)} too short for {lag_count} lags")
    rows = []
    for t in range(lag_count, len(vals)):
        lags = tuple(vals[t - i] for i in range(1, lag_count + 1))
        rows.append(lags + (vals[t],))
    return rows


@dataclass(frozen=True)
class Imputer:
    """Fold-safe imputation: numeric gaps take the training median, categorical
    gaps become the level "missing", all-missing columns are dropped."""

    numeric_fill: dict[str, float]
    dropped_columns: tuple[str, ...]
    dropped_target_rows: int = 0

    def transform(self, dataset: Dataset) -> Dataset:
        schema = dataset.schema
        keep = [
            (name, kind)
            for name, kind in schema.columns
            if name not in self.dropped_columns
        ]
        new_schema = FeatureSchema(tuple(keep), schema.target, schema.weight_units)
        target = dataset.numeric(schema.target)
        if target.missing.any():
            dataset = dataset.subset(np.flatnonzero(~target.missing))
        return fill_missing(dataset.project(new_schema), fill_values(new_schema, self.numeric_fill))


def fill_values(schema: FeatureSchema, numeric_fill: dict[str, float]) -> dict:
    """What an empty predictor cell of `schema` becomes, by column: a numeric
    column's training median from `numeric_fill`, a categorical column the
    level "missing"."""
    return {
        name: numeric_fill[name] if kind == "numeric" else "missing"
        for name, kind in schema.columns
        if name != schema.target
    }


def fill_missing(dataset: Dataset, fill: dict) -> Dataset:
    """`dataset` with each empty cell of a column that `fill` names set to
    its fill value; cells of other columns stay empty, and no row is dropped."""
    columns = []
    for (name, _), column in zip(dataset.schema.columns, dataset.columns):
        value = fill.get(name)
        if value is not None and isinstance(column, NumericColumn):
            column = column.filled(value)
        elif value is not None and None in column:
            column = tuple(value if v is None else v for v in column)
        columns.append(column)
    return Dataset.from_columns(dataset.schema, columns)


def fit_imputer(dataset: Dataset) -> Imputer:
    schema = dataset.schema
    fill: dict[str, float] = {}
    dropped: list[str] = []
    for (name, kind), column in zip(schema.columns, dataset.columns):
        if name == schema.target:
            continue
        if isinstance(column, NumericColumn):
            present = column.data[~column.missing]
        else:
            present = [v for v in column if v is not None]
        if not len(present):
            dropped.append(name)
            warnings.warn(f"column {name!r} is entirely missing; dropping it")
            continue
        if kind == "numeric":
            fill[name] = float(np.median(present))
    n_missing_target = int(np.count_nonzero(dataset.numeric(schema.target).missing))
    return Imputer(
        numeric_fill=fill,
        dropped_columns=tuple(dropped),
        dropped_target_rows=n_missing_target,
    )


def impute(dataset: Dataset) -> Dataset:
    """Fit-and-apply convenience; cross-validation fits on the training fold
    and applies the same imputer to the test fold instead."""
    return fit_imputer(dataset).transform(dataset)


def read_milestone_csv(path, delimiter: str = ",") -> list[MilestoneRecord]:
    """Load milestone records; only project_id/site_id/milestone are mandatory,
    and columns that no record field reads are ignored.

    A bad `actual_date`, `latitude` or `longitude` cell raises SchemaError
    naming the path, the line and the column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        required = {"project_id", "site_id", "milestone"}
        missing = required - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        records = []
        for row in reader:
            def get(key):
                v = row.get(key, "")
                return v if v not in ("", None) else None

            def coordinate(key):
                v = get(key)
                return None if v is None else _finite_cell(v, path, reader.line_num, key)

            def actual_date():
                v = get("actual_date")
                if v is None:
                    return None
                try:
                    return parse_date(v)
                except ValueError:
                    raise SchemaError(
                        f"{path}:{reader.line_num}: column 'actual_date': "
                        f"{v!r} is not a YYYY-MM-DD date"
                    ) from None

            records.append(
                MilestoneRecord(
                    project_id=row["project_id"],
                    site_id=row["site_id"],
                    milestone=row["milestone"],
                    phase=get("phase"),
                    actual_date=actual_date(),
                    city=get("city"),
                    state=get("state"),
                    region=get("region"),
                    market=get("market"),
                    latitude=coordinate("latitude"),
                    longitude=coordinate("longitude"),
                    zip_code=get("zip"),
                )
            )
    return records


def build_milestone_dataset(
    records,
    source: str,
    intermediates: list[str],
    target: str,
    climate_table: dict[str, str] | None = None,
) -> tuple[Dataset, ExclusionReport]:
    """Assemble the modeling table for one (source, target) milestone pair:
    site attributes, date/zip/climate features of the source completion, and
    intermediate durations in days."""
    columns: list[tuple[str, str]] = [("project_id", "identifier")]
    cat_cols = ["city", "state", "region", "market", "zip2", "climate", "month", "quarter", "year"]
    columns += [(c, "categorical") for c in cat_cols]
    columns += [("latitude", "numeric"), ("longitude", "numeric")]
    columns += [(f"{m}_days", "numeric") for m in intermediates]
    columns += [("target_days", "numeric")]
    projects, report = _usable_projects(records, source, intermediates, target)
    cells: list[list] = [[] for _ in columns]
    for project_id, recs, dates, durations in projects:
        site = recs[0]
        month, quarter, year = derive_date_features(dates[source])
        row = (
            project_id,
            site.city,
            site.state,
            site.region,
            site.market,
            zip_region(site.zip_code) if site.zip_code else None,
            attach_climate(site.state or site.region, climate_table or {}),
            str(month),
            str(quarter),
            str(year),
            site.latitude,
            site.longitude,
            *durations,
        )
        for column, cell in zip(cells, row):
            column.append(cell)
    schema = FeatureSchema(tuple(columns), target="target_days", weight_units="days")
    return Dataset.from_columns(schema, cells), report


GWA_NUMERIC_COLUMNS = (
    "CPU capacity provisioned [MHZ]",
    "Memory capacity provisioned [KB]",
    "Memory usage [KB]",
    "Disk read throughput [KB/s]",
    "Disk write throughput [KB/s]",
    "Network received throughput [KB/s]",
    "Network transmitted throughput [KB/s]",
)
GWA_TARGET = "CPU usage [MHZ]"
GWA_TIMESTAMP = "Timestamp [ms]"
GWA_CORES = "CPU cores"


def read_gwa_trace(path, delimiter: str = ";") -> dict[str, list]:
    """One VM KPI trace as {column: values}; numeric columns parsed to float.

    A cell that is not a finite number raises SchemaError naming the path,
    the line and the column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = [h.strip() for h in next(reader)]
        if GWA_TIMESTAMP not in header or GWA_TARGET not in header:
            raise ValueError(f"{path}: not a KPI trace (missing timestamp or target)")
        data: dict[str, list] = {h: [] for h in header}
        for row in reader:
            if not row or all(v.strip() == "" for v in row):
                continue
            for h, v in zip(header, row):
                v = v.strip()
                data[h].append(_finite_cell(v, path, reader.line_num, h) if v else None)
    return data


def build_gwa_dataset(paths, lag_count: int = 3, delimiter: str = ";") -> Dataset:
    """Per-VM modeling rows: KPI columns, hour/day-of-week and core count as
    categoricals, and lag_count lags of the usage target. Lags never cross a
    VM boundary (each trace file is one VM)."""
    columns: list[tuple[str, str]] = [("vm", "identifier")]
    columns += [("hour_of_day", "categorical"), ("day_of_week", "categorical")]
    columns += [(GWA_CORES, "categorical")]
    lag_names = [f"usage_lag_{i}" for i in range(1, lag_count + 1)] + ["usage"]
    numeric_present: list[str] | None = None
    # each trace's columns by name; a KPI column is kept if every trace has it
    traces = []
    for path in paths:
        data = read_gwa_trace(path, delimiter=delimiter)
        present = [c for c in GWA_NUMERIC_COLUMNS if c in data]
        if numeric_present is None:
            numeric_present = present
        else:
            numeric_present = [c for c in numeric_present if c in present]
        target_vals = data[GWA_TARGET]
        if len(target_vals) <= lag_count:
            continue
        steps = range(lag_count, len(target_vals))
        stamps = [datetime.fromtimestamp(data[GWA_TIMESTAMP][t] / 1000.0, tz=timezone.utc) for t in steps]
        cores = data.get(GWA_CORES, [None] * len(target_vals))
        trace = {
            "vm": [str(path)] * len(steps),
            "hour_of_day": [str(dt.hour) for dt in stamps],
            "day_of_week": [str(dt.weekday()) for dt in stamps],
            GWA_CORES: [None if cores[t] is None else str(int(cores[t])) for t in steps],
            **{c: data[c][lag_count:] for c in present},
            **dict(zip(lag_names, zip(*lag_features(target_vals, lag_count)))),
        }
        traces.append(trace)
    if numeric_present is None or not traces:
        raise ValueError("no usable trace rows")
    columns += [(c, "numeric") for c in numeric_present]
    columns += [(name, "numeric") for name in lag_names]
    schema = FeatureSchema(tuple(columns), target="usage", weight_units="MHZ")
    return Dataset.from_columns(
        schema, [[cell for trace in traces for cell in trace[name]] for name, _ in columns]
    )
