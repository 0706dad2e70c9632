"""Compare two BENCH_<tag>.json files, a parent's and a change's, seed by seed.

    python scripts/bench_compare.py BENCH_pr27-parent.json BENCH_pr27.json

For every workload the two files share, and every end-to-end metric, the
script pairs the two sides' runs by seed and prints each side's median and
quartiles (`statistics.quantiles(n=4)`), the ratio of the change's median to
the parent's, the pairs the change won (ties count for neither side) and
whether a gain may be claimed: the change won at least nine tenths of the
pairs, and its median is better than the parent's by more than the parent's
interquartile range. Whether lower or higher is better comes from the
`end_to_end` list of the BENCHMARK.json at the root of this repository.

It also prints each side's line count of the `.py` files under `src/`
(`src_lines`; "n/a" in a file recorded before it was kept) and, per
workload, every traced `.calls` count that differs between the two files
at a seed both traced, or "traced counts equal". Then it prints the traced
medians of each per-layer `<name>.s` over `kernel_s` (each traced seed's
ratio, the median over its repeats, then the median over the seeds), for
the layers where either side is nonzero. Next to each it prints both
sides' min-max of that ratio over the traced seeds, and marks the layer
`inside spread` when the two ranges overlap: a median ratio away from 1 on
such a layer is no change. A file recorded before traced seeds were
repeated holds one run per seed, read as a single repeat. The script reads
the two files only and never imports partqr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
WIN_SHARE = 0.9


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from a BENCHMARK.json document."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def compare_metric(base: dict, head: dict, better: str) -> dict:
    """One metric's comparison of two {seed: value} maps, over their shared seeds."""
    seeds = sorted(set(base) & set(head), key=int)
    if not seeds:
        raise ValueError("the two files share no seed")
    a = [float(base[s]) for s in seeds]
    b = [float(head[s]) for s in seeds]
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    lost = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    (ma, q1a, q3a), (mb, q1b, q3b) = _spread(a), _spread(b)
    iqr = q3a - q1a
    gain = won >= math.ceil(WIN_SHARE * len(seeds)) and sign * (ma - mb) > iqr
    return {
        "pairs": len(seeds),
        "base": (ma, q1a, q3a),
        "head": (mb, q1b, q3b),
        "ratio": mb / ma if ma else math.nan,
        "won": won,
        "lost": lost,
        "base_iqr": iqr,
        "gain": gain,
    }


def compare(base_doc: dict, head_doc: dict, better: dict[str, str]) -> dict:
    """{workload: {metric: compare_metric(...)}} for the workloads both
    documents hold; `better` maps each metric to "lower" or "higher"."""
    out = {}
    for workload, base in base_doc["workloads"].items():
        head = head_doc["workloads"].get(workload)
        if head is None:
            continue
        names = next(iter(base["seeds"].values()))["metrics"]
        out[workload] = {
            name: compare_metric(
                {s: run["metrics"][name] for s, run in base["seeds"].items()},
                {s: run["metrics"][name] for s, run in head["seeds"].items()},
                better[name],
            )
            for name in names
        }
    return out


def _repeats(doc: dict, workload: str) -> dict[str, list[dict]]:
    """{seed: its traced runs}; a run stored alone is one repeat."""
    seeds = doc["workloads"][workload].get("traced", {}).get("seeds", {})
    return {seed: runs if isinstance(runs, list) else [runs] for seed, runs in seeds.items()}


def _traced(doc: dict, workload: str) -> dict[str, list[float]]:
    """Each traced seed's `<layer>.s / kernel_s`, the median over its
    repeats, per layer."""
    ratios: dict[str, list[float]] = {}
    for runs in _repeats(doc, workload).values():
        names = [name for name in runs[0]["metrics"] if name.endswith(".s")]
        for name in names:
            ratios.setdefault(name, []).append(
                statistics.median(r["metrics"][name] / r["metrics"]["kernel_s"] for r in runs)
            )
    return ratios


def calls_differences(base_doc: dict, head_doc: dict, workload: str) -> list[tuple]:
    """(name, seed, base count, head count) of every traced `.calls` count
    that differs at a seed both files traced; a count one file lacks is None.
    A seed's repeats agree on their counts, so its first run stands for it."""
    base, head = _repeats(base_doc, workload), _repeats(head_doc, workload)
    out = []
    for seed in sorted(set(base) & set(head), key=int):
        a, b = base[seed][0]["metrics"], head[seed][0]["metrics"]
        for name in sorted(n for n in set(a) | set(b) if n.endswith(".calls")):
            if a.get(name) != b.get(name):
                out.append((name, seed, a.get(name), b.get(name)))
    return out


def traced_ratios(doc: dict, workload: str) -> dict[str, float]:
    """Median over the traced seeds of each `<layer>.s / kernel_s`."""
    return {name: statistics.median(values) for name, values in _traced(doc, workload).items()}


def traced_ranges(doc: dict, workload: str) -> dict[str, tuple[float, float]]:
    """(min, max) over the traced seeds of each `<layer>.s / kernel_s`."""
    return {name: (min(values), max(values)) for name, values in _traced(doc, workload).items()}


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def report(base_doc: dict, head_doc: dict, better: dict[str, str]) -> list[str]:
    """The printed lines."""
    base_tag, head_tag = base_doc.get("tag", "base"), head_doc.get("tag", "head")
    lines = [
        f"{base_tag} -> {head_tag}: median [q1, q3]; ratio = {head_tag} / {base_tag}",
        f"src lines: {base_doc.get('src_lines', 'n/a')} -> {head_doc.get('src_lines', 'n/a')}",
    ]
    for workload, metrics in compare(base_doc, head_doc, better).items():
        lines.append(f"{workload}")
        for name, c in metrics.items():
            (ma, q1a, q3a), (mb, q1b, q3b) = c["base"], c["head"]
            lines.append(
                f"  {name}: {_fmt(ma)} [{_fmt(q1a)}, {_fmt(q3a)}] -> {_fmt(mb)} [{_fmt(q1b)}, "
                f"{_fmt(q3b)}]  ratio {c['ratio']:.3f}  won {c['won']}/{c['pairs']} "
                f"(lost {c['lost']})  parent IQR {_fmt(c['base_iqr'])}  "
                f"gain {'yes' if c['gain'] else 'no'}"
            )
        if set(_repeats(base_doc, workload)) & set(_repeats(head_doc, workload)):
            differences = calls_differences(base_doc, head_doc, workload)
            for name, seed, count_a, count_b in differences:
                lines.append(f"  traced count differs: {name} seed {seed}: {count_a} -> {count_b}")
            if not differences:
                lines.append("  traced counts equal")
        a, b = traced_ratios(base_doc, workload), traced_ratios(head_doc, workload)
        shown = [name for name in sorted(set(a) & set(b)) if a[name] or b[name]]
        if shown:
            lines.append("  traced s / kernel_s (median over traced seeds):")
        ra, rb = traced_ranges(base_doc, workload), traced_ranges(head_doc, workload)
        for name in shown:
            ratio = f"{b[name] / a[name]:.3f}" if a[name] else "n/a"
            (lo_a, hi_a), (lo_b, hi_b) = ra[name], rb[name]
            inside = "  inside spread" if lo_a <= hi_b and lo_b <= hi_a else ""
            lines.append(
                f"    {name}: {a[name]:.4f} -> {b[name]:.4f}  ratio {ratio}  "
                f"min-max {lo_a:.4f}-{hi_a:.4f} -> {lo_b:.4f}-{hi_b:.4f}{inside}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the parent's BENCH file")
    parser.add_argument("head", help="the change's BENCH file")
    args = parser.parse_args(argv)
    better = directions(_load(BENCHMARK))
    print("\n".join(report(_load(args.base), _load(args.head), better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
