"""Compare two result sets of the benchmark, one row per workload and metric.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py`` writes (``--results``), one per
workload, seed and trace setting.  For every workload and metric present in
both sets the table shows each side's median and quartiles over its runs and
the ratio of the new median to the base median.  Whether a ratio above 1 is
better or worse depends on the metric's ``better`` direction, shown beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` from one result directory."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        metrics = out.setdefault(record["workload"], {})
        for name, entry in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rows(base, new, better: dict[str, str]):
    for workload in sorted(set(base) & set(new)):
        for metric in sorted(set(base[workload]) & set(new[workload])):
            b, n = base[workload][metric], new[workload][metric]
            bq, nq = quartiles(b), quartiles(n)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            yield workload, metric, better.get(metric, "?"), len(b), bq, len(n), nq, ratio


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    if not set(base) & set(new):
        print("compare: the two result sets share no workload", file=sys.stderr)
        return 1
    print("ratio = new median / base median")
    header = ("workload", "metric", "better", "base n", "base q1 / median / q3",
              "new n", "new q1 / median / q3", "ratio")
    print(" | ".join(header))
    for workload, metric, direction, bn, bq, nn, nq, ratio in rows(base, new, better):
        print(" | ".join([
            workload, metric, direction, str(bn), " / ".join(f"{v:.6g}" for v in bq),
            str(nn), " / ".join(f"{v:.6g}" for v in nq), f"{ratio:.4f}",
        ]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
