"""Compare two benchmark result files, workload by workload.

    python3 bench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file is a ``runs.jsonl`` written by ``bench/run.py`` (one run per
line, any mix of workloads and seeds).  For every workload and metric
the table gives each side's median, quartiles and run count, and the
spread: the distance between the quartiles as a share of the median.
End-to-end metrics (untraced runs) get a verdict against the bound in
``BENCHMARK.json``:

* ``worse``: the change's median is worse than the base's by more than
  the bound, and the spread of both sides is within the bound, or every
  change run is worse than every base run;
* ``unresolved``: a side's spread is wider than the bound, unless every
  change run reads better than every base run;
* ``within bound`` otherwise.

Per-layer metrics (traced runs) have no bound; counts that differ
between the two files are marked ``count changed``.  With one file, the
table shows its medians and spreads only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> dict[tuple[str, int], list[dict]]:
    """Metric values per (workload, trace flag), one dict per run."""
    groups: dict[tuple[str, int], list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                values = {k: m["value"] for k, m in run["metrics"].items()}
                groups.setdefault((run["workload"], run["trace"]), []).append(values)
    return groups


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], change: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    worse_by = sign * (summary(change)[0] - summary(base)[0]) / abs(summary(base)[0])
    base_cost = [sign * v for v in base]
    change_cost = [sign * v for v in change]
    all_better = max(change_cost) < min(base_cost)
    all_worse = min(change_cost) > max(base_cost)
    if max(spread(base), spread(change)) > bound:
        if all_better:
            return "within bound"
        return "worse" if all_worse and worse_by > bound else "unresolved"
    return "worse" if worse_by > bound else "within bound"


def fmt(values: list[float]) -> str:
    med, q1, q3 = summary(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = load_runs(args.base)
    change = load_runs(args.change) if args.change else {}

    header = ["workload", "metric", "base median [q1, q3]", "spread"]
    if args.change:
        header += ["change median [q1, q3]", "spread", "diff", "verdict"]
    rows = [header]
    worse = 0
    for (workload, trace), runs in sorted(base.items()):
        other = change.get((workload, trace), [])
        for name in runs[0]:
            a = [r[name] for r in runs if r.get(name) is not None]
            if not a:
                continue
            row = [workload, name, fmt(a), f"{spread(a):.3f}"]
            b = [r[name] for r in other if r.get(name) is not None]
            if args.change and b:
                diff = (summary(b)[0] - summary(a)[0]) / abs(summary(a)[0]) \
                    if summary(a)[0] else 0.0
                if not trace:
                    m = bounds[name]
                    v = verdict(a, b, m["bound"], m["better"] == "lower")
                    worse += v == "worse"
                elif not name.endswith(("_s", "_frac", "_ratio")):
                    v = "count changed" if set(a) != set(b) else "same count"
                else:
                    v = "no bound"
                row += [fmt(b), f"{spread(b):.3f}", f"{diff:+.1%}", v]
            elif args.change:
                row += ["-", "-", "-", "missing"]
            rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
