"""Compare two sets of benchmark records, one row per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by ``run.py`` (``perfbench/out/records``
by default; copy them aside between commits).  For every workload and metric
present in both sets the row shows each side's median and quartiles, the
ratio new/base with its base, and a verdict under the bounds in
``BENCHMARK.json``:

* ``unresolved``: either side has fewer than ``MIN_RECORDS`` records, or
  either side's spread (quartile distance over median) exceeds the metric's
  bound, unless every new run reads better than every base run and the
  medians differ by more than the base's spread;
* ``worse``: the new median is worse than the base median by more than the
  bound;
* ``better``: the new median is better by more than the base's own spread;
* ``same``: none of these.

Per-layer metrics (traced runs) have no bound; their rows show ``-``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_RECORDS = 10  # per side; with fewer, quartiles say little about the spread


def load(directory: Path) -> dict:
    """{(workload, metric): [values]} from every record in ``directory``."""
    values: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    if len(base) < MIN_RECORDS or len(new) < MIN_RECORDS:
        return "unresolved"
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if not bm or not nm:
        return "unresolved"
    base_spread = (b3 - b1) / abs(bm)
    sign = 1 if lower_is_better else -1
    worse_by = sign * (nm - bm) / abs(bm)
    better = -worse_by > base_spread
    every_run_better = max(new) < min(base) if lower_is_better else min(new) > max(base)
    if every_run_better and better:
        return "better"
    if base_spread > bound or (n3 - n1) / abs(nm) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if better:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':14} {'metric':36} {'base median [q1, q3]':34} "
          f"{'new median [q1, q3]':34} {'ratio new/base':28} verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b1, bm, b3 = quartiles(base[key])
        n1, nm, n3 = quartiles(new[key])
        ratio = f"{nm / bm:.3f} (base {bm:.4g})" if bm else "- (base 0)"
        spec_metric = bounds.get(name)
        if spec_metric is None:
            result = "-"
        else:
            result = verdict(base[key], new[key], spec_metric["bound"],
                             spec_metric["better"] == "lower")
        print(f"{workload:14} {name:36} "
              f"{f'{bm:.4g} [{b1:.4g}, {b3:.4g}] n={len(base[key])}':34} "
              f"{f'{nm:.4g} [{n1:.4g}, {n3:.4g}] n={len(new[key])}':34} {ratio:28} {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
