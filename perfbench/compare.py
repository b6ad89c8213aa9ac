"""Compare benchmark records of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RECORDS CHANGE_RECORDS

Each argument is a directory of untraced records written by ``run.py``
(``.bench_work/records/`` or ``--record``). Runs are paired by workload and
seed; only seeds present on both sides are compared. For every workload and
end-to-end metric the tool prints each side's median and quartiles, the share
of pairs the change won, and a verdict under the bounds in BENCHMARK.json:

* improved   - the change won at least 9 of 10 pairs (and at least 10 pairs
               were run) and the medians differ by more than the parent's
               inter-quartile distance;
* no worse   - the change's median is within the metric's bound of the
               parent's, or every change run beats every parent run;
* worse      - the change's median is worse by more than the bound;
* unresolved - a side's spread is wider than the bound, so the bound cannot
               decide.

Exits 1 when any metric is worse, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(directory: Path) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value, from untraced records."""
    out: dict[str, dict[int, dict[str, float]]] = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") != 0:
            continue
        metrics = record["result"]["metrics"]
        out[record["workload"]][int(record["seed"])] = {k: m["value"] for k, m in metrics.items()}
    return out


def compare(parent: dict, change: dict, end_to_end: list[dict]) -> list[dict]:
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if not seeds:
            continue
        for spec in end_to_end:
            name = spec["name"]
            p = [parent[workload][s][name] for s in seeds]
            c = [change[workload][s][name] for s in seeds]
            wins, pairs = stats.pair_wins(p, c, spec["better"])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": spec["unit"],
                    "parent": stats.quartiles(p),
                    "change": stats.quartiles(c),
                    "wins": wins,
                    "pairs": pairs,
                    "verdict": stats.verdict(p, c, spec["better"], spec["bound"]),
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark records.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    rows = compare(load_records(args.parent), load_records(args.change), spec["end_to_end"])
    if not rows:
        print("no workload and seed present in both record sets", file=sys.stderr)
        return 2

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':<16} {'metric':<12} {'unit':<5} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'won':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<16} {row['metric']:<12} {row['unit']:<5} {fmt(row['parent']):<30} "
              f"{fmt(row['change']):<30} {row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
