"""Compare two sets of benchmark result files, or report the spread of one set.

    python3 perfbench/compare.py PARENT_DIR            # spread of one set
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR # parent vs change

Each argument is a directory of result files written by run.py (or a
single file). Untraced runs are compared per workload and metric:

- gain: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ, in the better direction, by more
  than the parent's interquartile range;
- regression: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
- unresolved: the run-to-run spread (interquartile range over median, the
  larger of the two sides) is wider than the bound, unless every change
  run beats every parent run;
- otherwise: no regression.

Pairs are formed in start order. Run parent and change alternately, with
the same seeds and --seconds on both sides, at least ten pairs; the report
says whether the pairs alternated. Traced runs, if both sides have them,
are listed per layer metric as medians without a verdict.

Exit status is 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Raw wall times are not in BENCHMARK.json (see run.py); they are held to
# the bound of total_ref. Alternating pairs cancel most of the host's drift.
DETAIL_METRICS = {
    "total_s": "lower",
    "extract_s": "lower",
    "extract_mb_per_s": "higher",
    "analyze_s": "lower",
    "communities_s": "lower",
}


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return sorted(records, key=lambda r: r["started"])


def metric_rules() -> dict[str, tuple[str, float]]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for name, better in DETAIL_METRICS.items():
        rules[name] = (better, rules["total_ref"][1])
    return rules


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def _by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def _values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def spread_report(records: list[dict], rules: dict) -> None:
    for workload, runs in sorted(_by_workload(records, 0).items()):
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed iterations")
        for metric, (_, bound) in rules.items():
            values = _values(runs, metric)
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            spread = relative_spread(values)
            status = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {metric:18} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f} (bound {bound})  {status}")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, str]:
    sign = 1.0 if better == "lower" else -1.0  # positive = change better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (p_med - c_med)
    note = f"wins {wins}/{len(pairs)}"
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > (p_q3 - p_q1):
        return "gain", note
    worse_by = -gain / abs(p_med) if p_med else 0.0
    if worse_by > bound:
        return "regression", note
    spread = max(relative_spread(parent), relative_spread(change))
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", f"{note}, spread {spread:.3f} > bound {bound}"
    return "no regression", note


def compare_report(parent_records: list[dict], change_records: list[dict], rules: dict) -> int:
    regressions = 0
    parent_sets = _by_workload(parent_records, 0)
    change_sets = _by_workload(change_records, 0)
    for workload in sorted(set(parent_sets) & set(change_sets)):
        p_runs, c_runs = parent_sets[workload], change_sets[workload]
        n = min(len(p_runs), len(c_runs))
        firsts = ["parent" if p["started"] < c["started"] else "change"
                  for p, c in zip(p_runs, c_runs)]
        alternated = all(a != b for a, b in zip(firsts, firsts[1:]))
        p_failed = sum(r["failed"] for r in p_runs[:n])
        c_failed = sum(r["failed"] for r in c_runs[:n])
        print(f"{workload}: {n} pairs, alternated: {'yes' if alternated else 'no'}, "
              f"failed iterations parent {p_failed} / change {c_failed}")
        if c_failed > p_failed:
            print("  more failures than the parent: no gain counts")
            regressions += 1
        for metric, (better, bound) in rules.items():
            parent = _values(p_runs[:n], metric)
            change = _values(c_runs[:n], metric)
            if not parent or len(parent) != len(change):
                continue
            word, note = verdict(parent, change, better, bound)
            if word == "gain" and c_failed > p_failed:
                word = "no regression"
            regressions += word == "regression"
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            print(f"  {metric:18} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
                  f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  {word} ({note})")
    traced_p = _by_workload(parent_records, 1)
    traced_c = _by_workload(change_records, 1)
    for workload in sorted(set(traced_p) & set(traced_c)):
        print(f"{workload} (traced, medians over runs):")
        names = traced_p[workload][0]["metrics"]
        for metric in names:
            p = _values(traced_p[workload], metric)
            c = _values(traced_c[workload], metric)
            if p and c:
                print(f"  {metric:44} parent {statistics.median(p):.6g}  change {statistics.median(c):.6g}")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    rules = metric_rules()
    parent = load(Path(argv[0]))
    if len(argv) == 1:
        spread_report(parent, rules)
        return 0
    return compare_report(parent, load(Path(argv[1])), rules)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
