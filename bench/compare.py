"""Judge sets of benchmark runs (files written by collect.py).

    python3 bench/compare.py spread RUNS.json
    python3 bench/compare.py diff PARENT.json CHANGE.json

``spread`` gives, per workload and end-to-end metric, the median, the
quartiles and the spread (quartile distance over median) against the
metric's bound from BENCHMARK.json.  It exits 1 if a spread other than
setup_s exceeds its bound or a run was not correct.

``diff`` pairs the runs of two sets by workload and seed (in seed order
when the sets used different seeds) and gives one verdict per workload
and metric:

* regression - the change's median is worse than the parent's by more
  than the bound;
* unresolved - not a regression, but the spread of either set exceeds
  the bound, and the change's runs do not all beat the parent's;
* gain       - the change wins at least 9/10 of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  quartile distance;
* same       - none of the above.

It exits 1 on any regression or unresolved verdict.  Failed requests are
listed per set, since a gain does not count when more requests fail.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, metric): {seed: value}} and {workload: (attempted, failed)}."""
    values, errors = {}, {}
    for run in json.loads(Path(path).read_text())["runs"]:
        w, result = run["workload"], run["result"]
        attempted, failed = errors.get(w, (0, 0))
        errors[w] = (attempted + result["attempted"], failed + result["failed"])
        for name, metric in result["metrics"].items():
            values.setdefault((w, name), {})[run["seed"]] = metric["value"]
    return values, errors


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], [w["name"] for w in spec["workloads"]]


def print_errors(label, errors):
    for w, (attempted, failed) in errors.items():
        print(f"{label}: {w} failed {failed} of {attempted} requests")


def cmd_spread(args) -> int:
    values, errors = load(args.runs)
    metrics, workloads = metrics_and_workloads()
    bad = any(failed for _, failed in errors.values())
    print(f"{'workload':9s} {'metric':15s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  status")
    for w in workloads:
        for m in metrics:
            vals = list(values.get((w, m["name"]), {}).values())
            if len(vals) < 2:
                continue
            median, q1, q3, spread = summary(vals)
            if spread < m["bound"] / 3:
                status = "steady"
            elif spread <= m["bound"]:
                status = "within bound"
            else:
                status = "too wide" + (" (exempt)" if m["name"] == "setup_s" else "")
                bad = bad or m["name"] != "setup_s"
            print(f"{w:9s} {m['name']:15s} {len(vals):3d} {median:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:7.4f} {m['bound']:6.3f}  {status}")
    print_errors("runs", errors)
    return 1 if bad else 0


def verdict(metric, parent: dict, change: dict) -> tuple[str, str]:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mp, q1p, q3p, spread_p = summary(list(parent.values()))
    mc, _, _, spread_c = summary(list(change.values()))
    worse_by = (mc - mp) / mp if lower else (mp - mc) / mp

    def better(c, p):
        return c < p if lower else c > p

    # Pair runs of the same seed; sets run on different seeds pair in seed order.
    common = sorted(set(parent) & set(change))
    pairs = ([(parent[s], change[s]) for s in common] if common else
             [(parent[p], change[c]) for p, c in zip(sorted(parent), sorted(change))])
    wins = sum(better(c, p) for p, c in pairs)
    losses = sum(better(p, c) for p, c in pairs)
    all_better = all(better(c, p) for c in change.values() for p in parent.values())
    detail = (f"parent {mp:.5g} change {mc:.5g} worse_by {worse_by:+.4f} "
              f"spread {spread_p:.4f}/{spread_c:.4f} pairs won {wins}-{losses} of {len(pairs)}")
    if worse_by > bound:
        return "regression", detail
    if max(spread_p, spread_c) > bound and not all_better:
        return "unresolved", detail
    if worse_by < 0 and pairs and wins >= 0.9 * len(pairs) and abs(mc - mp) > q3p - q1p:
        return "gain", detail
    return "same", detail


def cmd_diff(args) -> int:
    parent, parent_errors = load(args.parent)
    change, change_errors = load(args.change)
    metrics, workloads = metrics_and_workloads()
    bad = False
    for w in workloads:
        for m in metrics:
            key = (w, m["name"])
            if len(parent.get(key, {})) < 2 or len(change.get(key, {})) < 2:
                continue
            v, detail = verdict(m, parent[key], change[key])
            bad = bad or v in ("regression", "unresolved")
            print(f"{w:9s} {m['name']:15s} {v:11s} {detail}")
    print_errors("parent", parent_errors)
    print_errors("change", change_errors)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("spread", help="spread of one set against the bounds")
    sp.add_argument("runs")
    sp.set_defaults(func=cmd_spread)
    df = sub.add_parser("diff", help="verdict per workload and metric")
    df.add_argument("parent")
    df.add_argument("change")
    df.set_defaults(func=cmd_diff)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
