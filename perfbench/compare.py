#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD.jsonl [NEW.jsonl]

Each file holds the JSON lines that `perfbench/run.py --record FILE` appends,
one per run.  For every workload and metric the command prints each set's
median and quartiles over its runs (statistics.quantiles, n=4), the spread
(the distance between the quartiles as a share of the median) and, given two
sets, whether they agree within the metric's bound from BENCHMARK.json.

End-to-end metrics (--trace 0 runs) carry bounds.  Per-layer metrics
(--trace 1 runs) have none; their change is printed without a verdict.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(trace, workload): {metric: [values]}} and each group's run count."""
    groups = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            g = groups.setdefault((r["trace"], r["workload"]), {})
            for name, m in r["result"]["metrics"].items():
                g.setdefault(name, []).append(m["value"])
    return groups


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_share(old, new, better):
    """How much worse new is than old, as a share of old (negative: better)."""
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    d = (new - old) / abs(old)
    return -d if better == "higher" else d


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load(p) for p in sys.argv[1:]]
    keys = sorted(set().union(*sets))
    disagree = 0
    for trace, workload in keys:
        print("== %s (%s)" % (workload, "traced" if trace else "untraced"))
        print("%-32s %-40s %-40s %s" % ("metric", "A median [q1, q3] spread",
                                        "B median [q1, q3] spread", "verdict"))
        for name, m in spec.items():
            cols, meds = [], []
            for s in sets:
                xs = s.get((trace, workload), {}).get(name)
                if not xs:
                    cols.append("-")
                    continue
                q1, q2, q3 = quartiles(xs)
                meds.append(q2)
                cols.append("%.6g [%.6g, %.6g] %.1f%% n=%d"
                            % (q2, q1, q3, 100 * spread(xs), len(xs)))
            if len(meds) == 0:
                continue
            verdict = ""
            if "bound" in m:
                verdict = "spread %s bound %.0f%%" % (
                    "within" if all(spread(s[(trace, workload)][name]) <= m["bound"]
                                    for s in sets if (trace, workload) in s) else "OVER",
                    100 * m["bound"])
            if len(meds) == 2:
                w = worse_share(meds[0], meds[1], m["better"])
                if "bound" not in m:
                    verdict = "B %+.1f%% vs A" % (-100 * w)
                elif w > m["bound"]:
                    verdict = "B WORSE by %.1f%%; %s" % (100 * w, verdict)
                    disagree += 1
                elif -w > m["bound"]:
                    verdict = "B better by %.1f%%; %s" % (-100 * w, verdict)
                    disagree += 1
                else:
                    verdict = "agree (%+.1f%%); %s" % (-100 * w, verdict)
            print("%-32s %-40s %-40s %s" % (name, cols[0], cols[1] if len(cols) > 1 else "",
                                            verdict))
    if len(sets) == 2:
        print("%d end-to-end metric(s) differ beyond their bound" % disagree)
        sys.exit(1 if disagree else 0)


if __name__ == "__main__":
    main()
