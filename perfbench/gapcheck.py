#!/usr/bin/env python3
"""Re-measure lpbench's load and sequential-replay throughput, one program
per fresh process, and set it beside the committed BENCH_pr4.json and
BENCH_pr10.json figures.

    python3 perfbench/gapcheck.py [--repeat 7] [PROGRAM ...]

lpbench runs every phase of every workload in one process whose heap only
grows; `lpperf gap` runs the same two phases (Binio.of_string decode of the
scale-1 test trace, then Simulate.run over the five backends at one domain)
for a single program in a process of its own.  Best-of-N is lpbench's
estimator (pr4 used N=7, pr10 N=1); the median is printed beside it.
Run it from the root of a checkout; it builds the worker first.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "lpperf.exe")


def committed(rev):
    path = os.path.join(ROOT, "BENCH_%s.json" % rev)
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return {w["name"]: w for w in json.load(f)["workloads"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=7)
    p.add_argument("programs", nargs="*",
                   default=["cfrac", "espresso", "gawk", "ghost", "perl"])
    a = p.parse_args()
    subprocess.run(["dune", "build", "--root", ".", "./perfbench/lpperf.exe"],
                   cwd=ROOT, env=dict(os.environ, DUNE_CACHE="disabled"),
                   check=True, capture_output=True)
    old = {rev: committed(rev) for rev in ("pr4", "pr10")}
    print("%-9s %-10s %9s %9s %11s %11s %8s" % (
        "program", "phase", "pr4", "pr10", "fresh best", "fresh med", "heap MB"))
    for prog in a.programs:
        r = subprocess.run([EXE, "gap", "--program", prog, "--repeat", str(a.repeat)],
                           cwd=ROOT, capture_output=True, text=True, timeout=1800)
        if r.returncode != 0:
            sys.exit("lpperf gap %s failed: %s" % (prog, r.stderr))
        g = json.loads(r.stdout.strip().splitlines()[-1])
        for phase, key in (("load", "load"), ("sequential", "sequential")):
            def committed_rate(rev):
                w = old[rev].get(prog)
                return w[key]["events_per_sec"] / 1e6 if w else float("nan")
            print("%-9s %-10s %8.1fM %8.1fM %10.1fM %10.1fM %8.0f" % (
                prog, phase, committed_rate("pr4"), committed_rate("pr10"),
                g[phase + "_best_events_per_s"] / 1e6,
                g[phase + "_median_events_per_s"] / 1e6, g["top_heap_mb"]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
