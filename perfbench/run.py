#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload simulate-perl --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository.  It builds the worker
(perfbench/lpperf.ml) with dune, sets the workload up several times, each in
a fresh process, then starts the timed job in fresh processes until
--seconds have passed.  Every job's outputs are digested and compared with
the expected digests in perfbench/expected/.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
the set-ups and jobs of the run.  --trace 1 alternates untraced and traced
jobs and reports the per-layer metrics: medians over the traced jobs, plus
trace_overhead_s, the traced minus the untraced median wall time.

--record FILE appends the run's result, with its per-job samples, to FILE
(JSON lines) for perfbench/compare.py.  --regen-expected rewrites the
workload's expected digests from the reference pipelines (Simulate.run and
Simulate.run_streamed) after checking that the timed job reproduces them.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "lpperf.exe")

# Base input scale of each workload (Lp_workloads.Registry's [scale]).
BASE_SCALE = {"simulate-perl": 0.5, "stream-gawk": 0.25, "tune-pint": 8.0}

# The workload programs take no seed, so the seed picks one of VARIANTS
# scales in a narrow band above and below the base value.
VARIANTS = 8
SETUP_REPEATS = 3
MIN_JOBS = 3  # untraced jobs per --trace 0 run
MIN_TRACED = 2  # traced and untraced jobs per --trace 1 run
DEADLINE_S = 150  # stop starting jobs after this much of the run


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def scale_of(workload, variant):
    return BASE_SCALE[workload] * (0.98 + 0.005 * variant)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/lpperf.exe"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=840)
    if r.returncode != 0:
        log(r.stdout + r.stderr)
        sys.exit("run.py: building the benchmark worker failed")


def worker(args, timeout=170):
    """Run lpperf in a fresh process; its last stdout line is JSON."""
    r = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True,
                       text=True, timeout=timeout)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("lpperf %s failed (exit %d): %s" %
            (" ".join(args), r.returncode, r.stderr.strip()[-2000:]))
        return None
    return json.loads(lines[-1])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def check_outputs(job, expected):
    """(attempted, failed) for one job's outputs against the expected digests."""
    if job is None:
        return len(expected), len(expected)
    failed = 0
    for name, digest in expected.items():
        got = job["outputs"].get(name, {"error": "missing"})
        if got.get("digest") != digest:
            failed += 1
            log("output %s: expected %s, got %s" % (name, digest, got))
    return len(expected), failed


def job_args(workload, work, traced, spans=None):
    args = ["job", "--workload", workload, "--dir", work]
    if traced:
        args += ["--trace", "--spans", spans]
    return args


def end_to_end(jobs, setups):
    def med(f):
        return median([f(j) for j in jobs])

    return {
        "events_per_s": med(lambda j: j["events"] / j["wall_s"]),
        "candidates_per_s": med(lambda j: j["candidates"] / j["wall_s"]),
        "setup_s": median([s["setup_s"] for s in setups]),
        "peak_heap_mb": med(lambda j: j["peak_heap_mb"]),
        "sim_instr_per_alloc": med(lambda j: j["sim_instr_per_alloc"]),
        "sim_max_heap_kb": med(lambda j: j["sim_max_heap_kb"]),
        "tune_best_instr": med(lambda j: j["best_instr"]),
    }


def per_layer(names, plain, traced, setups, attempted, failed):
    # a layer the workload never calls reads 0
    values = {n: median([j["layers"].get(n, 0.0) for j in traced]) for n in names}
    values["workloads.generate_s"] = median([s["generate_s"] for s in setups])
    values["binio.encode_s"] = median([s["encode_s"] for s in setups])
    values["trace_overhead_s"] = (median([j["wall_s"] for j in traced]) -
                                  median([j["wall_s"] for j in plain]))
    values["failed_share"] = failed / attempted
    return values


def print_breakdown(traced):
    """Median total and self time per span name over the traced jobs."""
    rows = {}
    for j in traced:
        for b in j["breakdown"]:
            rows.setdefault(b["layer"], []).append(b)
    log("%-22s %6s %10s %10s %10s %10s %6s" % (
        "layer", "calls", "total_s", "self_s", "minor_Mw", "promo_Mw", "majors"))
    for layer, bs in rows.items():
        log("%-22s %6d %10.4f %10.4f %10.2f %10.2f %6d" % (
            layer, bs[0]["calls"],
            median([b["total_s"] for b in bs]), median([b["self_s"] for b in bs]),
            median([b["gc_minor_mwords"] for b in bs]),
            median([b["gc_promoted_mwords"] for b in bs]),
            median([b["gc_major_collections"] for b in bs])))


def regen_expected(workload, work):
    variants = {}
    for v in range(VARIANTS):
        scale = scale_of(workload, v)
        if worker(["setup", "--workload", workload, "--scale", repr(scale),
                   "--dir", work]) is None:
            sys.exit("run.py: set-up failed")
        ref = worker(["reference", "--workload", workload, "--dir", work])
        job = worker(job_args(workload, work, False))
        if ref is None or job is None:
            sys.exit("run.py: reference or job failed")
        outputs = {}
        for name, out in ref["outputs"].items():
            if "digest" not in out:
                sys.exit("run.py: reference output %s failed: %s" % (name, out))
            outputs[name] = out["digest"]
        _, failed = check_outputs(job, outputs)
        if failed or set(job["outputs"]) != set(outputs):
            sys.exit("run.py: the job's outputs differ from the reference's")
        variants[str(v)] = {"scale": scale, "outputs": outputs}
        log("variant %d (scale %r): %d outputs agree" % (v, scale, len(outputs)))
    with open(os.path.join(HERE, "expected", workload + ".json"), "w") as f:
        json.dump({"workload": workload, "variants": variants}, f, indent=1,
                  sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(BASE_SCALE))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", help="append the result to this JSON-lines file")
    p.add_argument("--regen-expected", action="store_true")
    a = p.parse_args()
    started = time.monotonic()

    # The worker links the repository's libraries: without them (a checkout
    # holding only the benchmark) there is nothing to measure.
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("run.py: %s not found at %s; run from a full checkout"
                     % (need, ROOT))
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    work = os.path.join(HERE, "_work", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if a.regen_expected:
        regen_expected(a.workload, work)
        shutil.rmtree(work, ignore_errors=True)
        return

    variant = a.seed % VARIANTS
    scale = scale_of(a.workload, variant)
    with open(os.path.join(HERE, "expected", a.workload + ".json")) as f:
        expected = json.load(f)["variants"][str(variant)]
    if expected["scale"] != scale:
        sys.exit("run.py: expected digests are for scale %r, not %r"
                 % (expected["scale"], scale))
    expected = expected["outputs"]

    setups = []
    for _ in range(SETUP_REPEATS):
        s = worker(["setup", "--workload", a.workload, "--scale", repr(scale),
                    "--dir", work])
        if s is None:
            sys.exit("run.py: set-up failed")
        setups.append(s)

    plain, traced = [], []
    attempted = failed = 0
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if time.monotonic() - started > DEADLINE_S:
            break
        if a.trace == 0:
            if len(plain) >= MIN_JOBS and elapsed >= a.seconds:
                break
            traced_now = False
        else:
            if min(len(plain), len(traced)) >= MIN_TRACED and elapsed >= a.seconds:
                break
            traced_now = len(traced) < len(plain)
        spans = os.path.join(work, "spans-%d.json" % len(traced))
        j = worker(job_args(a.workload, work, traced_now, spans))
        n, bad = check_outputs(j, expected)
        attempted += n
        failed += bad
        if j is not None:
            (traced if traced_now else plain).append(j)
    if not plain or (a.trace == 1 and not traced):
        sys.exit("run.py: no job completed")

    if a.trace == 0:
        metrics = end_to_end(plain, setups)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    else:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = per_layer(units, plain, traced, setups, attempted, failed)
        print_breakdown(traced)
    for name in list(metrics):
        if name not in units:
            del metrics[name]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    log("%s seed %d (scale %r): %d untraced, %d traced jobs, %d/%d outputs failed"
        % (a.workload, a.seed, scale, len(plain), len(traced), failed, attempted))
    if a.record:
        with open(a.record, "a") as f:
            f.write(json.dumps({
                "workload": a.workload, "seed": a.seed, "scale": scale,
                "trace": a.trace, "result": result,
                "samples": {
                    "setup_s": [s["setup_s"] for s in setups],
                    "wall_s": [j["wall_s"] for j in plain],
                    "traced_wall_s": [j["wall_s"] for j in traced],
                }}) + "\n")
    # the work directory keeps the spans; the traces are rebuilt every run
    for f in os.listdir(work):
        if f.endswith(".lpt"):
            os.remove(os.path.join(work, f))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
