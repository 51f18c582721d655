"""drgtrades benchmark: cold verifier runs, timed end to end or layer by layer.

    python3 perfbench/run.py --workload report-all|large-sparse|verify-batch
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each iteration is a fresh process
(perfbench/worker.py), one at a time, until the next one would end after
--seconds.  With --trace 0 every iteration is followed by set-up-only
iterations, and the last line of standard output holds the end-to-end
metrics, medians over the iterations (set-up over both kinds).  With --trace 1 untraced and
traced iterations alternate; the last line holds the per-layer metrics,
medians over the traced iterations, and the tracing overhead.  A results
file with every sample and the environment goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

WORKLOADS = ("report-all", "large-sparse", "verify-batch")
HERE = os.path.dirname(os.path.abspath(__file__))
HARD_LIMIT_S = 170          # every run must exit within 180 s
SETUP_REPEATS = 3           # set-up-only iterations after each full one

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBES = {"gfq.enumerate_subspaces_s": "s", "gfq.subspace_hyperplanes_s": "s",
          "gfq.hyperplane_calls": "count", "graphs.csr_s": "s",
          "graphs.vertices": "count", "graphs.edges": "count"}
SPANS = ["families.build_grassmann", "graphs.distance_matrix",
         "graphs.distance_regularity_check", "graphs.verify_clique_system",
         "graphs.completely_regular_check", "graphs.is_isometric_subgraph",
         "graphs.bfs", "spectral.verify_eigenfunction",
         "bitrades.check_criterion_a", "bitrades.check_criterion_b",
         "bitrades.check_criterion_c", "bitrades.check_minimality",
         "bitrades.check_subgraph_dr", "bitrades.verify_bitrade",
         "bitrades.min_bitrade_grassmann", "cli.main"] + \
        [f"report.c{n}" for n in range(1, 12)]


def percentile_tail(values):
    """Median, plus the highest of p75/p90/p95/p99/p99.9 that has at least
    ten samples above it, with the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if values else None}
    for p in (75, 90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            out["tail"] = f"p{p:g}"
            out["tail_value"] = values[min(n - 1, int(n * p / 100))]
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def git_revision():
    """HEAD of the checkout, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def iteration(workload, seed, mode, timeout):
    """One worker process; mode is "0", "1" (traced) or "setup"."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=str(len(os.sched_getaffinity(0))))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
             mode],
            capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failures": [f"iteration exceeded {timeout:.0f} s"]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"attempted": 1,
                "failures": [f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"]}


def measure(workload, seed, seconds, trace):
    """Rounds until the next one would end after `seconds`; at least one.
    A round is an untraced iteration and SETUP_REPEATS set-up-only ones, or
    with `trace` an untraced/traced pair."""
    plain, traced, setups = [], [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        if not trace:
            order = ("0",) + ("setup",) * SETUP_REPEATS
        else:
            order = ("0", "1") if len(plain) % 2 == 0 else ("1", "0")
        for mode in order:
            left = HARD_LIMIT_S - (perf_counter() - start)
            {"0": plain, "1": traced, "setup": setups}[mode].append(
                iteration(workload, seed, mode, max(left, 1)))
        last = perf_counter() - t
        elapsed = perf_counter() - start
        if elapsed + last > seconds or elapsed + last > HARD_LIMIT_S - 10:
            return plain, traced, setups


def end_to_end(plain, setups=()):
    ok = [it for it in plain if "verdict_s" in it]
    out = {name: median([it[name] for it in ok]) for name in END_TO_END}
    out["setup_s"] = median([it["setup_s"] for it in ok + list(setups)
                             if "setup_s" in it])
    return out


def per_layer(plain, traced):
    ok = [it for it in traced if "spans" in it]
    out = {}
    for name in SPANS:
        # a criterion's whole wall time; every other span counts its self time
        key = "total_s" if name.startswith("report.c") else "self_s"
        out[name + "_s"] = median([it["spans"].get(name, {}).get(key, 0.0)
                                   for it in ok])
    out["graphs.bfs_ms_p50"] = median([median(it["bfs_ms"]) for it in ok])
    out["graphs.bfs_sources"] = median([len(it["bfs_ms"]) for it in ok])
    out["graphs.cliques"] = median([it["counts"].get("graphs.cliques", 0) for it in ok])
    for name in PROBES:
        out[name] = median([it["probes"][name] for it in ok])
    for kind in ("valid", "corrupt"):
        out[f"bitrades.candidates_{kind}"] = median(
            [len(it["latencies_ms"][kind]) for it in ok])
        lat = [x for it in plain if "latencies_ms" in it for x in it["latencies_ms"][kind]]
        out[f"bitrades.{kind}_ms_p50"] = median(lat)
    # spans in the verdict window times the measured cost of one span
    out["trace.overhead_s"] = median([it["span_calls"] * it["wrapper_cost_s"]
                                      for it in ok])
    out["trace.unspanned_s"] = median([it["unspanned_s"] for it in ok])
    return out


UNITS = {**END_TO_END, **PROBES}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms_p50"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "drgtrades", "__init__.py")):
        print("error: run from the root of a drgtrades checkout (no src/drgtrades)",
              file=sys.stderr)
        return 2
    # Byte-compile once, so that set-up times imports, not compilation.
    compileall.compile_dir(os.path.join("src", "drgtrades"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    plain, traced, setups = measure(args.workload, args.seed, args.seconds, args.trace)
    runs = plain + traced + setups
    attempted = sum(it["attempted"] for it in runs)
    failed = min(attempted, sum(len(it["failures"]) for it in runs))
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)

    samples = {name: [it[name] for it in plain if name in it] for name in END_TO_END}
    for name in ("setup_s", "setup_wall_s"):
        samples[name] = [it[name] for it in plain + setups if name in it]
    for kind in ("valid", "corrupt"):
        samples[f"{kind}_ms"] = [x for it in plain if "latencies_ms" in it
                                 for x in it["latencies_ms"][kind]]
    samples["graphs.bfs_ms"] = [x for it in traced for x in it.get("bfs_ms", [])]
    env = next((it["env"] for it in runs if "env" in it), {})
    paired = [t["verdict_s"] - p["verdict_s"] for p, t in zip(plain, traced)
              if "verdict_s" in p and "verdict_s" in t]
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "python": platform.python_version(),
            "git_revision": git_revision(), **env},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for it in runs for f in it["failures"]][:20],
        "metrics": metrics,
        # traced minus untraced verdict_s of each pair: one noisy sample per
        # pair, hence not the overhead metric
        "paired_overhead_s": {"values": paired, "n": len(paired)},
        "distributions": {k: percentile_tail(v) for k, v in samples.items() if v},
        "iterations": {"untraced": plain, "traced": traced, "setup_only": setups},
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, default=str)

    for name, dist in results["distributions"].items():
        tail = f", {dist['tail']} {dist['tail_value']:.4f}" if "tail" in dist else ""
        print(f"{name}: median {dist['p50']:.4f}{tail} (n={dist['n']})")
    print(f"failed_frac: {failed}/{attempted}; results in {os.path.relpath(path)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
