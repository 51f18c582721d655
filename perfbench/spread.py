"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads report-all,large-sparse,verify-batch]
                                [--seeds 1-10] [--trace 0|1] [--out FILE]

For every workload and every metric of the final lines: the values, their
median, and the distance between the first and third quartiles
(statistics.quantiles with n=4) as a share of the median.  End-to-end
spreads are compared with the bounds in BENCHMARK.json; a spread above a
third of its bound is flagged.  Run from the root of a checkout; benchmark
runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread_of(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    entry = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    if bound is not None:
        entry["bound"] = bound
        entry["steady"] = entry.get("spread") is not None and entry["spread"] < bound / 3
    return entry


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seeds": args.seeds, "trace": args.trace,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    correct = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= line["correct"]
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={line['correct']} " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in line["metrics"].items()
                if k in bounds), file=sys.stderr)
        results = os.path.join("perfbench", "out",
                               f"{workload}-seed{args.seeds[-1]}-trace{args.trace}.json")
        with open(results) as fh:
            report.setdefault("environment", json.load(fh)["environment"])
        report["workloads"][workload] = {
            name: spread_of(vals, bounds.get(name)) for name, vals in values.items()}
        for name in bounds:
            if name in values:
                e = report["workloads"][workload][name]
                flag = "" if e["steady"] else "  <-- above a third of the bound"
                print(f"{workload} {name}: median {e['median']:.4f}, spread "
                      f"{e.get('spread', float('nan')):.4f} (bound {e['bound']}){flag}")
    report["correct"] = correct
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
