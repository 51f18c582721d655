"""One cold iteration of one workload, in a process of its own.

    python3 perfbench/worker.py <workload> <seed> <mode 0|1|setup>

Run from the root of a checkout; drgtrades is imported from its src/.
Prints one JSON object on the last line of standard output.  Mode 0 runs the
workload; mode setup stops after its set-up, as a further set-up sample.
Mode 1 wraps the package's public calls in spans, runs the workload, and
then re-runs the Grassmann builder's inner public calls as probes; the
probes come after the workload's verdicts and outside its window.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter, thread_time

START = (perf_counter(), thread_time())

import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)


def blas_threads():
    """OpenBLAS's own thread count, read through its C API."""
    libs = sorted({line.split()[-1] for line in open("/proc/self/maps")
                   if "openblas" in line and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    return {"numpy": numpy.__version__, "blas_threads": blas_threads(),
            "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
                "openblas configuration")}


def builder_probes(n: int, d: int, q: int, host) -> dict:
    """The builder's inner public calls, timed one stage at a time."""
    from drgtrades.families import build_grassmann
    from drgtrades.gfq import enumerate_subspaces, make_field, subspace_hyperplanes
    from drgtrades.graphs import Graph

    if host is None:
        host, _ = build_grassmann(n, d, q)
    t = perf_counter()
    subs = enumerate_subspaces(n, d, make_field(q))
    enum_s = perf_counter() - t
    t = perf_counter()
    for s in subs:
        subspace_hyperplanes(s)
    hyper_s = perf_counter() - t
    labels, edges = host.labels, list(host.edges())
    t = perf_counter()
    g = Graph(labels, edges)
    csr_s = perf_counter() - t
    return {"gfq.enumerate_subspaces_s": enum_s,
            "gfq.subspace_hyperplanes_s": hyper_s,
            "gfq.hyperplane_calls": len(subs),
            "graphs.csr_s": csr_s,
            "graphs.vertices": g.num_vertices,
            "graphs.edges": g.num_edges}


def run(name: str, seed: int, mode: str) -> dict:
    import drgtrades  # noqa: F401 - imports are part of set-up
    if os.path.commonpath([os.path.abspath(drgtrades.__file__), SRC]) != SRC:
        raise ImportError(f"drgtrades imported from {drgtrades.__file__}, not {SRC}")
    import workloads

    if mode == "setup":
        out = workloads.WORKLOADS[name](seed, START, setup_only=True)
        return {"setup_s": out.setup_s, "setup_wall_s": out.setup_wall_s,
                "attempted": 0, "failures": []}
    tracer = None
    if mode == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.instrument(tracer, [workloads])
    out = workloads.WORKLOADS[name](seed, START)
    doc = {
        "setup_s": out.setup_s,
        "setup_wall_s": out.setup_wall_s,
        "verdict_s": out.verdict_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": out.attempted,
        "failures": out.failures,
        "latencies_ms": out.latencies_ms,
        "env": environment(),
    }
    if tracer is not None:
        lo, hi = out.window
        doc["spans"] = tracer.summary()
        doc["counts"] = dict(tracer.counts)
        doc["bfs_ms"] = [t * 1e3 for t in tracer.durations("graphs.bfs")]
        doc["unspanned_s"] = out.verdict_s - tracer.root_time(lo, hi)
        doc["span_calls"] = tracer.spans_within(lo, hi)
        doc["wrapper_cost_s"] = tracer.wrapper_cost()
        n, d, q, host = out.host
        del out
        doc["probes"] = builder_probes(n, d, q, host)
    return doc


def main(argv) -> int:
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    try:
        doc = run(name, seed, mode)
    except Exception:  # noqa: BLE001 - reported to the parent as a failed iteration
        doc = {"attempted": 1, "failures": [traceback.format_exc()]}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
