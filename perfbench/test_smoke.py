"""Smoke test of the benchmark on tiny hosts.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the large-sparse pipeline and a verify-batch batch on J_2(4,2), checks
that a planted wrong verdict counts as failed, and that run.py refuses a
directory without the package's sources.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import subprocess
import sys
from time import perf_counter, thread_time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from drgtrades.graphs import Verdict  # noqa: E402
from tracer import Tracer, _swap  # noqa: E402

TINY = workloads.PipelineSpec(4, 2, 2, vertices=35, edges=315, cardinality=6,
                              shells=(1, 3, 2))
TINY_BATCH = workloads.BatchSpec(4, 2, 2, valid=3, corrupt=12)


def start():
    return perf_counter(), thread_time()


def flip_first_verdict(monkeypatch):
    """Make the first verify_bitrade call return criterion a inverted."""
    real = workloads.verify_bitrade
    calls = []

    def planted(*args, **kwargs):
        rep = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 1:
            rep = dataclasses.replace(rep, a=Verdict(not rep.a.ok))
        return rep
    monkeypatch.setattr(workloads, "verify_bitrade", planted)


def test_pipeline_on_tiny_host_passes():
    out = workloads.large_sparse(0, start(), spec=TINY)
    assert out.failures == [] and out.attempted == 6


def test_pipeline_planted_wrong_verdict_fails(monkeypatch):
    flip_first_verdict(monkeypatch)
    out = workloads.large_sparse(0, start(), spec=TINY)
    assert out.failures == ["criteria a, b and c pass"]


def test_batch_on_tiny_host_passes():
    out = workloads.verify_batch(3, start(), spec=TINY_BATCH)
    assert out.failures == [] and out.attempted == 1 + 3 + 12
    assert [len(out.latencies_ms[k]) for k in ("valid", "corrupt")] == [3, 12]


def test_batch_planted_wrong_verdict_fails(monkeypatch):
    flip_first_verdict(monkeypatch)
    out = workloads.verify_batch(3, start(), spec=TINY_BATCH)
    assert len(out.failures) == 1 and out.attempted == 16


def test_setup_only_stops_before_verdicts():
    out = workloads.verify_batch(3, start(), setup_only=True, spec=TINY_BATCH)
    assert out.attempted == 0 and out.setup_s > 0 and out.setup_wall_s > 0


def test_candidates_are_seeded():
    g, _ = workloads.build_grassmann(4, 2, 2)
    T = workloads.min_bitrade_grassmann(4, 2, 2, host=g)

    def sides(seed):
        return [(k, B.t0, B.t1) for k, B in workloads.make_candidates(
            g, T, random.Random(seed), TINY_BATCH)]
    assert sides(5) == sides(5) != sides(6)


def test_report_rows_are_verdicts():
    rows = [f"[{n:>2}] PASS     0.01s / 1s  criterion {n}" for n in range(1, 12)]
    good = "\n".join(rows + ["11/11 criteria passed"])
    out = workloads.Outcome()
    workloads.check_report(0, good, out)
    assert out.attempted == 11 and out.failures == []

    rows[2] = rows[2].replace("PASS", "FAIL")
    out = workloads.Outcome()
    workloads.check_report(1, "\n".join(rows + ["10/11 criteria passed"]), out)
    assert out.failures == ["criterion 3: FAIL"]

    out = workloads.Outcome()
    workloads.check_report(1, good, out)
    assert len(out.failures) == 1


def test_self_time_excludes_children():
    tr = Tracer()
    outer = tr.begin("outer")
    inner = tr.begin("inner")
    tr.end(inner)
    tr.end(outer)
    spans = tr.summary()
    assert spans["outer"]["self_s"] + spans["inner"]["self_s"] == \
        pytest.approx(spans["outer"]["total_s"])


def test_registry_tuples_get_the_wrapper():
    def fn():
        pass

    def wrapper():
        pass
    registry = (("a", (1,), fn), ("b", (2,), print))
    swapped = _swap(registry, fn, wrapper)
    assert swapped == (("a", (1,), wrapper), ("b", (2,), print))
    assert _swap(registry, len, wrapper) is registry


def test_wrapper_cost_is_positive_and_small():
    assert 0 < Tracer.wrapper_cost(2000) < 1e-3


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_metric_names_match_benchmark_json():
    import json

    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert set(run.end_to_end([])) == {m["name"] for m in bench["end_to_end"]}
    layer = run.per_layer([], [])
    assert set(layer) == {m["name"] for m in bench["per_layer"]}
    assert all(run.unit(m["name"]) == m["unit"]
               for m in bench["end_to_end"] + bench["per_layer"])
