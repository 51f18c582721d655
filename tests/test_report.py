"""Criterion 11's route: one frontier BFS per center and one shell-count
sweep per host, its shell sizes against a reference BFS, its call counts
and its first-failure messages pinned; the distance-shell eigenfunctions
and their shell sums against per-(theta, x) Fraction references.  The
minimum-bitrade criteria: one shared routine verifies each, and names the
trade subgraph's array when it differs from the closed form."""

import ast
import inspect
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from drgtrades import bitrades, graphs, report, spectral
from drgtrades.families import hamming_array
from drgtrades.spectral import intersection_matrix_eigenvalues, wd_coefficients
from helpers import (delta_function, reference_delta_values, reference_distances,
                     reference_shell_sums, values, weight_distribution_of)


@pytest.fixture(scope="module")
def shell_hosts():
    """(name, params, host, array) of every criterion-11 host, built and
    proven once."""
    return [(name, params, report._pair(name, *params)[0], report._host_dr(name, params))
            for name, params in report._SHELL_SUITE]


def test_criterion_11_route_matches_per_pair_references(shell_hosts):
    rng = random.Random(1111)
    for name, params, g, arr in shell_hosts:
        eigs = intersection_matrix_eigenvalues(arr)
        for x in (rng.randrange(g.num_vertices) for _ in range(2)):
            fs, dist = delta_function(g, [x], eigs)
            ref_dist = reference_distances(g, x)
            assert dist.tolist() == [ref_dist[v] for v in range(g.num_vertices)]
            for th, f in zip(eigs, fs):
                want = reference_delta_values(g, x, th, ref_dist)
                assert list(values(f)) == want, (name, params, th, x)
                got = weight_distribution_of(f, dist)
                assert got == reference_shell_sums(g, want, x, ref_dist)
                assert tuple(got) == wd_coefficients(arr, th)


def test_criterion_11_runs_one_check_per_center(monkeypatch, shell_hosts):
    # one frontier BFS per center, one _shell_counts call on each host's ten
    # stacked rows, and no complete-regularity check
    calls = {"check": 0, "bfs": 0, "sweep": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for module in (graphs, bitrades):
        monkeypatch.setattr(module, "completely_regular_check",
                            counted("check", graphs.completely_regular_check))
    monkeypatch.setattr(graphs.Graph, "multi_source_distances",
                        counted("bfs", graphs.Graph.multi_source_distances))
    monkeypatch.setattr(graphs.Graph, "_shell_counts",
                        counted("sweep", graphs.Graph._shell_counts))
    report._criterion_11()
    hosts = len(report._SHELL_SUITE)
    assert calls == {"check": 0, "bfs": 10 * hosts, "sweep": hosts}


def test_criterion_11_shell_sizes_are_the_reference_shells(shell_hosts):
    rng = random.Random(1112)
    for name, params, g, arr in shell_hosts:
        xs = [rng.randrange(g.num_vertices) for _ in range(2)]
        want = [tuple(np.bincount(list(reference_distances(g, x).values())).tolist())
                for x in xs]
        assert report._center_shells(g, arr, xs, name) == want, (name, params)


def test_criterion_11_runs_one_eigenvector_recurrence_per_array_and_theta():
    # 10 centers share each host's (array, theta): 34 pairs, not 340
    spectral.standard_eigenvector.cache_clear()
    report._criterion_11()
    assert spectral.standard_eigenvector.cache_info().misses == 34


def test_criterion_11_names_the_first_failing_pair(monkeypatch, shell_hosts):
    # two eigenvalues of J(6,3) get a wrong last coefficient: the theta-major
    # scan names the first of them at the first center
    j63 = report._host_dr("johnson", (6, 3))

    def wrong(arr, theta):
        w = wd_coefficients(arr, theta)
        return w[:-1] + (w[-1] + 1,) if arr == j63 and theta in (3, -3) else w

    monkeypatch.setattr(report, "wd_coefficients", wrong)
    res = report.run_criterion(11)
    assert not res.passed
    assert res.detail == (
        "AssertionError: johnson(6, 3) theta=3 x=1,4,6: "
        "(Fraction(1, 1), Fraction(3, 1), Fraction(-3, 1), Fraction(-1, 1)) != "
        "(Fraction(1, 1), Fraction(3, 1), Fraction(-3, 1), Fraction(0, 1))")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "optimize"])
def test_criterion_11_names_the_first_center_off_the_host_array(flags):
    # J(6,3) handed the array of H(3,4), of the same degree 9, fails at its
    # first center; python -O strips assert statements, so the check must
    # not be one
    code = "\n".join([
        "from drgtrades import report",
        "from drgtrades.families import hamming_array",
        "host_dr = report._host_dr",
        "report._host_dr = lambda name, params: (",
        "    hamming_array(3, 4) if (name, params) == ('johnson', (6, 3))",
        "    else host_dr(name, params))",
        "res = report.run_criterion(11)",
        "print(res.passed, __debug__, res.detail)",
    ])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    assert res.stdout == (
        f"False {not flags} AssertionError: johnson(6, 3) x=1,4,6: intersection array "
        "differs between vertices ('(9,4,1;1,4,9)', '(9,6,3;1,2,3)')\n")


@pytest.mark.parametrize("number", [3, 4, 5, 6, 7, 12])
def test_minimum_criteria_verify_through_one_routine(number):
    fn = getattr(report, f"_criterion_{number}")
    called = {node.func.id for node in ast.walk(ast.parse(inspect.getsource(fn)))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_minimum_pipeline" in called and "verify_bitrade" not in called


@pytest.mark.parametrize("number,patched,wrong,detail", [
    (3, "dual_polar_array", lambda d, q: hamming_array(d, q),
     "AssertionError: grassmann(6, 3, 2) trade subgraph array (7,6,4;1,3,7), "
     "expected (3,2,1;1,2,3)"),
    (5, "hamming_array", lambda n, q: hamming_array(n, q + 1),
     "AssertionError: johnson(6, 3) trade subgraph array (3,2,1;1,2,3), "
     "expected (6,4,2;1,2,3)"),
], ids=["criterion-3", "criterion-5"])
def test_a_wrong_closed_form_names_the_trade_subgraph_array(monkeypatch, number, patched,
                                                            wrong, detail):
    monkeypatch.setattr(report, patched, wrong)
    res = report.run_criterion(number)
    assert not res.passed
    assert res.detail == detail


def test_criterion_11_shell_counts_stay_narrow_on_grassmann(shell_hosts):
    # J_2(6,3) is stored as its rows: r = 7, w = 15 and rho = 3, so every
    # term and sum lies within 2 * r * w * (rho + 1) = 840, held in int16
    g, arr = next((g, arr) for _, params, g, arr in shell_hosts if params == (6, 3, 2))
    rng = random.Random(1101)
    verts = [rng.randrange(g.num_vertices) for _ in range(10)]
    dm = np.stack([g.multi_source_distances([x]) for x in verts])
    assert all(c.dtype == np.int16 for c in g._shell_counts(dm))
    report._center_shells(g, arr, verts, "grassmann")
    tracemalloc.start()
    try:
        report._center_shells(g, arr, verts, "grassmann")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.45 * 2 ** 20        # 0.61 MiB with the terms in int32
