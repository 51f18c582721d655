"""The verification matrix: every headline equivalence and bound, runnable
as one batch (CLI verb `report`) and consumed by the acceptance test suite.

Each criterion is implemented as an independent function that raises on the
first discrepancy; run_all wraps them with wall-clock accounting.  Built
graphs are memoized so the matrix costs one construction per family.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from .bitrades import (
    MIN_BITRADES,
    _host_array,
    check_criterion_a,
    check_criterion_b,
    check_criterion_c,
    check_minimality,
    corrupt_one_vertex,
    design_difference,
    double_johnson_bitrade,
    verify_bitrade,
    verify_delsarte_pair,
)
from .families import (
    build_family,
    build_grassmann,
    dual_polar_array,
    grassmann_array,
    hamming_array,
)
from .gfq import (
    gaussian_binomial,
    isotropic_count_product,
    isotropic_count_sum,
)
from .graphs import _first_off_row, _row_levels, is_regular, verify_clique_system
from .spectral import (
    intersection_matrix_eigenvalues,
    standard_eigenvector,
    theta_min,
    wd_bound,
    wd_coefficients,
)


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    elapsed: float
    budget: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        out = f"[{self.number:>2}] {mark}  {self.elapsed:7.2f}s / {self.budget:g}s  {self.title}"
        if self.detail:
            out += f"  -- {self.detail}"
        return out

    def as_dict(self) -> dict:
        return {"number": self.number, "title": self.title,
                "passed": self.passed, "elapsed": round(self.elapsed, 3),
                "budget": self.budget, "detail": self.detail}


def _check(cond, msg):
    if not cond:
        raise AssertionError(msg)


# --- memoized builds -----------------------------------------------------------

@lru_cache(maxsize=None)
def _pair(name, *params):
    """(Graph, CliqueSystem | None) of the family instance, built once."""
    return build_family(name, params)


@lru_cache(maxsize=None)
def _host_dr(name: str, params: tuple):
    return _host_array(_pair(name, *params)[0])


# --- criteria --------------------------------------------------------------------

def _criterion_1():
    """Isotropic-count identity, exact big integers."""
    for d in range(1, 6):
        for q in (2, 3, 4, 5):
            lhs = isotropic_count_product(d, q)
            rhs = isotropic_count_sum(d, q)
            _check(lhs == rhs, f"identity fails at d={d}, q={q}: {lhs} != {rhs}")
    return "product = shell sum for all d <= 5, q in {2,3,4,5}"


def _criterion_2():
    """Minimum trade sizes (q+1)(q^2+1) off the closed-form arrays."""
    expected = {2: 15, 3: 40, 4: 85, 5: 156}
    for q, size in expected.items():
        arr = grassmann_array(6, 3, q)
        th = theta_min(arr)
        _check(th == -gaussian_binomial(3, 1, q), f"theta_min wrong at q={q}")
        bound = wd_bound(arr, th)
        _check(bound == 2 * size == isotropic_count_product(3, q),
               f"bound {bound} at q={q}, expected {2 * size}")
        _check((q + 1) * (q * q + 1) == size, "headline formula")
    return "trade sizes 15, 40, 85, 156 for q = 2, 3, 4, 5"


def _minimum_pipeline(name, params, bound, subgraph_array, host=None):
    """verify_bitrade on the family's minimum bitrade (MIN_BITRADES) against
    the host's proven array: criteria a-c pass, the bitrade is minimal with
    cardinality = bound = `bound`, and its trade subgraph has the array
    subgraph_array.  host is (graph, clique system, proven array) for a host
    kept out of the memo.  Returns the report."""
    g, S, arr = host or (*_pair(name, *params), _host_dr(name, params))
    rep = verify_bitrade(g, S, MIN_BITRADES[name](*params, host=g), host_array=arr)
    where = f"{name}{params}"
    _check(rep.all_pass, f"{where} criteria a={rep.a.ok} b={rep.b.ok} c={rep.c.ok}")
    _check(rep.minimal and rep.cardinality == rep.bound == bound,
           f"{where} cardinality {rep.cardinality}, bound {rep.bound}, expected {bound}")
    _check(rep.subgraph_array == subgraph_array,
           f"{where} trade subgraph array {rep.subgraph_array}, expected {subgraph_array}")
    return rep


def _criterion_3():
    """Full binary pipeline: 3-spaces in dimension 6."""
    g, S = _pair("grassmann", 6, 3, 2)
    _check(g.num_vertices == 1395, "vertex count")
    _check(is_regular(g).value == 98, "degree")
    _check(S.s == 14 and S.m == 1, "(98,14,1) system shape")
    _check(verify_clique_system(g, S).ok, "clique system")
    arr = _host_dr("grassmann", (6, 3, 2))
    _check(arr == grassmann_array(6, 3, 2), "host array closed form")
    _check(verify_delsarte_pair(g, S, host_array=arr).ok, "Delsarte pair")
    rep = _minimum_pipeline("grassmann", (6, 3, 2), 30, dual_polar_array(3, 2))
    _check(rep.shell_sizes == (1, 7, 14, 8), f"shells {rep.shell_sizes}")
    return "1395-vertex host, 30-vertex bitrade, all checks exact"


def _criterion_4():
    """Small binary pipeline at d=2, ambient 4 and 6 (zero-extension); the
    array of D_2(2) is that of K_{3,3}, the only graph that has it."""
    for n in (4, 6):
        _minimum_pipeline("grassmann", (n, 2, 2), 6, dual_polar_array(2, 2))
    return "6-vertex bitrade is complete bipartite 3+3 in both ambients"


def _criterion_5():
    """Minimum triple-system bitrade on six points."""
    _minimum_pipeline("johnson", (6, 3), 8, hamming_array(3, 2))
    return "8 blocks, bound 8, trade subgraph = binary 3-cube"


def _criterion_6():
    """Halved 8-cube doubled-word bitrade."""
    _minimum_pipeline("halved_cube", (8,), 16, hamming_array(4, 2))
    return "16 vertices, bound 16, trade subgraph = binary 4-cube"


def _criterion_7():
    """Ternary words: parity bitrade and a difference of latin squares."""
    rep = _minimum_pipeline("hamming", (3, 3), 8, hamming_array(3, 2))
    _check(rep.theta == -3, f"theta {rep.theta}")
    g, S = _pair("hamming", 3, 3)
    sq = lambda shift: {g.index_of(f"{r}{c}{(r + c + shift) % 3}")
                        for r in range(3) for c in range(3)}
    D = design_difference(g, S, sq(0), sq(1))
    _check(check_criterion_a(g, S, D).ok, "difference of two latin squares")
    _check(D.cardinality == 18, "18 cells differ")
    return "theta -3, bound 8; latin-square difference is a bitrade"


def _criterion_8():
    """Doob graph: array matches the quaternary cube, pseudo-bitrade certified
    (by its constructor, which raises unless it is an eigenfunction at -3)."""
    g = _pair("doob", 1, 1)[0]
    arr = _host_dr("doob", (1, 1))
    _check(arr == hamming_array(3, 4), f"array {arr}")
    T = MIN_BITRADES["doob"](1, 1, host=g)
    _check(T.cardinality == 8 == wd_bound(arr, -3), "bound 2^3")
    return "array of the quaternary 3-cube; 8-vertex pseudo-bitrade at theta -3"


_CORRUPTION_FAMILIES = (("octahedron", (3,)), ("hamming", (3, 3)), ("johnson", (6, 3)),
                        ("halved_cube", (8,)), ("grassmann", (4, 2, 2)))


def _criterion_9():
    """Criteria a, b, c agree on valid bitrades and on one-vertex corruptions."""
    rng = random.Random(90209)
    for name, params in _CORRUPTION_FAMILIES:
        g, S = _pair(name, *params)
        T = MIN_BITRADES[name](*params, host=g)
        rep = verify_bitrade(g, S, T, host_array=_host_dr(name, params))
        _check(rep.all_pass and rep.criteria_agree, f"valid instance {name}")
        for i in range(20):
            bad = corrupt_one_vertex(T, rng)
            a = check_criterion_a(g, S, bad).ok
            b = check_criterion_b(g, S, bad).ok
            c = check_criterion_c(g, S, bad).ok
            _check(a == b == c,
                   f"{name} corruption {i}: a={a} b={b} c={c}")
    return "agreement on 5 valid instances and 100 corruptions"


def _criterion_10():
    """Meets-bound and isometric match on positive and negative instances."""
    g, S = _pair("johnson", 12, 3)
    arr = _host_dr("johnson", (12, 3))
    T = double_johnson_bitrade(12, 3, host=g)
    _check(check_criterion_a(g, S, T).ok, "double instance is a bitrade")
    rep = check_minimality(g, S, T, host_array=arr)
    _check(not rep.minimal and not rep.isometric.ok,
           "double instance fails both sides")
    _check(T.cardinality == 16 and rep.bound == 8, "16 vs 8")
    for name, params in _CORRUPTION_FAMILIES:
        gg, SS = _pair(name, *params)
        TT = MIN_BITRADES[name](*params, host=gg)
        rr = check_minimality(gg, SS, TT, host_array=_host_dr(name, params))
        _check(rr.minimal and rr.isometric.ok, f"minimal {name} passes both")
    return "both directions of the bound/isometry equivalence exercised"


_SHELL_SUITE = (
    ("octahedron", (3,)),
    ("hamming", (3, 3)),
    ("johnson", (6, 3)),
    ("halved_cube", (8,)),
    ("grassmann", (4, 2, 2)),
    ("grassmann", (6, 3, 2)),
    ("dual_polar_D", (3, 2)),
    ("doob", (1, 1)),
    ("shrikhande", ()),
)


def _criterion_11():
    """Shell sums nu_i * |shell_i(x)| of distance-shell eigenfunctions (BCN
    4.1) match the coefficient recursion; clique/shell intersection
    constants are constant."""
    rng = random.Random(1101)
    for name, params in _SHELL_SUITE:
        g = _pair(name, *params)[0]
        arr = _host_dr(name, params)
        verts = [rng.randrange(g.num_vertices) for _ in range(10)]
        sizes = _center_shells(g, arr, verts, f"{name}{params}")
        # failures are named theta-major; one sum per distinct shell sizes
        for th in intersection_matrix_eigenvalues(arr):
            nu, coeffs = standard_eigenvector(arr, th), wd_coefficients(arr, th)
            sums = {s: tuple(v * size for v, size in zip(nu, s)) for s in set(sizes)}
            for x, s in zip(verts, sizes):
                if sums[s] != coeffs:
                    _check(False, f"{name}{params} theta={th} x={g.labels[x]}: "
                                  f"{sums[s]} != {coeffs}")
    for name, params in (("johnson", (6, 3)), ("hamming", (4, 2)),
                         ("grassmann", (4, 2, 2))):
        _si_constancy(name, params)
    return "shell sums match recursion; shell/clique constants uniform"


def _center_shells(g, arr, verts, where):
    """The shell sizes of each center of verts by one BFS each, once one
    _shell_counts call on their rows finds them all with the host's array
    arr; else raises naming the first center off it and the host, where."""
    dm = np.stack([g.multi_source_distances([x]) for x in verts])
    if off := _first_off_row(g, dm, arr):
        x, witness, detail = off
        _check(False, f"{where} x={g.labels[verts[x]]}: {detail} {witness}")
    return [tuple(np.bincount(row).tolist()) for row in dm]


def _si_constancy(name, params):
    """Every clique lies in two adjacent distance shells of every vertex x
    (else _row_levels raises CrossCheckViolation), meeting them in numbers
    that depend only on the nearer distance i.  Pairs (x, clique) are
    scanned x-major, as the first failure is reported."""
    g, S = _pair(name, *params)
    near, nxt = (a.ravel() for a in _row_levels(g.distance_matrix(), S.cliques))
    first = np.full(int(near.max()) + 1, len(near))     # the first pair at each distance
    np.minimum.at(first, near, np.arange(len(near)))
    bad = np.flatnonzero(nxt != nxt[first[near]])
    if bad.size:
        _check(False, f"{name}: intersection constants vary at distance {int(near[bad[0]])}")


def _criterion_12():
    """Ternary pipeline: 3-spaces in dimension 6 over GF(3), on a host built
    here, not memoized, so that it is freed with the criterion.  Its array is
    proven by the automorphism certificate of distance_regularity_check
    (generators transitive on the 33880 vertices, one completely regular
    singleton) and must equal the closed form."""
    g, S = build_grassmann(6, 3, 3)
    _check(g.num_vertices == 33880, "vertex count")
    _check(is_regular(g).value == 507, "degree")
    arr = _host_array(g)
    _check(arr == grassmann_array(6, 3, 3), "host array closed form")
    _minimum_pipeline("grassmann", (6, 3, 3), isotropic_count_product(3, 3),
                      dual_polar_array(3, 3), host=(g, S, arr))
    return "33880-vertex host, 80-vertex bitrade, exact"


_CRITERIA = {
    1: ("isotropic-count identity, d <= 5, q in {2,3,4,5}", 1.0, _criterion_1),
    2: ("minimum trade sizes from the w.d. bound, q = 2..5", 1.0, _criterion_2),
    3: ("full binary pipeline (1395-vertex host)", 60.0, _criterion_3),
    4: ("small binary pipeline with zero-extension embedding", 1.0, _criterion_4),
    5: ("minimum triple-system bitrade on 6 points", 1.0, _criterion_5),
    6: ("halved 8-cube doubled-word bitrade", 1.0, _criterion_6),
    7: ("ternary parity bitrade and latin-square difference", 1.0, _criterion_7),
    8: ("Doob graph pseudo-bitrade", 5.0, _criterion_8),
    9: ("criteria equivalence under corruption", 120.0, _criterion_9),
    10: ("bound/isometry biconditional, both directions", 30.0, _criterion_10),
    11: ("shell-sum recursion and intersection constants", 60.0, _criterion_11),
    12: ("ternary pipeline (33880-vertex host)", 1800.0, _criterion_12),
}

_LARGE = 12     # run only with --with-large


def run_criterion(number: int) -> CriterionResult:
    title, budget, fn = _CRITERIA[number]
    t0 = perf_counter()
    try:
        detail = fn() or ""
        passed = True
    except Exception as exc:  # noqa: BLE001 - failures become report rows
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return CriterionResult(number, title, passed, perf_counter() - t0,
                           budget, detail)


def run_all(include_large: bool = False) -> list[CriterionResult]:
    return [run_criterion(n) for n in _CRITERIA if include_large or n != _LARGE]
