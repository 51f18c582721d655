"""Cross-cutting invariants: eigenvector closure on every family spectrum,
Delsarte clique shell structure, error paths with small budgets, and the
criteria and minimality equivalences on drawn corruptions and design
differences."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from drgtrades.errors import (
    NonIntegerSpectrum,
    NotAnEigenvalue,
    NotDistanceRegular,
)
from drgtrades.bitrades import (
    MIN_BITRADES,
    Bitrade,
    check_criterion_a,
    check_criterion_b,
    check_criterion_c,
    corrupt_one_vertex,
    design_difference,
    pseudo_bitrade_doob,
    verify_bitrade,
    verify_delsarte_pair,
    verify_pseudo_bitrade,
)
from drgtrades.families import (
    FAMILIES,
    build_johnson,
    family_array,
)
from drgtrades.graphs import (
    CliqueSystem,
    Graph,
    IntersectionArray,
    completely_regular_check,
    is_bipartite,
    is_isometric_subgraph,
)
from drgtrades.spectral import (
    intersection_matrix_eigenvalues,
    is_matrix_eigenvalue,
    standard_eigenvector,
    theta_min,
    verify_eigenfunction,
    wd_bound,
)
from helpers import (CliqueSearchTooLarge, delta_function, max_clique_order, signed_function,
                     values, weight_distribution_of)

FAMILY_INSTANCES = [
    ("octahedron", (3,)),
    ("octahedron", (4,)),
    ("hamming", (3, 3)),
    ("hamming", (2, 4)),
    ("johnson", (6, 3)),
    ("johnson", (8, 4)),
    ("halved_cube", (6,)),
    ("halved_cube", (8,)),
    ("shrikhande", ()),
    ("doob", (1, 1)),
    ("grassmann", (4, 2, 2)),
    ("grassmann", (6, 3, 2)),
    ("grassmann", (4, 2, 3)),
    ("dual_polar_D", (2, 2)),
    ("dual_polar_D", (3, 2)),
    ("dual_polar_D", (2, 3)),
]


@pytest.mark.parametrize("name,params", FAMILY_INSTANCES)
def test_eigenvector_closure_for_every_eigenvalue(name, params):
    arr = family_array(name, params)
    eigs = intersection_matrix_eigenvalues(arr)
    assert len(eigs) == arr.rho + 1 and len(set(eigs)) == len(eigs)
    for th in eigs:
        nu = standard_eigenvector(arr, th)  # residual must close exactly
        assert nu[0] == 1
    # theta_min alone is negative enough to force the Hoffman order
    assert eigs[-1] == theta_min(arr) < 0


def test_non_integral_spectrum_raises():
    # pentagon: singleton array of the 5-cycle has irrational eigenvalues
    arr = IntersectionArray(2, (2, 1), (1, 1))
    with pytest.raises(NonIntegerSpectrum):
        intersection_matrix_eigenvalues(arr)


@pytest.mark.parametrize("name,params", [
    ("octahedron", (3,)),
    ("hamming", (3, 3)),
    ("johnson", (6, 3)),
    ("halved_cube", (6,)),
    ("grassmann", (4, 2, 2)),
])
def test_delsarte_clique_shell_structure(name, params):
    """Every clique of the system is completely regular of covering radius
    one less than the diameter, its matrix misses theta_min, and the
    distance-shell function at theta_min therefore cannot be built on it."""
    g, S = FAMILIES[name].build(*params)
    arr = family_array(name, params)
    th = theta_min(arr)
    diameter = arr.rho
    for clique in S.cliques[:3]:
        res = completely_regular_check(g, clique)
        assert res.ok and res.value.rho == diameter - 1
        assert not is_matrix_eigenvalue(res.value, th)
        with pytest.raises(NotAnEigenvalue):
            delta_function(g, clique, [th])


@pytest.mark.parametrize("name,params", [
    ("hamming", (3, 3)),
    ("johnson", (6, 3)),
])
def test_theta_min_sum_over_clique_is_zero(name, params):
    g, S = FAMILIES[name].build(*params)
    arr = family_array(name, params)
    th = theta_min(arr)
    (f,), _ = delta_function(g, [0], [th])
    assert verify_eigenfunction(g, f, th).ok
    for clique in S.cliques:
        assert sum((values(f)[v] for v in clique), Fraction(0)) == 0


def test_weight_distribution_zero_off_support_basepoint():
    # shell sums of an eigenfunction scale with the value at the basepoint,
    # so they vanish when the basepoint value is zero
    g, S = build_johnson(6, 3)
    from drgtrades.bitrades import min_bitrade_johnson
    T = min_bitrade_johnson(6, 3, host=g)
    f = signed_function(T)
    outside = next(v for v in range(g.num_vertices) if v not in T.support)
    assert all(w == 0 for w in weight_distribution_of(f, g.multi_source_distances([outside])))
    inside = next(iter(T.t0))
    w = weight_distribution_of(f, g.multi_source_distances([inside]))
    assert tuple(w) == (1, -3, 3, -1)


def test_clique_search_budget():
    g, _ = build_johnson(6, 3)
    with pytest.raises(CliqueSearchTooLarge):
        max_clique_order(g, node_budget=3)


def test_verify_delsarte_pair_requires_distance_regular():
    # triangular prism with edge cliques: a (3,1,1) pair, regular but not
    # distance-regular (b_1 differs between triangle mates and the bridge)
    labels = ["a1", "a2", "a3", "b1", "b2", "b3"]
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    g = Graph(labels, edges)
    S = CliqueSystem(g, tuple(tuple(e) for e in g.edge_array().tolist()), s=1, m=1)
    with pytest.raises(NotDistanceRegular):
        verify_delsarte_pair(g, S)


# --- drawn corruptions and design differences ---------------------------------

EQUIVALENCE_HOSTS = [("grassmann", (4, 2, 2)), ("johnson", (6, 3)),
                     ("hamming", (3, 3)), ("halved_cube", (6,)),
                     ("octahedron", (3,)), ("octahedron", (4,))]


def _clique_designs(S, n):
    """Every vertex set meeting each clique of S exactly once, by exact cover
    over the first clique not yet met."""
    cliques = S.cliques.tolist()
    member_of = [[] for _ in range(n)]
    for i, c in enumerate(cliques):
        for v in c:
            member_of[v].append(i)
    met, chosen, out = [False] * len(cliques), [], []

    def extend():
        if all(met):
            out.append(frozenset(chosen))
            return
        for v in cliques[met.index(False)]:
            if not any(met[i] for i in member_of[v]):
                for i in member_of[v]:
                    met[i] = True
                chosen.append(v)
                extend()
                chosen.pop()
                for i in member_of[v]:
                    met[i] = False
    extend()
    return out


@lru_cache(maxsize=None)
def _equivalence_host(name, params):
    """Host, clique system, minimum bitrade, w.d. bound at theta_min and the
    clique designs."""
    g, S = FAMILIES[name].build(*params)
    arr = family_array(name, params)
    return (g, S, MIN_BITRADES[name](*params, host=g), wd_bound(arr, theta_min(arr)),
            _clique_designs(S, g.num_vertices))


def _assert_equivalences(g, S, T, bound):
    a, b, c = (check(g, S, T) for check in
               (check_criterion_a, check_criterion_b, check_criterion_c))
    assert a.ok == b.ok == c.ok
    if a.ok:
        assert (T.cardinality == bound) == is_isometric_subgraph(g, T.support).ok


def test_design_hosts_have_designs():
    # the spreads of PG(3,2), the Latin squares of order 3 and the antipodal
    # pairs of the octahedra; J(6,3) and the halved 6-cube have none, so they
    # are drawn through corruptions only
    assert [len(_equivalence_host(*h)[4]) for h in EQUIVALENCE_HOSTS] == [56, 0, 12, 0, 3, 4]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from(EQUIVALENCE_HOSTS), st.integers(0, 2 ** 32 - 1))
def test_criteria_agree_on_drawn_corruptions(host, seed):
    g, S, T, bound = _equivalence_host(*host)[:4]
    _assert_equivalences(g, S, T, bound)
    _assert_equivalences(g, S, corrupt_one_vertex(T, random.Random(seed)), bound)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from([h for h in EQUIVALENCE_HOSTS
                        if h[0] in ("grassmann", "hamming", "octahedron")]),
       st.data())
def test_equivalences_on_drawn_design_differences(host, data):
    g, S, _, bound, designs = _equivalence_host(*host)
    i, j = data.draw(st.lists(st.integers(0, len(designs) - 1), min_size=2, max_size=2,
                              unique=True))
    T = design_difference(g, S, designs[i], designs[j])
    assert check_criterion_a(g, S, T).ok
    _assert_equivalences(g, S, T, bound)


DUAL_POLAR_HOSTS = [(2, 2), (3, 2), (2, 3)]


@lru_cache(maxsize=None)
def _dual_polar_edge_system(d, q):
    """D_d(q), its edges as the (s, m) = (1, 1) clique system (Delsarte:
    theta_min = -k puts the Hoffman bound at 2), and the 2-coloring as the
    bitrade, which criterion a forces to be the whole bipartition."""
    g = FAMILIES["dual_polar_D"].build(d, q)
    S = CliqueSystem(g, g.edge_array(), s=1, m=1)
    color = is_bipartite(g).value
    sides = [frozenset(v for v, c in enumerate(color) if c == side) for side in (0, 1)]
    return g, S, Bitrade(g, *sides)


@pytest.mark.parametrize("d,q", DUAL_POLAR_HOSTS)
def test_dual_polar_bipartition_is_the_minimum_edge_bitrade(d, q):
    g, S, T = _dual_polar_edge_system(d, q)
    assert verify_delsarte_pair(g, S).ok
    rep = verify_bitrade(g, S, T)
    assert rep.all_pass and rep.minimal and rep.isometric.ok
    assert rep.bound == rep.cardinality == g.num_vertices
    assert rep.subgraph_array == family_array("dual_polar_D", (d, q))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(DUAL_POLAR_HOSTS), st.integers(0, 2 ** 32 - 1))
def test_criteria_agree_on_dual_polar_corruptions(host, seed):
    g, S, T = _dual_polar_edge_system(*host)
    _assert_equivalences(g, S, corrupt_one_vertex(T, random.Random(seed)), g.num_vertices)


@lru_cache(maxsize=None)
def _doob_pseudo_bitrade():
    g = FAMILIES["doob"].build(1, 1)
    return g, pseudo_bitrade_doob(1, 1, host=g), family_array("doob", (1, 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_pseudo_bitrade_criterion_b_matches_verify_eigenfunction(seed):
    g, T, arr = _doob_pseudo_bitrade()
    for U in (T, corrupt_one_vertex(T, random.Random(seed))):
        want = verify_eigenfunction(g, signed_function(U), theta_min(arr))
        assert verify_pseudo_bitrade(g, U).b == want
