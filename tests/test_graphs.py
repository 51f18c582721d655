"""Graph core: BFS, regularity, bipartiteness, complete regularity,
clique systems, exact max clique."""

import hashlib
import itertools
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drgtrades import families, graphs
from drgtrades.bitrades import corrupt_one_vertex, double_johnson_bitrade, min_bitrade_grassmann
from drgtrades.errors import CrossCheckViolation, Disconnected, UnsupportedFieldOrder
from drgtrades.gfq import DEFAULT_ENUMERATION_CAP, gaussian_binomial, make_field
from drgtrades.families import (
    build_dual_polar_D,
    build_family,
    build_grassmann,
    build_hamming,
    build_johnson,
    family_array,
    parse_family,
)
from drgtrades.graphs import (
    CliqueSystem,
    Graph,
    IntersectionArray,
    clique_pairs,
    completely_regular_check,
    distance_regularity_check,
    graph_to_json,
    induced_subgraph,
    is_bipartite,
    is_isometric_subgraph,
    is_regular,
    verify_clique_system,
    _distance_regularity_sweep,
    _transitive_certificate,
)


from helpers import cube_graph, cycle_graph, max_clique_order, reference_sweep


def random_connected_graph(rng, n, extra):
    edges = {(i, rng.randrange(i)) for i in range(1, n)}
    target = min(n - 1 + extra, n * (n - 1) // 2)
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((max(u, v), min(u, v)))
    return Graph([f"v{i:02d}" for i in range(n)], sorted(edges))


def floyd_warshall(g):
    n = g.num_vertices
    INF = 10 ** 9
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edge_array().tolist():
        d[u][v] = d[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            for j in range(n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return d


# --- BFS ---------------------------------------------------------------------

def test_bfs_self_distance_zero():
    g = cycle_graph(4)
    assert g.distances_from(0)[0] == 0


def test_bfs_square_opposite():
    g = cycle_graph(4)
    assert g.distances_from(0)[2] == 2


def test_bfs_matches_floyd_warshall():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 14), rng.randint(0, 10))
        fw = floyd_warshall(g)
        for x in range(g.num_vertices):
            assert g.distances_from(x).tolist() == fw[x]


def random_graph(rng, n, m):
    """m distinct random edges on n vertices; often disconnected."""
    edges = set()
    while len(edges) < min(m, n * (n - 1) // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph([f"v{i:02d}" for i in range(n)], sorted(edges))


def test_multi_source_distances_match_floyd_warshall():
    rng = random.Random(11)
    graphs = [random_connected_graph(rng, 60, 120), random_graph(rng, 40, 30),
              Graph(["a", "b", "c", "d"], [(0, 1)])]
    graphs += [random_graph(rng, rng.randint(2, 30), rng.randint(0, 40)) for _ in range(20)]
    for g in graphs:
        fw = floyd_warshall(g)
        for _ in range(4):
            sources = rng.sample(range(g.num_vertices), rng.randint(1, min(3, g.num_vertices)))
            want = [min(fw[x][v] for x in sources) for v in range(g.num_vertices)]
            want = [-1 if d >= 10 ** 9 else d for d in want]
            assert g.multi_source_distances(sources).tolist() == want
    assert -1 in graphs[2].multi_source_distances([0]).tolist()


def test_bfs_matches_hamming_distance_above_old_threshold():
    g, _ = build_hamming(11, 2)
    words = np.array([int(lab, 2) for lab in g.labels])
    for x in (0, 777, 2047):
        want = [bin(w).count("1") for w in (words ^ words[x]).tolist()]
        assert g.multi_source_distances([x]).tolist() == want


def test_bfs_disconnected_raises():
    g = Graph(["a", "b", "c"], [(0, 1)])
    with pytest.raises(Disconnected):
        g.distances_from(0)


def test_distance_matrix_rows_match_bfs():
    g, _ = build_grassmann(5, 2, 3)       # 1210 vertices
    dm = g.distance_matrix()
    for x in (0, 605, 1209):
        assert dm[x].tolist() == g.multi_source_distances([x]).tolist()


# --- regularity / bipartiteness ------------------------------------------------

def test_is_regular_cube():
    assert is_regular(cube_graph(3)).value == 3


def test_is_regular_path_fails():
    g = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
    v = is_regular(g)
    assert not v.ok and v.witness is not None


def test_bipartite_cube_and_triangle():
    assert is_bipartite(cube_graph(3)).ok
    tri = Graph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    v = is_bipartite(tri)
    assert not v.ok
    cyc = v.witness
    assert len(cyc) % 2 == 1 and len(cyc) >= 3


def test_bipartite_odd_cycle_witness_is_cycle():
    g = cycle_graph(7)
    v = is_bipartite(g)
    assert not v.ok
    cyc = [g.index_of(lab) for lab in v.witness]
    assert len(set(cyc)) == len(cyc)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert b in g.neighbors(a)


def test_odd_cycle_witness_climbs_to_least_index_neighbors():
    # the folded 5-cube: the 4-cube plus its antipodal edges.  0011 and 0111
    # are adjacent at distance 2 from 0000, and each has two neighbors at
    # distance 1: 0001 and 0010, and 1000 and 1111.
    c = cube_graph(4)
    g = Graph(c.labels, c.edge_array().tolist() + [(i, 15 - i) for i in range(8)])
    v = is_bipartite(g)
    assert not v.ok and v.witness == ["0011", "0001", "0000", "1000", "0111"]


def _two_colorable(g, verts):
    """Brute force: some 0/1 coloring of verts, the first vertex colored 0,
    leaves no edge inside verts monochromatic."""
    verts = sorted(verts)
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u, v in g.edge_array().tolist() if u in pos and v in pos]
    codes = np.arange(2 ** (len(verts) - 1))[:, None] << 1
    colors = (codes >> np.arange(len(verts))) & 1
    proper = np.ones(len(colors), dtype=bool)
    for u, v in edges:
        proper &= colors[:, u] != colors[:, v]
    return bool(proper.any())


def _component_of_zero(g):
    seen, stack = {0}, [0]
    while stack:
        for v in g.neighbors(stack.pop()).tolist():
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


@st.composite
def small_graphs(draw):
    """Graphs on at most 12 vertices, often disconnected; half of them
    bipartite by construction (edges only across a drawn side split)."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    if draw(st.booleans()):
        side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        pairs = [(u, v) for u, v in pairs if side[u] != side[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph([f"v{i:02d}" for i in range(n)], edges)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_graphs())
def test_bipartite_agrees_with_brute_force(g):
    comp = _component_of_zero(g)
    if not _two_colorable(g, comp):
        v = is_bipartite(g)
        assert not v.ok and v.detail == "odd cycle"
        cyc = [g.index_of(lab) for lab in v.witness]
        assert len(cyc) % 2 == 1 and len(cyc) >= 3 and len(set(cyc)) == len(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert b in g.neighbors(a)
    elif len(comp) < g.num_vertices:
        with pytest.raises(Disconnected):
            is_bipartite(g)
    else:
        v = is_bipartite(g)
        assert v.ok and v.value[0] == 0 and set(v.value) <= {0, 1}
        assert all(v.value[a] != v.value[b] for a, b in g.edge_array().tolist())


# sha256 of bytes(is_bipartite(g).value), recorded from a queue BFS that
# colored each vertex opposite its BFS parent, independently of distance parity
BIPARTITE_SHA256 = {
    ("cube", 3): "d17a42e02dc5e82f3011d1347e4cca78ae412e0f00378e767bbae7abaf32cebe",
    ("cube", 4): "516f0f2b348f378bbfdfaa1783dcfa2095bb0f8285efe3b239dbe1059072e5b8",
    ("cube", 5): "c10b6b6296286fb81e75d8366dd75207795616207142c46975f537a2648cf110",
    ("dual_polar_D", 1, 2): "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    ("dual_polar_D", 2, 2): "073785f527f6e7d4a39b1ef1ee3e110e8855d3cbb2f8fc9ce78a73e50b83f300",
    ("dual_polar_D", 3, 2): "6c00b41d1f632b9fe148be36445cf915d7f6a8520adc321b896011e068947639",
    ("dual_polar_D", 1, 3): "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    ("dual_polar_D", 2, 3): "bbacd855fb1d7eb94cdda3b8ba09c12ca3c608980acb2667ebd6bd258c5bd63d",
    ("dual_polar_D", 3, 3): "d024e956b23c83e78b63bb1ea79e604be99783c406cd68cc18b67a5ebef926b9",
    ("dual_polar_D", 1, 4): "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    ("dual_polar_D", 2, 4): "08534f3c76653122deabb546c25618cd25ad87db052fcba64a34dd0bec89566f",
    ("dual_polar_D", 1, 5): "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    ("dual_polar_D", 2, 5): "c7b82b0184b4dce097bc895b35043fd5c6a91fbb113ec90bb7fe84f77ef4c72c",
    ("dual_polar_D", 1, 7): "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    ("dual_polar_D", 2, 7): "7072a30696893455857632c88a5714e4b8b4cc86e3d7efb45cab41eac9d8b3f4",
    ("dual_polar_D", 1, 8): "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    ("dual_polar_D", 2, 8): "64764242212eb00e07cc4bba6c72ea654e53bedb5bbc6f65096e1cc80e43fdbf",
    ("dual_polar_D", 1, 9): "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    ("dual_polar_D", 2, 9): "4cff9e12430c36376f2d9fae2d8cc30728e3f75daeaf1bf2ea000890ab87485a",
}


def test_pinned_dual_polar_hosts_are_all_buildable_ones():
    buildable = set()
    for q in range(2, 64):
        try:
            make_field(q)
        except UnsupportedFieldOrder:
            continue
        d = 1
        while gaussian_binomial(2 * d, d, q) <= DEFAULT_ENUMERATION_CAP:
            buildable.add(("dual_polar_D", d, q))
            d += 1
    assert buildable == {h for h in BIPARTITE_SHA256 if h[0] == "dual_polar_D"}


@pytest.mark.parametrize("host", sorted(BIPARTITE_SHA256))
def test_bipartite_colorings_are_pinned(host):
    g = cube_graph(host[1]) if host[0] == "cube" else build_dual_polar_D(*host[1:])
    v = is_bipartite(g)
    assert v.ok and hashlib.sha256(bytes(v.value)).hexdigest() == BIPARTITE_SHA256[host]


# --- induced / isometric subgraphs --------------------------------------------

def test_induced_subgraph_full_and_edge():
    g = cube_graph(3)
    sub, back = induced_subgraph(g, range(8))
    assert sub.num_edges == g.num_edges and back == list(range(8))
    sub2, _ = induced_subgraph(g, [0, 1])
    assert (sub2.num_vertices, sub2.num_edges) == (2, 1)


def _induced_by_loop(g, verts):
    back = sorted(set(int(v) for v in verts))
    pos = {h: i for i, h in enumerate(back)}
    edges = [(pos[h], pos[w]) for h in back for w in g.neighbors(h).tolist()
             if w in pos and h < w]
    return [g.labels[h] for h in back], edges, back


@pytest.mark.parametrize("spec", ["grassmann:4,2,2", "hamming:4,3"])
def test_induced_subgraph_matches_vertex_loop(spec):
    g, _ = build_family(*parse_family(spec))
    rng = random.Random(spec)
    for size in (1, 2, 5, 12, 30, g.num_vertices // 2, g.num_vertices):
        verts = [rng.randrange(g.num_vertices) for _ in range(size)]
        sub, back = induced_subgraph(g, np.array(verts))
        labels, edges, ref_back = _induced_by_loop(g, verts)
        assert back == ref_back and sub.labels == labels
        assert sub.edge_array().tolist() == [list(e) for e in edges]


def test_isometric_geodesic_path():
    g = cube_graph(4)
    # a geodesic: 0000 -> 0001 -> 0011 -> 0111 -> 1111
    path = ["0000", "0001", "0011", "0111", "1111"]
    verts = [g.index_of(p) for p in path]
    assert is_isometric_subgraph(g, verts).ok


def test_isometric_fails_for_hexagon_antipodes():
    g = cycle_graph(6)
    v = is_isometric_subgraph(g, [0, 3])
    assert not v.ok and v.witness == ("v0", "v3", None, 3)  # internally unreachable


def test_isometric_witness_of_double_johnson_is_pinned():
    g, _ = build_johnson(12, 3)
    v = is_isometric_subgraph(g, double_johnson_bitrade(12, 3, host=g).support)
    assert not v.ok and v.witness == ("1,3,5", "7,10,11", None, 3)


# is_isometric_subgraph witnesses of the supports of the first 20 draws of
# corrupt_one_vertex(T, random.Random(2024)) on the minimum bitrade T of
# J_2(6,3), recorded with the per-source BFS loop.
J263_CORRUPTION_WITNESSES = [
    ('000100/000010/000001', '010011/001011/000100', 3, 2),
    ('000100/000010/000001', '100011/010111/001110', 4, 3),
    ('010000/000100/000001', '100101/010011/001110', 4, 3),
    ('010000/000100/000001', '100001/010010/001100', 4, 3),
    ('000100/000010/000001', '100100/010001/001011', 4, 3),
    ('010000/001000/000100', '100001/011101/000011', 4, 3),
    ('001000/000100/000010', '100100/010010/001001', 4, 3),
    ('100000/010000/000001', '110011/001010/000110', 4, 3),
    ('100000/001000/000010', '101001/000101/000010', 3, 2),
    ('001000/000100/000010', '100011/010110/001101', 4, 3),
    ('000100/000010/000001', '101010/010011/000101', 3, 2),
    ('010000/000100/000001', '101000/010010/000101', 3, 2),
    ('100000/000010/000001', '100100/010000/001000', 4, 3),
    ('100000/000010/000001', '100110/010100/000001', 3, 2),
    ('010000/000100/000001', '100010/010110/001000', 4, 3),
    ('000100/000010/000001', '110011/001011/000110', 3, 2),
    ('100000/000010/000001', '100111/010101/001110', 4, 3),
    ('000100/000010/000001', '100000/010010/000001', 3, 2),
    ('010000/001000/000100', '101011/011010/000111', 4, 3),
    ('000100/000010/000001', '010010/001000/000100', 3, 2),
]


def test_isometric_witnesses_of_corruptions_are_pinned():
    g, _ = build_grassmann(6, 3, 2)
    T = min_bitrade_grassmann(6, 3, 2, host=g)
    assert is_isometric_subgraph(g, T.support).ok
    rng = random.Random(2024)
    for want in J263_CORRUPTION_WITNESSES:
        v = is_isometric_subgraph(g, corrupt_one_vertex(T, rng).support)
        assert not v.ok and v.witness == want


def test_isometric_on_disconnected_host_raises():
    g = Graph(list("abcd"), [(0, 1), (2, 3)])
    with pytest.raises(Disconnected, match="'c' unreachable from 'a'"):
        is_isometric_subgraph(g, [0, 2])


def test_whole_vertex_set_is_isometric():
    g = cube_graph(3)
    assert is_isometric_subgraph(g, range(8)).ok


# --- completely regular sets ----------------------------------------------------

def test_singleton_in_cube_gives_cube_array():
    g = cube_graph(4)
    res = completely_regular_check(g, [0])
    assert res.ok
    assert res.value == IntersectionArray(4, (4, 3, 2, 1), (1, 2, 3, 4))


def test_whole_set_has_radius_zero():
    g = cube_graph(3)
    res = completely_regular_check(g, range(8))
    assert res.ok and res.value.rho == 0 and res.value.a(0) == 3


def test_distance_regularity_cube():
    v = distance_regularity_check(cube_graph(4))
    assert v.ok and v.value == IntersectionArray(4, (4, 3, 2, 1), (1, 2, 3, 4))


def test_distance_regularity_star_fails():
    g = Graph(["c", "l1", "l2", "l3"], [(0, 1), (0, 2), (0, 3)])
    v = distance_regularity_check(g)
    assert (v.ok, v.witness, v.detail) == (False, ("l1", 1, 3), "not regular")


def circulant_graph(n, steps):
    edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
    return Graph([f"v{i}" for i in range(n)], sorted(edges))


# Literal verdicts of the per-vertex sweep: a graph with a non-uniform level
# count must still get the sweep's witness, byte for byte.
PINNED_WITNESSES = [
    ("path", Graph([f"p{i}" for i in range(5)], [(i, i + 1) for i in range(4)]),
     (False, ("p1", 2, 1), "not regular")),
    ("prism", Graph([f"v{i}" for i in range(6)],
                    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
     (False, ("v0", "v1", 1, "forward", 1, 2), "singleton not completely regular")),
    ("wagner", circulant_graph(8, (1, 4)),
     (False, ("v0", "v2", 2, "backward", 1, 2), "singleton not completely regular")),
    # vertex 0 has uniform shell counts here; v01 is the first that does not
    ("cubic10", Graph([f"v{i:02d}" for i in range(10)],
                      [(0, 1), (0, 5), (0, 6), (1, 2), (1, 9), (2, 6), (2, 8), (3, 4),
                       (3, 7), (3, 8), (4, 8), (4, 9), (5, 7), (5, 9), (6, 7)]),
     (False, ("v01", "v04", 2, "backward", 1, 2), "singleton not completely regular")),
]


@pytest.mark.parametrize("name,g,expected", PINNED_WITNESSES,
                         ids=[p[0] for p in PINNED_WITNESSES])
def test_distance_regularity_witness_is_pinned(name, g, expected):
    v = distance_regularity_check(g)
    assert (v.ok, v.witness, v.detail) == expected


def test_distance_regularity_disconnected_raises():
    g = Graph(list("abcdef"), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(Disconnected, match="graph is disconnected"):
        distance_regularity_check(g)


# Family hosts whose distance-regularity the suite checks by both routes.
DR_HOSTS = [
    ("octahedron", (2,)), ("octahedron", (3,)), ("octahedron", (4,)),
    ("hamming", (2, 2)), ("hamming", (3, 2)), ("hamming", (4, 2)),
    ("hamming", (3, 3)), ("hamming", (2, 4)), ("hamming", (3, 4)),
    ("johnson", (4, 2)), ("johnson", (6, 3)), ("johnson", (8, 3)),
    ("johnson", (8, 4)), ("johnson", (12, 3)),
    ("halved_cube", (4,)), ("halved_cube", (6,)), ("halved_cube", (8,)),
    ("shrikhande", ()), ("doob", (1, 0)), ("doob", (1, 1)), ("doob", (2, 0)),
    ("grassmann", (4, 2, 2)), ("grassmann", (4, 2, 3)), ("grassmann", (6, 2, 2)),
    ("grassmann", (6, 3, 2)),
    ("dual_polar_D", (2, 2)), ("dual_polar_D", (2, 3)), ("dual_polar_D", (3, 2)),
]


@pytest.mark.parametrize("name,params", DR_HOSTS)
def test_level_products_match_sweep(name, params):
    # the certificate, on every family but dual polar, against the sweep
    g, _ = build_family(name, params)
    proof = distance_regularity_check(g)
    assert (g._dm is None) == (name != "dual_polar_D")    # no sweep ran
    g.generators = None
    assert distance_regularity_check(g) == proof
    assert proof.value == family_array(name, params)


@pytest.mark.parametrize("name,params", [("hamming", (7, 4)), ("halved_cube", (14,))])
def test_certificate_proves_hosts_of_thousands_of_vertices(name, params):
    g, _ = build_family(name, params)
    v = distance_regularity_check(g)
    assert v.ok and v.value == family_array(name, params)
    assert g._dm is None


# --- the automorphism certificate --------------------------------------------------

GRASSMANN_DR_HOSTS = [params for name, params in DR_HOSTS if name == "grassmann"]
# hosts up to this size are also swept by the per-vertex reference
REFERENCE_SWEEP_MAX = 700


@pytest.mark.parametrize("params", GRASSMANN_DR_HOSTS + [(7, 3, 2), (4, 2, 8)])
def test_certificate_matches_closed_form_and_level_products(params):
    g, _ = build_grassmann(*params)
    k = is_regular(g).value
    proof = _transitive_certificate(g, g.generators(), k)
    assert proof.ok and proof.value == family_array("grassmann", params)
    assert distance_regularity_check(g) == proof
    assert g._dm is None                # no sweep ran
    if g.num_vertices <= REFERENCE_SWEEP_MAX:
        assert reference_sweep(g) == proof


def test_grassmann_generators_are_computed_on_demand(monkeypatch):
    g, _ = build_grassmann(4, 2, 3)
    perms = g.generators()
    assert len(perms) == 3              # cycle, transvection, diag(w, 1, 1, 1)
    assert all(sorted(p.tolist()) == list(range(g.num_vertices)) for p in perms)
    assert len(build_grassmann(4, 2, 2)[0].generators()) == 2

    def never(*args):
        raise AssertionError("a builder computed generators")
    # label maps resolve their images through index_of
    monkeypatch.setattr(families, "_grassmann_generators", never)
    monkeypatch.setattr(Graph, "index_of", never)
    for name, params in DR_HOSTS:
        g, _ = build_family(name, params)
        assert (g.generators is None) == (name == "dual_polar_D"), name


def _edge_named(message):
    """The labels of 'generator i maps edge a-b to non-edge c-d'."""
    return re.fullmatch(r"generator \d+ maps edge (\S+)-(\S+) to non-edge (\S+)-(\S+)",
                        message).groups()


def test_certificate_refuses_a_non_automorphism():
    g, _ = build_grassmann(4, 2, 2)
    cycle, transvection = g.generators()
    bad = transvection.copy()
    bad[[0, 1]] = bad[[1, 0]]
    with pytest.raises(CrossCheckViolation) as exc:
        _transitive_certificate(g, [cycle, bad], is_regular(g).value)
    assert str(exc.value).startswith("generator 1 ")
    a, b, c, d = (g.index_of(lab) for lab in _edge_named(str(exc.value)))
    assert b in g.neighbors(a) and d not in g.neighbors(c)
    assert (c, d) == (bad[a], bad[b])
    g.generators = lambda: [cycle, bad]
    with pytest.raises(CrossCheckViolation, match="maps edge"):
        distance_regularity_check(g)


def test_certificate_check_runs_under_optimize():
    # python -O strips assert statements; the check must not be one
    code = "\n".join([
        "from drgtrades.errors import CrossCheckViolation",
        "from drgtrades.families import build_grassmann",
        "from drgtrades.graphs import distance_regularity_check",
        "g, _ = build_grassmann(4, 2, 2)",
        "perms = g.generators()",
        "perms[1][[0, 1]] = perms[1][[1, 0]]",
        "g.generators = lambda: perms",
        "try:",
        "    distance_regularity_check(g)",
        "except CrossCheckViolation as exc:",
        "    print('raised', __debug__, exc)",
    ])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("raised False generator 1 maps edge ")


@pytest.mark.parametrize("mangle", [
    lambda p: np.where(p == p[1], p[0], p),     # two vertices onto one
    lambda p: np.where(p == 0, -1, p),          # an image that is no vertex
    lambda p: p[:-1],                           # too short
    lambda p: p.astype(float),                  # not integers
], ids=["repeat", "missing", "short", "float"])
def test_certificate_refuses_a_non_permutation(mangle):
    g, _ = build_grassmann(4, 2, 2)
    cycle, transvection = g.generators()
    with pytest.raises(CrossCheckViolation, match="generator 1 is not a permutation"):
        _transitive_certificate(g, [cycle, mangle(transvection)], is_regular(g).value)


def test_non_transitive_generators_fall_back_to_the_sweep():
    g, _ = build_grassmann(4, 2, 2)
    cycle = g.generators()[0]
    k = is_regular(g).value
    assert _transitive_certificate(g, [cycle], k) is None
    g.generators = lambda: [cycle]
    expected, _ = build_grassmann(4, 2, 2)
    expected.generators = None
    assert distance_regularity_check(g) == distance_regularity_check(expected)
    assert g._dm is not None            # the sweep's distance matrix


# generators of the vertex-transitive pinned graphs, which are not distance-regular
TRANSITIVE_PINNED = {
    "prism": lambda: [np.array([1, 2, 0, 4, 5, 3]), np.array([3, 4, 5, 0, 1, 2])],
    "wagner": lambda: [(np.arange(8) + 1) % 8],
}


@pytest.mark.parametrize("name,g,expected",
                         [p for p in PINNED_WITNESSES if p[0] in TRANSITIVE_PINNED],
                         ids=[p[0] for p in PINNED_WITNESSES if p[0] in TRANSITIVE_PINNED])
def test_certificate_keeps_the_sweep_witness(monkeypatch, name, g, expected):
    monkeypatch.setattr(g, "generators", TRANSITIVE_PINNED[name])
    v = distance_regularity_check(g)
    assert _transitive_certificate(g, g.generators(), 3) == v
    assert (v.ok, v.witness, v.detail) == expected


def test_certificate_on_a_disconnected_graph_raises():
    g = Graph(list("abcdef"), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    g.generators = lambda: [np.array([1, 2, 0, 4, 5, 3]), np.array([3, 4, 5, 0, 1, 2])]
    with pytest.raises(Disconnected, match="graph is disconnected"):
        distance_regularity_check(g)


# --- bit-parallel distances among a vertex set -----------------------------------

def per_source_distances(g, verts):
    """The reference for distances_among: one single-source BFS per vertex."""
    return np.stack([g.multi_source_distances([v])[verts] for v in verts])


@pytest.mark.parametrize("name,params", DR_HOSTS)
def test_distances_among_match_per_source_bfs(name, params):
    # 63, 64 and 65 sources straddle a word boundary; 130 fill three words
    g, _ = build_family(name, params)
    rng = np.random.default_rng(g.num_vertices)
    for size in (1, 5, 63, 64, 65, 130):
        if size <= g.num_vertices:
            verts = rng.choice(g.num_vertices, size, replace=False)
            assert (g.distances_among(verts) == per_source_distances(g, verts)).all()


def test_distances_among_across_gather_blocks(monkeypatch):
    monkeypatch.setattr(graphs, "_GATHER_BLOCK", 7)
    rng = random.Random(5)
    g = random_graph(rng, 90, 200)
    verts = rng.sample(range(90), 70)
    assert (g.distances_among(verts) == per_source_distances(g, verts)).all()


def test_distances_among_marks_unreachable_pairs():
    # two triangles, isolated vertices c and h, and a path d-e
    g = Graph(list("abcdefghij"), [(0, 1), (1, 5), (0, 5), (3, 4), (6, 8), (8, 9), (6, 9)])
    verts = [2, 0, 5, 3, 4, 7, 9, 6]
    got = g.distances_among(verts)
    assert (got == per_source_distances(g, verts)).all()
    assert got[0].tolist() == [0, -1, -1, -1, -1, -1, -1, -1]
    assert got[3].tolist() == [-1, -1, -1, 0, 1, -1, -1, -1]
    assert (Graph(list("abc"), []).distances_among([2, 0]) == [[0, -1], [-1, 0]]).all()


def test_distances_among_repeated_vertex():
    g = cycle_graph(7)
    assert g.distances_among([3, 0, 3]).tolist() == [[0, 3, 0], [3, 0, 3], [0, 3, 0]]


def random_regular_graph(rng, n, k):
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == n * k // 2 and all(u != v for u, v in pairs):
            return Graph([f"v{i:02d}" for i in range(n)], sorted(pairs))


def test_sweep_matches_reference_on_small_regular_graphs(monkeypatch):
    # circulants include cycles, complete and complete multipartite graphs
    rng = random.Random(17)
    hosts = [circulant_graph(n, steps) for n in range(3, 13)
             for r in (1, 2) for steps in itertools.combinations(range(1, n // 2 + 1), r)]
    hosts += [random_regular_graph(rng, n, 3) for n in (8, 10, 12, 14) for _ in range(5)]
    hosts = [g for g in hosts if (g.multi_source_distances([0]) >= 0).all()]
    details = set()
    for block in (graphs._GATHER_BLOCK, 7):     # 7 entries: one source, and a few vertices, a block
        monkeypatch.setattr(graphs, "_GATHER_BLOCK", block)
        for g in hosts:
            g._dm = None
            sweep = _distance_regularity_sweep(g, is_regular(g).value)
            assert sweep == reference_sweep(g)
            details.add(sweep.detail)
    assert details == {"", "singleton not completely regular"}


def test_distance_regularity_cycle():
    v = distance_regularity_check(cycle_graph(6))
    assert v.ok and v.value == IntersectionArray(2, (2, 1, 1), (1, 1, 2))


def test_completely_regular_failure_witness():
    g = cube_graph(3)
    res = completely_regular_check(g, [g.index_of("000"), g.index_of("011")])
    assert not res.ok and res.witness is not None


# --- clique systems --------------------------------------------------------------

def test_cube_edge_cliques():
    g = cube_graph(3)
    cliques = tuple(tuple(e) for e in g.edge_array().tolist())
    S = CliqueSystem(g, cliques, s=1, m=1)
    v = verify_clique_system(g, S)
    assert v.ok


def test_clique_system_multiplicity_witness():
    g = cube_graph(3)
    cliques = tuple(tuple(e) for e in g.edge_array().tolist()[:-1])  # drop one edge
    S = CliqueSystem(g, cliques, s=1, m=1)
    v = verify_clique_system(g, S)
    assert not v.ok and v.detail == "edge multiplicity mismatch"
    assert repr(v.witness) == "('110', '111', 0, 1)"


def test_clique_system_non_edge_witness():
    g = cycle_graph(5)
    S = CliqueSystem(g, ((0, 2),), s=1, m=1)
    v = verify_clique_system(g, S)
    assert v.detail == "clique contains a non-edge"
    assert repr(v.witness) == "(0, 'v0', 'v2')"


def test_clique_system_rows():
    g = cycle_graph(5)
    S = CliqueSystem(g, [[1, 0], (2, 1)], s=1, m=1)
    assert S.cliques.tolist() == [[1, 0], [2, 1]]
    v = verify_clique_system(g, CliqueSystem(g, ((0, 0),), s=1, m=1))
    assert (v.witness, v.detail) == (0, "clique of wrong size")
    for rows in (((0, 1), (1, 2, 3)), ((0, 1, 2),)):
        with pytest.raises(ValueError):
            CliqueSystem(g, rows, s=1, m=1)
    assert CliqueSystem(g, (), s=1, m=1).cliques.shape == (0, 2)


@st.composite
def clique_rows(draw):
    """(labels, rows): layers of disjoint rows, each layer covering the same
    w * t vertices once, so incidence is uniform; then maybe every row
    repeated (edges in two rows), rows dropped or isolated vertices added
    (uneven incidence), and rows and their entries shuffled."""
    w, t, layers = draw(st.integers(3, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = w * t
    rows = np.concatenate([rng.permutation(n).reshape(t, w) for _ in range(layers)])
    if draw(st.booleans()):
        rows = np.concatenate([rows, rows])
    drop = draw(st.integers(0, len(rows) - 1))
    rows = rng.permuted(rows[rng.permutation(len(rows))[drop:]], axis=1)
    return [f"v{i:03d}" for i in range(n + draw(st.integers(0, 2)))], rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(clique_rows())
def test_graph_from_clique_rows_equals_graph_from_their_pairs(case):
    labels, rows = case
    g, ref = Graph(labels, rows), Graph(labels, clique_pairs(rows).reshape(-1, 2))
    for got, want in ((g._flat, ref._flat), (g._off, ref._off)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_wide_rows_refuse_loops_and_out_of_range_vertices():
    # the first two have uneven incidence, the third uniform
    for rows, message in [([[0, 1, 2], [1, 3, 1]], "loops are not allowed"),
                          ([[0, 1, 2, 3], [2, 0, 3, 2]], "loops are not allowed"),
                          ([[0, 1, 2, 2], [3, 3, 0, 1]], "loops are not allowed"),
                          ([[0, 1, 2], [1, 2, 4]], "edge endpoint out of range"),
                          ([[0, 1, 2], [-1, 2, 3]], "edge endpoint out of range"),
                          ([[0], [1]], "edges must be index pairs or cliques")]:
        with pytest.raises(ValueError, match=message):
            Graph(list("abcd"), np.array(rows))


def _mutated_systems(S):
    rows, n = S.cliques, S.host.num_vertices
    yield "drop", np.delete(rows, 5, axis=0), S.m
    yield "duplicate", np.insert(rows, 9, rows[3], axis=0), S.m
    swapped = rows.copy()
    swapped[11, 2] = min(set(range(n)) - set(rows[11].tolist()))
    yield "swap", swapped, S.m
    exchanged = rows.copy()
    exchanged[4, 1], exchanged[20, 0] = rows[20, 0], rows[4, 1]
    yield "exchange", exchanged, S.m
    repeated = rows.copy()
    repeated[6, 3] = rows[6, 0]
    yield "repeat", repeated, S.m
    yield "multiplicity", rows, S.m + 1
    yield "negative multiplicity", rows, -1
    shuffled = np.random.default_rng(5).permuted(rows[::-1], axis=1)
    yield "shuffled", shuffled, S.m


# verify_clique_system's witnesses, recorded before the sorted-key accept path
CLIQUE_WITNESSES = {
    "grassmann:6,3,2": {
        "drop": ("000100/000010/000001", "001000/000101/000011", 0, 1),
        "duplicate": ("000100/000010/000001", "001000/000100/000011", 2, 1),
        "swap": (11, "000100/000010/000001", "010000/001001/000011"),
        "exchange": (4, "001000/000100/000010", "010000/000101/000010"),
        "repeat": 6,
        "multiplicity": ("000100/000010/000001", "001000/000010/000001", 1, 2),
        "negative multiplicity": ("000100/000010/000001", "001000/000010/000001", 1, -1),
        "shuffled": None,
    },
    "halved_cube:8": {
        "drop": ("00000000", "00100001", 1, 2),
        "duplicate": ("00000000", "00001001", 3, 2),
        "swap": (11, "00000000", "00100111"),
        "exchange": (4, "00000110", "00011000"),
        "repeat": 6,
        "multiplicity": ("00000000", "00000011", 2, 3),
        "negative multiplicity": ("00000000", "00000011", 2, -1),
        "shuffled": None,
    },
}


@pytest.mark.parametrize("spec", sorted(CLIQUE_WITNESSES))
def test_clique_system_witnesses_are_pinned(spec):
    g, S = build_family(*parse_family(spec))
    for tag, rows, m in _mutated_systems(S):
        v = verify_clique_system(g, CliqueSystem(g, rows, s=S.s, m=m))
        assert v.witness == CLIQUE_WITNESSES[spec][tag], tag
        assert v.ok == (tag == "shuffled"), tag


# --- max clique -------------------------------------------------------------------

def test_max_clique_triangle():
    tri = Graph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    assert max_clique_order(tri) == 3


def test_max_clique_octahedron_like():
    # cocktail-party graph K_{4x2}: all pairs except 4 antipodal ones
    labels = [f"{i}{s}" for i in range(4) for s in "+-"]
    labels.sort()
    idx = {lab: i for i, lab in enumerate(labels)}
    edges = [(i, j) for i, j in itertools.combinations(range(8), 2)
             if labels[i][0] != labels[j][0]]
    g = Graph(labels, edges)
    assert max_clique_order(g) == 4


def test_max_clique_bipartite_is_two():
    assert max_clique_order(cube_graph(3)) == 2


def test_segment_sums_with_empty_segments():
    from drgtrades.graphs import segment_sums
    values = np.array([1, 2, 3, 4], dtype=np.int64)
    # segments: [0:2], [2:2] (empty), [2:4], [4:4] (trailing empty)
    off = np.array([0, 2, 2, 4, 4])
    assert segment_sums(values, off).tolist() == [3, 0, 7, 0]


# --- serialization -----------------------------------------------------------------

def test_graph_json_deterministic():
    g1 = cube_graph(3)
    g2 = cube_graph(3)
    assert graph_to_json(g1) == graph_to_json(g2)
    doc = graph_to_json(g1)
    assert doc["vertices"] == sorted(doc["vertices"])
    assert doc["edges"] == sorted(doc["edges"])


def test_graph_json_refuses_unsorted_labels():
    g = Graph(["b", "a"], [(0, 1)])
    with pytest.raises(CrossCheckViolation, match="constructors must sort labels"):
        graph_to_json(g)
