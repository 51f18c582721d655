"""Graph core: BFS, regularity, bipartiteness, complete regularity,
clique systems, exact max clique."""

import collections
import contextlib
import hashlib
import io
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drgtrades import families, graphs
from drgtrades.bitrades import (MIN_BITRADES, Bitrade, check_clique_design,
                                corrupt_one_vertex, double_johnson_bitrade,
                                min_bitrade_grassmann)
from drgtrades.cli import main
from drgtrades.errors import CrossCheckViolation, Disconnected, UnsupportedFieldOrder
from drgtrades.gfq import gaussian_binomial, make_field, subspace_bases
from drgtrades.families import (
    DEFAULT_ENUMERATION_CAP,
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
    Verdict,
    completely_regular_check,
    distance_regularity_check,
    graph_to_json,
    induced_subgraph,
    is_bipartite,
    is_isometric_subgraph,
    is_regular,
    verify_clique_system,
    _transitive,
)
from drgtrades.spectral import VertexFunction


from helpers import (clique_pairs, cube_graph, cycle_graph, max_clique_order, neighbor_rows,
                     reference_clique_system, reference_completely_regular,
                     reference_distances, reference_hits, reference_shell_counts,
                     reference_sweep, same_csr)


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
    assert g.multi_source_distances([0])[0] == 0


def test_bfs_square_opposite():
    g = cycle_graph(4)
    assert g.multi_source_distances([0])[2] == 2


def test_bfs_matches_floyd_warshall():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 14), rng.randint(0, 10))
        fw = floyd_warshall(g)
        for x in range(g.num_vertices):
            assert g.multi_source_distances([x]).tolist() == fw[x]


def random_graph(rng, n, m):
    """m distinct random edges on n vertices; often disconnected."""
    edges = set()
    while len(edges) < min(m, n * (n - 1) // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph([f"v{i:02d}" for i in range(n)], sorted(edges))


def test_multi_source_distances_match_floyd_warshall(monkeypatch):
    rng = random.Random(11)
    hosts = [random_connected_graph(rng, 60, 120), random_graph(rng, 40, 30),
             Graph(["a", "b", "c", "d"], [(0, 1)])]
    hosts += [random_graph(rng, rng.randint(2, 30), rng.randint(0, 40)) for _ in range(20)]
    for g in hosts:
        fw = floyd_warshall(g)
        for _ in range(4):
            sources = rng.sample(range(g.num_vertices), rng.randint(1, min(3, g.num_vertices)))
            want = np.array([min(fw[x][v] for x in sources) for v in range(g.num_vertices)])
            want[want >= 10 ** 9] = -1
            for block in (graphs._GATHER_BLOCK, 5):     # 5 entries: a vertex or two a block
                monkeypatch.setattr(graphs, "_GATHER_BLOCK", block)
                assert g.multi_source_distances(sources).tolist() == want.tolist()
                for depth in range(4):      # -1 also beyond depth
                    got = g._bfs(sources, depth=depth)
                    assert got.tolist() == np.where(want > depth, -1, want).tolist()
    assert -1 in hosts[2].multi_source_distances([0]).tolist()


def test_neighbors_of_concatenates_csr_rows():
    # a regular CSR, clique rows, and two irregular CSRs
    rng = random.Random(29)
    hosts = [cube_graph(4), build_johnson(6, 3)[0], random_graph(rng, 30, 40),
             Graph(list("abc"), [(0, 1)])]
    assert [is_regular(g).ok for g in hosts] == [True, True, False, False]
    for g in hosts:
        for vs in ([], [0], rng.choices(range(g.num_vertices), k=25)):
            want = [w for v in vs for w in g.neighbors(v).tolist()]
            assert g.neighbors_of(vs).tolist() == want
            assert g.neighbors_of(np.array(vs, dtype=np.int64)).tolist() == want


def test_bfs_matches_hamming_distance_above_old_threshold():
    g, _ = build_hamming(11, 2)
    words = np.array([int(lab, 2) for lab in g.labels])
    for x in (0, 777, 2047):
        want = [bin(w).count("1") for w in (words ^ words[x]).tolist()]
        assert g.multi_source_distances([x]).tolist() == want


def test_bfs_disconnected_raises():
    g = Graph(["a", "b", "c"], [(0, 1)])
    assert g.multi_source_distances([0]).tolist() == [0, 1, -1]
    with pytest.raises(Disconnected):
        g.distance_matrix()


def test_out_of_range_vertex_indices_are_refused():
    # numpy would check vertex 4 for -1 and fail with IndexError on 9
    g = cycle_graph(5)
    for sources in ([-1], [9], [0, 5]):
        with pytest.raises(ValueError, match="vertex index out of range"):
            completely_regular_check(g, sources)
    for x in (-1, 5):
        with pytest.raises(ValueError, match="vertex index out of range"):
            g.multi_source_distances([x])
    assert g.multi_source_distances([4]).tolist() == [1, 2, 2, 1, 0]


# on J(6,3)'s 20 vertices numpy would read -1 as vertex 19 and 0.5 as vertex 0, and
# fail with a bare IndexError on vertex 20, on 0.5 or on the empty graph's vertex 0
@pytest.mark.parametrize("call", [
    lambda g, S: g.distances_among([-1, 0]),
    lambda g, S: g.distances_among([20]),
    lambda g, S: g.distances_among([0.5]),
    lambda g, S: induced_subgraph(g, [20, 0]),
    lambda g, S: induced_subgraph(g, [0.5, 1]),
    lambda g, S: is_isometric_subgraph(g, [-1, 0]),
    lambda g, S: is_isometric_subgraph(g, [0.5, 1]),
    lambda g, S: check_clique_design(g, S, {-1}),
    lambda g, S: check_clique_design(g, S, {0.5}),
    lambda g, S: Bitrade(g, frozenset([0.5]), frozenset([19])),
    lambda g, S: g.multi_source_distances([0.5]),
    lambda g, S: completely_regular_check(g, [0.5]),
    lambda g, S: is_regular(Graph([], [])),
    lambda g, S: distance_regularity_check(Graph([], [])),
], ids=["among-negative", "among-past-end", "among-float", "induced-past-end",
        "induced-float", "isometric-negative", "isometric-float", "design-negative",
        "design-float", "bitrade-float", "sources-float",
        "completely-regular-float", "regular-empty", "dr-empty"])
def test_vertex_indices_outside_the_host_are_refused(call):
    g, S = build_johnson(6, 3)
    with pytest.raises(ValueError, match="vertex index out of range|at least one vertex"):
        call(g, S)


def _cli_outcome(*argv):
    """main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


PATH = Graph(list("abcd"), [(0, 1), (1, 2), (2, 3)])
K2 = Graph(list("ab"), [(0, 1)])


# an exception type and the pattern its message matches, or the value returned
@pytest.mark.parametrize("call, expect", [
    (lambda: Graph(["a", "a"], []), (ValueError, "duplicate vertex labels")),
    (lambda: Graph(list("ab"), [(0, 0)]), (ValueError, "loops are not allowed")),
    (lambda: PATH.multi_source_distances([]), (ValueError, "empty source set")),
    (lambda: induced_subgraph(PATH, []), (ValueError, "empty vertex set")),
    (lambda: IntersectionArray(3, (1,), ()), (ValueError, "equal length")),
    (lambda: IntersectionArray(3, (0,), (1,)), (ValueError, "must be positive")),
    (lambda: completely_regular_check(PATH, [0]),
     Verdict(False, witness=("b", 2, 1), detail="host graph not regular")),
    (lambda: completely_regular_check(Graph(list("abcd"), [(0, 1), (2, 3)]), [0]),
     (Disconnected, "does not reach")),
    (lambda: VertexFunction(PATH, [1, 2, 3]), (ValueError, "value count differs")),
    (lambda: min_bitrade_grassmann(3, 2, 2, host=PATH), (ValueError, r"need n >= 2d")),
    (lambda: double_johnson_bitrade(6, 3, host=PATH), (ValueError, r"need n >= 4w")),
    (lambda: corrupt_one_vertex(Bitrade(K2, frozenset({0}), frozenset({1})), random.Random(0)),
     (RuntimeError, "no admissible one-vertex corruption")),
    (lambda: subspace_bases(2, 3, 2), (ValueError, "need 0 <= d <= n")),
    # 3^41 passes the 2^41 floor of the cap test but is not below 2^64
    (lambda: _cli_outcome("build", "--family", "hamming:41,3"),
     (1, "", "error: hamming(41,3): at least 2^64 vertices exceeds cap 100000\n")),
], ids=["duplicate-labels", "pair-loop", "no-sources", "no-vertices", "array-lengths",
        "array-zero-b", "not-regular", "disconnected", "function-length", "grassmann-n",
        "double-johnson-n", "no-corruption", "subspace-d", "cap-past-2^64"])
def test_refusals(call, expect):
    if isinstance(expect, tuple) and isinstance(expect[0], type):
        with pytest.raises(expect[0], match=expect[1]):
            call()
    else:
        assert call() == expect


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
    # two 4-cycles: a connected support is searched to its diameter inside its
    # cycle; one with a part in each cycle searches unbounded, and raises
    g = Graph(list("abcdefgh"), [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    assert is_isometric_subgraph(g, [0, 1, 2]).ok
    with pytest.raises(Disconnected, match="^vertex 'f' unreachable from 'a'$"):
        is_isometric_subgraph(g, [0, 1, 2, 5, 6])


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
    # labels zero-padded to the width of n - 1, so that they are sorted
    edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
    return Graph([f"v{i:0{len(str(n - 1))}d}" for i in range(n)], sorted(edges))


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
def test_certificate_matches_sweep(name, params):
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
def test_certificate_matches_closed_form(params):
    g, _ = build_grassmann(*params)
    assert _transitive(g, g.generators())
    proof = distance_regularity_check(g)
    assert proof.ok and proof.value == family_array("grassmann", params)
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
        _transitive(g, [cycle, bad])
    assert str(exc.value).startswith("generator 1 ")
    a, b, c, d = (g.index_of(lab) for lab in _edge_named(str(exc.value)))
    assert b in g.neighbors(a) and d not in g.neighbors(c)
    assert (c, d) == (bad[a], bad[b])
    g.generators = lambda: [cycle, bad]
    with pytest.raises(CrossCheckViolation, match="maps edge"):
        distance_regularity_check(g)


def test_certificate_checks_an_automorphism_that_moves_the_rows_vertex_by_vertex():
    # complementation is an automorphism of J(6,3) that maps each row (the
    # supersets of a pair) onto a set of triples inside a 4-set, no row
    g, _ = build_johnson(6, 3)
    cycle, swap = g.generators()
    comp = np.array([g.index_of(",".join(str(x) for x in range(1, 7) if str(x) not in lab.split(",")))
                     for lab in g.labels])
    assert not g._keeps_rows(comp.astype(np.uint8)) and g._keeps_rows(cycle.astype(np.uint8))
    assert _transitive(g, [comp, cycle, swap])
    bad = comp.copy()
    bad[[0, 1]] = bad[[1, 0]]
    with pytest.raises(CrossCheckViolation, match="generator 0 maps edge"):
        _transitive(g, [bad, cycle, swap])


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
        _transitive(g, [cycle, mangle(transvection)])


def test_non_transitive_generators_fall_back_to_the_sweep():
    g, _ = build_grassmann(4, 2, 2)
    cycle = g.generators()[0]
    assert not _transitive(g, [cycle])
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
    monkeypatch.setattr(g, "_dm", None)
    assert _transitive(g, g.generators())
    v = distance_regularity_check(g)
    assert g._dm is None                # vertex 0's row alone
    assert (v.ok, v.witness, v.detail) == expected
    monkeypatch.setattr(g, "generators", None)
    assert distance_regularity_check(g) == v


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
    want = per_source_distances(g, verts)
    assert (g.distances_among(verts) == want).all()
    # bounded: the pairs within depth, and -1 beyond
    for depth in range(int(want.max()) + 2):
        assert (g.distances_among(verts, depth=depth) == np.where(want > depth, -1, want)).all()


@pytest.mark.parametrize("name,params", DR_HOSTS)
def test_blocked_bfs_matches_deque_bfs(monkeypatch, name, params):
    g, _ = build_family(name, params)
    x = g.num_vertices // 3
    ref = reference_distances(g, x)
    want = [ref[v] for v in range(g.num_vertices)]
    for block in (graphs._GATHER_BLOCK, 100):   # 100 entries: a few vertices a block
        monkeypatch.setattr(graphs, "_GATHER_BLOCK", block)
        assert g.multi_source_distances([x]).tolist() == want


# the Doob hosts last, so that the cases before them keep their ids
@pytest.mark.parametrize("name,params", sorted((h for h in DR_HOSTS if h[0] in MIN_BITRADES),
                                               key=lambda h: h[0] == "doob"))
def test_bounded_isometry_search_matches_unbounded(name, params):
    # on the minimum bitrade and on drawn one-vertex corruptions of it
    g, _ = build_family(name, params)
    T = MIN_BITRADES[name](*params, host=g)
    rng = random.Random(f"{name}{params}")
    bounded = 0
    for support in [T.support] + [corrupt_one_vertex(T, rng).support for _ in range(5)]:
        sub, back = induced_subgraph(g, support)
        dsub = sub.distances_among(np.arange(sub.num_vertices))
        dhost = g.distances_among(back)
        if (dsub >= 0).all():
            assert (g.distances_among(back, depth=int(dsub.max())) == dhost).all()
            bounded += 1
        assert is_isometric_subgraph(g, support).ok == (dsub == dhost).all()
    assert bounded >= 1


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
            sweep = distance_regularity_check(g)
            assert sweep == reference_sweep(g)
            details.add(sweep.detail)
    assert details == {"", "singleton not completely regular"}


# --- shell counts by clique row --------------------------------------------------

def cyclic_configuration(v):
    """The rows {i, i+1, i+3} mod v: for v >= 7 no pair lies in two of them,
    so they are the adjacency of the circulant graph C_v(1, 2, 3), which is
    not distance-regular for most v."""
    return Graph([f"v{i:02d}" for i in range(v)],
                 [(i, (i + 1) % v, (i + 3) % v) for i in range(v)])


# the halved cubes' edges lie in two rows each (m = 2), every other host's in one
ROWS_HOSTS = [(name, params) for name, params in DR_HOSTS
              if name in ("johnson", "halved_cube", "grassmann")
              or (name == "hamming" and params[1] > 2)]


def rows_host(spec):
    g = cyclic_configuration(spec) if isinstance(spec, int) else build_family(*spec)[0]
    assert g._flat is None          # stored as its rows
    return g


@pytest.mark.parametrize("spec", ROWS_HOSTS + list(range(8, 21)), ids=str)
def test_row_shell_counts_match_the_neighbor_rows(monkeypatch, spec):
    # singleton, multi-vertex and (m, n) distance inputs, in one block and in
    # blocks of one or two rows or vertices, against counts over each
    # vertex's neighbors; the sweep against the per-vertex reference
    g = rows_host(spec)
    n, nbrs = g.num_vertices, neighbor_rows(g)
    sets = [[0], [0, n // 2, n - 1]]
    dists = [g.multi_source_distances(C) for C in sets]
    dists.append(np.stack(dists + [g.multi_source_distances([1])]))
    for block in (graphs._GATHER_BLOCK, 7):
        monkeypatch.setattr(graphs, "_GATHER_BLOCK", block)
        for dist in dists:
            got, want = g._shell_counts(dist), reference_shell_counts(nbrs, dist)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        for C in sets:
            assert completely_regular_check(g, C) == reference_completely_regular(g, C, nbrs)
    if n <= REFERENCE_SWEEP_MAX:
        g.generators = None
        monkeypatch.setattr(graphs, "_GATHER_BLOCK", 7 if n <= 100 else 1 << 18)
        assert distance_regularity_check(g) == reference_sweep(g)


def test_cyclic_configurations_give_both_verdicts():
    # so the rows hosts above include failing ones: C_8(1, 2, 3) is
    # K_{2,2,2,2}, and no larger one is distance-regular
    hosts = [cyclic_configuration(v) for v in range(8, 21)]
    assert {completely_regular_check(g, [0]).detail for g in hosts} == {
        "", "non-uniform shell counts"}
    assert {distance_regularity_check(g).detail for g in hosts} == {
        "", "singleton not completely regular"}


def test_checks_on_rows_hosts_never_gather_the_hood(monkeypatch):
    hosts = [rows_host(spec) for spec in (("hamming", (3, 3)), ("johnson", (6, 3)),
                                          ("halved_cube", (6,)), ("grassmann", (4, 2, 2)), 11)]
    nbrs = [neighbor_rows(g) for g in hosts]
    dms = [np.stack([g.multi_source_distances([x]) for x in range(g.num_vertices)])
           for g in hosts]
    verdicts = [reference_completely_regular(g, [0, 1], nb) for g, nb in zip(hosts, nbrs)]

    def hood(self, vs):
        raise AssertionError("the whole rows were gathered")

    monkeypatch.setattr(Graph, "_hood", hood)
    for g, nb, dm, verdict in zip(hosts, nbrs, dms, verdicts):
        assert completely_regular_check(g, [0, 1]) == verdict
        if g.generators is not None:        # the certificate
            assert distance_regularity_check(g).ok
        got, want = g._shell_counts(dm), reference_shell_counts(nb, dm)      # the sweep's
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_row_spanning_three_levels_raises(monkeypatch):
    g, S = build_johnson(6, 3)
    dist = np.zeros(g.num_vertices, dtype=np.int32)
    dist[7] = 2                 # its rows now span distances 0 to 2
    for call in (lambda: g._shell_counts(dist), lambda: g._shell_counts(np.stack([dist, dist])),
                 lambda: graphs._row_levels(dist, S.cliques)):
        with pytest.raises(CrossCheckViolation, match="spans more than two distance levels"):
            call()
    monkeypatch.setattr(Graph, "multi_source_distances", lambda self, C: dist)
    with pytest.raises(CrossCheckViolation, match="spans more than two distance levels"):
        completely_regular_check(g, [0])


@pytest.mark.parametrize("name,params", [("johnson", (6, 3)), ("hamming", (4, 2)),
                                         ("grassmann", (4, 2, 2))])
def test_row_levels_match_the_gathered_rows(name, params):
    # criterion 11's hosts, H(4,2)'s rows being its edges: each (x, row)
    # lies at its least distance and one more, with up members at the latter
    g, S = build_family(name, params)
    dm = g.distance_matrix()
    D = dm[:, S.cliques]
    lo, up = graphs._row_levels(dm, S.cliques)
    assert np.array_equal(lo, D.min(axis=-1)) and (D <= lo[..., None] + 1).all()
    assert np.array_equal(up, (D > lo[..., None]).sum(axis=-1))


@pytest.mark.parametrize("spec,index_type", [(("hamming", (3, 7)), np.uint8),
                                             (("hamming", (5, 3)), np.uint16),
                                             (("grassmann", (6, 3, 2)), np.uint16)])
def test_row_indices_are_kept_in_the_narrowest_unsigned_type_of_the_rows(spec, index_type):
    # H(3,7): 343 vertices in 147 rows; H(5,3): 243 vertices in 405 rows
    g = rows_host(spec)
    assert g._row_ids.dtype == index_type == graphs._index_type(len(g._cliques))


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


def test_repeated_vertex_rows_fail_the_gather_route(monkeypatch):
    # on C4 each vertex lies in two rows and r*s = k*m, so the co-member gather
    # runs; a row that repeats its vertex lists it among its own co-members,
    # which no CSR row holds, and the witness route names that row
    gathered = []
    real = graphs._co_members
    monkeypatch.setattr(graphs, "_co_members",
                        lambda rows, at: gathered.append(at.shape[1]) or real(rows, at))
    g = cycle_graph(4)
    v = verify_clique_system(g, CliqueSystem(g, [[0, 0], [1, 1], [2, 2], [3, 3]], s=1, m=1))
    assert (v.witness, v.detail, gathered) == (0, "clique of wrong size", [2])


@pytest.mark.parametrize("name,params", [
    ("octahedron", (3,)), ("hamming", (3, 3)), ("johnson", (6, 3)), ("halved_cube", (6,)),
    ("grassmann", (4, 2, 2)), ("grassmann", (4, 2, 3)),
])
def test_hits_match_the_full_gather(name, params):
    g, S = build_family(name, params)
    rng = np.random.default_rng(len(S.cliques))
    for size in (1, 2, 5, g.num_vertices // 3, g.num_vertices):
        X = set(rng.choice(g.num_vertices, size=size, replace=False).tolist())
        assert np.array_equal(S.hits(X), reference_hits(S, X))


def test_hits_on_uneven_repeated_and_empty_systems():
    # on C5, vertex 4 lies in no row of the first two systems and vertex 1 in
    # two, so their incidence has no (n, r) view; rows (0, 0) count 0 twice
    g = cycle_graph(5)
    uneven = [CliqueSystem(g, [[0, 1], [1, 2], [2, 3]], s=1, m=1),
              CliqueSystem(g, [[0, 0], [1, 2], [0, 1]], s=1, m=1)]
    assert all(S._incidence[2] is None for S in uneven)
    systems = uneven + [CliqueSystem(g, [[0, 0], [1, 1], [2, 2], [3, 3], [4, 4]], s=1, m=1),
                        CliqueSystem(g, (), s=1, m=1)]
    for S in systems:
        for size in range(6):
            for X in itertools.combinations(range(5), size):
                assert np.array_equal(S.hits(X), reference_hits(S, X))
    assert systems[1].hits([0]).tolist() == [2, 0, 1]


def test_clique_system_refuses_entries_outside_the_host():
    # the pair key 0*5+7 of (0, 7) is that of the edge (1, 2), the row
    # (-1, 0) would be named through vertex 4, and (0.5, 1.9) cast to (0, 1)
    g = cycle_graph(5)
    for rows in (((0, 1), (0, 7), (2, 3), (3, 4), (0, 4)), ((-1, 0),), ((0.5, 1.9),)):
        with pytest.raises(ValueError, match="vertex index out of range"):
            CliqueSystem(g, rows, s=1, m=1)


@st.composite
def clique_rows(draw):
    """(labels, rows): layers of disjoint rows, each layer covering the same
    w * t vertices once, so incidence is uniform (a pair may lie in more
    rows than another); then maybe every row repeated (each pair's rows
    doubled), rows dropped or isolated vertices added (uneven incidence),
    and rows and their entries shuffled."""
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
# a doubled system: two layers in which no pair repeats, every row twice, so
# each edge lies in two rows (m = 2) and every co-member repeats
@example(([f"v{i:03d}" for i in range(12)],
          np.tile([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11],
                   [0, 3, 6], [1, 4, 9], [2, 7, 10], [5, 8, 11]], (2, 1))))
# uneven multiplicity: vertices 0, 1 and 2 share two rows and every other pair
# one, so blocks of one vertex (7 entries) with and without repeats alternate
@example(([f"v{i:03d}" for i in range(12)],
          np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11],
                    [0, 1, 2], [3, 6, 9], [4, 7, 10], [5, 8, 11]])))
def test_graph_from_clique_rows_equals_graph_from_their_pairs(case):
    labels, rows = case
    if np.ptp(np.bincount(rows.ravel(), minlength=len(labels))):
        with pytest.raises(ValueError, match="clique rows must meet every vertex equally often"):
            Graph(labels, rows)
        return
    counts = set(collections.Counter(tuple(sorted(p)) for p in
                                     clique_pairs(rows).reshape(-1, 2).tolist()).values())
    if len(counts) > 1:
        for block in (graphs._GATHER_BLOCK, 7):
            with pytest.MonkeyPatch.context() as mp, \
                    pytest.raises(ValueError, match="clique rows must hold every pair equally often"):
                mp.setattr(graphs, "_GATHER_BLOCK", block)
                Graph(labels, rows)
        return
    ref, n, (m,) = Graph(labels, clique_pairs(rows).reshape(-1, 2)), len(labels), counts
    for block in (graphs._GATHER_BLOCK, 7):     # 7 entries: one or two vertices a block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_GATHER_BLOCK", block)
            g = Graph(labels, rows)
            # every accessor of the row-built graph, whatever its m, equals
            # its twin's: neighbors, edges, sums, distances, bipartiteness
            assert g._rows_are_adjacency(rows, m) and not g._rows_are_adjacency(rows, m + 1)
            assert same_csr(g, ref) and g.num_edges == ref.num_edges
            assert all(np.array_equal(g.neighbors(v), ref.neighbors(v)) for v in (0, n - 1))
            assert np.array_equal(g.edge_array(), ref.edge_array())
            assert is_regular(g) == is_regular(ref)
            assert np.array_equal(g.neighbor_counts([0, n - 1]), ref.neighbor_counts([0, n - 1]))
            for values in (np.arange(n, dtype=np.int64) ** 2,
                           np.array([3 ** v for v in range(n)], dtype=object)):
                got, want = g.neighbor_sums(values), ref.neighbor_sums(values)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            for sources in ([0], [n - 1, 1]):
                assert np.array_equal(g.multi_source_distances(sources),
                                      ref.multi_source_distances(sources))
                assert np.array_equal(g.distances_among(sources), ref.distances_among(sources))
            assert _outcome(is_bipartite, g) == _outcome(is_bipartite, ref)


def _outcome(check, g):
    try:
        return check(g)
    except Disconnected as exc:
        return str(exc)


def test_uneven_clique_rows_are_refused():
    # a vertex in no row, and vertices in two rows where the others are in
    # one; rows two wide are index pairs, which may meet vertices unevenly
    for labels, rows in [(list("abcd"), [[0, 1, 2]]),
                         (list("abcdef"), [[0, 1, 2], [3, 4, 5], [0, 3, 4]]),
                         (list("abcde"), [[0, 1, 2], [0, 3, 4]])]:
        with pytest.raises(ValueError, match="clique rows must meet every vertex equally often"):
            Graph(labels, np.array(rows))
    assert Graph(list("abcd"), np.array([[0, 1], [0, 2]])).num_edges == 2


def test_halved_cube_rows_equal_their_pair_built_twin():
    # each edge of the halved n-cube lies in two of its rows (m = 2), whose
    # repeats every reader drops or divides out: readers, checks, verdicts
    # and witnesses equal those of the graph built from the rows' pairs,
    # proven by the sweep where the rows host has its certificate
    rng = np.random.default_rng(30)
    for n in range(4, 12):
        g, S = families.build_halved_cube(n, check_delsarte=False)
        twin = Graph(g.labels, clique_pairs(S.cliques).reshape(-1, 2))
        N = g.num_vertices
        assert g._flat is None and twin._cliques is None and same_csr(g, twin)
        assert np.array_equal(g.edge_array(), twin.edge_array()) and is_regular(g) == is_regular(twin)
        vs = rng.choice(N, size=N // 3, replace=False)
        assert all(np.array_equal(g.neighbors(v), twin.neighbors(v)) for v in vs[:5])
        assert np.array_equal(g.neighbor_counts(vs), twin.neighbor_counts(vs))
        for values in (rng.integers(-9, 9, N), np.array([3 ** v for v in range(N)], dtype=object)):
            assert np.array_equal(g.neighbor_sums(values), twin.neighbor_sums(values))
        assert np.array_equal(g.multi_source_distances(vs[:2]), twin.multi_source_distances(vs[:2]))
        assert np.array_equal(g.distances_among(vs), twin.distances_among(vs))
        assert _outcome(is_bipartite, g) == _outcome(is_bipartite, twin)
        assert distance_regularity_check(g) == distance_regularity_check(twin)
        for C in ([0], vs[:3]):
            assert completely_regular_check(g, C) == completely_regular_check(twin, C)
        for m in (2, 1, 3):
            got = verify_clique_system(g, CliqueSystem(g, S.cliques, s=S.s, m=m))
            assert got == verify_clique_system(twin, CliqueSystem(twin, S.cliques, s=S.s, m=m))
            assert got.ok == (m == 2) and got.detail in ("", "edge multiplicity mismatch")


def test_wide_rows_refuse_loops_and_out_of_range_vertices():
    # the first two have uneven incidence, the third uniform
    for rows, message in [([[0, 1, 2], [1, 3, 1]], "loops are not allowed"),
                          ([[0, 1, 2, 3], [2, 0, 3, 2]], "loops are not allowed"),
                          ([[0, 1, 2, 2], [3, 3, 0, 1]], "loops are not allowed"),
                          ([[0, 1, 2], [1, 2, 4]], "vertex index out of range"),
                          ([[0, 1, 2], [-1, 2, 3]], "vertex index out of range"),
                          ([[0.5, 1.9], [1, 2]], "vertex index out of range"),
                          ([[0.5, 1.0, 2.7], [1, 2, 3]], "vertex index out of range"),
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
def test_clique_system_witnesses_are_pinned(spec, monkeypatch):
    g, S = build_family(*parse_family(spec))
    for block in (graphs._GATHER_BLOCK, 7):     # 7 entries: one or two vertices a block
        monkeypatch.setattr(graphs, "_GATHER_BLOCK", block)
        for tag, rows, m in _mutated_systems(S):
            v = verify_clique_system(g, CliqueSystem(g, rows, s=S.s, m=m))
            assert v.witness == CLIQUE_WITNESSES[spec][tag], tag
            assert v.ok == (tag == "shuffled"), tag


def test_clique_system_witnesses_on_uint16_indices():
    # J_2(6,3) has 1,395 vertices, so its rows are uint16, and the pair key
    # u * 1395 + v of the last rows' vertices would wrap in that type; the
    # witnesses are those recorded while the rows were int64
    g, S = build_grassmann(6, 3, 2)
    assert S.cliques.dtype == np.uint16
    rows = S.cliques.astype(np.int64)
    far = rows.copy()
    far[-1, 3] = 0          # vertex 0 is no neighbor of the last row's others
    v = verify_clique_system(g, CliqueSystem(g, far, s=S.s, m=S.m))
    assert (v.witness, v.detail) == ((650, "000100/000010/000001", "100000/011110/000001"),
                                     "clique contains a non-edge")
    v = verify_clique_system(g, CliqueSystem(g, rows[:-1], s=S.s, m=S.m))
    assert (v.witness, v.detail) == (("100000/011110/000001", "100010/011100/000001", 0, 1),
                                     "edge multiplicity mismatch")


def _host(n, pairs):
    return Graph([f"v{i:02d}" for i in range(n)], np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


def _base_clique_systems(rng):
    """(host, rows, m) of valid systems: Steiner triple systems on K_7 and
    K_9, partitions into cliques, the edges of a cycle and of a star (uneven
    incidence), random layers of disjoint rows (valid when no pair repeats),
    family systems with m = 1 and 2, and singleton rows (s = 0) on an
    edgeless host (any m) and on a cycle (m = 0)."""
    fano = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]]
    ag23 = sorted({tuple(sorted(((x + t * a) % 3) * 3 + (y + t * b) % 3 for t in range(3)))
                   for x, y, a, b in itertools.product(range(3), repeat=4) if (a, b) != (0, 0)})
    for n, lines in ((7, fano), (9, ag23)):
        yield _host(n, list(itertools.combinations(range(n), 2))), np.array(lines), 1
    for w in (2, 3, 4):
        rows = rng.permutation(12).reshape(-1, w)
        yield _host(12, clique_pairs(rows).reshape(-1, 2)), rows, 1
    cycle = [(i, (i + 1) % 6) for i in range(6)]
    yield _host(6, cycle), np.array(cycle), 1
    yield _host(5, [(0, i) for i in range(1, 5)]), np.array([(0, i) for i in range(1, 5)]), 1
    for w, t in ((3, 4), (4, 5), (3, 6)):
        rows = np.concatenate([rng.permutation(w * t).reshape(t, w) for _ in range(2)])
        yield _host(w * t, clique_pairs(rows).reshape(-1, 2)), rows, 1
    for spec in ("octahedron:3", "halved_cube:4", "johnson:5,2", "hamming:2,3"):
        g, S = build_family(*parse_family(spec))
        yield g, S.cliques, S.m
    yield _host(4, []), np.arange(4).reshape(4, 1), 1
    yield _host(6, cycle), np.arange(6).reshape(6, 1), 0


def _clique_system_cases(rng):
    """Each valid base taken j = 0..3 times (m = 0 to 3 times the base's);
    then, once and twice, with a wrong m, a row dropped or repeated, two
    entries of different rows exchanged, a vertex repeated within a row, and
    on a host missing one edge, with one extra edge or with no edges."""
    for g, base, m0 in _base_clique_systems(rng):
        n = g.num_vertices
        for j in range(4):
            yield g, np.tile(base, (j, 1)), m0 * j
        for rows, m in ((base, m0), (np.tile(base, (2, 1)), 2 * m0)):
            yield g, rows, m + 1
            yield g, rows, m - 1
            yield g, np.delete(rows, rng.integers(len(rows)), axis=0), m
            yield g, np.insert(rows, 0, rows[rng.integers(len(rows))], axis=0), m
            for _ in range(4):
                a, b = rng.choice(len(rows), 2, replace=False)
                changed = rows.copy()
                changed[a, 0], changed[b, -1] = rows[b, -1], rows[a, 0]
                yield g, changed, m
            if rows.shape[1] > 1:
                changed = rows.copy()
                changed[a, -1] = changed[a, 0]
                yield g, changed, m
            edges = g.edge_array()
            if len(edges):
                yield _host(n, np.delete(edges, rng.integers(len(edges)), axis=0)), rows, m
            missing = sorted(set(itertools.combinations(range(n), 2))
                             - set(map(tuple, edges.tolist())))
            if missing:
                yield _host(n, np.concatenate([edges, [missing[rng.integers(len(missing))]]])), rows, m
            yield _host(n, []), rows, m
            yield _host(n, []), rows[:0], m


def test_clique_system_matches_pair_count_reference(monkeypatch):
    rng = np.random.default_rng(2024)
    seen = set()
    for g, rows, m in _clique_system_cases(rng):
        perm = rng.permutation(g.num_vertices)      # vertex 0 is nothing special
        host = _host(g.num_vertices, perm[g.edge_array()])
        S = CliqueSystem(host, rng.permuted(perm[rows], axis=1), s=rows.shape[1] - 1, m=m)
        want = reference_clique_system(host, S.cliques, m)
        for block in (graphs._GATHER_BLOCK, 7):
            monkeypatch.setattr(graphs, "_GATHER_BLOCK", block)
            assert verify_clique_system(host, S).ok == want, (host, S)
        seen.add(want)
    assert seen == {True, False}


def test_clique_system_accept_path_builds_no_pair_keys(monkeypatch):
    def refuse(self):
        raise AssertionError("the accept path read edge_array")
    monkeypatch.setattr(Graph, "edge_array", refuse)
    checked = 0
    for name, params in DR_HOSTS:
        g, S = build_family(name, params)
        if S is not None:
            assert verify_clique_system(g, S).ok, (name, params)
            checked += 1
    assert checked == 21


@pytest.fixture(scope="module")
def j273():
    # J_2(7,3): 1,240,155 edges in 2,667 cliques of 31
    return build_grassmann(7, 3, 2)


# the bytes of J_2(7,3)'s uint16 CSR and int64 offsets, which the host was
# stored as before its clique rows became its adjacency
J273_CSR_BYTES = 5_055_116


def test_clique_system_check_peak_memory_is_below_the_host_csr(j273):
    g, S = j273
    tracemalloc.start()
    try:
        assert verify_clique_system(g, S).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < J273_CSR_BYTES


def test_singleton_bfs_peak_memory_is_below_the_host_csr(j273):
    g, _ = j273
    tracemalloc.start()
    try:
        dist = g.multi_source_distances([0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dist >= 0).all() and dist.max() == 3
    assert peak < J273_CSR_BYTES


def test_singleton_check_peak_memory_is_below_a_mebibyte(j273):
    # the shell counts read each row at its two levels; gathering every
    # vertex's whole rows took 3.24 MiB
    g, _ = j273
    tracemalloc.start()
    try:
        arr = completely_regular_check(g, [0]).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(arr) == "(210,168,96;1,9,49)"
    assert peak < 1 << 20


def test_build_and_singleton_check_peak_memory():
    # J_2(7,3): its uint16 clique rows and their incidence are the adjacency,
    # and the shell counts read each row at its two levels, so the build sets
    # the peak (3.5 MiB); gathering each vertex's whole rows for the counts
    # took 5.8 MiB, with a uint16 CSR assembled from the rows 9.5 MiB, with
    # an int32 CSR and blocks of 2^20 entries 22 MiB
    tracemalloc.start()
    try:
        g, _ = build_grassmann(7, 3, 2)
        ok = completely_regular_check(g, [0]).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and g.neighbors(0).dtype == np.uint16
    assert peak < 1 << 22


@pytest.mark.parametrize("name,params", [
    (name, params) for name, params in DR_HOSTS
    if name in ("octahedron", "hamming", "johnson", "halved_cube", "grassmann")])
def test_only_the_octahedron_stores_a_csr_and_the_check_reads_the_construction(
        monkeypatch, name, params):
    # every clique family but the octahedron builds its host from its rows,
    # whatever their m, and the clique check reads the construction's proof
    # without a second co-member gather; the octahedron's edges each lie in
    # 2^(n-2) rows, so it is built from its pair list, and the binary Hamming
    # rows are index pairs: both store a CSR, and their checks gather
    g, S = build_family(name, params)
    csr = name == "octahedron" or S.s == 1
    assert (g._cliques is None) == csr
    real, gathered = graphs._co_members, []

    def gather(rows, at):
        if not csr:
            raise AssertionError("the clique check gathered the host's rows again")
        gathered.append(len(at))
        return real(rows, at)
    monkeypatch.setattr(graphs, "_co_members", gather)
    assert verify_clique_system(g, S).ok and bool(gathered) == csr


def test_halved_cube_distance_regularity_peak_memory():
    # halved_cube(12) as its rows: 0.2 MiB, and 1.2 MiB with a CSR assembled
    # from them
    g, _ = families.build_halved_cube(12)
    tracemalloc.start()
    try:
        ok = distance_regularity_check(g).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and peak < 1 << 20


def test_corruption_peak_memory_is_below_a_mebibyte(j273):
    # every move pool at once, |side| x |lonely| other moves among them, took 10 MiB
    g, _ = j273
    T = min_bitrade_grassmann(7, 3, 2, host=g)
    tracemalloc.start()
    try:
        corrupt_one_vertex(T, random.Random(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- vertex indices sorted in the narrowest unsigned type ------------------------------

def test_index_type_is_the_narrowest_unsigned_type_of_the_indices():
    got = [graphs._index_type(n) for n in (1, 256, 257, 65_536, 65_537)]
    assert got == [np.uint8, np.uint8, np.uint16, np.uint16, np.uint32]


@pytest.mark.parametrize("n", [256, 257, 65_536, 65_537])
def test_positions_match_the_stable_argsort_of_the_entries(n):
    # entries near n - 1, many of them tied, which a too narrow type would wrap
    rows = np.random.default_rng(n).integers(max(0, n - 300), n, size=(2000, 4))
    at, off, view = graphs._positions(rows, n)
    assert at.dtype == np.int32 and np.array_equal(at, np.argsort(rows.ravel(), kind="stable"))
    assert np.array_equal(np.diff(off), np.bincount(rows.ravel(), minlength=n)) and view is None


def test_certificate_proves_a_host_of_more_than_65536_vertices():
    # H(17,2), 131,072 vertices, from its edges; build_hamming(17, 2) would take 1.4 s
    x = np.arange(1 << 17)
    heads = np.repeat(x, 17)
    tails = heads ^ np.tile(1 << np.arange(17), x.size)
    g = Graph([format(v, "017b") for v in x.tolist()],
              np.stack([heads, tails], axis=1)[heads < tails])
    flip, rotate = x ^ 1, ((x << 1) | (x >> 16)) & ((1 << 17) - 1)
    g.generators = lambda: [flip, rotate]
    assert distance_regularity_check(g) == Verdict(True, value=family_array("hamming", (17, 2)))
    assert g._dm is None
    bad = rotate.copy()
    bad[[0, 1]] = bad[[1, 0]]
    g.generators = lambda: [flip, bad]
    with pytest.raises(CrossCheckViolation) as exc:
        distance_regularity_check(g)
    assert str(exc.value) == ("generator 1 maps edge 00000000000000000-00000000000000010 "
                              "to non-edge 00000000000000010-00000000000000100")


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


# --- the label store ---------------------------------------------------------------

@pytest.mark.parametrize("label", ["x", "ab", "", "a\0", "\0", "a" * 40, "\ud800", 3, None,
                                   b"a"],
                         ids=["absent", "absent-longer", "empty", "trailing-nul", "nul",
                              "too-long", "surrogate", "int", "none", "bytes"])
def test_index_of_raises_key_error_on_a_label_no_vertex_has(label):
    # "a\0" would read as "a" from an S array, and a label longer than the
    # store's width would be cut to one of its labels by a cast
    g = Graph(["a", "bb", "ccc"], [(0, 1)])
    with pytest.raises(KeyError):
        g.index_of(label)
    with pytest.raises(KeyError):
        g.labels.indices_of(["bb", label])


def test_indices_of_names_the_first_absent_label():
    g = Graph(["a", "bb", "ccc"], [(0, 1)])
    with pytest.raises(KeyError, match="'dd'"):
        g.labels.indices_of(["bb", "dd", "e"])
    # wider than the store: cast to its width, "cccc" would read as "ccc"
    with pytest.raises(KeyError, match="'cccc'"):
        g.labels.indices_of(np.array([b"a", b"cccc"]))
    with pytest.raises(KeyError, match="'cccc'"):
        g.labels.indices_of(["a", "cccc"])
    assert g.labels.indices_of(np.array([b"ccc", b"a"])).tolist() == [2, 0]
    assert g.labels.indices_of([]).tolist() == []


@pytest.mark.parametrize("labels, match", [
    (["a", "a", "b"], "duplicate vertex labels"),
    (np.array([b"a", b"b", b"b"]), "duplicate vertex labels"),
    (["a", "b\0"], "without NUL"),
    (["a\0b", "c"], "without NUL"),
    (np.array([b"a\0b", b"c"]), "must not hold NUL"),
    ([1, 2], "must be UTF-8 encodable str"),
    (["a", "\ud800"], "must be UTF-8 encodable str"),
])
def test_duplicate_labels_and_labels_holding_nul_are_refused(labels, match):
    with pytest.raises(ValueError, match=match):
        Graph(labels, [(0, 1)])


def test_labels_index_like_a_list():
    words = ["v0", "v1", "v2", "v3", "v4"]
    g = Graph(words, [(0, 1)])
    labels = g.labels
    assert labels == words and labels == tuple(words) and labels != words[::-1]
    assert labels != words[:-1] and labels != "v0v1v2v3v4" and labels != 5
    assert [labels[i] for i in range(-5, 5)] == words + words
    assert labels[np.int64(2)] == "v2" and labels[np.uint8(4)] == "v4"
    assert labels[1:4] == words[1:4] and labels[::-2] == words[::-2]
    assert labels[np.array([4, 0, 4], dtype=np.uint16)] == ["v4", "v0", "v4"]
    assert labels[[2, 1]] == ["v2", "v1"]
    assert list(labels) == words and len(labels) == 5 and "v4" in labels
    with pytest.raises(IndexError):
        labels[5]
    assert Graph(labels, []).labels == labels      # a store is shared, not copied


@pytest.mark.parametrize("words", [
    ["b", "a"],
    ["a", "a"],
    ["a", "b", "b", "c"],
    [f"w{(7 * i) % 11:02d}" for i in range(11)],
    ["v2", "v10"],              # sorted as numbers, not as str
    ["é", "z"],                 # UTF-8 byte order is str order
], ids=["swapped", "repeated", "repeated-inside", "permuted", "numeric-order", "utf8"])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "S-array"])
def test_unsorted_or_repeated_labels_are_refused(words, as_bytes):
    # vertex order is label order, so a lookup needs no order of its own and
    # graph_to_json lists the vertices sorted
    labels = np.array([w.encode() for w in words]) if as_bytes else words
    with pytest.raises(ValueError, match="distinct and in sorted order"):
        Graph(labels, [])
    ok = sorted(set(words))
    g = Graph(np.array([w.encode() for w in ok]) if as_bytes else ok, [])
    assert [g.index_of(w) for w in ok] == list(range(len(ok)))
    assert graph_to_json(g)["vertices"] == ok


def test_labels_round_trip_utf8():
    # UTF-8 byte order is code point order, which sorted() uses
    words = sorted(["α", "é", "ü1", "z", "zz"])
    g = Graph(words, [(0, 1)])
    assert g.labels == words
    assert [g.index_of(w) for w in words] == [0, 1, 2, 3, 4]
    assert g.labels.utf8.tolist() == [w.encode() for w in words]


def test_grassmann_labels_are_kept_in_one_byte_array():
    # J_2(7,3): 11,811 labels of 23 characters; the parent's str objects,
    # list and label dict retained 1.69 MiB of 2.46 MiB
    build_grassmann(4, 2, 2)        # the field and hyperplane tables are cached
    tracemalloc.start()
    try:
        g, S = build_grassmann(7, 3, 2)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1.25 * 2 ** 20
    assert g.labels.utf8.dtype.itemsize <= 24
    assert g.labels[0] == "0000100/0000010/0000001" and g.index_of(g.labels[-1]) == 11810
