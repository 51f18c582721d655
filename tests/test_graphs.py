"""Graph core: BFS, regularity, bipartiteness, complete regularity,
clique systems, exact max clique."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drgtrades import graphs
from drgtrades.bitrades import corrupt_one_vertex, double_johnson_bitrade, min_bitrade_grassmann
from drgtrades.errors import Disconnected
from drgtrades.families import (
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
    max_clique_order,
    verify_clique_system,
    _distance_regularity_sweep,
)


from helpers import cube_graph, cycle_graph


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
    for u, v in g.edges():
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


# Every family host of at most DENSE_DISTANCE_CAP vertices whose
# distance-regularity the suite checks.
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
    g, _ = build_family(name, params)
    k = is_regular(g).value
    arr = g._dense_bfs(k)
    assert arr is not None
    assert arr == _distance_regularity_sweep(g, k).value == family_array(name, params)


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


def test_level_products_agree_with_sweep_on_small_regular_graphs():
    # circulants include cycles, complete and complete multipartite graphs
    rng = random.Random(17)
    graphs = [circulant_graph(n, steps) for n in range(3, 13)
              for r in (1, 2) for steps in itertools.combinations(range(1, n // 2 + 1), r)]
    graphs += [random_regular_graph(rng, n, 3) for n in (8, 10, 12, 14) for _ in range(5)]
    verdicts = set()
    for g in graphs:
        if not g.is_connected:
            continue
        k = is_regular(g).value
        sweep = _distance_regularity_sweep(g, k)
        assert g._dense_bfs(k) == (sweep.value if sweep.ok else None)
        verdicts.add(sweep.ok)
    assert verdicts == {True, False}


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
    cliques = tuple(tuple(e) for e in g.edges())
    S = CliqueSystem(g, cliques, s=1, m=1)
    v = verify_clique_system(g, S)
    assert v.ok


def test_clique_system_multiplicity_witness():
    g = cube_graph(3)
    cliques = tuple(tuple(e) for e in list(g.edges())[:-1])  # drop one edge
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
