"""Family constructors: counts, degrees, clique systems, closed-form
intersection arrays against the computed ones."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from drgtrades import families, gfq, graphs
from drgtrades.errors import (
    CliquesNotDelsarte,
    CrossCheckViolation,
    EnumerationTooLarge,
    InvalidParameters,
)
from drgtrades.families import (
    FAMILIES,
    build_doob,
    build_dual_polar_D,
    build_family,
    build_grassmann,
    build_halved_cube,
    build_hamming,
    build_johnson,
    build_octahedron,
    build_shrikhande,
    dual_polar_array,
    family_array,
    grassmann_array,
    hamming_array,
    parse_family,
)
from drgtrades.gfq import gaussian_binomial, isotropic_count_product, make_field
from drgtrades.graphs import (
    CliqueSystem,
    Graph,
    distance_regularity_check,
    graph_to_json,
    is_bipartite,
    is_regular,
    verify_clique_system,
)
from drgtrades.spectral import intersection_matrix_eigenvalues, theta_min
from helpers import (
    ORACLE_BASES,
    combination,
    is_totally_isotropic,
    label,
    max_clique_order,
    oracle_bases,
    reference_bases,
    reference_grassmann_generators,
    reference_rref,
    reference_csr,
    same_csr,
)


# Small instances exercised per family: (name, params, vertices, degree)
SMALL_INSTANCES = [
    ("octahedron", (3,), 6, 4),
    ("hamming", (3, 3), 27, 6),
    ("johnson", (6, 3), 20, 9),
    ("halved_cube", (6,), 32, 15),
    ("grassmann", (4, 2, 2), 35, 18),
]


@pytest.mark.parametrize("name,params,nv,k", SMALL_INSTANCES)
def test_family_counts_and_degree(name, params, nv, k):
    g, S = build_family(name, params)
    assert g.num_vertices == nv
    assert is_regular(g).value == k
    assert (g.multi_source_distances([0]) >= 0).all()


@pytest.mark.parametrize("name,params,nv,k", SMALL_INSTANCES)
def test_family_distance_regular_matches_closed_form(name, params, nv, k):
    g, _ = build_family(name, params)
    v = distance_regularity_check(g)
    assert v.ok
    assert v.value == family_array(name, params)


@pytest.mark.parametrize("name,params,nv,k", SMALL_INSTANCES)
def test_family_clique_system_verifies(name, params, nv, k):
    g, S = build_family(name, params)
    assert verify_clique_system(g, S).ok


@pytest.mark.parametrize("name,params,nv,k", SMALL_INSTANCES)
def test_family_cliques_are_delsarte(name, params, nv, k):
    g, S = build_family(name, params)
    th = theta_min(family_array(name, params))
    assert S.s + 1 == 1 - Fraction(k, th)


# --- octahedron ---------------------------------------------------------------

def test_octahedron_small():
    g, S = build_octahedron(2)
    assert (g.num_vertices, g.num_edges) == (4, 4)  # a square
    assert len(S.cliques) == 4 and S.m == 1
    g3, S3 = build_octahedron(3)
    assert len(S3.cliques) == 8 and S3.m == 2
    assert verify_clique_system(g3, S3).ok
    g4, S4 = build_octahedron(4)
    assert is_regular(g4).value == 6
    assert len(S4.cliques) == 16 and S4.m == 4
    assert verify_clique_system(g4, S4).ok
    assert max_clique_order(g4) == 4


# sha256 of json.dumps([graph_to_json(g), S.cliques.tolist(), S.s, S.m],
# sort_keys=True) for build_octahedron(n), recorded when the edges were
# still taken from the within-clique pairs.
OCTAHEDRON_SHA256 = {
    2: "c1bc4af0229135a1d0b3fc7a0757f2cd7d8ac914fa71cfc2d78dfa18e5cc50bc",
    3: "7ddea41a4db36de6ccdf7a49a55728d8a0328c15b2e65fc2cebd76aaa11b4649",
    4: "a0ca22e60efde34fbd5c5fe9780a3dfde31a492a3489a4be25ea08ae31a480f4",
    5: "9034a7ef9df34db83bd3c185f8cb728901906898bad39395f057dff325645255",
    6: "635c30bfe0cb6f63f45e6a0e79d9a9f6946418acd422972a2b66fcda49c8af65",
}


@pytest.mark.parametrize("n", sorted(OCTAHEDRON_SHA256))
def test_octahedron_json_and_cliques_are_pinned(n):
    g, S = build_octahedron(n)
    doc = json.dumps([graph_to_json(g), S.cliques.tolist(), S.s, S.m], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == OCTAHEDRON_SHA256[n]


def test_octahedron_edges_are_the_within_clique_pairs():
    g, S = build_octahedron(7)
    pairs = {tuple(p) for row in S.cliques.tolist() for p in itertools.combinations(row, 2)}
    assert g.edge_array().tolist() == sorted(map(list, pairs))
    assert g.num_edges == 7 * 12


def test_octahedron_builds_from_its_pair_list():
    # through the co-member gather, each vertex gathered 491,520 entries to
    # keep 30, and the build took 50 ms
    times = []
    for _ in range(3):
        start = time.perf_counter()
        g, S = build_octahedron(16)
        times.append(time.perf_counter() - start)
    labels = g.labels
    oracle = Graph(labels, [(u, v) for u, v in itertools.combinations(range(32), 2)
                            if labels[u][:-1] != labels[v][:-1]])
    assert same_csr(g, oracle)
    assert (S.cliques.shape, S.s, S.m) == ((1 << 16, 16), 15, 1 << 14)
    assert (S.cliques // 2 == np.arange(16)).all()          # one vertex of each pair
    assert min(times) < 0.015


# --- host arrays ----------------------------------------------------------------

def _host_digest(g, S):
    # the sorted CSR, read through the accessors whatever the host is stored
    # as, and the clique rows, kept in _index_type(n), are hashed in the int32
    # and int64 they were kept in when the pins were recorded
    flat, off = reference_csr(g)
    flat = flat.astype(np.int32)
    h = hashlib.sha256()
    h.update("\n".join(g.labels).encode())
    h.update(f"{flat.dtype} {off.dtype}".encode())
    h.update(flat.tobytes())
    h.update(off.tobytes())
    if S is not None:
        cliques = S.cliques.astype(np.int64)
        h.update(f"{cliques.dtype} {cliques.shape} {S.s} {S.m}".encode())
        h.update(cliques.tobytes())
    return h.hexdigest()


# _host_digest of each builder's output, recorded when hosts were still
# assembled from the within-clique pairs and hyperplanes were re-reduced
HOST_SHA256 = {
    "octahedron:2": "fa0441977cf6bc38e6e6e1d80f65e9875d840335004c996708dbb9e577d1a056",
    "octahedron:5": "b26d4df74e2dba7efbf7ea2dbd1914c09a9c872e6f3e2cf7551dafca86d2eb2e",
    "hamming:3,3": "21eb91d77c38138cf61765e9f7db6ad311ee45da1ec6f0fafa5f454d9e8ffa2c",
    "hamming:4,2": "6c268d15e446c95d119deec38afd5de595b98202d71f1619cf9133ea962e932e",
    "hamming:2,5": "4cf3d0d29b9616b979abda2208c30392ce98e1244a33c96742dc57df1ddaf2b4",
    "johnson:6,3": "6410fb8c1b783a1e5f3c1c5978596a8a6ea392c6f19bc4812201034bc7f60f4e",
    "johnson:9,4": "d4b4f7e520ad3c9e89befe098b5ca209fc3eb8a859da0192bb0fee2917d5ec06",
    "johnson:7,2": "837915bf92e597cdb047b2b1fdb876e68c1f9e7e963b65bb1c5bda59159cbd18",
    "halved_cube:6": "ce5577b4b64dc45ec11cb60ea1880e1aa697e384e66bf4c877b5632d26eeddb2",
    "halved_cube:8": "d41ea01dcfc4ce10338fe99d5710e08e8617b22c296048ae4627c75b2309ae37",
    "shrikhande": "a4a96e57adcf8857bdfdf7e4463cab9af3a448921024213bf25dc1a0f5e80e16",
    "doob:1,1": "42b2234e039cecbee9beee8d68d8abcb2dd5e54a21cda65b1ccb3e337de366a0",
    "doob:2,0": "cf6d8a61686835ce1808beb6848ae3ec863fb187b1a70c35d546aa3559eadebf",
    "grassmann:2,1,3": "45f849d1f547863440c0a2c3900c8479031bf49923d006e9e9b2c6266132152e",
    "grassmann:4,2,2": "93c81e903f240ab1c72d801808583b8a19c24eb3485e82a176f40799719db3be",
    "grassmann:6,3,2": "6659b7b04a16437c6c817383434db8c9f0f9cb48d5d586e219e8d600c358dcc5",
    "grassmann:4,2,3": "ae8863a35b5effe3e382eac0d6e12deff81d8cd424d49a7465f16a7d2be5feb2",
    "grassmann:4,2,4": "0f836462566c4d1b8b4182b5f9c1346c581d83b6f0f9c1b76fd4f60ab6c62302",
    "grassmann:5,2,3": "48b7627d572ad1c7bff19a5faf92f8482f216b32d093ec3601515da082c0912a",
    "grassmann:6,2,2": "ba062c1def6b6bbdb044d5b5140c9b2964ba38fce0b772aa5f4080e3dfceadcc",
    "grassmann:4,2,9": "5bbad0df3227f0829966dd9cee0c9c08328b400c3d191364308c6096f4efe6c4",
    "grassmann:7,3,2": "108b44f471e5edf492095759a9588466e9732e211cc14169e01b8a85ed574b61",
    "dual_polar_D:1,2": "90afb4263b45a12c8b7089dbc8645d232b0fd196266a3e110dbccf9470fced4a",
    "dual_polar_D:2,2": "939ca3139bceda1453f2679de12cd53f970c54cb49eb1d8d9bf362b30fa4e444",
    "dual_polar_D:3,2": "07c52ae3472e5b3c855d773ac0a67ddf6d77ad8f25d67cdfad9385d10ed7667b",
    "dual_polar_D:2,3": "c0b57e6a3f9c568faa9d71d46011cca95091ee1d86415cb4b5e2fa4e118d145e",
    "dual_polar_D:3,3": "592ba4e394bfda4ddafd8a7b23e89ae1c28cb30b368f09f49807ca8e8eb4c980",
    "halved_cube:5 raw": "1bb486e05808d885b19313baa82e9157876ca639b019a72b5da522dc89890104",
    "halved_cube:7 raw": "d947a3ac6253884a53e6fa9b6ee11cb59df846ef32d536e2bc9f4478ccdfd4e0",
}


@pytest.mark.parametrize("spec", sorted(HOST_SHA256))
def test_host_arrays_are_pinned(spec):
    if spec.endswith(" raw"):
        out = build_halved_cube(int(spec.split(":")[1].split()[0]), check_delsarte=False)
    else:
        out = build_family(*parse_family(spec))
    assert _host_digest(*out) == HOST_SHA256[spec]


def _disjoint_cliques(n, w):
    """n vertices in n / w disjoint w-cliques, as clique rows and as pairs."""
    rows = np.arange(n).reshape(-1, w)
    i, j = np.triu_indices(w, 1)
    return [f"v{v:06d}" for v in range(n)], rows, np.stack([rows[:, i], rows[:, j]], 2)


@pytest.mark.parametrize("n, w, index_type", [(255, 3, np.uint8), (256, 4, np.uint8),
                                              (258, 3, np.uint16), (65_536, 4, np.uint16),
                                              (65_538, 3, np.uint32)])
def test_indices_are_kept_in_the_narrowest_unsigned_type(n, w, index_type):
    # at 256 and 65,536 vertices the last vertex is the type's largest value,
    # which the co-member gather also writes over a vertex's own entries
    labels, rows, pairs = _disjoint_cliques(n, w)
    g, ref = Graph(labels, rows), Graph(labels, pairs.reshape(-1, 2))
    S = CliqueSystem(g, rows, s=w - 1, m=1)      # int64 rows, narrowed
    assert graphs._index_type(n) == index_type
    assert S.cliques.dtype == index_type and same_csr(g, ref)
    assert reference_csr(g)[0].dtype == index_type
    assert verify_clique_system(g, S).ok


@pytest.mark.parametrize("spec, index_type", [("johnson:6,3", np.uint8),
                                              ("octahedron:5", np.uint8),
                                              ("dual_polar_D:2,2", np.uint8),
                                              ("grassmann:6,3,2", np.uint16),
                                              ("halved_cube:10", np.uint16)])
def test_builders_keep_indices_in_the_narrowest_unsigned_type(spec, index_type):
    g, S = build_family(*parse_family(spec))
    assert g.neighbors(0).dtype == index_type
    assert S is None or S.cliques.dtype == index_type


# --- hamming -------------------------------------------------------------------

def test_hamming_examples():
    g, S = build_hamming(3, 2)
    assert g.num_vertices == 8 and len(S.cliques) == 12
    g, S = build_hamming(3, 3)
    assert (g.num_vertices, len(S.cliques)) == (27, 27)
    assert is_regular(g).value == 6
    assert theta_min(hamming_array(3, 3)) == -3
    g, S = build_hamming(2, 4)
    assert g.num_vertices == 16 and len(S.cliques) == 8
    assert all(len(c) == 4 for c in S.cliques)


def test_hamming_cap():
    with pytest.raises(EnumerationTooLarge):
        build_hamming(10, 5, cap=1000)


# --- johnson --------------------------------------------------------------------

def test_johnson_examples():
    g, S = build_johnson(6, 3)
    assert g.num_vertices == 20 and len(S.cliques) == 15
    assert all(len(c) == 4 for c in S.cliques)
    assert max_clique_order(g) == 4
    g, S = build_johnson(8, 4)
    assert g.num_vertices == 70 and all(len(c) == 5 for c in S.cliques)


def test_johnson_distance_is_w_minus_overlap():
    g, _ = build_johnson(6, 3)
    d = g.multi_source_distances([g.index_of("1,2,3")])
    assert d[g.index_of("4,5,6")] == 3
    assert d[g.index_of("1,2,4")] == 1
    assert d[g.index_of("1,4,5")] == 2


def test_johnson_42_is_octahedron():
    g, _ = build_johnson(4, 2)
    o, _ = build_octahedron(3)
    assert g.num_vertices == o.num_vertices == 6
    # both are complete tripartite K_{2,2,2}: complements are perfect matchings
    for h in (g, o):
        non_edges = [(i, j) for i, j in itertools.combinations(range(6), 2)
                     if j not in h.neighbors(i)]
        assert len(non_edges) == 3
        assert len({v for e in non_edges for v in e}) == 6


# --- halved cube ------------------------------------------------------------------

def test_halved_cube_examples():
    g, S = build_halved_cube(4)
    assert g.num_vertices == 8 and all(len(c) == 4 for c in S.cliques)
    assert S.m == 2
    g, S = build_halved_cube(6)
    assert g.num_vertices == 32 and is_regular(g).value == 15
    assert all(len(c) == 6 for c in S.cliques)


def test_halved_cube_odd_rejected():
    with pytest.raises(CliquesNotDelsarte):
        build_halved_cube(5)
    g, S = build_halved_cube(5, check_delsarte=False)
    assert g.num_vertices == 16
    assert verify_clique_system(g, S).ok  # still a valid pair, just not Delsarte


# --- shrikhande / doob --------------------------------------------------------------

def test_shrikhande_basics():
    g = build_shrikhande()
    assert g.num_vertices == 16
    assert is_regular(g).value == 6
    assert g.distance_matrix().max() == 2
    v = distance_regularity_check(g)
    assert v.ok and v.value == hamming_array(2, 4)


def test_shrikhande_is_doob_1_0():
    shr, doob = build_shrikhande(), build_doob(1, 0)
    assert (shr.family, shr.params) == ("shrikhande", ())
    assert shr.labels == doob.labels
    assert (shr.edge_array() == doob.edge_array()).all()


def test_doob_array_matches_hamming():
    g = build_doob(1, 0)
    assert distance_regularity_check(g).value == hamming_array(2, 4)
    g = build_doob(1, 1)
    assert g.num_vertices == 64 and is_regular(g).value == 9
    assert distance_regularity_check(g).value == hamming_array(3, 4)


# --- grassmann ------------------------------------------------------------------------

def test_grassmann_4_2_2():
    g, S = build_grassmann(4, 2, 2)
    assert g.num_vertices == 35
    assert is_regular(g).value == 18
    assert all(len(c) == 7 for c in S.cliques)
    assert len(S.cliques) == gaussian_binomial(4, 1, 2)
    assert verify_clique_system(g, S).ok
    v = distance_regularity_check(g)
    assert v.ok and v.value == grassmann_array(4, 2, 2)
    assert intersection_matrix_eigenvalues(v.value) == [18, 3, -3]


def test_grassmann_4_2_3_count():
    g, S = build_grassmann(4, 2, 3)
    assert g.num_vertices == 130
    assert verify_clique_system(g, S).ok


# --- dual polar -------------------------------------------------------------------------

def test_dual_polar_2_2_is_complete_bipartite():
    g = build_dual_polar_D(2, 2)
    assert g.num_vertices == 6
    assert is_regular(g).value == 3
    bip = is_bipartite(g)
    assert bip.ok
    sides = [[v for v in range(6) if bip.value[v] == c] for c in (0, 1)]
    assert sorted(map(len, sides)) == [3, 3]
    for u in sides[0]:
        for v in sides[1]:
            assert v in g.neighbors(u)


def test_dual_polar_3_2():
    g = build_dual_polar_D(3, 2)
    assert g.num_vertices == 30 == isotropic_count_product(3, 2)
    assert is_regular(g).value == 7
    bip = is_bipartite(g)
    assert bip.ok and sum(bip.value) == 15
    v = distance_regularity_check(g)
    assert v.ok
    assert v.value.b == (7, 6, 4) and v.value.c == (1, 3, 7)
    assert v.value == dual_polar_array(3, 2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_dual_polar_d_1_is_an_edge(q):
    # D_1(q): the two isotropic points of the hyperbolic plane
    g = build_dual_polar_D(1, q)
    assert g.labels == ["01", "10"] and g.num_edges == 1
    assert g.num_vertices == isotropic_count_product(1, q)
    assert distance_regularity_check(g).value == dual_polar_array(1, q)


def test_dual_polar_d_0_rejected():
    with pytest.raises(InvalidParameters, match="need d >= 1"):
        build_dual_polar_D(0, 2)


@pytest.mark.parametrize("name,params", [
    ("octahedron", (1,)), ("hamming", (0, 2)), ("hamming", (3, 1)),
    ("johnson", (3, 2)), ("halved_cube", (3,)), ("doob", (0, 1)),
    ("grassmann", (2, 2, 2)), ("dual_polar_D", (0, 2)),
])
def test_array_refuses_the_builders_parameters(name, params):
    with pytest.raises(InvalidParameters) as built:
        build_family(name, params)
    with pytest.raises(InvalidParameters) as closed_form:
        family_array(name, params)
    assert str(closed_form.value) == str(built.value)


@pytest.mark.parametrize("name,params", [("grassmann", (6, 3, 1)), ("dual_polar_D", (2, 1))])
def test_q_ary_arrays_need_q_at_least_2(name, params):
    with pytest.raises(InvalidParameters, match="need q >= 2"):
        family_array(name, params)


def test_dual_polar_2_3():
    g = build_dual_polar_D(2, 3)
    assert g.num_vertices == 8 and is_regular(g).value == 4
    assert distance_regularity_check(g).value == dual_polar_array(2, 3)


# --- registry ------------------------------------------------------------------------------

def test_parse_family():
    assert parse_family("johnson:6,3") == ("johnson", (6, 3))
    assert parse_family("shrikhande") == ("shrikhande", ())
    with pytest.raises(ValueError):
        parse_family("petersen:1")
    with pytest.raises(ValueError):
        parse_family("johnson:6")


def test_registry_covers_all_builders():
    assert set(FAMILIES) == {
        "octahedron", "hamming", "johnson", "halved_cube",
        "shrikhande", "doob", "grassmann", "dual_polar_D"}


# The smallest parameters each builder accepts
SMALLEST = {"octahedron": (2,), "hamming": (1, 2), "johnson": (2, 1),
            "halved_cube": (4,), "shrikhande": (), "doob": (1, 0),
            "grassmann": (2, 1, 2), "dual_polar_D": (1, 2)}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_builder_honours_the_cap(name):
    with pytest.raises(EnumerationTooLarge):
        build_family(name, SMALLEST[name], cap=1)


# each passes the vertex cap, as a complete graph whose CSR would hold 1.4e9 to 1e10
# entries; the refusal comes before anything of that size is allocated
@pytest.mark.parametrize("name,params", [("johnson", (100000, 1)), ("hamming", (1, 100000)),
                                         ("grassmann", (6, 1, 8))])
def test_complete_hosts_are_refused_by_entry_count(name, params):
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationTooLarge, match="adjacency entries exceed 2000 x cap"):
            build_family(name, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# --- builder cross-checks ------------------------------------------------------------

def _duplicate_first_hyperplane(real):
    """hyperplane_keys, except that the first vertex's first hyperplane key
    is overwritten by its second, so one bucket comes out a vertex short and
    another a vertex over."""
    def duplicating(bases, field):
        out = real(bases, field)
        out[0, 0] = out[0, 1]
        return out
    return duplicating


# the first bucket met in (vertex enumeration, hyperplane) order is reported
_BUCKET_MESSAGES = {
    build_grassmann: "(d-1)-subspace 1100 lies in 8 vertices, expected 7",
    build_dual_polar_D: "(d-1)-subspace 1100 lies in 3 vertices, expected 2",
}


@pytest.mark.parametrize("build, params", [(build_grassmann, (4, 2, 2)),
                                           (build_dual_polar_D, (2, 2))])
def test_bucket_size_cross_check(monkeypatch, build, params):
    monkeypatch.setattr(families, "hyperplane_keys",
                        _duplicate_first_hyperplane(families.hyperplane_keys))
    with pytest.raises(CrossCheckViolation, match=re.escape(_BUCKET_MESSAGES[build])):
        build(*params)


def test_bucket_size_cross_check_runs_under_optimize():
    # python -O strips assert statements; the check must not be one
    code = "\n".join([
        "from drgtrades import families",
        "from drgtrades.errors import CrossCheckViolation",
        "from test_families import _duplicate_first_hyperplane",
        "families.hyperplane_keys = _duplicate_first_hyperplane(",
        "    families.hyperplane_keys)",
        "try:",
        "    families.build_grassmann(4, 2, 2)",
        "except CrossCheckViolation:",
        "    print('raised', __debug__)",
    ])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.join(root, "src"), os.path.join(root, "tests"),
                            os.environ.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised False\n"


# --- array builders against a scalar reference ----------------------------------

def _reference_host(vertices, size, F):
    """Labels, CSR and sorted clique rows in scalar arithmetic: one label per
    RREF basis B, each (d-1)-subspace of B as the scalar RREF of C B for
    every (d-1)-subspace C of F_q^d, buckets in a dict."""
    names = [label(b) for b in vertices]
    labels = sorted(names)
    idx = {lab: i for i, lab in enumerate(labels)}
    coefficients = reference_bases(len(vertices[0]), len(vertices[0]) - 1, F.q)
    buckets = {}
    for b, name in zip(vertices, names):
        v = idx[name]
        for c in coefficients:
            rows = reference_rref([combination(crow, b, F) for crow in c], F)
            buckets.setdefault(tuple(map(tuple, rows)), []).append(v)
    assert {len(b) for b in buckets.values()} == {size}
    rows = np.array(sorted(sorted(b) for b in buckets.values()))
    i, j = np.triu_indices(size, 1)
    edges = np.stack([rows[:, i], rows[:, j]], axis=2).reshape(-1, 2)
    return Graph(labels, edges), rows


def _assert_same_host(g, ref):
    assert g.labels == ref.labels
    assert same_csr(g, ref)


@pytest.mark.parametrize("n, d, q", [(4, 2, q) for q in (2, 3, 4, 5, 7, 8, 9)]
                         + [(5, 2, 3), (5, 2, 4), (6, 3, 2), (3, 1, 3)])
def test_grassmann_matches_subspace_reference(n, d, q):
    g, S = build_grassmann(n, d, q)
    ref, rows = _reference_host(reference_bases(n, d, q),
                                gaussian_binomial(n - d + 1, 1, q), make_field(q))
    _assert_same_host(g, ref)
    assert np.array_equal(S.cliques, rows)


@pytest.mark.parametrize("n, d, q", [(4, 2, 2), (4, 2, 4), (5, 2, 3), (6, 3, 2)])
def test_grassmann_generators_match_the_matrix_products(n, d, q):
    g, _ = build_grassmann(n, d, q)
    got, want = g.generators(), reference_grassmann_generators(g)
    assert len(got) == len(want) == (2 if q == 2 else 3)
    assert all(np.array_equal(p, r) for p, r in zip(got, want))


@pytest.mark.parametrize("d, q", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_dual_polar_matches_subspace_reference(d, q):
    F = make_field(q)
    vertices = [b for b in reference_bases(2 * d, d, q) if is_totally_isotropic(b, F)]
    ref, _ = _reference_host(vertices, 2, F)
    _assert_same_host(build_dual_polar_D(d, q), ref)


def _lexsort_buckets(bases, F, size):
    """_hyperplane_buckets' labels and rows by the route it replaced: the
    hyperplane digits as the products C @ B, vertices and hyperplanes ordered
    by np.lexsort of their digits."""
    nv, d, n = bases.shape
    flat = bases.reshape(nv, d * n)
    order = np.lexsort(flat.T[::-1])
    vertex = np.empty(nv, dtype=np.int64)
    vertex[order] = np.arange(nv)
    hyper = gfq.matmul_batch(gfq.subspace_bases(d, d - 1, F.q), bases[:, None], F)
    per_vertex = hyper.shape[1]
    hyper = hyper.reshape(nv * per_vertex, (d - 1) * n)
    at = np.lexsort(hyper.T[::-1]) if hyper.shape[1] else np.arange(len(hyper))
    labels = [label(b) for b in flat[order].reshape(nv, d, n).tolist()]
    return labels, vertex[at // per_vertex].reshape(-1, size)


@pytest.mark.parametrize("kind, params", ORACLE_BASES)
def test_hyperplane_buckets_match_the_lexsort_route(kind, params):
    bases, q = oracle_bases(kind, params)
    d = bases.shape[1]
    size = 2 if kind == "dual_polar" else gaussian_binomial(params[0] - d + 1, 1, q)
    utf8, rows, keys = families._hyperplane_buckets(bases, make_field(q), size)
    want_labels, want_rows = _lexsort_buckets(bases, make_field(q), size)
    labels = [lab.decode() for lab in utf8.tolist()]
    assert labels == want_labels
    assert np.array_equal(rows, want_rows)
    ordered = gfq.unpack_digits(keys, q, bases[0].size).reshape(bases.shape)
    assert [label(b) for b in ordered.tolist()] == labels


def test_hyperplane_bucket_peak_memory():
    # J_2(7,3): 11,811 vertices in 2,667 buckets of 31
    bases, F = gfq.subspace_bases(7, 3, 2), make_field(2)
    families._hyperplane_buckets(bases, F, 31)      # the hyperplane table is cached
    tracemalloc.start()
    try:
        families._hyperplane_buckets(bases, F, 31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2 ** 20


def test_vertex_keys_wider_than_int64_are_refused():
    # a vertex of D_6(2) has 6 rows of 12 binary digits
    with pytest.raises(ValueError, match="72 base-2 digits do not fit"):
        families._hyperplane_buckets(np.eye(6, 12, dtype=np.int8)[None], make_field(2), 2)


# perfbench's trace mode, as its worker runs it, on J_2(4,2): the tracer rebinds
# the package names it times and the probes call the builder's public gfq calls
_TRACE_RUN = """
import json, sys
from time import perf_counter, thread_time
sys.path.insert(0, "perfbench")
import tracer, worker, workloads
spans = tracer.Tracer()
tracer.instrument(spans, [workloads])
spec = workloads.PipelineSpec(4, 2, 2, vertices=35, edges=315, cardinality=6, shells=(1, 3, 2))
out = workloads.large_sparse(0, (perf_counter(), thread_time()), spec=spec)
print(json.dumps({"failures": out.failures, "spans": sorted(spans.summary()),
                  "probes": worker.builder_probes(4, 2, 2, None)}))
"""


def test_benchmark_builder_probes_run():
    # a name the tracer pins that the package drops would break only the
    # benchmark's traced runs; run one in a process of its own, writing no bytecode
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(root, "src"))
    res = subprocess.run([sys.executable, "-c", _TRACE_RUN], capture_output=True,
                         text=True, cwd=root, env=env)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout.splitlines()[-1])
    assert doc["failures"] == []
    assert {"families.build_grassmann", "graphs.verify_clique_system",
            "bitrades.verify_bitrade"} <= set(doc["spans"])
    probes = doc["probes"]
    assert (probes["graphs.vertices"], probes["graphs.edges"],
            probes["gfq.hyperplane_calls"]) == (35, 315, 35)
