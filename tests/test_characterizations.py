"""The paper's two lemmas on Delsarte pairs, each checked by computing both
of its sides independently.

Zero clique sums: a vertex function sums to zero over every clique iff it
is an eigenfunction at the minimum eigenvalue -k/s.  Constant meets: a
proper nonempty set meets every clique in a constant number of vertices
iff it is completely regular of covering radius 1 with -k/s among the
eigenvalues of its matrix; for lambda = 1 that is check_clique_design's
cross-check.  Every test asserts that the two sides agree on positive and
negative instances alike."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from drgtrades.bitrades import check_clique_design, min_bitrade_johnson
from drgtrades.families import build_hamming, build_johnson, build_octahedron
from drgtrades.graphs import completely_regular_check
from drgtrades.spectral import is_matrix_eigenvalue, verify_eigenfunction
from helpers import signed_function, vertex_function


def theta_min_of_pair(g, S):
    return Fraction(-int(g.degrees[0]), S.s)


def clique_sums_and_eigenfunction(g, S, f):
    """Whether f sums to zero over every clique, and the eigenfunction
    verdict at -k/s: the two sides of the zero-sum lemma."""
    sums_zero = not f.num[S.cliques].sum(axis=1).any()
    return sums_zero, verify_eigenfunction(g, f, theta_min_of_pair(g, S))


def clique_meets_and_radius_one(g, S, B):
    """The set of clique meet sizes of B, B's complete-regularity verdict,
    and whether B is completely regular of radius 1 with -k/s among its
    matrix's eigenvalues: the two sides of the constant-meet lemma."""
    mask = np.zeros(g.num_vertices, dtype=bool)
    mask[sorted(B)] = True
    meets = set(mask[S.cliques].sum(axis=1).tolist())
    cr = completely_regular_check(g, B)
    at_min = bool(cr.ok and cr.value.rho == 1
                  and is_matrix_eigenvalue(cr.value, theta_min_of_pair(g, S)))
    return meets, cr, at_min


def function_from_items(g, items):
    """The vertex function taking the value items[label] at each listed
    label and 0 elsewhere."""
    vals = [Fraction(0)] * g.num_vertices
    for lab, v in items.items():
        vals[g.index_of(lab)] = Fraction(v)
    return vertex_function(g, vals)


@pytest.fixture(scope="module")
def hamming33():
    return build_hamming(3, 3)


def latin_union(g, shifts):
    return {g.index_of(f"{r}{c}{(r + c + s) % 3}")
            for s in shifts for r in range(3) for c in range(3)}


# --- clique sums vs eigenfunction ---------------------------------------------

def test_trade_function_passes_both(hamming33):
    g, S = build_johnson(6, 3)
    T = min_bitrade_johnson(6, 3, host=g)
    sums_zero, eig = clique_sums_and_eigenfunction(g, S, signed_function(T))
    assert sums_zero and eig.ok


def test_single_vertex_indicator_fails_both(hamming33):
    g, S = hamming33
    f = function_from_items(g, {"000": 1})
    sums_zero, eig = clique_sums_and_eigenfunction(g, S, f)
    assert not sums_zero and not eig.ok


def test_parity_function_on_binary_cube():
    g, S = build_hamming(3, 2)
    f = vertex_function(g, [(-1) ** lab.count("1") for lab in g.labels])
    sums_zero, eig = clique_sums_and_eigenfunction(g, S, f)
    assert sums_zero and eig.ok


@pytest.mark.parametrize("pair", [
    lambda: build_hamming(3, 3),
    lambda: build_johnson(6, 3),
    lambda: build_octahedron(3),
])
def test_random_sparse_functions_agree(pair):
    g, S = pair()
    rng = random.Random(404 + g.num_vertices)
    for _ in range(100):
        support = rng.sample(range(g.num_vertices), rng.randint(1, 4))
        vals = {g.labels[v]: rng.choice((-2, -1, 1, 2)) for v in support}
        f = function_from_items(g, vals)
        sums_zero, eig = clique_sums_and_eigenfunction(g, S, f)
        assert sums_zero == eig.ok


# --- constant clique intersection vs radius-1 complete regularity ----------------

def test_latin_square_is_lambda_1(hamming33):
    # check_clique_design raises CrossCheckViolation unless the design is
    # completely regular of radius 1 at -k/s
    g, S = hamming33
    v = check_clique_design(g, S, latin_union(g, (0,)))
    assert v.ok and v.value == 9


def test_single_vertex_is_not_constant(hamming33):
    g, S = hamming33
    v = check_clique_design(g, S, {g.index_of("000")})
    assert not v.ok and v.detail == "clique not met exactly once"
    # it is completely regular, but with the full covering radius
    meets, cr, at_min = clique_meets_and_radius_one(g, S, {g.index_of("000")})
    assert meets == {0, 1} and cr.ok and cr.value.rho == 3 and not at_min


def test_two_disjoint_latin_squares_are_lambda_2(hamming33):
    g, S = hamming33
    meets, cr, at_min = clique_meets_and_radius_one(g, S, latin_union(g, (0, 1)))
    assert meets == {2}
    assert cr.ok and cr.value.rho == 1 and at_min


def test_no_union_of_two_parallel_lines_is_constant(hamming33):
    # exhaustive: for every direction and every pair of parallel lines the
    # intersection numbers with the line system are non-constant
    g, S = hamming33
    for direction in range(3):
        lines = []
        for fixed in itertools.product(range(3), repeat=2):
            members = set()
            for v in range(3):
                word = list(fixed)
                word.insert(direction, v)
                members.add(g.index_of("".join(map(str, word))))
            lines.append(members)
        for l1, l2 in itertools.combinations(lines, 2):
            meets, _, at_min = clique_meets_and_radius_one(g, S, l1 | l2)
            assert len(meets) > 1 and not at_min


def test_coordinate_plane_agrees_negatively(hamming33):
    # a plane is completely regular of radius 1, but its matrix misses the
    # minimum eigenvalue, matching the non-constant clique intersections
    g, S = hamming33
    plane = {v for v, lab in enumerate(g.labels) if lab[0] == "0"}
    meets, cr, at_min = clique_meets_and_radius_one(g, S, plane)
    assert len(meets) > 1
    assert cr.ok and cr.value.rho == 1 and not at_min
