"""Zero-sum and constant-intersection characterizations over Delsarte pairs.

The two operations each compute a pair of independently derived verdicts
(clique-side and spectral-side); every test asserts the verdicts agree on
positive and negative instances alike."""

import itertools
import random
from fractions import Fraction

import pytest

from drgtrades.bitrades import min_bitrade_johnson
from drgtrades.families import build_hamming, build_johnson, build_octahedron
from drgtrades.spectral import (
    VertexFunction,
    clique_sum_characterization,
    radius_one_cr_characterization,
)


def function_from_items(g, items):
    """The vertex function taking the value items[label] at each listed
    label and 0 elsewhere."""
    vals = [Fraction(0)] * g.num_vertices
    for lab, v in items.items():
        vals[g.index_of(lab)] = Fraction(v)
    return VertexFunction(g, tuple(vals))


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
    rep = clique_sum_characterization(g, S, T.signed_function())
    assert rep.sums_zero.ok and rep.eigenfunction.ok and rep.agrees


def test_single_vertex_indicator_fails_both(hamming33):
    g, S = hamming33
    f = function_from_items(g, {"000": 1})
    rep = clique_sum_characterization(g, S, f)
    assert not rep.sums_zero.ok and not rep.eigenfunction.ok and rep.agrees


def test_parity_function_on_binary_cube():
    g, S = build_hamming(3, 2)
    f = VertexFunction(g, tuple(
        Fraction((-1) ** lab.count("1")) for lab in g.labels))
    rep = clique_sum_characterization(g, S, f)
    assert rep.sums_zero.ok and rep.eigenfunction.ok and rep.agrees


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
        rep = clique_sum_characterization(g, S, f)
        assert rep.agrees


# --- constant clique intersection vs radius-1 complete regularity ----------------

def test_latin_square_is_lambda_1(hamming33):
    g, S = hamming33
    rep = radius_one_cr_characterization(g, S, latin_union(g, (0,)))
    assert rep.constant and rep.lam == 1
    assert rep.radius_one and rep.theta_min_is_eigenvalue and rep.agrees


def test_single_vertex_is_not_constant(hamming33):
    g, S = hamming33
    rep = radius_one_cr_characterization(g, S, {g.index_of("000")})
    assert not rep.constant and rep.agrees
    # it is completely regular, but with the full covering radius
    assert rep.cr.ok and not rep.radius_one


def test_two_disjoint_latin_squares_are_lambda_2(hamming33):
    g, S = hamming33
    rep = radius_one_cr_characterization(g, S, latin_union(g, (0, 1)))
    assert rep.constant and rep.lam == 2
    assert rep.radius_one and rep.theta_min_is_eigenvalue and rep.agrees


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
            rep = radius_one_cr_characterization(g, S, l1 | l2)
            assert not rep.constant and rep.agrees


def test_coordinate_plane_agrees_negatively(hamming33):
    # a plane is completely regular of radius 1, but its matrix misses the
    # minimum eigenvalue, matching the non-constant clique intersections
    g, S = hamming33
    plane = {v for v, lab in enumerate(g.labels) if lab[0] == "0"}
    rep = radius_one_cr_characterization(g, S, plane)
    assert not rep.constant
    assert rep.cr.ok and rep.radius_one and not rep.theta_min_is_eigenvalue
    assert rep.agrees
