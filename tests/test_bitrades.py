"""Bitrade criteria, minimality, trade subgraphs, designs, corruptions."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from drgtrades import bitrades
from drgtrades.bitrades import (
    MIN_BITRADES,
    Bitrade,
    bitrade_from_json,
    bitrade_to_json,
    check_clique_design,
    check_criterion_a,
    check_criterion_b,
    check_criterion_c,
    check_minimality,
    check_subgraph_dr,
    corrupt_one_vertex,
    design_difference,
    double_johnson_bitrade,
    min_bitrade_grassmann,
    min_bitrade_halved_cube,
    min_bitrade_hamming,
    min_bitrade_johnson,
    min_bitrade_octahedron,
    pseudo_bitrade_doob,
    verify_bitrade,
    verify_delsarte_pair,
    verify_pseudo_bitrade,
)
from drgtrades.errors import CrossCheckViolation, DegenerateEmpty, NotDistanceRegular
from drgtrades.families import (
    build_doob,
    build_dual_polar_D,
    build_family,
    build_grassmann,
    build_halved_cube,
    build_hamming,
    build_johnson,
    build_octahedron,
    doob_array,
    dual_polar_array,
    grassmann_array,
    hamming_array,
    johnson_array,
)
from drgtrades.gfq import SUPPORTED_ORDERS, gaussian_binomial, isotropic_count_product
from drgtrades.graphs import (
    CliqueSystem,
    Graph,
    Verdict,
    distance_regularity_check,
    induced_subgraph,
    is_regular,
)
from drgtrades.spectral import verify_eigenfunction, wd_bound
from helpers import cycle_graph, signed_function


@pytest.fixture(scope="module")
def johnson63():
    g, S = build_johnson(6, 3)
    return g, S


@pytest.fixture(scope="module")
def hamming33():
    g, S = build_hamming(3, 3)
    return g, S


# --- type invariants -----------------------------------------------------------

def test_bitrade_rejects_overlap(johnson63):
    g, _ = johnson63
    with pytest.raises(ValueError):
        Bitrade(g, frozenset([0, 1]), frozenset([1, 2]))


def test_bitrade_rejects_dependent_side(johnson63):
    g, _ = johnson63
    u = g.index_of("1,2,3")
    v = g.index_of("1,2,4")  # adjacent
    far = g.index_of("4,5,6")
    with pytest.raises(ValueError):
        Bitrade(g, frozenset([u, v]), frozenset([far]))


def test_bitrade_rejects_out_of_range_vertices(johnson63):
    g, _ = johnson63
    for t0 in ({-1}, {g.num_vertices}):
        with pytest.raises(ValueError, match="vertex index out of range"):
            Bitrade(g, frozenset(t0), frozenset([1]))


def verify_pseudo_bitrade_of(g, S, T):
    return verify_pseudo_bitrade(g, T)


@pytest.mark.parametrize("check", [
    verify_bitrade,
    verify_pseudo_bitrade_of,
    check_criterion_a,
    check_criterion_b,
    check_criterion_c,
    check_minimality,
    check_subgraph_dr,
], ids=["verify", "pseudo", "a", "b", "c", "minimality", "subgraph_dr"])
def test_checks_refuse_a_bitrade_or_system_on_another_host(check, johnson63, hamming33):
    g, S = johnson63
    T = min_bitrade_johnson(6, 3, host=g)
    h, SH = hamming33
    # verify_bitrade(h, S, T) once returned a=True, b=False, c=False
    foreign = [(h, S, T), (h, SH, T)]
    if check is not verify_pseudo_bitrade_of:
        foreign.append((h, S, min_bitrade_hamming(3, 3, host=h)))
    for args in foreign:
        with pytest.raises(ValueError, match="on another host"):
            check(*args)
    assert check(g, S, T)


@pytest.mark.parametrize("check", [
    check_criterion_b,
    check_criterion_c,
    check_minimality,
    check_subgraph_dr,
    verify_bitrade,
], ids=["b", "c", "minimality", "subgraph_dr", "verify"])
def test_checks_refuse_a_system_of_single_vertices(check):
    # s = 0 leaves -k/s undefined; these once raised a bare ZeroDivisionError
    # or Disconnected, while criterion a needs no eigenvalue and answers
    g = cycle_graph(6)
    S = CliqueSystem(g, np.arange(6).reshape(6, 1), s=0, m=0)
    T = Bitrade(g, frozenset({0}), frozenset({3}))
    assert not check_criterion_a(g, S, T).ok
    with pytest.raises(ValueError, match="s = 0"):
        check(g, S, T)


def test_delsarte_and_design_checks_refuse_a_system_on_another_host(johnson63, hamming33):
    g, S = johnson63
    h, _ = hamming33
    # both once answered for H(3,3) from the cliques of J(6,3)
    for check in (lambda: verify_delsarte_pair(h, S), lambda: check_clique_design(h, S, {0})):
        with pytest.raises(ValueError, match="on another host"):
            check()


# --- Pasch configuration ----------------------------------------------------------

def test_pasch_blocks_match_parity_form(johnson63):
    g, _ = johnson63
    T = min_bitrade_johnson(6, 3, host=g)
    assert T.labels(T.t0) == ["1,3,5", "1,4,6", "2,3,6", "2,4,5"]
    assert T.labels(T.t1) == ["1,3,6", "1,4,5", "2,3,5", "2,4,6"]


def test_pasch_full_verification(johnson63):
    g, S = johnson63
    T = min_bitrade_johnson(6, 3, host=g)
    rep = verify_bitrade(g, S, T)
    assert rep.all_pass and rep.criteria_agree
    assert rep.cardinality == 8 == rep.bound
    assert rep.minimal
    assert rep.subgraph_array.b == (3, 2, 1) and rep.subgraph_array.c == (1, 2, 3)
    assert rep.shell_sizes == (1, 3, 3, 1)


def test_pasch_inside_larger_host():
    g, S = build_johnson(8, 3)
    T = min_bitrade_johnson(8, 3, host=g)
    rep = verify_bitrade(g, S, T)
    assert rep.all_pass and rep.minimal and rep.bound == 8


def test_johnson_4_2_square():
    g, S = build_johnson(4, 2)
    T = min_bitrade_johnson(4, 2, host=g)
    rep = verify_bitrade(g, S, T)
    assert rep.all_pass and rep.cardinality == 4 and rep.minimal


# --- negative instances -------------------------------------------------------------

def test_arbitrary_singletons_fail_all_criteria():
    g, S = build_hamming(3, 2)
    u = g.index_of("000")
    v = g.index_of("011")
    T = Bitrade(g, frozenset([u]), frozenset([v]))
    a = check_criterion_a(g, S, T)
    b = check_criterion_b(g, S, T)
    c = check_criterion_c(g, S, T)
    assert not a.ok and not b.ok and not c.ok
    assert a.witness is not None and b.witness is not None


@pytest.mark.parametrize("maker", [
    lambda: (build_octahedron(3), min_bitrade_octahedron),
    lambda: (build_hamming(3, 3), min_bitrade_hamming),
    lambda: (build_johnson(6, 3), min_bitrade_johnson),
    lambda: (build_halved_cube(6), min_bitrade_halved_cube),
])
def test_criteria_agree_under_corruption(maker):
    (g, S), ctor = maker()
    T = ctor(*g.params, host=g)
    rng = random.Random(20240 + g.num_vertices)
    rep = verify_bitrade(g, S, T)
    assert rep.all_pass and rep.criteria_agree
    for _ in range(12):
        bad = corrupt_one_vertex(T, rng)
        a = check_criterion_a(g, S, bad)
        b = check_criterion_b(g, S, bad)
        c = check_criterion_c(g, S, bad)
        assert a.ok == b.ok == c.ok


# check_criterion_b witnesses of the first 20 draws of
# corrupt_one_vertex(T, random.Random(2024)) on the minimum bitrade T of
# J_2(6,3), recorded when the criterion went through verify_eigenfunction.
J263_CRITERION_B_WITNESSES = [
    ('000100/000010/000001', Fraction(-6, 1), Fraction(-7, 1)),
    ('001000/000100/000010', Fraction(6, 1), Fraction(7, 1)),
    ('010000/001011/000101', Fraction(1, 1), Fraction(0, 1)),
    ('010000/001000/000100', Fraction(-6, 1), Fraction(-7, 1)),
    ('010000/000100/000001', Fraction(6, 1), Fraction(7, 1)),
    ('010000/001100/000011', Fraction(-1, 1), Fraction(0, 1)),
    ('010000/001001/000010', Fraction(-1, 1), Fraction(0, 1)),
    ('100000/010001/000110', Fraction(-1, 1), Fraction(0, 1)),
    ('100000/001000/000010', Fraction(-6, 1), Fraction(-7, 1)),
    ('010000/001011/000101', Fraction(1, 1), Fraction(0, 1)),
    ('000100/000010/000001', Fraction(-6, 1), Fraction(-7, 1)),
    ('010000/000100/000001', Fraction(6, 1), Fraction(7, 1)),
    ('100000/001000/000001', Fraction(1, 1), Fraction(0, 1)),
    ('100000/000010/000001', Fraction(6, 1), Fraction(7, 1)),
    ('010000/001000/000100', Fraction(-6, 1), Fraction(-7, 1)),
    ('000100/000010/000001', Fraction(-6, 1), Fraction(-7, 1)),
    ('100000/001001/000111', Fraction(-1, 1), Fraction(0, 1)),
    ('000100/000010/000001', Fraction(-6, 1), Fraction(-7, 1)),
    ('010000/001010/000111', Fraction(1, 1), Fraction(0, 1)),
    ('000100/000010/000001', Fraction(-6, 1), Fraction(-7, 1)),
]


def test_criterion_b_witnesses_of_corruptions_are_pinned():
    g, S = build_grassmann(6, 3, 2)
    T = min_bitrade_grassmann(6, 3, 2, host=g)
    assert check_criterion_b(g, S, T).ok
    rng = random.Random(2024)
    for want in J263_CRITERION_B_WITNESSES:
        b = check_criterion_b(g, S, corrupt_one_vertex(T, rng))
        assert not b.ok and b.detail == "neighbor sum mismatch"
        assert b.witness == want and all(type(x) is type(y) for x, y in zip(b.witness, want))


@pytest.mark.parametrize("family,ctor,params", [
    ("johnson", min_bitrade_johnson, (8, 3)),
    ("hamming", min_bitrade_hamming, (3, 3)),
    ("halved_cube", min_bitrade_halved_cube, (8,)),
])
def test_criterion_b_matches_verify_eigenfunction(family, ctor, params):
    g, S = build_family(family, params)
    T = ctor(*params, host=g)
    rng = random.Random(31)
    theta = Fraction(-is_regular(g).value, S.s)
    for B in [T] + [corrupt_one_vertex(T, rng) for _ in range(10)]:
        assert check_criterion_b(g, S, B) == verify_eigenfunction(g, signed_function(B), theta)


def reference_criterion_c(g, S, T):
    """Criterion c by a loop over the induced subgraph's vertices: the first
    whose degree is not k/s, as (label, degree, k/s)."""
    target = Fraction(is_regular(g).value, S.s)
    sub, _ = induced_subgraph(g, T.support)
    for i in range(sub.num_vertices):
        if sub.degrees[i] != target:
            return Verdict(False, witness=(sub.labels[i], int(sub.degrees[i]), target),
                           detail="trade subgraph degree mismatch")
    return Verdict(True)


@pytest.mark.parametrize("family,ctor,params", [
    ("johnson", min_bitrade_johnson, (8, 3)),
    ("hamming", min_bitrade_hamming, (3, 3)),
    ("grassmann", min_bitrade_grassmann, (6, 3, 2)),
])
def test_criterion_c_matches_the_subgraph_loop(family, ctor, params):
    g, S = build_family(family, params)
    T = ctor(*params, host=g)
    rng = random.Random(37)
    for B in [T] + [corrupt_one_vertex(T, rng) for _ in range(10)]:
        assert check_criterion_c(g, S, B) == reference_criterion_c(g, S, B)


@pytest.mark.parametrize("s,want", [(3, ("000", 3, Fraction(1))),
                                    (2, ("000", 3, Fraction(3, 2)))])
def test_criterion_c_flags_excess_and_fractional_degrees(s, want):
    # a true system with m = 1 splits each neighborhood into k/s cliques,
    # which caps the support degree at k/s; here 000 has 3 support
    # neighbors against k/s = 1 and 3/2
    g, _ = build_hamming(3, 2)
    S = CliqueSystem(g, [], s=s, m=1)
    T = Bitrade(g, frozenset({0}), frozenset({1, 2, 4}))
    c = check_criterion_c(g, S, T)
    assert c == reference_criterion_c(g, S, T)
    assert c.witness == want


# First three draws of corrupt_one_vertex(T, random.Random(2024)) on the minimum
# bitrade of each report._CORRUPTION_FAMILIES host, as (T0 labels, T1 labels).
CORRUPTIONS_2024 = {
    "octahedron": [(['0+', '0-'], ['1+']), (['0+'], ['1+', '1-']), (['0+', '0-'], ['1-'])],
    "hamming": [(['000', '011', '101', '110'], ['001', '012', '100', '111']), (['000', '101', '110', '211'], ['001', '010', '100', '111']), (['000', '011', '101', '110'], ['001', '010', '100', '211'])],
    "johnson": [(['1,3,5', '1,4,6', '2,3,6', '2,4,5'], ['1,3,6', '1,4,5', '2,3,5']), (['1,3,5', '1,4,6', '2,4,5'], ['1,3,6', '1,4,5', '2,3,5', '2,4,6']), (['1,3,5', '1,4,6', '2,3,6', '2,4,5'], ['1,4,5', '2,3,5', '2,4,6'])],
    "halved_cube": [(['00000000', '00110011', '01010101', '01100110', '10011001', '10101010', '11001100', '11111111'], ['00001111', '00010001', '00100010', '01000100', '01110111', '10001000', '10111011', '11011101']), (['00000000', '00110011', '01010101', '01100110', '10011001', '11001100', '11010010', '11111111'], ['00010001', '00100010', '01000100', '01110111', '10001000', '10111011', '11011101', '11101110']), (['00000000', '00110011', '01010101', '01100110', '10011001', '10101010', '11001100', '11111111'], ['00010001', '01000100', '01110111', '10001000', '10110100', '10111011', '11011101', '11101110'])],
    "grassmann": [(['0010/0001', '1000/0100', '1001/0110'], ['0100/0010', '1000/0001', '1010/0101']), (['0010/0001', '1001/0110', '1011/0111'], ['0100/0010', '1000/0001', '1100/0011']), (['0010/0001', '1000/0100', '1001/0110'], ['0101/0010', '1000/0001', '1100/0011'])],
}


def test_seeded_corruptions_are_pinned():
    from drgtrades import report
    for name, params in report._CORRUPTION_FAMILIES:
        T = MIN_BITRADES[name](*params, host=build_family(name, params)[0])
        rng = random.Random(2024)
        got = []
        for _ in range(3):
            bad = corrupt_one_vertex(T, rng)
            got.append((bad.labels(bad.t0), bad.labels(bad.t1)))
        assert got == CORRUPTIONS_2024[name], name


# --- minimality / double Pasch --------------------------------------------------------

def test_double_pasch_not_minimal_not_isometric():
    g, S = build_johnson(12, 3)
    T = double_johnson_bitrade(12, 3, host=g)
    a = check_criterion_a(g, S, T)
    assert a.ok  # still a valid bitrade
    rep = check_minimality(g, S, T)
    assert T.cardinality == 16 and rep.bound == 8
    assert not rep.meets_bound and not rep.isometric.ok and not rep.minimal


def test_double_johnson_sides_are_pinned():
    T = double_johnson_bitrade(12, 3, host=build_johnson(12, 3)[0])
    assert T.labels(T.t0) == ["1,3,5", "1,4,6", "2,3,6", "2,4,5",
                              "7,10,12", "7,9,11", "8,10,11", "8,9,12"]
    assert T.labels(T.t1) == ["1,3,6", "1,4,5", "2,3,5", "2,4,6",
                              "7,10,11", "7,9,12", "8,10,12", "8,9,11"]


def test_minimality_positive_direction(johnson63):
    g, S = johnson63
    T = min_bitrade_johnson(6, 3, host=g)
    rep = check_minimality(g, S, T)
    assert rep.meets_bound and rep.isometric.ok and rep.minimal


# --- hamming / latin --------------------------------------------------------------------

def test_hamming_bitrade_33(hamming33):
    g, S = hamming33
    T = min_bitrade_hamming(3, 3, host=g)
    rep = verify_bitrade(g, S, T)
    assert rep.all_pass and rep.theta == -3
    assert rep.cardinality == 8 == rep.bound and rep.minimal
    assert rep.subgraph_array.b == (3, 2, 1)


def test_hamming_bitrade_binary_cases():
    g, S = build_hamming(2, 2)
    T = min_bitrade_hamming(2, 2, host=g)
    assert verify_bitrade(g, S, T).all_pass
    g, S = build_hamming(3, 2)
    T = min_bitrade_hamming(3, 2, host=g)
    assert T.cardinality == 8 == g.num_vertices
    assert verify_bitrade(g, S, T).all_pass


def cyclic_latin_square(order, shift):
    return {(r, c, (r + c + shift) % order)
            for r in range(order) for c in range(order)}


def latin_vertices(g, cells):
    return {g.index_of(f"{r}{c}{v}") for r, c, v in cells}


def all_latin_squares_order3():
    perms = list(itertools.permutations(range(3)))
    squares = []
    for rows in itertools.product(perms, repeat=3):
        if all(len({rows[r][c] for r in range(3)}) == 3 for c in range(3)):
            squares.append({(r, c, rows[r][c]) for r in range(3) for c in range(3)})
    return squares


def test_twelve_latin_squares_order3(hamming33):
    g, S = hamming33
    squares = all_latin_squares_order3()
    assert len(squares) == 12
    for sq in squares:
        assert check_clique_design(g, S, latin_vertices(g, sq)).ok


def test_design_difference_of_latin_squares(hamming33):
    g, S = hamming33
    d1 = latin_vertices(g, cyclic_latin_square(3, 0))
    d2 = latin_vertices(g, cyclic_latin_square(3, 1))
    T = design_difference(g, S, d1, d2)
    assert check_criterion_a(g, S, T).ok
    assert T.cardinality == 18


def test_design_difference_degenerate(hamming33):
    g, S = hamming33
    d = latin_vertices(g, cyclic_latin_square(3, 0))
    with pytest.raises(DegenerateEmpty):
        design_difference(g, S, d, d)


def test_design_difference_rejects_non_design(hamming33):
    g, S = hamming33
    d = latin_vertices(g, cyclic_latin_square(3, 0))
    with pytest.raises(ValueError):
        design_difference(g, S, d, {0, 1, 2})


def test_intercalate_swap_order4():
    g, S = build_hamming(3, 4)
    base = {(r, c, (r + c) % 4) for r in range(4) for c in range(4)}
    swapped = set(base)
    for r, c in ((0, 0), (0, 2), (2, 0), (2, 2)):
        swapped.discard((r, c, (r + c) % 4))
        swapped.add((r, c, (r + c + 2) % 4))
    d1 = latin_vertices(g, base)
    d2 = latin_vertices(g, swapped)
    T = design_difference(g, S, d1, d2)
    assert T.cardinality == 8
    assert check_criterion_a(g, S, T).ok


def test_empty_set_is_not_design(hamming33):
    g, S = hamming33
    assert not check_clique_design(g, S, set()).ok


def test_design_cross_check_raises(hamming33, monkeypatch):
    # the radius-1 cross-check is the only route for the constant-meet
    # lemma; a matrix that misses -k/s must not pass as a design
    g, S = hamming33
    monkeypatch.setattr(bitrades, "is_matrix_eigenvalue", lambda arr, th: False)
    with pytest.raises(CrossCheckViolation, match="radius 1"):
        check_clique_design(g, S, latin_vertices(g, cyclic_latin_square(3, 0)))


def test_design_cross_check_runs_under_optimize():
    # python -O strips assert statements; the check must not be one
    code = "\n".join([
        "from drgtrades import bitrades",
        "from drgtrades.errors import CrossCheckViolation",
        "from drgtrades.families import build_hamming",
        "g, S = build_hamming(3, 3)",
        "square = {g.index_of(f'{r}{c}{(r + c) % 3}') for r in range(3) for c in range(3)}",
        "bitrades.is_matrix_eigenvalue = lambda arr, th: False",
        "try:",
        "    bitrades.check_clique_design(g, S, square)",
        "except CrossCheckViolation:",
        "    print('raised', __debug__)",
    ])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised False\n"


# --- halved cube ---------------------------------------------------------------------------

def test_halved_cube_bitrades():
    g, S = build_halved_cube(4)
    T = min_bitrade_halved_cube(4, host=g)
    assert T.labels(T.t0) == ["0000", "1111"]
    rep = verify_bitrade(g, S, T)
    assert rep.all_pass and rep.minimal and rep.cardinality == 4
    g, S = build_halved_cube(6)
    T = min_bitrade_halved_cube(6, host=g)
    rep = verify_bitrade(g, S, T)
    assert rep.all_pass and rep.minimal and rep.cardinality == 8
    assert rep.subgraph_array.b == (3, 2, 1)


def test_extended_code_is_design_in_halved_8_cube():
    g, S = build_halved_cube(8)
    gens = (0b11111111, 0b01010101, 0b00110011, 0b00001111)
    words = set()
    for mask in range(16):
        w = 0
        for i, gvec in enumerate(gens):
            if (mask >> i) & 1:
                w ^= gvec
        words.add(w)
    labels = {format(w, "08b") for w in words}
    assert len(labels) == 16
    dset = {g.index_of(lab) for lab in labels}
    v = check_clique_design(g, S, dset)
    assert v.ok and v.value == 16


# --- octahedron ------------------------------------------------------------------------------

def test_octahedron_square_bitrade():
    g, S = build_octahedron(3)
    T = min_bitrade_octahedron(3, host=g)
    rep = verify_bitrade(g, S, T)
    assert rep.all_pass and rep.minimal and rep.cardinality == 4 == rep.bound


def test_octahedron_design_is_antipodal_pair():
    g, S = build_octahedron(3)
    pair = {g.index_of("0+"), g.index_of("0-")}
    assert check_clique_design(g, S, pair).ok


# --- grassmann -------------------------------------------------------------------------------

# every J_q(n,d) with d >= 2 and at most 12,000 vertices over a supported field:
# the paper's q-ary headline, each host checked like report criterion 12
GRASSMANN_GRID = [(n, d, q) for q in SUPPORTED_ORDERS for n in range(4, 10)
                  for d in range(2, n // 2 + 1) if gaussian_binomial(n, d, q) <= 12_000]


@pytest.mark.parametrize("n,d,q", GRASSMANN_GRID)
def test_grassmann_bitrade_grid(n, d, q):
    g, S = build_grassmann(n, d, q)
    arr = distance_regularity_check(g).value
    assert arr == grassmann_array(n, d, q)
    rep = verify_bitrade(g, S, min_bitrade_grassmann(n, d, q, host=g), host_array=arr)
    assert rep.all_pass and rep.minimal
    assert rep.cardinality == rep.bound == isotropic_count_product(d, q)
    assert rep.subgraph_array == dual_polar_array(d, q)


def test_grassmann_trade_is_built_under_the_host_vertex_count(monkeypatch):
    # [2d,d]_q <= [n,d]_q, so the host's size bounds the trade's candidates
    caps = []

    def spy(d, q, cap):
        caps.append(cap)
        return build_dual_polar_D(d, q, cap)
    monkeypatch.setattr(bitrades, "build_dual_polar_D", spy)
    for params in ((4, 2, 2), (6, 2, 2), (6, 3, 2)):
        g, S = build_grassmann(*params)
        T = min_bitrade_grassmann(*params, host=g)
        assert caps[-1] == g.num_vertices and check_criterion_a(g, S, T).ok
    assert len(caps) == 3


# --- doob ------------------------------------------------------------------------------------

def test_doob_pseudo_bitrades():
    g = build_doob(1, 0)
    T = pseudo_bitrade_doob(1, 0, host=g)
    assert verify_eigenfunction(g, signed_function(T), -2).ok and T.cardinality == 4
    assert wd_bound(doob_array(1, 0), -2) == 4

    g = build_doob(1, 1)
    T = pseudo_bitrade_doob(1, 1, host=g)
    assert verify_eigenfunction(g, signed_function(T), -3).ok and T.cardinality == 8
    assert wd_bound(doob_array(1, 1), -3) == 8
    # trade subgraph is the 3-cube
    sub, _ = induced_subgraph(g, T.support)
    assert distance_regularity_check(sub).value == hamming_array(3, 2)


def test_verify_pseudo_bitrade_doob():
    g = build_doob(1, 1)
    T = pseudo_bitrade_doob(1, 1, host=g)
    rep = verify_pseudo_bitrade(g, T, doob_array(1, 1))
    assert rep.ok and rep.b.ok and (rep.theta, rep.cardinality, rep.bound) == (-3, 8, 8)
    assert verify_pseudo_bitrade(g, T) == rep      # the array proven, as given
    half = Bitrade(g, T.t0, frozenset(sorted(T.t1)[1:]))
    rep = verify_pseudo_bitrade(g, half, doob_array(1, 1))
    assert not rep.ok and not rep.b.ok and rep.cardinality == 7


def test_doob_2_0_pseudo_bitrade():
    g = build_doob(2, 0)
    T = pseudo_bitrade_doob(2, 0, host=g)
    assert verify_pseudo_bitrade(g, T).b.ok and T.cardinality == 16
    assert wd_bound(doob_array(2, 0), -4) == 16


def test_verify_pseudo_bitrade_proves_the_host_array():
    # the triangular prism is 3-regular but not distance-regular
    g = Graph(list("abcdef"), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                               (0, 3), (1, 4), (2, 5)])
    T = Bitrade(g, frozenset({0}), frozenset({4}))
    with pytest.raises(NotDistanceRegular):
        verify_pseudo_bitrade(g, T)
    with pytest.raises(ValueError, match="degree 6.*degree 3"):
        verify_pseudo_bitrade(g, T, doob_array(1, 0))


def test_doob_split_that_is_not_an_eigenfunction_raises(monkeypatch):
    monkeypatch.setattr(bitrades, "_signed_eigenfunction",
                        lambda g, T, theta: Verdict(False, witness=("00", 1, 2)))
    with pytest.raises(CrossCheckViolation, match=r"doob\(1,1\) is not an eigenfunction at -3"):
        pseudo_bitrade_doob(1, 1, host=build_doob(1, 1))


# --- delsarte pair reports ----------------------------------------------------------------------

def test_delsarte_pair_reports(johnson63, hamming33):
    g, S = johnson63
    assert verify_delsarte_pair(g, S).ok
    g, S = hamming33
    assert verify_delsarte_pair(g, S).ok


def test_halved_5_cube_is_not_delsarte():
    g, S = build_halved_cube(5, check_delsarte=False)
    rep = verify_delsarte_pair(g, S)
    assert not rep.ok
    assert rep.hoffman_order == 6 and S.s + 1 == 5


def test_given_host_array_on_a_non_regular_host_raises():
    g = Graph(["a", "b", "c"], [(0, 1), (1, 2)])
    S = CliqueSystem(g, g.edge_array(), s=1, m=1)
    T = Bitrade(g, frozenset({0}), frozenset({2}))
    with pytest.raises(NotDistanceRegular, match=r"\('b', 2, 1\)"):
        verify_bitrade(g, S, T, host_array=hamming_array(1, 2))


@pytest.mark.parametrize("check", [
    lambda g, S: check_criterion_b(g, S, Bitrade(g, frozenset({0, 2}), frozenset({1, 3}))),
    lambda g, S: check_criterion_c(g, S, Bitrade(g, frozenset({0, 2}), frozenset({1, 3}))),
    lambda g, S: check_clique_design(g, S, {0, 2}),
], ids=["criterion_b", "criterion_c", "clique_design"])
def test_non_regular_host_raises_with_the_regularity_witness(check):
    # the path a-b-c-d, its edges as cliques: {a,c} meets every edge once
    g = Graph(list("abcd"), [(0, 1), (1, 2), (2, 3)])
    S = CliqueSystem(g, g.edge_array(), s=1, m=1)
    with pytest.raises(NotDistanceRegular, match=r"\('b', 2, 1\)"):
        check(g, S)


def test_given_host_array_of_another_degree_raises(johnson63):
    g, S = johnson63
    T = min_bitrade_johnson(6, 3, host=g)
    with pytest.raises(ValueError, match="degree 12.*degree 9"):
        verify_bitrade(g, S, T, host_array=johnson_array(7, 3))


# --- serialization --------------------------------------------------------------------------------

def test_bitrade_json_roundtrip(johnson63):
    g, S = johnson63
    T = min_bitrade_johnson(6, 3, host=g)
    doc = bitrade_to_json(T)
    assert doc["host"] == "johnson:6,3"
    T2 = bitrade_from_json(g, doc)
    assert T2.t0 == T.t0 and T2.t1 == T.t1


def test_bound_integrality_cross_check(monkeypatch, johnson63):
    g, S = johnson63
    monkeypatch.setattr(bitrades, "wd_bound", lambda arr, th: Fraction(17, 2))
    with pytest.raises(CrossCheckViolation, match="17/2 is not an integer"):
        check_minimality(g, S, min_bitrade_johnson(6, 3, host=g))


def test_is_regular_reads_a_regular_graph_without_a_degree_scan():
    # a host of its own, whose degree array is dropped: the degree comes from
    # its (n, k) row view, so criteria b and c, which read it, still run
    g, S = build_johnson(6, 3)
    T = min_bitrade_johnson(6, 3, host=g)
    g._degrees = None
    assert is_regular(g) == Verdict(True, value=9)
    assert check_criterion_b(g, S, T).ok and check_criterion_c(g, S, T).ok


def test_minimality_cross_check_raises(monkeypatch, johnson63):
    g, S = johnson63
    monkeypatch.setattr(bitrades, "is_isometric_subgraph",
                        lambda h, verts: Verdict(False, witness=("x", "y", 3, 2)))
    with pytest.raises(CrossCheckViolation,
                       match=r"meets-bound=True but isometric=False: \('x', 'y', 3, 2\)"):
        verify_bitrade(g, S, min_bitrade_johnson(6, 3, host=g))


def test_subgraph_dr_cross_check_raises(monkeypatch, johnson63):
    g, S = johnson63
    monkeypatch.setattr(bitrades, "distance_regularity_check",
                        lambda h: Verdict(False, witness=("x", 1, "forward", 2, 3)))
    with pytest.raises(CrossCheckViolation, match=r"not distance-regular: \('x', 1, "):
        verify_bitrade(g, S, min_bitrade_johnson(6, 3, host=g), host_array=johnson_array(6, 3))


def test_subgraph_shell_cross_check_raises(monkeypatch, johnson63):
    g, S = johnson63
    monkeypatch.setattr(bitrades, "wd_coefficients", lambda arr, th: (1, -2, 4, -1))
    with pytest.raises(CrossCheckViolation,
                       match=r"shells \(1, 3, 3, 1\) at 1,3,5 differ from \|W\^i\| = \(1, 2, 4, 1\)"):
        verify_bitrade(g, S, min_bitrade_johnson(6, 3, host=g))


def test_valid_verify_bitrade_builds_one_trade_subgraph_and_one_bfs(monkeypatch, johnson63):
    g, S = johnson63
    T = min_bitrade_johnson(6, 3, host=g)
    built, searched, host_depths = [], [], []
    init, among, multi = Graph.__init__, Graph.distances_among, Graph.multi_source_distances

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_among(self, verts, depth=None):
        searched.append(self)
        if self is g:
            host_depths.append(depth)
        return among(self, verts, depth)

    def counted_multi(self, sources):
        searched.append(self)
        return multi(self, sources)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    monkeypatch.setattr(Graph, "distances_among", counted_among)
    monkeypatch.setattr(Graph, "multi_source_distances", counted_multi)
    rep = verify_bitrade(g, S, T)
    assert rep.minimal and rep.subgraph_array == hamming_array(3, 2)
    assert len(built) == 1 and built[0].num_vertices == 8
    assert [h for h in searched if h is not g] == built
    assert rep.isometric.value is built[0]
    assert host_depths == [3]           # the isometry search, bounded by the 3-cube's diameter


def test_dual_polar_bipartition_cross_check(monkeypatch):
    monkeypatch.setattr(bitrades, "is_bipartite",
                        lambda g: Verdict(False, witness=["x", "y", "z"], detail="odd cycle"))
    with pytest.raises(CrossCheckViolation, match="odd cycle"):
        min_bitrade_grassmann(4, 2, 2, host=build_grassmann(4, 2, 2)[0])


def test_bound_integrality_cross_check_runs_under_optimize():
    # python -O strips assert statements; the check must not be one
    code = "\n".join([
        "from fractions import Fraction",
        "from drgtrades import bitrades",
        "from drgtrades.errors import CrossCheckViolation",
        "from drgtrades.families import build_johnson",
        "g, S = build_johnson(6, 3)",
        "T = bitrades.min_bitrade_johnson(6, 3, host=g)",
        "bitrades.wd_bound = lambda arr, th: Fraction(17, 2)",
        "try:",
        "    bitrades.check_minimality(g, S, T)",
        "except CrossCheckViolation:",
        "    print('raised', __debug__)",
    ])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised False\n"
