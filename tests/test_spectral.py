"""Exact spectra, standard eigenvectors, weight-distribution coefficients.

Frozen expected values were produced by two independent routes: the
recursions computed by hand, and numpy's floating eigensolver on the dense
intersection matrix (used here only as an oracle)."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drgtrades import spectral
from drgtrades.errors import (
    NonIntegerSpectrum,
    NotAnEigenvalue,
    NotCompletelyRegular,
    ZeroFunction,
)
from drgtrades.graphs import CliqueSystem, IntersectionArray, Verdict, completely_regular_check
from drgtrades.spectral import (
    delta_function,
    intersection_matrix_eigenvalues,
    is_matrix_eigenvalue,
    standard_eigenvector,
    theta_min,
    verify_eigenfunction,
    wd_bound,
    wd_coefficients,
    weight_distribution_of,
)
from drgtrades.families import build_grassmann, grassmann_array, hamming_array
from drgtrades.gfq import gaussian_binomial
from helpers import (
    cube_graph,
    cycle_graph,
    reference_neighbor_sums,
    reference_shell_sums,
    values,
    vertex_function,
)

H4 = IntersectionArray(4, (4, 3, 2, 1), (1, 2, 3, 4))          # 4-cube
J63 = IntersectionArray(9, (9, 4, 1), (1, 4, 9))               # triple graph on 6 points
GR632 = IntersectionArray(98, (98, 72, 32), (1, 9, 49))        # binary 3-spaces in dim 6
J12_3 = IntersectionArray(27, (27, 16, 7), (1, 4, 9))


def float_eigs(arr):
    """Eigenvalues of the tridiagonal intersection matrix: a_i on the
    diagonal, b_i above it and c_i below it."""
    m = np.diag([float(arr.a(i)) for i in range(arr.rho + 1)])
    m += np.diag(arr.b, 1) + np.diag(arr.c, -1)
    return sorted(np.linalg.eigvals(m).real, reverse=True)


@pytest.mark.parametrize("arr,expected", [
    (H4, [4, 2, 0, -2, -4]),
    (J63, [9, 3, -1, -3]),
    (GR632, [98, 35, 5, -7]),
    (IntersectionArray(6, (6, 1), (1, 6)), [6, 0, -2]),   # 4-dim cocktail party
])
def test_integer_spectra(arr, expected):
    got = intersection_matrix_eigenvalues(arr)
    assert got == expected
    # float oracle agrees to rounding
    assert [round(x) for x in float_eigs(arr)] == expected


@pytest.mark.parametrize("q", [11, 13])
@pytest.mark.parametrize("n,d", [(4, 2), (6, 3), (7, 3), (8, 4), (9, 4)])
def test_grassmann_spectra_match_closed_form(n, d, q):
    # theta_j = q^(j+1) [d-j]_q [n-d-j]_q - [j]_q, j = 0..d
    def gb(m):
        return gaussian_binomial(m, 1, q)
    expected = [q ** (j + 1) * gb(d - j) * gb(n - d - j) - gb(j) for j in range(d + 1)]
    assert intersection_matrix_eigenvalues(grassmann_array(n, d, q)) == expected


def test_spectra_of_random_arrays_match_float_oracle():
    # integral spectra come out exactly; any other spectrum raises
    rng = random.Random(77)
    integral = rejected = 0
    for _ in range(400):
        rho = rng.randint(1, 4)
        k = rng.randint(1, 12)
        c = sorted(rng.randint(1, k) for _ in range(rho))
        b = sorted((rng.randint(1, k) for _ in range(rho)), reverse=True)
        b[0] = k
        try:
            arr = IntersectionArray(k, tuple(b), tuple(c))
        except ValueError:
            continue
        floats = float_eigs(arr)
        if all(abs(x - round(x)) < 1e-6 for x in floats):
            assert intersection_matrix_eigenvalues(arr) == [round(x) for x in floats]
            integral += 1
        else:
            with pytest.raises(NonIntegerSpectrum):
                intersection_matrix_eigenvalues(arr)
            rejected += 1
    assert integral >= 20 and rejected >= 20


def test_irrational_eigenvalue_next_to_an_integer_one_raises():
    # eigenvalues 3, -1 and the roots 2.518.., 1.178.., -2.696.. of
    # x^3 - x^2 - 7x + 8: the second largest lies within 1/2 of 3, where the
    # characteristic polynomial vanishes
    arr = IntersectionArray(3, (3, 1, 2, 1), (2, 1, 1, 1))
    assert is_matrix_eigenvalue(arr, 3) and is_matrix_eigenvalue(arr, -1)
    with pytest.raises(NonIntegerSpectrum, match=r"eigenvalue 1 .* within 1/2 of 3 "):
        intersection_matrix_eigenvalues(arr)


def test_rho_zero_spectrum():
    arr = IntersectionArray(3, (), ())
    assert intersection_matrix_eigenvalues(arr) == [3]


def test_theta_min_values():
    assert theta_min(J63) == -3
    assert theta_min(GR632) == -7


def test_theta_min_runs_one_bisection(monkeypatch):
    # one bisection over [-k, k] and one window check; finding all rho + 1
    # eigenvalues took about 11,000 Sturm counts here
    calls = []
    count_above = spectral._count_above
    monkeypatch.setattr(spectral, "_count_above",
                        lambda arr, t: calls.append(t) or count_above(arr, t))
    arr = hamming_array(1000, 2)
    assert theta_min(arr) == -1000
    assert len(calls) <= math.ceil(math.log2(2 * arr.k + 1)) + 1


def test_theta_min_refuses_a_least_eigenvalue_that_is_not_alone_an_integer():
    # the pentagon's least eigenvalue -1.618.. lies within 1/2 of -2; the
    # second array has eigenvalues -2 and -1.561.., both in that window
    pentagon = IntersectionArray(2, (2, 1), (1, 1))
    shared = IntersectionArray(4, (4, 2, 1, 1), (1, 1, 2, 4))
    assert not is_matrix_eigenvalue(pentagon, -2) and is_matrix_eigenvalue(shared, -2)
    for arr in (pentagon, shared):
        with pytest.raises(NonIntegerSpectrum, match="least eigenvalue .* within 1/2 of -2 "):
            theta_min(arr)


def test_standard_eigenvector_perron():
    for arr in (H4, J63):
        nu = standard_eigenvector(arr, arr.k)
        assert all(x == 1 for x in nu)


def test_standard_eigenvector_frozen():
    assert standard_eigenvector(H4, -4) == [1, -1, 1, -1, 1]
    nu = standard_eigenvector(J63, -3)
    assert nu == [1, Fraction(-1, 3), Fraction(1, 3), -1]
    assert all(x != 0 for x in nu)


def test_standard_eigenvector_rejects_non_eigenvalue():
    with pytest.raises(NotAnEigenvalue):
        standard_eigenvector(J63, -2)


def test_is_matrix_eigenvalue():
    assert is_matrix_eigenvalue(J63, -3)
    assert not is_matrix_eigenvalue(J63, 4)


def test_wd_coefficients_frozen():
    assert wd_coefficients(H4, -4) == (1, -4, 6, -4, 1)
    assert wd_coefficients(J63, -3) == (1, -3, 3, -1)
    assert wd_coefficients(GR632, -7) == (1, -7, 14, -8)
    assert wd_coefficients(J12_3, -3) == (1, -3, 3, -1)


def test_wd_at_degree_is_nonnegative():
    for arr in (H4, J63, GR632):
        w = wd_coefficients(arr, arr.k)
        assert w[1] == arr.k
        assert all(x >= 0 for x in w)


def test_wd_bound_values():
    assert wd_bound(H4, -4) == 16
    assert wd_bound(J63, -3) == 8
    assert wd_bound(GR632, -7) == 30
    assert wd_bound(J12_3, -3) == 8
    # n-cube bounds 2^n
    for n in (3, 4, 5):
        arr = IntersectionArray(n, tuple(range(n, 0, -1)), tuple(range(1, n + 1)))
        assert wd_bound(arr, -n) == 2 ** n


def test_wd_bound_family_closed_forms():
    from drgtrades.families import grassmann_array, johnson_array
    from drgtrades.gfq import gaussian_binomial, isotropic_count_product
    for n, w in ((6, 3), (8, 3), (8, 4)):
        assert wd_bound(johnson_array(n, w), -w) == 2 ** w
    for d, q in ((2, 2), (3, 2), (2, 3)):
        th = -gaussian_binomial(d, 1, q)
        assert wd_bound(grassmann_array(2 * d, d, q), th) == \
            isotropic_count_product(d, q)


# --- eigenfunctions on actual graphs ----------------------------------------

def test_constant_function_is_degree_eigenfunction():
    g = cube_graph(3)
    f = vertex_function(g, [1] * 8)
    assert verify_eigenfunction(g, f, 3).ok
    assert not verify_eigenfunction(g, f, 2).ok


def test_parity_eigenfunction_on_cube():
    g = cube_graph(4)
    f = vertex_function(g, [(-1) ** lab.count("1") for lab in g.labels])
    assert verify_eigenfunction(g, f, -4).ok
    v = verify_eigenfunction(g, f, -2)
    assert not v.ok and v.witness is not None


def test_zero_function_rejected():
    g = cycle_graph(4)
    f = vertex_function(g, [0] * 4)
    with pytest.raises(ZeroFunction):
        verify_eigenfunction(g, f, 0)


def test_delta_function_whole_set_constant():
    g = cube_graph(3)
    (f,), _ = delta_function(g, range(8), [3])
    assert all(v == 1 for v in values(f))


def test_delta_function_singleton_alternates():
    g = cube_graph(4)
    x = g.index_of("0000")
    (f,), _ = delta_function(g, [x], [-4])
    for v, lab in enumerate(g.labels):
        assert values(f)[v] == (-1) ** lab.count("1")
    assert verify_eigenfunction(g, f, -4).ok


def test_delta_function_every_eigenvalue_verifies():
    g = cube_graph(4)
    arr = IntersectionArray(4, (4, 3, 2, 1), (1, 2, 3, 4))
    eigs = intersection_matrix_eigenvalues(arr)
    for th, f in zip(eigs, delta_function(g, [3], eigs)[0]):
        assert verify_eigenfunction(g, f, th).ok


def test_delta_function_not_cr_raises():
    g = cube_graph(3)
    with pytest.raises(NotCompletelyRegular):
        delta_function(g, [g.index_of("000"), g.index_of("011")], [-3])


def test_weight_distribution_shells():
    g = cube_graph(4)
    ones = vertex_function(g, [1] * 16)
    assert weight_distribution_of(ones, g.multi_source_distances([0])) == [1, 4, 6, 4, 1]


@pytest.mark.parametrize("numerator,denominator", [(1, 1), (1, 6), (1, 1000003), (2 ** 62, 1)])
def test_weight_distribution_matches_shell_loop(numerator, denominator):
    # the sums run on integer numerators over one common denominator, which
    # may be large (1000003) and whose numerators may pass 2**63
    g = cube_graph(4)
    rng = random.Random(denominator)
    f = vertex_function(g, [Fraction(rng.randint(-9, 9) * numerator, denominator)
                            for _ in range(16)])
    dist = g.multi_source_distances([5]).tolist()
    want = [sum((v for v, d in zip(values(f), dist) if d == i), Fraction(0))
            for i in range(max(dist) + 1)]
    assert weight_distribution_of(f, g.multi_source_distances([5])) == want


def test_weight_distribution_refuses_an_out_of_range_center():
    # the shells of -1 would be those of vertex 7
    g = cube_graph(3)
    with pytest.raises(ValueError, match="vertex index out of range"):
        weight_distribution_of(vertex_function(g, [1] * 8), g.multi_source_distances([-1]))


def test_weight_distribution_eigenfunction_matches_coefficients():
    g = cube_graph(4)
    x = g.index_of("0101")
    (f,), dist = delta_function(g, [x], [-2])
    w = weight_distribution_of(f, dist)
    expect = wd_coefficients(IntersectionArray(4, (4, 3, 2, 1), (1, 2, 3, 4)), -2)
    assert tuple(w) == expect


def test_completely_regular_antipodal_pair_in_cube():
    # {0000, 1111} is completely regular in the 4-cube with radius 2
    g = cube_graph(4)
    res = completely_regular_check(g, [g.index_of("0000"), g.index_of("1111")])
    assert res.ok and res.value.rho == 2


# --- drawn rational functions against scalar Fraction references ------------------

RATIONALS = st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 10 ** 12))


@lru_cache(maxsize=None)
def _function_host(name):
    """Host, clique system and intersection array: the 4-cube with its
    edges as cliques, or J_2(4,2) with its Delsarte system."""
    if name == "cube":
        g = cube_graph(4)
        return g, CliqueSystem(g, g.edge_array(), s=1, m=1), H4
    return (*build_grassmann(4, 2, 2), grassmann_array(4, 2, 2))


@st.composite
def drawn_functions(draw):
    """A host, its clique system, an eigenvalue theta of it, and rational
    values: drawn outright, or a drawn multiple of a theta-eigenfunction,
    possibly changed at one drawn vertex."""
    g, S, arr = _function_host(draw(st.sampled_from(["cube", "grassmann"])))
    n = g.num_vertices
    theta = draw(st.sampled_from(intersection_matrix_eigenvalues(arr)))
    if draw(st.booleans()):
        vals = draw(st.lists(RATIONALS | st.just(Fraction(0)), min_size=n, max_size=n))
    else:
        scale = draw(RATIONALS) or Fraction(1)
        (base,), _ = delta_function(g, [draw(st.integers(0, n - 1))], [theta])
        vals = [scale * v for v in values(base)]
        if draw(st.booleans()):
            vals[draw(st.integers(0, n - 1))] += draw(RATIONALS)
    return g, S, theta, vals


def reference_eigenfunction(g, values, theta):
    sums = reference_neighbor_sums(g, values)
    for x, (acc, v) in enumerate(zip(sums, values)):
        if acc != theta * v:
            return Verdict(False, witness=(g.labels[x], acc, theta * v),
                           detail="neighbor sum mismatch")
    return Verdict(True)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(drawn_functions(), st.integers(0, 2 ** 32 - 1))
def test_vertex_function_sums_match_fraction_references(drawn, seed):
    g, S, theta, values = drawn
    f = vertex_function(g, values)
    assert [Fraction(a, f.den) for a in f.num] == values
    x = seed % g.num_vertices
    assert (weight_distribution_of(f, g.multi_source_distances([x]))
            == reference_shell_sums(g, values, x))
    if not any(values):
        with pytest.raises(ZeroFunction):
            verify_eigenfunction(g, f, theta)
        return
    assert verify_eigenfunction(g, f, theta) == reference_eigenfunction(g, values, theta)
    # the zero-sum lemma: zero clique sums iff an eigenfunction at -k/s
    sums = [Fraction(a, f.den) for a in f.num[S.cliques].sum(axis=1)]
    assert sums == [sum((values[v] for v in c), Fraction(0)) for c in S.cliques.tolist()]
    th_min = Fraction(-int(g.degrees[0]), S.s)
    eig = verify_eigenfunction(g, f, th_min)
    assert eig == reference_eigenfunction(g, values, th_min)
    assert (not any(sums)) == eig.ok
