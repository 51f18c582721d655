"""Finite field tables, RREF canonicalization, subspace enumeration."""

import itertools
import random

import numpy as np
import pytest

from drgtrades import gfq
from drgtrades.errors import (
    AmbientMismatch,
    CrossCheckViolation,
    EnumerationTooLarge,
    UnsupportedFieldOrder,
)
from drgtrades.gfq import (
    FFMatrix,
    SUPPORTED_ORDERS,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    hyperbolic_form,
    intersection_dim,
    is_totally_isotropic,
    isotropic_count_product,
    isotropic_count_sum,
    make_field,
    rank,
    rref,
    subspace_hyperplanes,
)


# --- field axioms, exhaustively ---------------------------------------------

@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    F = make_field(q)
    els = range(q)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_gf2_add_is_xor():
    F = make_field(2)
    for a in (0, 1):
        for b in (0, 1):
            assert F.add(a, b) == a ^ b


def test_gf4_structure():
    F = make_field(4)
    # t*t reduces modulo t^2+t+1 to t+1, i.e. index 3
    assert F.mul(2, 2) == 3
    # nonzero elements form a cyclic group of order 3
    for a in (2, 3):
        assert F.mul(F.mul(a, a), a) == 1


def test_unsupported_orders_rejected():
    for q in (6, 10, 12, 16):
        with pytest.raises(UnsupportedFieldOrder):
            make_field(q)


# --- rref --------------------------------------------------------------------

def test_rref_identity_fixed():
    F = make_field(3)
    eye = FFMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], F)
    assert rref(eye) == eye


def test_rref_gf2_example():
    F = make_field(2)
    m = FFMatrix.from_rows([(1, 1, 0), (0, 1, 1)], F)
    red = rref(m)
    assert red.rows() == [(1, 0, 1), (0, 1, 1)]


def test_rref_zero_matrix():
    F = make_field(5)
    z = FFMatrix.from_rows([[0, 0], [0, 0]], F)
    assert rref(z) == z
    assert rank(z) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rref_idempotent_and_rank_preserving(q):
    F = make_field(q)
    rng = random.Random(1000 + q)
    for _ in range(40):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 6)
        m = FFMatrix.from_rows(
            [[rng.randrange(q) for _ in range(nc)] for _ in range(nr)], F)
        red = rref(m)
        assert rref(red) == red
        assert rank(red) == rank(m)
        # row-mixing does not change the canonical form
        mixed = [list(m.row(i)) for i in range(nr)]
        i, j = rng.randrange(nr), rng.randrange(nr)
        if i != j:
            mixed[i] = [F.add(x, y) for x, y in zip(mixed[i], mixed[j])]
        assert rref(FFMatrix.from_rows(mixed, F)) == red or rank(m) != rank(
            FFMatrix.from_rows(mixed, F))


def _reference_rref(rows, F):
    """Row reduction one matrix at a time in scalar field arithmetic."""
    rows = [list(r) for r in rows]
    r = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = F.inv(rows[r][col])
        rows[r] = [F.mul(s, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


def _random_matrices(rng, q, count, nr, nc):
    """Seeded (nr, nc) matrices over GF(q): a quarter of rank at most 1 and
    a quarter of rank at most 2 (products of thin random factors), the rest
    uniform, the last three zero."""
    F = make_field(q)
    out = rng.integers(0, q, size=(count, nr, nc)).astype(np.int8)
    quarter = count // 4
    for start, inner in ((0, 1), (quarter, 2)):
        left = rng.integers(0, q, size=(quarter, nr, inner)).astype(np.int8)
        right = rng.integers(0, q, size=(quarter, inner, nc)).astype(np.int8)
        out[start:start + quarter] = gfq.matmul_batch(left, right, F)
    out[-3:] = 0
    return out


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_batched_rref_matches_reference(q):
    F = make_field(q)
    rng = np.random.default_rng(2000 + q)
    for nr, nc in [(1, 4), (2, 5), (3, 3), (4, 6), (5, 3)]:
        batch = _random_matrices(rng, q, 60, nr, nc)
        got = gfq.rref_batch(batch, F)
        for m, red in zip(batch.tolist(), got.tolist()):
            assert red == _reference_rref(m, F)
            assert rref(FFMatrix.from_rows(m, F)).rows() == [tuple(r) for r in red]
        if nr > 1:
            assert not got[:, -1].any(axis=1).all()  # rank-deficient cases occur


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_batched_matmul_matches_scalar_products(q):
    F = make_field(q)
    rng = np.random.default_rng(3000 + q)
    a = rng.integers(0, q, size=(20, 3, 4)).astype(np.int8)
    b = rng.integers(0, q, size=(20, 4, 2)).astype(np.int8)
    got = gfq.matmul_batch(a, b, F)
    for x, y, xy in zip(a.tolist(), b.tolist(), got.tolist()):
        for i in range(3):
            for j in range(2):
                acc = 0
                for t in range(4):
                    acc = F.add(acc, F.mul(x[i][t], y[t][j]))
                assert xy[i][j] == acc


@pytest.mark.parametrize("n,d,q", [(4, 2, q) for q in SUPPORTED_ORDERS]
                         + [(3, 1, 2), (3, 3, 3), (5, 3, 2), (6, 3, 2), (5, 2, 3),
                            (4, 3, 4), (3, 2, 8), (3, 2, 9), (5, 2, 5)])
def test_hyperplane_products_are_already_reduced(n, d, q):
    # C @ B for RREF C and B is in RREF, so hyperplane_bases skips rref_batch
    F = make_field(q)
    bases = gfq.subspace_bases(n, d, q)
    prods = gfq.matmul_batch(gfq.subspace_bases(d, d - 1, q), bases[:, None], F)
    got = gfq.hyperplane_bases(bases, F)
    h = gaussian_binomial(d, 1, q)
    assert got.shape == (len(bases), h, d - 1, n)
    reduced = gfq.rref_batch(prods.reshape(len(bases) * h, d - 1, n), F).reshape(got.shape)
    assert np.array_equal(got, reduced)


# --- gaussian binomials vs enumeration ---------------------------------------

def test_gaussian_binomial_small_values():
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    for n in range(6):
        assert gaussian_binomial(n, 0, 3) == 1
    assert gaussian_binomial(2, 3, 2) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_enumeration_counts_match_binomial(q):
    F = make_field(q)
    for n in range(7):
        for d in range(n + 1):
            subs = enumerate_subspaces(n, d, F)
            assert len(subs) == gaussian_binomial(n, d, q)
            assert len({s.label() for s in subs}) == len(subs)


def test_enumerate_brute_force_oracle():
    # every 2-subspace of F_2^4 arises as a span; spans canonicalize into
    # exactly the enumerated RREF list
    F = make_field(2)
    enumerated = {s.label() for s in enumerate_subspaces(4, 2, F)}
    seen = set()
    vecs = list(itertools.product(range(2), repeat=4))[1:]
    for a, b in itertools.combinations(vecs, 2):
        s = Subspace.from_matrix(FFMatrix.from_rows([a, b], F))
        if s.dim == 2:
            seen.add(s.label())
    assert seen == enumerated


def test_enumeration_simple_cases():
    F2 = make_field(2)
    assert len(enumerate_subspaces(2, 1, F2)) == 3
    F3 = make_field(3)
    zero = enumerate_subspaces(3, 0, F3)
    assert len(zero) == 1 and zero[0].dim == 0


def test_enumeration_count_cross_check(monkeypatch):
    monkeypatch.setattr(gfq, "gaussian_binomial", lambda a, b, q: 8)
    with pytest.raises(CrossCheckViolation, match="enumerated 7 subspaces"):
        enumerate_subspaces(3, 1, make_field(2))


def test_enumeration_cap():
    F = make_field(3)
    with pytest.raises(EnumerationTooLarge):
        enumerate_subspaces(6, 3, F, cap=1000)


# --- intersections -----------------------------------------------------------

def test_intersection_dim_cases():
    F = make_field(2)
    lines = enumerate_subspaces(2, 1, F)
    for a in lines:
        assert intersection_dim(a, a) == 1
    for a, b in itertools.combinations(lines, 2):
        assert intersection_dim(a, b) == 0
    # two 3-dim subspaces of F_2^6 sharing a fixed 2-dim subspace
    e = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    a = Subspace.from_matrix(FFMatrix.from_rows([e[0], e[1], e[2]], F))
    b = Subspace.from_matrix(FFMatrix.from_rows([e[0], e[1], e[3]], F))
    assert intersection_dim(a, b) == 2


def test_intersection_ambient_mismatch():
    F = make_field(2)
    a = Subspace.from_matrix(FFMatrix.from_rows([(1, 0)], F))
    b = Subspace.from_matrix(FFMatrix.from_rows([(1, 0, 0)], F))
    with pytest.raises(AmbientMismatch):
        intersection_dim(a, b)


def test_subspace_hyperplanes():
    F = make_field(2)
    s = Subspace.from_matrix(FFMatrix.from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], F))
    hps = subspace_hyperplanes(s)
    assert len(hps) == gaussian_binomial(3, 2, 2) == 7
    assert len({h.label() for h in hps}) == 7
    for h in hps:
        assert h.dim == 2 and intersection_dim(h, s) == 2


# --- quadratic form ----------------------------------------------------------

def test_isotropy_examples():
    F = make_field(2)
    form = hyperbolic_form(2, F)
    span = lambda *rows: Subspace.from_matrix(FFMatrix.from_rows(rows, F))
    assert is_totally_isotropic(span((1, 0, 0, 0)), form)
    assert is_totally_isotropic(span((1, 0, 0, 1)), form)
    assert not is_totally_isotropic(span((1, 0, 1, 0)), form)


@pytest.mark.parametrize("q", [2, 3])
def test_form_scales_quadratically(q):
    F = make_field(q)
    form = hyperbolic_form(2, F)
    for vec in itertools.product(range(q), repeat=4):
        qv = form.evaluate(vec)
        for lam in range(q):
            scaled = [F.mul(lam, x) for x in vec]
            assert form.evaluate(scaled) == F.mul(F.mul(lam, lam), qv)


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2)])
def test_isotropic_subspace_count(d, q):
    F = make_field(q)
    form = hyperbolic_form(d, F)
    count = sum(1 for s in enumerate_subspaces(2 * d, d, F)
                if is_totally_isotropic(s, form))
    assert count == isotropic_count_product(d, q)


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5)])
def test_totally_isotropic_mask_matches_per_subspace(d, q):
    F = make_field(q)
    form = hyperbolic_form(d, F)
    mask = gfq.totally_isotropic_mask(gfq.subspace_bases(2 * d, d, q), form)
    assert mask.tolist() == [is_totally_isotropic(s, form)
                             for s in enumerate_subspaces(2 * d, d, F)]
    assert mask.sum() == isotropic_count_product(d, q)


def test_isotropic_count_identity():
    for d in range(1, 6):
        for q in (2, 3, 4, 5):
            assert isotropic_count_product(d, q) == isotropic_count_sum(d, q)


def test_extend_ambient_preserves_rref():
    F = make_field(3)
    s = Subspace.from_matrix(FFMatrix.from_rows([(1, 0, 2), (0, 1, 1)], F))
    ext = s.extend_ambient(5)
    assert ext.ambient_dim == 5 and ext.dim == 2
    assert ext.label() == "10200/01100"
    # still canonical: re-reducing reproduces the same subspace
    assert Subspace.from_matrix(ext.basis) == ext
