"""Finite field tables, batched RREF and products, subspace enumeration,
hyperplanes and isotropy, each against a scalar reference."""

import itertools
import random

import numpy as np
import pytest

from drgtrades import gfq
from drgtrades.errors import (
    CrossCheckViolation,
    UnsupportedFieldOrder,
)
from drgtrades.gfq import (
    SUPPORTED_ORDERS,
    gaussian_binomial,
    isotropic_count_product,
    isotropic_count_sum,
    make_field,
    rref_batch,
    subspace_bases,
    totally_isotropic_mask,
)
from helpers import (
    ORACLE_BASES,
    field_lists,
    hyperbolic_value,
    is_totally_isotropic,
    label,
    oracle_bases,
    reference_rref,
)


# --- field axioms, exhaustively ---------------------------------------------

@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    add, mul, neg, inv = field_lists(make_field(q))
    els = range(q)
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][inv[a]] == 1
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
    for a, b, c in itertools.product(els, repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_gf2_add_is_xor():
    add = make_field(2).add_table
    for a in (0, 1):
        for b in (0, 1):
            assert add[a, b] == a ^ b


def test_gf4_structure():
    mul = make_field(4).mul_table
    # t*t reduces modulo t^2+t+1 to t+1, i.e. index 3
    assert mul[2, 2] == 3
    # nonzero elements form a cyclic group of order 3
    for a in (2, 3):
        assert mul[mul[a, a], a] == 1


def test_unsupported_orders_rejected():
    for q in (6, 10, 12, 16):
        with pytest.raises(UnsupportedFieldOrder):
            make_field(q)


# --- rref --------------------------------------------------------------------

def _rref(rows, F):
    return rref_batch(np.array([rows], dtype=np.int8), F)[0].tolist()


def _rank(reduced):
    return sum(1 for r in reduced if any(r))


def test_rref_identity_fixed():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _rref(eye, make_field(3)) == eye


def test_rref_gf2_example():
    assert _rref([(1, 1, 0), (0, 1, 1)], make_field(2)) == [[1, 0, 1], [0, 1, 1]]


def test_rref_zero_matrix():
    red = _rref([[0, 0], [0, 0]], make_field(5))
    assert red == [[0, 0], [0, 0]]
    assert _rank(red) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rref_idempotent_and_rank_preserving(q):
    F = make_field(q)
    add = F.add_table.tolist()
    rng = random.Random(1000 + q)
    for _ in range(40):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 6)
        m = [[rng.randrange(q) for _ in range(nc)] for _ in range(nr)]
        red = _rref(m, F)
        assert _rref(red, F) == red
        assert _rank(red) == _rank(reference_rref(m, F))
        # adding one row to another does not change the canonical form
        mixed = [list(r) for r in m]
        i, j = rng.randrange(nr), rng.randrange(nr)
        if i != j:
            mixed[i] = [add[x][y] for x, y in zip(mixed[i], mixed[j])]
        assert _rref(mixed, F) == red


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
            assert red == reference_rref(m, F)
        if nr > 1:
            assert not got[:, -1].any(axis=1).all()  # rank-deficient cases occur


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_batched_matmul_matches_scalar_products(q):
    F = make_field(q)
    rng = np.random.default_rng(3000 + q)
    a = rng.integers(0, q, size=(20, 3, 4)).astype(np.int8)
    b = rng.integers(0, q, size=(20, 4, 2)).astype(np.int8)
    add, mul, _, _ = field_lists(F)
    got = gfq.matmul_batch(a, b, F)
    for x, y, xy in zip(a.tolist(), b.tolist(), got.tolist()):
        for i in range(3):
            for j in range(2):
                acc = 0
                for t in range(4):
                    acc = add[acc][mul[x[i][t]][y[t][j]]]
                assert xy[i][j] == acc


@pytest.mark.parametrize("n,d,q", [(4, 2, q) for q in SUPPORTED_ORDERS]
                         + [(3, 1, 2), (3, 3, 3), (5, 3, 2), (6, 3, 2), (5, 2, 3),
                            (4, 3, 4), (3, 2, 8), (3, 2, 9), (5, 2, 5)])
def test_hyperplane_products_are_already_reduced(n, d, q):
    # C @ B for RREF C and B is in RREF, so the probe seam gathers the
    # hyperplanes from point_rows and skips rref_batch
    F = make_field(q)
    bases = gfq.subspace_bases(n, d, q)
    prods = gfq.matmul_batch(gfq.subspace_bases(d, d - 1, q), bases[:, None], F)
    h = gaussian_binomial(d, 1, q)
    assert prods.shape == (len(bases), h, d - 1, n)
    reduced = gfq.rref_batch(prods.reshape(len(bases) * h, d - 1, n), F).reshape(prods.shape)
    assert np.array_equal(prods, reduced)
    for i in range(0, len(bases), max(1, len(bases) // 40)):
        got = gfq.subspace_hyperplanes((bases[i], F))
        assert all(f is F for _, f in got)
        assert np.array_equal(np.array([b for b, _ in got]).reshape(prods[i].shape), prods[i])


@pytest.mark.parametrize("kind, params", ORACLE_BASES)
def test_point_rows_are_the_products_with_every_point(kind, params):
    bases, q = oracle_bases(kind, params)
    F, d = make_field(q), bases.shape[1]
    points = subspace_bases(d, 1, q)[:, 0]
    assert np.array_equal(gfq.point_rows(bases, F), gfq.matmul_batch(points, bases, F))


@pytest.mark.parametrize("kind, params", ORACLE_BASES)
def test_hyperplane_keys_pack_the_hyperplane_products(kind, params):
    bases, q = oracle_bases(kind, params)
    F, (nv, d, n) = make_field(q), bases.shape
    prods = gfq.matmul_batch(subspace_bases(d, d - 1, q), bases[:, None], F)
    want = gfq.pack_digits(prods.reshape(nv, len(prods[0]), (d - 1) * n), q)
    assert np.array_equal(gfq.hyperplane_keys(bases, F), want)


def test_pack_digits_against_python_integers():
    rng = np.random.default_rng(5)
    for q, width in [(2, 63), (3, 39), (9, 19), (7, 5), (4, 0)]:
        rows = rng.integers(0, q, size=(20, width)).astype(np.int8)
        want = [sum(int(x) * q ** (width - 1 - j) for j, x in enumerate(r)) for r in rows]
        keys = gfq.pack_digits(rows, q)
        assert keys.tolist() == want
        assert np.array_equal(gfq.unpack_digits(keys, q, width), rows)


def test_keys_wider_than_int64_are_refused():
    # q^width keys fit below 2^63 up to 63 binary or 39 ternary digits
    assert gfq.pack_digits(np.ones((1, 63), dtype=np.int8), 2).tolist() == [2 ** 63 - 1]
    assert gfq.pack_digits(np.full((1, 39), 2, dtype=np.int8), 3).tolist() == [3 ** 39 - 1]
    for q, width in [(2, 64), (3, 40), (2, 72)]:   # 72: the vertex keys of D_6(2)
        with pytest.raises(ValueError, match="do not fit an int64 key"):
            gfq.pack_digits(np.zeros((1, width), dtype=np.int8), q)
    # the hyperplanes of a 7-subspace of F_2^12 have 72 digits
    with pytest.raises(ValueError, match="do not fit an int64 key"):
        gfq.hyperplane_keys(np.eye(7, 12, dtype=np.int8)[None], make_field(2))


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
            bases = subspace_bases(n, d, q)
            assert bases.shape == (gaussian_binomial(n, d, q), d, n)
            assert np.array_equal(rref_batch(bases, F), bases)
            assert len(np.unique(bases.reshape(len(bases), -1), axis=0)) == len(bases)


def test_enumerate_brute_force_oracle():
    # every d-subspace of F_q^n arises as a span of d vectors; spans
    # canonicalize into exactly the enumerated RREF bases
    for n, d, q in [(4, 2, 2), (4, 2, 3), (3, 2, 4)]:
        F = make_field(q)
        seen = set()
        vecs = list(itertools.product(range(q), repeat=n))[1:]
        for rows in itertools.combinations(vecs, d):
            red = reference_rref(rows, F)
            if any(red[-1]):
                seen.add(label(red))
        assert seen == {label(b) for b in subspace_bases(n, d, q).tolist()}


def test_enumeration_simple_cases():
    assert subspace_bases(2, 1, 2).tolist() == [[[1, 0]], [[1, 1]], [[0, 1]]]
    assert subspace_bases(3, 0, 3).shape == (1, 0, 3)


def test_enumeration_count_cross_check(monkeypatch):
    monkeypatch.setattr(gfq, "gaussian_binomial", lambda a, b, q: 8)
    with pytest.raises(CrossCheckViolation, match="enumerated 7 subspaces"):
        subspace_bases(3, 1, 2)


# --- hyperplanes --------------------------------------------------------------

def test_subspace_hyperplanes():
    # every (d-1)-subspace of a seeded d-subspace, once each, in RREF and
    # inside it
    for n, d, q in [(4, 3, 2), (5, 3, 3), (4, 2, 4)]:
        F = make_field(q)
        bases = subspace_bases(n, d, q)
        s = bases[random.Random(n * 100 + q).randrange(len(bases))].tolist()
        hps = [h.tolist() for h, _ in gfq.subspace_hyperplanes((np.array(s, dtype=np.int8), F))]
        assert len(hps) == gaussian_binomial(d, d - 1, q)
        assert len({label(h) for h in hps}) == len(hps)
        for h in hps:
            assert reference_rref(h, F) == h and any(h[-1])
            assert reference_rref(h + s, F)[d:] == [[0] * n] * (d - 1)


# --- quadratic form ----------------------------------------------------------

def test_isotropy_examples():
    F = make_field(2)
    bases = np.array([[[1, 0, 0, 0]], [[1, 0, 0, 1]], [[1, 0, 1, 0]]], dtype=np.int8)
    assert totally_isotropic_mask(bases, F).tolist() == [True, True, False]
    assert [is_totally_isotropic(b, F) for b in bases.tolist()] == [True, True, False]


@pytest.mark.parametrize("q", [2, 3])
def test_form_scales_quadratically(q):
    F = make_field(q)
    mul = F.mul_table.tolist()
    for vec in itertools.product(range(q), repeat=4):
        qv = hyperbolic_value(vec, F)
        for lam in range(q):
            scaled = [mul[lam][x] for x in vec]
            assert hyperbolic_value(scaled, F) == mul[mul[lam][lam]][qv]


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2)])
def test_isotropic_subspace_count(d, q):
    F = make_field(q)
    count = sum(1 for b in subspace_bases(2 * d, d, q).tolist()
                if is_totally_isotropic(b, F))
    assert count == isotropic_count_product(d, q)


@pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5)])
def test_totally_isotropic_mask_matches_per_subspace(d, q):
    F = make_field(q)
    bases = subspace_bases(2 * d, d, q)
    mask = totally_isotropic_mask(bases, F)
    assert mask.tolist() == [is_totally_isotropic(b, F) for b in bases.tolist()]
    assert mask.sum() == isotropic_count_product(d, q)


def test_isotropic_count_identity():
    for d in range(1, 6):
        for q in (2, 3, 4, 5):
            assert isotropic_count_product(d, q) == isotropic_count_sum(d, q)
