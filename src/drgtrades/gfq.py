"""Exact arithmetic over small finite fields and subspace linear algebra.

GF(q) for q in {2,3,4,5,7,8,9} is realized through index-based add/multiply
lookup tables, so every arithmetic fact used downstream can be checked
exhaustively.  Extension fields use a fixed irreducible modulus per order;
an element with base-p digits (c_0,...,c_{e-1}) has index sum(c_i * p^i) and
stands for the polynomial c_0 + c_1 t + ... + c_{e-1} t^{e-1}.

Subspaces of F_q^n are stored as reduced-row-echelon bases, which makes
subspace equality an array comparison and allows enumeration by pivot
pattern instead of by deduplicating spanning sets.  All linear algebra works
on whole batches of bases as int8 arrays: one product (matmul_batch), one
RREF (rref_batch), enumeration (subspace_bases), the points of every basis
(point_rows) and its hyperplanes as int64 keys (hyperplane_keys), and total
isotropy (totally_isotropic_mask).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CrossCheckViolation, UnsupportedFieldOrder

# Irreducible modulus per extension order, constant term first, leading 1 last.
_MODULI = {
    4: (1, 1, 1),      # t^2 + t + 1 over GF(2)
    8: (1, 1, 0, 1),   # t^3 + t + 1 over GF(2)
    9: (2, 2, 1),      # t^2 + 2t + 2 over GF(3)
}
_PRIME_ORDERS = {2, 3, 5, 7}
SUPPORTED_ORDERS = sorted(_PRIME_ORDERS | set(_MODULI))


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """GF(q) as lookup tables over element indices 0..q-1.

    The tables are read-only int8 arrays, so a whole batch of matrices goes
    through one fancy index per operation; make_field caches one FieldSpec
    per q, and equality is identity."""

    q: int
    add_table: np.ndarray  # (q, q)
    mul_table: np.ndarray  # (q, q)
    neg_table: np.ndarray  # (q,)
    inv_table: np.ndarray  # (q,), index 0 unused

    def __repr__(self) -> str:
        return f"GF({self.q})"


def _poly_mul_mod(a, b, modulus, p, e):
    """Product of two degree-<e polynomials over GF(p), reduced mod modulus."""
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(e):
                prod[k - e + i] = (prod[k - e + i] - c * modulus[i]) % p
    return tuple(prod[:e])


def _table(values) -> np.ndarray:
    out = np.asarray(values).astype(np.int8)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build GF(q) for a supported prime power q: elements are the base-p
    digit vectors of their indices, added digitwise and multiplied as
    polynomials modulo the field's modulus (none for prime q)."""
    if q not in SUPPORTED_ORDERS:
        raise UnsupportedFieldOrder(f"q={q} not in {SUPPORTED_ORDERS}")
    modulus = _MODULI.get(q, ())
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e = max(len(modulus) - 1, 1)
    weights = p ** np.arange(e)
    digits = np.arange(q)[:, None] // weights % p
    add = (digits[:, None] + digits) % p @ weights
    mul = np.array([[_poly_mul_mod(a, b, modulus, p, e) for b in digits.tolist()]
                    for a in digits.tolist()]) @ weights
    neg = (add == 0).argmax(axis=1)
    inv = (mul == 1).argmax(axis=1)
    return FieldSpec(q, _table(add), _table(mul), _table(neg), _table(inv))


# --- batched linear algebra -------------------------------------------------
#
# Matrices are int8 arrays of element indices with the matrix axes last; the
# leading axes are a batch.


def _op(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """table[a, b] elementwise over int8 index arrays, through one flat index
    (a * q + b < 81 fits in int8)."""
    return table.ravel()[a * len(table) + b]


def matmul_batch(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Products a @ b over GF(q) of (..., r, k) and (..., k, c) arrays,
    broadcast over the leading axes."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    out = np.zeros(shape, dtype=np.int8)
    for t in range(a.shape[-1]):
        out = _op(field.add_table, out,
                  _op(field.mul_table, a[..., :, t, None], b[..., None, t, :]))
    return out


def rref_batch(m: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Reduced row echelon form of every (r, c) matrix in a (B, r, c) array.

    Column by column, each matrix still short of full rank takes its first
    nonzero row at or below its rank as pivot, swaps it up, scales it to a
    leading 1 and subtracts multiples of it from every other row."""
    m = m.copy()
    nb, nr, nc = m.shape
    rank = np.zeros(nb, dtype=np.intp)
    rows = np.arange(nr)
    mul, sub = field.mul_table, field.add_table[:, field.neg_table]
    for col in range(nc):
        cand = (m[:, :, col] != 0) & (rows >= rank[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        b = slice(None) if has.all() else np.flatnonzero(has)
        piv, top = cand[b].argmax(axis=1), rank[b]
        part = m[b]
        k = np.arange(len(piv))
        prow = part[k, piv]
        part[k, piv] = part[k, top]
        prow = _op(mul, field.inv_table[prow[:, col]][:, None], prow)
        part[k, top] = prow
        f = part[:, :, col].copy()
        f[k, top] = 0
        m[b] = _op(sub, part, _op(mul, f[:, :, None], prow[:, None, :]))
        rank[b] += 1
        if (rank == nr).all():
            break
    return m


def subspace_bases(n: int, d: int, q: int) -> np.ndarray:
    """The RREF bases of all d-dimensional subspaces of F_q^n, as one
    (N, d, n) int8 array.

    Generation walks pivot patterns (d-subsets of columns) and fills the free
    entries with the base-q digits of 0..q^f-1, last free entry fastest, so
    each subspace appears exactly once and no dedup pass is needed."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    total = gaussian_binomial(n, d, q)
    blocks = []
    for pivots in itertools.combinations(range(n), d):
        free = [(i, j) for i in range(d) for j in range(n)
                if j > pivots[i] and j not in pivots]
        block = np.zeros((q ** len(free), d, n), dtype=np.int8)
        block[:, np.arange(d), np.array(pivots, dtype=np.intp)] = 1
        fill = np.arange(len(block))
        for i, j in reversed(free):
            block[:, i, j] = fill % q
            fill //= q
        blocks.append(block)
    out = np.concatenate(blocks)
    if len(out) != total:
        raise CrossCheckViolation(
            f"enumerated {len(out)} subspaces for (n={n}, d={d}, q={q}), expected {total}")
    return out


def point_rows(bases: np.ndarray, field: FieldSpec) -> np.ndarray:
    """lambda @ B for every basis B of an (N, d, n) array and every lambda in
    F_q^d with a leading 1, in subspace_bases(d, 1, q) order: B_t plus each
    combination of the rows after t, those built from the last row up."""
    nb, d, n = bases.shape
    add, mul = field.add_table, field.mul_table
    span, led = np.zeros((nb, 1, n), dtype=np.int8), []
    for t in range(d - 1, -1, -1):
        row = bases[:, t, None]
        led.append(_op(add, row, span) if t < d - 1 else row.copy())
        if t:       # a * B_t plus the combinations after t, for each a
            span = np.concatenate([span, led[-1]] + [_op(add, _op(mul, a, row), span)
                                                     for a in range(2, field.q)], axis=1)
    return np.concatenate(led[::-1], axis=1)


def pack_digits(rows: np.ndarray, q: int) -> np.ndarray:
    """Each row of base-q digits on the last axis as one int64, first digit
    most significant, so key order is row order; ValueError if they cannot fit."""
    if q ** rows.shape[-1] > 2 ** 63:
        raise ValueError(f"{rows.shape[-1]} base-{q} digits do not fit an int64 key")
    out = np.zeros(rows.shape[:-1], dtype=np.int64)
    for j in range(rows.shape[-1]):
        out *= q
        out += rows[..., j]
    return out


def unpack_digits(keys: np.ndarray, q: int, width: int) -> np.ndarray:
    """The width base-q digits of each key, the inverse of pack_digits."""
    digits = [(keys // q ** j % q).astype(np.int8) for j in range(width - 1, -1, -1)]
    return np.stack(digits, -1) if digits else np.zeros(keys.shape + (0,), dtype=np.int8)


@lru_cache(maxsize=None)
def _hyperplane_points(d: int, q: int) -> np.ndarray:
    """For each (d-1)-subspace of F_q^d, in subspace_bases(d, d-1, q) order,
    the positions of its RREF rows among the points of subspace_bases(d, 1, q)."""
    position = np.zeros(q ** d, dtype=np.intp)
    position[pack_digits(subspace_bases(d, 1, q)[:, 0], q)] = np.arange(gaussian_binomial(d, 1, q))
    out = position[pack_digits(subspace_bases(d, d - 1, q), q)]
    out.setflags(write=False)
    return out


def hyperplane_keys(bases: np.ndarray, field: FieldSpec) -> np.ndarray:
    """The hyperplanes of every basis B of an (N, d, n) array as (N, H) int64
    keys, H = [d, 1]_q: for each RREF C of subspace_bases(d, d-1, q), the
    basis C @ B, gathered from point_rows (each row of C is a point) and
    packed base q^n.  C @ B is in RREF already: B's pivot columns hold C, and
    row i of C @ B starts at the pivot of the row of B that row i of C does."""
    q, at = field.q, _hyperplane_points(bases.shape[1], field.q)
    return pack_digits(pack_digits(point_rows(bases, field), q)[:, at], q ** bases.shape[2])


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional subspaces of F_q^a, as an exact integer.

    Returns 0 when b < 0 or b > a (empty-product convention).
    """
    if b < 0 or b > a:
        return 0
    num = 1
    den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise CrossCheckViolation(f"[{a},{b}]_{q}: {den} does not divide {num}")
    return num // den


# --- quadratic form ---------------------------------------------------------


def totally_isotropic_mask(bases: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Which bases of an (N, d, 2h) array span a subspace on which the
    hyperbolic form Q(v_1..v_h, u_1..u_h) = v_1 u_1 + ... + v_h u_h vanishes.

    Expanding Q on a linear combination gives
        Q(sum l_i b_i) = sum l_i^2 Q(b_i) + sum_{i<j} l_i l_j B(b_i, b_j)
    with the polarization B(x, y) = Q(x+y) - Q(x) - Q(y), so Q vanishing on
    each basis row and B on each pair of rows is equivalent to Q(s) = {0}.
    With M = V U^T for the halves [V | U] of a basis, Q(b_i) = M_ii and
    B(b_i, b_j) = M_ij + M_ji in any characteristic."""
    h = bases.shape[2] // 2
    m = matmul_batch(bases[:, :, :h], bases[:, :, h:].transpose(0, 2, 1), field)
    polar = _op(field.add_table, m, m.transpose(0, 2, 1))
    return (m.diagonal(axis1=1, axis2=2) == 0).all(axis=1) & (polar == 0).all(axis=(1, 2))


def isotropic_count_product(d: int, q: int) -> int:
    """prod_{i=1}^{d} (q^{d-i} + 1): maximal isotropic subspaces of the
    hyperbolic form on F_q^{2d}."""
    out = 1
    for i in range(1, d + 1):
        out *= q ** (d - i) + 1
    return out


def isotropic_count_sum(d: int, q: int) -> int:
    """sum_{i=0}^{d} q^{i(i-1)/2} * [d choose i]_q, the shell-sum form of the
    same count."""
    return sum(q ** (i * (i - 1) // 2) * gaussian_binomial(d, i, q)
               for i in range(d + 1))


# --- probe seam ---------------------------------------------------------------


def enumerate_subspaces(n: int, d: int, field: FieldSpec) -> list[tuple]:
    """subspace_bases(n, d, q) as (basis, field) pairs, which only the
    benchmark's builder probes time, with subspace_hyperplanes, one at a time."""
    return [(b, field) for b in subspace_bases(n, d, field.q)]


def subspace_hyperplanes(s: tuple) -> list[tuple]:
    """The hyperplanes of one (basis, field) pair, as such pairs: the RREF
    bases C @ B that hyperplane_keys packs."""
    basis, field = s
    rows = point_rows(basis[None], field)[0, _hyperplane_points(len(basis), field.q)]
    return [(h, field) for h in rows]
