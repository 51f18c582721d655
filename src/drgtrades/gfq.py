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
RREF (rref_batch), enumeration (subspace_bases), every hyperplane of every
basis (hyperplane_bases) and total isotropy (totally_isotropic_mask).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CrossCheckViolation, EnumerationTooLarge, UnsupportedFieldOrder

DEFAULT_ENUMERATION_CAP = 100_000

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


def subspace_bases(n: int, d: int, q: int,
                   cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """The RREF bases of all d-dimensional subspaces of F_q^n, as one
    (N, d, n) int8 array.

    Generation walks pivot patterns (d-subsets of columns) and fills the free
    entries with the base-q digits of 0..q^f-1, last free entry fastest, so
    each subspace appears exactly once and no dedup pass is needed."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    total = gaussian_binomial(n, d, q)
    if total > cap:
        raise EnumerationTooLarge(
            f"{total} subspaces for (n={n}, d={d}, q={q}) exceeds cap {cap}")
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


@lru_cache(maxsize=None)
def _hyperplane_coefficients(d: int, q: int) -> np.ndarray:
    out = subspace_bases(d, d - 1, q)
    out.setflags(write=False)
    return out


def hyperplane_bases(bases: np.ndarray, field: FieldSpec) -> np.ndarray:
    """The RREF bases of every (d-1)-subspace of every subspace in a
    (N, d, n) array of bases, as an (N, H, d-1, n) array with H = [d, 1]_q,
    hyperplanes in subspace_bases(d, d-1, q) order: the RREF of each
    (d-1)-subspace of F_q^d, as a coefficient matrix C, times the basis B.
    C @ B is in RREF already: B's pivot columns hold C, and row i of C @ B
    starts at the pivot of the row of B that row i of C starts at."""
    return matmul_batch(_hyperplane_coefficients(bases.shape[1], field.q),
                        bases[:, None], field)


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
    each basis row and B on each pair of rows is equivalent to Q(s) = {0}."""
    h = bases.shape[2] // 2
    add, mul, neg = field.add_table, field.mul_table, field.neg_table

    def q_form(v):
        acc = np.zeros(v.shape[:-1], dtype=np.int8)
        for i in range(h):
            acc = add[acc, mul[v[..., i], v[..., h + i]]]
        return acc

    qrows = q_form(bases)
    ok = (qrows == 0).all(axis=1)
    for i, j in itertools.combinations(range(bases.shape[1]), 2):
        polar = add[add[q_form(add[bases[:, i], bases[:, j]]), neg[qrows[:, i]]],
                    neg[qrows[:, j]]]
        ok &= polar == 0
    return ok


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


@dataclass(frozen=True, eq=False)
class Subspace:
    """One RREF basis, a (d, n) int8 array, and its field.

    Serves only the benchmark's traced builder probes, which time
    enumerate_subspaces and subspace_hyperplanes one subspace at a time; it
    goes when those probes move to subspace_bases and hyperplane_bases."""

    basis: np.ndarray
    field: FieldSpec


def enumerate_subspaces(n: int, d: int, field: FieldSpec,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> list[Subspace]:
    """subspace_bases(n, d, q) as one Subspace per basis."""
    return [Subspace(b, field) for b in subspace_bases(n, d, field.q, cap)]


def subspace_hyperplanes(s: Subspace) -> list[Subspace]:
    """hyperplane_bases of one Subspace, one Subspace per hyperplane."""
    return [Subspace(h, s.field) for h in hyperplane_bases(s.basis[None], s.field)[0]]
