"""Exact arithmetic over small finite fields and subspace linear algebra.

GF(q) for q in {2,3,4,5,7,8,9} is realized through index-based add/multiply
lookup tables, so every arithmetic fact used downstream can be checked
exhaustively.  Extension fields use a fixed irreducible modulus per order;
an element with base-p digits (c_0,...,c_{e-1}) has index sum(c_i * p^i) and
stands for the polynomial c_0 + c_1 t + ... + c_{e-1} t^{e-1}.

Subspaces of F_q^n are stored as reduced-row-echelon bases, which makes
subspace equality a plain tuple comparison and allows enumeration by pivot
pattern instead of by deduplicating spanning sets.  The builders work on
whole batches of bases as int8 arrays (subspace_bases, hyperplane_bases);
the per-subspace objects and functions are thin wrappers over the same
batched product and RREF.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AmbientMismatch,
    CrossCheckViolation,
    EnumerationTooLarge,
    UnsupportedFieldOrder,
)

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
    p: int
    e: int
    modulus: tuple[int, ...]  # empty for prime fields
    add_table: np.ndarray  # (q, q)
    mul_table: np.ndarray  # (q, q)
    neg_table: np.ndarray  # (q,)
    inv_table: np.ndarray  # (q,), index 0 unused

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0 in GF(%d)" % self.q)
        return int(self.inv_table[a])

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
    return FieldSpec(q, p, e, modulus, _table(add), _table(mul), _table(neg), _table(inv))


# --- batched linear algebra -------------------------------------------------
#
# Matrices are int8 arrays of element indices with the matrix axes last; the
# leading axes are a batch.  The per-object API below (FFMatrix, Subspace,
# rref, matmul, enumerate_subspaces, subspace_hyperplanes) wraps these.


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
    hyperplanes in enumerate_subspaces(d, d-1) order: the RREF of each
    (d-1)-subspace of F_q^d, as a coefficient matrix C, times the basis B.
    C @ B is in RREF already: B's pivot columns hold C, and row i of C @ B
    starts at the pivot of the row of B that row i of C starts at."""
    return matmul_batch(_hyperplane_coefficients(bases.shape[1], field.q),
                        bases[:, None], field)


# --- matrices and subspaces -------------------------------------------------


@dataclass(frozen=True)
class FFMatrix:
    """Dense matrix of field-element indices, row-major."""

    nrows: int
    ncols: int
    entries: tuple[int, ...]
    field: FieldSpec

    def __post_init__(self):
        if len(self.entries) != self.nrows * self.ncols:
            raise ValueError("entry count does not match dimensions")
        if any(x >= self.field.q or x < 0 for x in self.entries):
            raise ValueError("entry out of field range")

    @classmethod
    def from_rows(cls, rows, field: FieldSpec) -> "FFMatrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, tuple(x for r in rows for x in r), field)

    @classmethod
    def from_array(cls, a: np.ndarray, field: FieldSpec) -> "FFMatrix":
        return cls(a.shape[0], a.shape[1], tuple(a.ravel().tolist()), field)

    def array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int8).reshape(self.nrows, self.ncols)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]


def rref(m: FFMatrix) -> FFMatrix:
    """Reduced row echelon form; preserves the row space, deterministic."""
    if not m.nrows:
        return m
    return FFMatrix.from_array(rref_batch(m.array()[None], m.field)[0], m.field)


def rank(m: FFMatrix) -> int:
    red = rref(m)
    return sum(1 for i in range(red.nrows) if any(red.row(i)))


def stack(a: FFMatrix, b: FFMatrix) -> FFMatrix:
    if a.ncols != b.ncols or a.field is not b.field:
        raise AmbientMismatch("cannot stack matrices over different spaces")
    return FFMatrix(a.nrows + b.nrows, a.ncols, a.entries + b.entries, a.field)


def matmul(a: FFMatrix, b: FFMatrix) -> FFMatrix:
    if a.ncols != b.nrows or a.field is not b.field:
        raise AmbientMismatch("shape or field mismatch in matmul")
    return FFMatrix.from_array(matmul_batch(a.array(), b.array(), a.field), a.field)


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_q^n, identified by its RREF basis (canonical form)."""

    ambient_dim: int
    dim: int
    basis: FFMatrix

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @classmethod
    def from_matrix(cls, m: FFMatrix) -> "Subspace":
        red = rref(m)
        rows = [r for r in red.rows() if any(r)]
        return cls(m.ncols, len(rows), FFMatrix.from_rows(rows, m.field)
                   if rows else FFMatrix(0, m.ncols, (), m.field))

    def label(self) -> str:
        """Deterministic string form: basis rows as digit strings, '/'-joined."""
        if self.dim == 0:
            return "0"
        return "/".join("".join(str(x) for x in self.basis.row(i))
                        for i in range(self.dim))

    def rows(self):
        return self.basis.rows()

    def extend_ambient(self, n: int) -> "Subspace":
        """Zero-pad every basis vector on the right up to ambient dimension n."""
        if n < self.ambient_dim:
            raise AmbientMismatch("cannot shrink ambient space")
        pad = n - self.ambient_dim
        rows = [tuple(r) + (0,) * pad for r in self.rows()]
        m = FFMatrix.from_rows(rows, self.field) if rows else FFMatrix(0, n, (), self.field)
        return Subspace(n, self.dim, m)


def _subspaces(bases: np.ndarray, field: FieldSpec) -> list[Subspace]:
    return [Subspace(bases.shape[2], bases.shape[1], FFMatrix.from_array(b, field))
            for b in bases]


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


def enumerate_subspaces(n: int, d: int, field: FieldSpec,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> list[Subspace]:
    """All d-dimensional subspaces of F_q^n, one RREF basis each, in
    subspace_bases order."""
    return _subspaces(subspace_bases(n, d, field.q, cap), field)


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(a meet b) = dim a + dim b - rank of the stacked bases."""
    if a.ambient_dim != b.ambient_dim or a.field is not b.field:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return 0
    return a.dim + b.dim - rank(stack(a.basis, b.basis))


def subspace_hyperplanes(s: Subspace) -> list[Subspace]:
    """All (dim-1)-dimensional subspaces of s, canonicalized in the ambient."""
    if s.dim == 0:
        return []
    return _subspaces(hyperplane_bases(s.basis.array()[None], s.field)[0], s.field)


# --- quadratic form ---------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """The hyperbolic form Q(v_1..v_d, u_1..u_d) = v_1 u_1 + ... + v_d u_d."""

    field: FieldSpec
    half_dim: int

    @property
    def ambient_dim(self) -> int:
        return 2 * self.half_dim

    def evaluate(self, vec) -> int:
        F = self.field
        d = self.half_dim
        acc = 0
        for i in range(d):
            acc = F.add(acc, F.mul(vec[i], vec[d + i]))
        return acc

    def bilinear(self, x, y) -> int:
        """Polarization B(x,y) = Q(x+y) - Q(x) - Q(y), bilinear over any q."""
        F = self.field
        xy = [F.add(a, b) for a, b in zip(x, y)]
        return F.sub(F.sub(self.evaluate(xy), self.evaluate(x)), self.evaluate(y))


def hyperbolic_form(d: int, field: FieldSpec) -> QuadraticForm:
    return QuadraticForm(field, d)


def is_totally_isotropic(s: Subspace, form: QuadraticForm) -> bool:
    """True iff the form vanishes on all of s.

    Expanding Q on a linear combination gives
        Q(sum l_i b_i) = sum l_i^2 Q(b_i) + sum_{i<j} l_i l_j B(b_i, b_j),
    so vanishing on the basis vectors plus vanishing of the polarization on
    basis pairs is equivalent to Q(s) = {0}.
    """
    if s.ambient_dim != form.ambient_dim:
        raise AmbientMismatch("subspace and form ambient dimensions differ")
    rows = s.rows()
    for r in rows:
        if form.evaluate(r):
            return False
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if form.bilinear(rows[i], rows[j]):
                return False
    return True


def totally_isotropic_mask(bases: np.ndarray, form: QuadraticForm) -> np.ndarray:
    """is_totally_isotropic for every basis in an (N, d, 2d) array at once:
    Q on each basis row and the polarization on each pair of rows."""
    F, h = form.field, form.half_dim
    add, neg = F.add_table, F.neg_table

    def q_form(v):
        acc = np.zeros(v.shape[:-1], dtype=np.int8)
        for i in range(h):
            acc = add[acc, F.mul_table[v[..., i], v[..., h + i]]]
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
