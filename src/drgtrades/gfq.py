"""Exact arithmetic over small finite fields and subspace linear algebra.

GF(q) for q in {2,3,4,5,7,8,9} is realized through index-based add/multiply
lookup tables, so every arithmetic fact used downstream can be checked
exhaustively.  Extension fields use a fixed irreducible modulus per order;
an element with base-p digits (c_0,...,c_{e-1}) has index sum(c_i * p^i) and
stands for the polynomial c_0 + c_1 t + ... + c_{e-1} t^{e-1}.

Subspaces of F_q^n are stored as reduced-row-echelon bases, which makes
subspace equality a plain tuple comparison and allows enumeration by pivot
pattern instead of by deduplicating spanning sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class FieldSpec:
    """GF(q) as lookup tables over element indices 0..q-1."""

    q: int
    p: int
    e: int
    modulus: tuple[int, ...]  # empty for prime fields
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    neg_table: tuple[int, ...]
    inv_table: tuple[int, ...]  # index 0 unused

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0 in GF(%d)" % self.q)
        return self.inv_table[a]

    def __repr__(self) -> str:
        return f"GF({self.q})"


def _digits(i: int, p: int, e: int) -> tuple[int, ...]:
    out = []
    for _ in range(e):
        out.append(i % p)
        i //= p
    return tuple(out)


def _index(digits, p: int) -> int:
    i = 0
    for d in reversed(digits):
        i = i * p + d
    return i


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


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldSpec:
    """Build GF(q) for a supported prime power q."""
    if q in _PRIME_ORDERS:
        p, e, modulus = q, 1, ()
        add = tuple(tuple((a + b) % p for b in range(q)) for a in range(q))
        mul = tuple(tuple((a * b) % p for b in range(q)) for a in range(q))
    elif q in _MODULI:
        modulus = _MODULI[q]
        p = 2 if q in (4, 8) else 3
        e = len(modulus) - 1
        vecs = [_digits(i, p, e) for i in range(q)]
        add = tuple(
            tuple(_index([(x + y) % p for x, y in zip(vecs[a], vecs[b])], p)
                  for b in range(q))
            for a in range(q)
        )
        mul = tuple(
            tuple(_index(_poly_mul_mod(vecs[a], vecs[b], modulus, p, e), p)
                  for b in range(q))
            for a in range(q)
        )
    else:
        raise UnsupportedFieldOrder(f"q={q} not in {SUPPORTED_ORDERS}")

    neg = tuple(add[a].index(0) for a in range(q))
    inv = tuple(0 if a == 0 else mul[a].index(1) for a in range(q))
    return FieldSpec(q, p, e, modulus, add, mul, neg, inv)


# --- matrices ---------------------------------------------------------------


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

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]


def rref(m: FFMatrix) -> FFMatrix:
    """Reduced row echelon form; preserves the row space, deterministic."""
    F = m.field
    rows = [list(r) for r in m.rows()]
    r = 0
    for col in range(m.ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        if lead != 1:
            s = F.inv(lead)
            rows[r] = [F.mul(s, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return FFMatrix.from_rows(rows, F) if rows else m


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
    F = a.field
    out = []
    for i in range(a.nrows):
        ra = a.row(i)
        row = []
        for j in range(b.ncols):
            acc = 0
            for k in range(a.ncols):
                if ra[k]:
                    acc = F.add(acc, F.mul(ra[k], b.entries[k * b.ncols + j]))
            row.append(acc)
        out.append(row)
    return FFMatrix.from_rows(out, F)


# --- subspaces --------------------------------------------------------------


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
    """All d-dimensional subspaces of F_q^n, one RREF basis each.

    Generation walks pivot patterns (d-subsets of columns) and fills the free
    entries, so each subspace appears exactly once and no dedup pass is needed.
    """
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    total = gaussian_binomial(n, d, field.q)
    if total > cap:
        raise EnumerationTooLarge(
            f"{total} subspaces for (n={n}, d={d}, q={field.q}) exceeds cap {cap}")
    q = field.q
    out = []
    for pivots in itertools.combinations(range(n), d):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(d) for j in range(n)
                if j > pivots[i] and j not in pivot_set]
        base = [[0] * n for _ in range(d)]
        for i, pc in enumerate(pivots):
            base[i][pc] = 1
        for fill in itertools.product(range(q), repeat=len(free)):
            rows = [r[:] for r in base]
            for (i, j), v in zip(free, fill):
                rows[i][j] = v
            m = FFMatrix.from_rows(rows, field) if d else FFMatrix(0, n, (), field)
            out.append(Subspace(n, d, m))
    if len(out) != total:
        raise CrossCheckViolation(
            f"enumerated {len(out)} subspaces for (n={n}, d={d}, q={q}), expected {total}")
    return out


def intersection_dim(a: Subspace, b: Subspace) -> int:
    """dim(a meet b) = dim a + dim b - rank of the stacked bases."""
    if a.ambient_dim != b.ambient_dim or a.field is not b.field:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return 0
    return a.dim + b.dim - rank(stack(a.basis, b.basis))


@lru_cache(maxsize=None)
def _hyperplane_coefficients(d: int, q: int) -> tuple[FFMatrix, ...]:
    # (d-1)-subspaces of F_q^d, used as coefficient matrices w.r.t. a basis.
    field = make_field(q)
    return tuple(s.basis for s in enumerate_subspaces(d, d - 1, field))


def subspace_hyperplanes(s: Subspace) -> list[Subspace]:
    """All (dim-1)-dimensional subspaces of s, canonicalized in the ambient."""
    if s.dim == 0:
        return []
    out = []
    for coeff in _hyperplane_coefficients(s.dim, s.field.q):
        out.append(Subspace.from_matrix(matmul(coeff, s.basis)))
    return out


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
