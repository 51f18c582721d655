"""Exact spectral machinery for intersection matrices and vertex functions.

Everything here is big-integer / big-rational arithmetic: eigenvalues come
from bisection on the Sturm sequence of leading principal minors (the
three-term recurrence of a tridiagonal matrix), each confirmed exactly at
its integer point, eigenvectors from the same recurrence, and the
weight-distribution bound from the exact coefficient recursion.  Vertex
functions hold Python-int numerators over one common denominator, so their
neighbor and shell sums are numpy sums on object arrays.  No floating point
is involved anywhere, because the results feed theorem checks where a
tolerance would be meaningless."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import (
    NonIntegerSpectrum,
    NotAnEigenvalue,
    NotCompletelyRegular,
    ZeroFunction,
)
from .graphs import Graph, IntersectionArray, Verdict, _completely_regular, segment_sums


# --- Sturm sequence and integer spectrum ---------------------------------------

def _minors(arr: IntersectionArray, t: int, s: int = 1) -> list[int]:
    """The leading principal minors s^(i+1) p_i(t/s), i = 0..rho, of
    t I - s L for the intersection matrix L, where p_i is the monic
    characteristic polynomial of L's leading (i+1)-block:
    p_i = (x - a_i) p_{i-1} - b_{i-1} c_i p_{i-2}, p_{-1} = 1."""
    prev, cur = 1, t - s * arr.a(0)
    out = [cur]
    for i in range(1, arr.rho + 1):
        prev, cur = cur, ((t - s * arr.a(i)) * cur
                          - s * s * arr.b[i - 1] * arr.c[i - 1] * prev)
        out.append(cur)
    return out


def _count_above(arr: IntersectionArray, t: int) -> int:
    """Eigenvalues of L above t/2 for odd t: the sign changes of the Sturm
    sequence 1, p_0, ..., p_rho at t/2.  No p_i vanishes there, since a
    monic integer polynomial has only integer rational roots."""
    signs = [True] + [m > 0 for m in _minors(arr, t, 2)]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _eigenvalue(arr: IntersectionArray, j: int) -> int:
    """The integer m with eigenvalue j of L (descending, from 0) in
    (m - 1/2, m + 1/2]: bisection on the Sturm count over [-k, k]."""
    lo, hi = -arr.k, arr.k
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _count_above(arr, 2 * mid + 1) <= j else (mid + 1, hi)
    return lo


def intersection_matrix_eigenvalues(arr: IntersectionArray) -> list[int]:
    """All rho+1 eigenvalues of the intersection matrix, exact, descending.

    A tridiagonal matrix with positive off-diagonal products has rho+1
    simple real eigenvalues, all in [-k, k] since L is nonnegative with row
    sums k.  For each one, bisection on the Sturm count finds the integer m
    with the eigenvalue in (m - 1/2, m + 1/2]; the eigenvalue is m exactly
    when p_rho(m) = 0.  Every family in scope has an integral spectrum;
    raises NonIntegerSpectrum otherwise.
    """
    roots = []
    for j in range(arr.rho + 1):
        lo = _eigenvalue(arr, j)
        if _minors(arr, lo)[-1] != 0 or lo in roots[-1:]:
            raise NonIntegerSpectrum(
                f"eigenvalue {j} (descending) of {arr} lies within 1/2 of {lo} "
                f"but is not {lo}; the spectrum is not integral")
        roots.append(lo)
    return roots


def theta_min(arr: IntersectionArray) -> int:
    """The least eigenvalue by one bisection: its integer m, when p_rho(m) = 0
    and the other rho eigenvalues lie above m + 1/2."""
    m = _eigenvalue(arr, arr.rho)
    if _minors(arr, m)[-1] != 0 or _count_above(arr, 2 * m + 1) != arr.rho:
        raise NonIntegerSpectrum(f"the least eigenvalue of {arr} lies within 1/2 of {m} "
                                 f"but is not {m} alone; the spectrum is not integral")
    return m


def is_matrix_eigenvalue(arr: IntersectionArray, theta) -> bool:
    """Exact membership test: characteristic polynomial vanishes at theta."""
    th = Fraction(theta)
    return _minors(arr, th.numerator, th.denominator)[-1] == 0


def standard_eigenvector(arr: IntersectionArray, theta) -> list[Fraction]:
    """The unique eigenvector (nu_0=1, nu_1, ..., nu_rho) for the eigenvalue
    theta, produced by the tridiagonal recurrence.  The last row of the
    matrix must close with zero residual; otherwise theta is not an
    eigenvalue and NotAnEigenvalue is raised."""
    th = Fraction(theta)
    nu = [Fraction(1)]
    for i in range(arr.rho):
        nu.append(((th - arr.a(i)) * nu[i] - arr.c_at(i) * (nu[i - 1] if i else 0)) / arr.b[i])
    residual = arr.c_at(arr.rho) * (nu[-2] if arr.rho else 0) + (arr.a(arr.rho) - th) * nu[-1]
    if residual != 0:
        raise NotAnEigenvalue(f"recurrence residual {residual} for theta={theta}")
    return nu


# --- weight distribution --------------------------------------------------------

def wd_coefficients(arr: IntersectionArray, theta) -> tuple[Fraction, ...]:
    """The coefficients W^0..W^rho for an eigenvalue theta: W^0 = 1,
    W^1 = theta, and
    W^i = ((theta - a_{i-1}) W^{i-1} - b_{i-2} W^{i-2}) / c_i  for i >= 2."""
    th = Fraction(theta)
    w = [Fraction(1), th][:arr.rho + 1]
    for i in range(2, arr.rho + 1):
        w.append(((th - arr.a(i - 1)) * w[i - 1] - arr.b_at(i - 2) * w[i - 2]) / arr.c_at(i))
    return tuple(w)


def wd_bound(arr: IntersectionArray, theta) -> Fraction:
    """Lower bound sum_i |W^i| on the support size of an eigenfunction."""
    return sum(abs(w) for w in wd_coefficients(arr, theta))


# --- vertex functions -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VertexFunction:
    """A rational-valued function on the vertices of a host graph: num holds
    its values as Python-int numerators over the common denominator den."""

    host: Graph
    num: np.ndarray
    den: int = 1

    def __post_init__(self):
        if len(self.num) != self.host.num_vertices:
            raise ValueError("value count differs from vertex count")
        object.__setattr__(self, "num", np.asarray(self.num, dtype=object))


def verify_eigenfunction(g: Graph, f: VertexFunction, theta) -> Verdict:
    """Exact check of sum_{y ~ x} f(y) = theta * f(x) at every vertex, on
    the numerators of f."""
    if not f.num.any():
        raise ZeroFunction("eigenfunction candidates must not vanish identically")
    th = Fraction(theta)
    nbsum = segment_sums(f.num[g._flat], g._off)
    bad = np.flatnonzero(nbsum * th.denominator != f.num * th.numerator)
    if not bad.size:
        return Verdict(True)
    x = int(bad[0])
    return Verdict(False, witness=(g.labels[x], Fraction(nbsum[x], f.den),
                                   th * Fraction(f.num[x], f.den)),
                   detail="neighbor sum mismatch")


def delta_function(g: Graph, C, thetas) -> tuple[list[VertexFunction], np.ndarray]:
    """For each theta of thetas, the function equal to nu_i on the distance-i
    shell around the completely regular set C, nu the standard eigenvector of
    C's matrix at theta (an eigenfunction of g at theta), and the distances to
    C: one complete-regularity check serves every theta."""
    res, dist = _completely_regular(g, C)
    if not res.ok:
        raise NotCompletelyRegular(str(res.witness))
    out = []
    for theta in thetas:
        nu = standard_eigenvector(res.value, theta)  # may raise NotAnEigenvalue
        den = lcm(*(v.denominator for v in nu))
        shells = np.array([v.numerator * (den // v.denominator) for v in nu], dtype=object)
        out.append(VertexFunction(g, shells[dist], den))
    return out, dist


def weight_distribution_of(f: VertexFunction, dist: np.ndarray) -> list[Fraction]:
    """Shell sums W^i = sum of f over the vertices at distance i, for i up
    to dist's maximum: the shells of x when dist is
    g.multi_source_distances([x])."""
    bounds = np.concatenate(([0], np.cumsum(np.bincount(dist))))
    sums = segment_sums(f.num[np.argsort(dist, kind="stable")], bounds)
    return [Fraction(w, f.den) for w in sums]
