"""Exact spectral machinery for intersection matrices and vertex functions.

Everything here is big-integer / big-rational arithmetic: eigenvalues come
from bisection on the Sturm sequence of leading principal minors (the
three-term recurrence of a tridiagonal matrix), each confirmed exactly at
its integer point, eigenvectors from the same recurrence, and the
weight-distribution bound from the exact coefficient recursion.  Vertex
functions hold Python-int numerators over one common denominator, so their
neighbor sums are numpy sums on object arrays.  No floating point is
involved anywhere, because the results feed theorem checks where a
tolerance would be meaningless."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .errors import NonIntegerSpectrum, NotAnEigenvalue, ZeroFunction
from .graphs import Graph, IntersectionArray, Verdict, _on_host


# --- Sturm sequence and integer spectrum ---------------------------------------

def _minors(arr: IntersectionArray, t: int, s: int = 1):
    """Yields the leading principal minors s^(i+1) p_i(t/s), i = 0..rho, of
    t I - s L for the intersection matrix L, where p_i is the monic
    characteristic polynomial of L's leading (i+1)-block:
    p_i = (x - a_i) p_{i-1} - b_{i-1} c_i p_{i-2}, p_{-1} = 1.  Two minors
    are live at a time, so a reader that streams them holds O(rho log k)
    bits, not O(rho^2 log k)."""
    prev, cur = 1, t - s * arr.a(0)
    yield cur
    for i in range(1, arr.rho + 1):
        prev, cur = cur, ((t - s * arr.a(i)) * cur
                          - s * s * arr.b[i - 1] * arr.c[i - 1] * prev)
        yield cur


def _last_minor(arr: IntersectionArray, t: int, s: int = 1) -> int:
    """s^(rho+1) p_rho(t/s), the last of the streamed _minors."""
    for cur in _minors(arr, t, s):
        pass
    return cur


def _count_above(arr: IntersectionArray, t: int) -> int:
    """Eigenvalues of L above t/2 for odd t: the sign changes of the Sturm
    sequence 1, p_0, ..., p_rho at t/2, read as the minors stream.  No p_i
    vanishes there, since a monic integer polynomial has only integer
    rational roots."""
    changes, positive = 0, True
    for m in _minors(arr, t, 2):
        changes += (m > 0) != positive
        positive = m > 0
    return changes


def _eigenvalue(arr: IntersectionArray, j: int, count=None) -> int:
    """Eigenvalue j of L (descending, from 0), confirmed an integer: bisection
    on the Sturm count t -> _count_above(arr, t) over [-k, k] finds the
    least m with at most j eigenvalues above m + 1/2, so eigenvalue j lies in
    (m - 1/2, m + 1/2]; it is m exactly when p_rho(m) = 0 and exactly j
    eigenvalues lie above m + 1/2, else NonIntegerSpectrum is raised.  A
    caller that bisects for several j passes the count memoized, so the
    bisections share the counts on their common path."""
    count = count or partial(_count_above, arr)
    lo, hi = -arr.k, arr.k
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if count(2 * mid + 1) <= j else (mid + 1, hi)
    if _last_minor(arr, lo) != 0 or count(2 * lo + 1) != j:
        which = "the least eigenvalue" if j == arr.rho else f"eigenvalue {j} (descending)"
        raise NonIntegerSpectrum(f"{which} of {arr} lies within 1/2 of {lo} but is not "
                                 f"{lo} alone; the spectrum is not integral")
    return lo


def intersection_matrix_eigenvalues(arr: IntersectionArray) -> list[int]:
    """All rho+1 eigenvalues of the intersection matrix, exact, descending.

    A tridiagonal matrix with positive off-diagonal products has rho+1
    simple real eigenvalues, all in [-k, k] since L is nonnegative with row
    sums k.  Each comes from one confirmed bisection (_eigenvalue), the
    bisections sharing their Sturm counts.  Every family in scope has an
    integral spectrum; raises NonIntegerSpectrum otherwise.
    """
    count = lru_cache(maxsize=None)(partial(_count_above, arr))
    return [_eigenvalue(arr, j, count) for j in range(arr.rho + 1)]


def theta_min(arr: IntersectionArray) -> int:
    """The least eigenvalue, by one confirmed bisection."""
    return _eigenvalue(arr, arr.rho)


def is_matrix_eigenvalue(arr: IntersectionArray, theta) -> bool:
    """Exact membership test: characteristic polynomial vanishes at theta."""
    th = Fraction(theta)
    return _last_minor(arr, th.numerator, th.denominator) == 0


@lru_cache(maxsize=1024)
def standard_eigenvector(arr: IntersectionArray, theta) -> tuple[Fraction, ...]:
    """The unique eigenvector (nu_0=1, nu_1, ..., nu_rho) for the eigenvalue
    theta, produced by the tridiagonal recurrence once per (arr, theta).
    The last row of the matrix must close with zero residual; otherwise
    theta is not an eigenvalue and NotAnEigenvalue is raised."""
    th = Fraction(theta)
    nu = [Fraction(1)]
    for i in range(arr.rho):
        nu.append(((th - arr.a(i)) * nu[i] - arr.c_at(i) * (nu[i - 1] if i else 0)) / arr.b[i])
    residual = arr.c_at(arr.rho) * (nu[-2] if arr.rho else 0) + (arr.a(arr.rho) - th) * nu[-1]
    if residual != 0:
        raise NotAnEigenvalue(f"recurrence residual {residual} for theta={theta}")
    return tuple(nu)


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
    the numerators of f, which must lie on g."""
    _on_host(g, f)
    if not f.num.any():
        raise ZeroFunction("eigenfunction candidates must not vanish identically")
    th = Fraction(theta)
    nbsum = g.neighbor_sums(f.num)
    bad = np.flatnonzero(nbsum * th.denominator != f.num * th.numerator)
    if not bad.size:
        return Verdict(True)
    x = int(bad[0])
    return Verdict(False, witness=(g.labels[x], Fraction(nbsum[x], f.den),
                                   th * Fraction(f.num[x], f.den)),
                   detail="neighbor sum mismatch")
