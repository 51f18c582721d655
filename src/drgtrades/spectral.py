"""Exact spectral machinery for intersection matrices.

Everything here is big-integer / big-rational arithmetic: eigenvalues come
from bisection on the Sturm sequence of leading principal minors (the
three-term recurrence of a tridiagonal matrix), each confirmed exactly at
its integer point, eigenvectors from the same recurrence, and the
weight-distribution bound from the exact coefficient recursion.  No floating
point is involved anywhere, because the results feed theorem checks where a
tolerance would be meaningless.
"""

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
from .graphs import (
    CliqueSystem,
    Graph,
    IntersectionArray,
    Verdict,
    _completely_regular,
    completely_regular_check,
    is_regular,
    segment_sums,
    vertex_mask,
)


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
        lo, hi = -arr.k, arr.k
        while lo < hi:
            mid = (lo + hi) // 2
            if _count_above(arr, 2 * mid + 1) <= j:
                hi = mid
            else:
                lo = mid + 1
        if _minors(arr, lo)[-1] != 0 or lo in roots[-1:]:
            raise NonIntegerSpectrum(
                f"eigenvalue {j} (descending) of {arr} lies within 1/2 of {lo} "
                f"but is not {lo}; the spectrum is not integral")
        roots.append(lo)
    return roots


def theta_min(arr: IntersectionArray) -> int:
    return intersection_matrix_eigenvalues(arr)[-1]


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
    if arr.rho >= 1:
        nu.append((th - arr.a(0)) / arr.b[0])
    for i in range(1, arr.rho):
        nxt = ((th - arr.a(i)) * nu[i] - arr.c_at(i) * nu[i - 1]) / arr.b[i]
        nu.append(nxt)
    residual = arr.c_at(arr.rho) * (nu[-2] if arr.rho >= 1 else 0) \
        + (arr.a(arr.rho) - th) * nu[-1]
    if residual != 0:
        raise NotAnEigenvalue(f"recurrence residual {residual} for theta={theta}")
    return nu


# --- weight distribution --------------------------------------------------------

@dataclass(frozen=True)
class WeightDistribution:
    """Coefficients W^0..W^rho for an eigenvalue of an intersection array."""

    coefficients: tuple[Fraction, ...]
    theta: Fraction
    array: IntersectionArray


def wd_coefficients(arr: IntersectionArray, theta) -> WeightDistribution:
    """W^0 = 1, W^1 = theta, and
    W^i = ((theta - a_{i-1}) W^{i-1} - b_{i-2} W^{i-2}) / c_i  for i >= 2."""
    th = Fraction(theta)
    w = [Fraction(1)]
    if arr.rho >= 1:
        w.append(th)
    for i in range(2, arr.rho + 1):
        nxt = ((th - arr.a(i - 1)) * w[i - 1] - arr.b_at(i - 2) * w[i - 2]) \
            / arr.c_at(i)
        w.append(nxt)
    return WeightDistribution(tuple(w), th, arr)


def wd_bound(arr: IntersectionArray, theta) -> Fraction:
    """Lower bound sum_i |W^i| on the support size of an eigenfunction."""
    return sum(abs(w) for w in wd_coefficients(arr, theta).coefficients)


# --- vertex functions -------------------------------------------------------------

@dataclass(frozen=True)
class VertexFunction:
    """A rational-valued function on the vertices of a host graph."""

    host: Graph
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.host.num_vertices:
            raise ValueError("value count differs from vertex count")

    @classmethod
    def from_items(cls, host: Graph, items: dict) -> "VertexFunction":
        vals = [Fraction(0)] * host.num_vertices
        for label, v in items.items():
            vals[host.index_of(label)] = Fraction(v)
        return cls(host, tuple(vals))


def _scaled_int_values(f: VertexFunction):
    scale = lcm(*(v.denominator for v in f.values)) if f.values else 1
    if scale > 10 ** 6:
        return None, None
    try:
        return np.array([v.numerator * (scale // v.denominator) for v in f.values],
                        dtype=np.int64), scale
    except OverflowError:
        return None, None


def verify_eigenfunction(g: Graph, f: VertexFunction, theta) -> Verdict:
    """Exact check of sum_{y ~ x} f(y) = theta * f(x) at every vertex."""
    if all(v == 0 for v in f.values):
        raise ZeroFunction("eigenfunction candidates must not vanish identically")
    th = Fraction(theta)
    ints, scale = _scaled_int_values(f)
    if ints is not None:
        nbsum = segment_sums(ints[g._flat], g._off)
        lhs = nbsum * th.denominator
        rhs = ints * th.numerator
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            x = int(bad[0])
            got = Fraction(int(nbsum[x]), scale)
            return Verdict(False, witness=(g.labels[x], got, th * f.values[x]),
                           detail="neighbor sum mismatch")
        return Verdict(True)
    for x in range(g.num_vertices):
        acc = sum((f.values[y] for y in g.neighbors(x).tolist()), Fraction(0))
        if acc != th * f.values[x]:
            return Verdict(False, witness=(g.labels[x], acc, th * f.values[x]),
                           detail="neighbor sum mismatch")
    return Verdict(True)


def delta_function(g: Graph, C, theta) -> VertexFunction:
    """The function equal to nu_i on the distance-i shell around the
    completely regular set C, where nu is the standard eigenvector of C's
    intersection matrix at theta.  Always an eigenfunction of g at theta."""
    res, dist = _completely_regular(g, C)
    if not res.ok:
        raise NotCompletelyRegular(str(res.witness))
    nu = standard_eigenvector(res.value, theta)  # may raise NotAnEigenvalue
    values = tuple(nu[int(d)] for d in dist)
    return VertexFunction(g, values)


def weight_distribution_of(g: Graph, f: VertexFunction, x: int) -> list[Fraction]:
    """Shell sums W^i = sum over the distance-i shell of x, up to ecc(x)."""
    dist = g.distances_from(x)
    ints, scale = _scaled_int_values(f)
    # int64 shell sums are exact while n * max|value| < 2**63
    if ints is not None and len(ints) * max(-int(ints.min()), int(ints.max())) < 2 ** 63:
        bounds = np.concatenate(([0], np.cumsum(np.bincount(dist))))
        sums = segment_sums(ints[np.argsort(dist, kind="stable")], bounds)
        return [Fraction(int(w), scale) for w in sums]
    out = [Fraction(0)] * (int(dist.max()) + 1)
    for v, d in enumerate(dist.tolist()):
        out[d] += f.values[v]
    return out


# --- Delsarte-pair characterizations ------------------------------------------------

@dataclass(frozen=True)
class CliqueSumReport:
    """Verdicts of the two equivalent zero-sum tests for theta_min
    eigenfunctions over a Delsarte pair."""

    sums_zero: Verdict
    eigenfunction: Verdict
    theta: Fraction

    def __bool__(self):
        return self.sums_zero.ok

    @property
    def agrees(self) -> bool:
        return self.sums_zero.ok == self.eigenfunction.ok


def clique_sum_characterization(g: Graph, S: CliqueSystem,
                                f: VertexFunction) -> CliqueSumReport:
    """For a Delsarte pair: f sums to zero over every clique of S iff f is an
    eigenfunction at the minimum eigenvalue -k/s.  Both verdicts are computed
    independently so callers can cross-check them."""
    k = is_regular(g).value
    th = Fraction(-k, S.s)
    vals = np.array([Fraction(v) for v in f.values], dtype=object)
    acc = vals[S.cliques].sum(axis=1)
    bad = np.flatnonzero(acc != 0)
    sums = Verdict(True) if not bad.size else Verdict(
        False, witness=(int(bad[0]), acc[bad[0]]), detail="clique sum nonzero")
    eig = verify_eigenfunction(g, f, th)
    return CliqueSumReport(sums, eig, th)


@dataclass(frozen=True)
class ConstantMeetReport:
    """Constant |B meet C| over the cliques versus radius-1 complete
    regularity at the minimum eigenvalue."""

    constant: bool
    lam: int | None
    cr: Verdict
    radius_one: bool
    theta_min_is_eigenvalue: bool
    theta: Fraction

    def __bool__(self):
        return self.constant

    @property
    def agrees(self) -> bool:
        rhs = self.cr.ok and self.radius_one and self.theta_min_is_eigenvalue
        return self.constant == rhs


def radius_one_cr_characterization(g: Graph, S: CliqueSystem,
                                   B) -> ConstantMeetReport:
    """For a Delsarte pair: a proper nonempty B meets every clique of S in a
    constant number of vertices iff B is completely regular of covering
    radius 1 with the minimum eigenvalue among its matrix's eigenvalues.
    Covers weakened (lambda > 1) clique designs as well."""
    Bset = set(int(v) for v in B)
    if not Bset or len(Bset) >= g.num_vertices:
        raise ValueError("B must be a proper nonempty subset")
    k = is_regular(g).value
    th = Fraction(-k, S.s)
    meets = np.unique(vertex_mask(g, Bset)[S.cliques].sum(axis=1))
    constant = meets.size == 1
    lam = int(meets[0]) if constant else None
    cr = completely_regular_check(g, Bset)
    radius_one = bool(cr.ok and cr.value.rho == 1)
    has_theta = bool(cr.ok and is_matrix_eigenvalue(cr.value, th))
    return ConstantMeetReport(constant, lam, cr, radius_one, has_theta, th)
