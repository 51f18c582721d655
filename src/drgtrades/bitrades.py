"""Clique bitrades: representation, the three equivalent verification
criteria, Delsarte-pair validation, minimality against the
weight-distribution bound, distance-regularity of the trade subgraph, clique
designs, and explicit minimum-bitrade constructors for every family.

A bitrade is an ordered pair (T0, T1) of disjoint nonempty independent
vertex sets.  For a (k,s,m) pair the following are equivalent and are all
computed here, each by its own route:

  a. every clique meets each of T0, T1 exactly once or misses both;
  b. the signed indicator (+1 on T0, -1 on T1) is an eigenfunction at -k/s;
  c. the induced subgraph on T0 u T1 is k/s-regular (bipartite by
     independence).

Minimum bitrades additionally meet the weight-distribution bound, which is
equivalent to the trade subgraph being isometric in the host; that subgraph
is then distance-regular with shells |W^i|.  Disagreement between any two of
these independently computed verdicts raises CrossCheckViolation.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CrossCheckViolation, DegenerateEmpty, NotDistanceRegular
from .families import _labels, build_dual_polar_D, johnson_label
from .graphs import (
    CliqueSystem,
    Graph,
    IntersectionArray,
    Verdict,
    _on_host,
    completely_regular_check,
    distance_regularity_check,
    induced_subgraph,
    is_bipartite,
    is_isometric_subgraph,
    is_regular,
    vertex_indices,
)
from .spectral import (
    is_matrix_eigenvalue,
    theta_min,
    wd_bound,
    wd_coefficients,
)


@dataclass(frozen=True)
class Bitrade:
    """Disjoint nonempty independent vertex sets (T0, T1) in a host graph.

    It keeps what proving the sides independent computes: at[i], side i as
    an intp index array in no particular order, and counts[i, v], the number
    of v's neighbors in side i, read-only in the host's count_type.  The
    criteria read these; equality, hash and repr see only (host, t0, t1)."""

    host: Graph
    t0: frozenset
    t1: frozenset
    at: tuple = field(init=False, compare=False, repr=False)
    counts: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        host, t0, t1 = self.host, self.t0, self.t1
        if not t0 or not t1:
            raise ValueError("both trades must be nonempty")
        if not t0.isdisjoint(t1):
            raise ValueError("trades must be disjoint")
        # intp, which NumPy indexes by without a cast
        sup = vertex_indices(host, [*t0, *t1]).astype(np.intp)
        at = sup[:len(t0)], sup[len(t0):]
        counts = np.empty((2, host.num_vertices), dtype=host.count_type)
        for i, side in enumerate(at):
            counts[i] = side_counts = host.neighbor_counts(side)
            if side_counts[side].any():
                raise ValueError(f"T{i} is not an independent set")
        counts.flags.writeable = False
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "counts", counts)

    @property
    def cardinality(self) -> int:
        return len(self.t0) + len(self.t1)

    @property
    def support(self) -> frozenset:
        return self.t0 | self.t1

    def labels(self, side) -> list[str]:
        return sorted(self.host.labels[list(side)])

    def __repr__(self):
        return f"Bitrade(|T0|={len(self.t0)}, |T1|={len(self.t1)})"


def bitrade_to_json(T: Bitrade) -> dict:
    fam = T.host.family or "custom"
    params = ",".join(str(p) for p in (T.host.params or ()))
    return {
        "host": f"{fam}:{params}" if params else fam,
        "T0": T.labels(T.t0),
        "T1": T.labels(T.t1),
    }


def bitrade_from_json(host: Graph, doc) -> Bitrade:
    """The bitrade a bitrade_to_json document describes.  Raises KeyError on a
    label the host lacks, and ValueError when doc is not an object with "T0" and
    "T1" lists of labels, a side lists one twice, or the sides are no bitrade."""
    sides = [doc.get(k) for k in ("T0", "T1")] if isinstance(doc, dict) else [None]
    if not all(isinstance(s, list) and all(isinstance(lab, str) for lab in s) for s in sides):
        raise ValueError('expected an object with "T0" and "T1" lists of vertex labels')
    twice = [(name, lab) for name, side in zip(("T0", "T1"), sides)
             for lab, count in Counter(side).items() if count > 1]
    if twice:
        raise ValueError("%s lists the label %r twice" % twice[0])
    return _split(host, [(lab, i) for i, side in enumerate(sides) for lab in side])


# --- Delsarte pair -------------------------------------------------------------

@dataclass(frozen=True)
class DelsartePairReport:
    ok: bool
    k: int
    s: int
    theta_min: int
    hoffman_order: Fraction          # 1 - k/theta_min


def _degree(g: Graph) -> int:
    """The host's common degree; a host that is not regular raises
    NotDistanceRegular with is_regular's witness."""
    reg = is_regular(g)
    if not reg.ok:
        raise NotDistanceRegular(str(reg.witness))
    return reg.value


@lru_cache(maxsize=1024)
def _theta(k: int, s: int) -> Fraction:
    """-k/s, the eigenvalue of a (k,s,m) pair's bitrades, made once per (k, s);
    ValueError if s = 0."""
    if not s:
        raise ValueError("a clique system with s = 0 has no eigenvalue -k/s")
    return Fraction(-k, s)


def _host_array(g: Graph, host_array=None) -> IntersectionArray:
    """host_array when given, else the host's intersection array as proven
    by distance_regularity_check.  A host that is not distance-regular (or,
    with host_array given, not regular) raises NotDistanceRegular with the
    witness; a given array whose degree is not the host's, ValueError."""
    if host_array is None:
        dr = distance_regularity_check(g)
        if not dr.ok:
            raise NotDistanceRegular(str(dr.witness))
        return dr.value
    k = _degree(g)
    if host_array.k != k:
        raise ValueError(f"host array {host_array} has degree {host_array.k}, "
                         f"the host has degree {k}")
    return host_array


def verify_delsarte_pair(g: Graph, S: CliqueSystem,
                         host_array=None) -> DelsartePairReport:
    """A (k,s,m) pair is Delsarte when the host is distance-regular and the
    clique order s+1 reaches the Hoffman bound 1 - k/theta_min."""
    _on_host(g, S)
    arr = _host_array(g, host_array)
    th = theta_min(arr)
    hoffman = 1 - Fraction(arr.k, th)
    return DelsartePairReport(S.s + 1 == hoffman, arr.k, S.s, th, hoffman)


# --- the three criteria -----------------------------------------------------------

def check_criterion_a(g: Graph, S: CliqueSystem, T: Bitrade) -> Verdict:
    """Every clique meets each of T0 and T1 exactly once, or misses both,
    counted from the clique incidence of the support alone (S.hits)."""
    _on_host(g, S, T)
    hits0, hits1 = S.hits(T.at[0]), S.hits(T.at[1])
    bad = (hits0 != hits1) | (hits0 > 1)
    if bad.any():
        ci = int(bad.argmax())
        members = sorted(g.labels[S.cliques[ci]])
        return Verdict(False, witness=(ci, members, int(hits0[ci]), int(hits1[ci])),
                       detail="clique meets the trades unevenly")
    return Verdict(True)


def check_criterion_b(g: Graph, S: CliqueSystem, T: Bitrade) -> Verdict:
    """The signed indicator function is an eigenfunction at -k/s."""
    _on_host(g, S, T)
    return _signed_eigenfunction(g, T, _theta(_degree(g), S.s))


def _signed_eigenfunction(g: Graph, T: Bitrade, theta) -> Verdict:
    """verify_eigenfunction on T's signed indicator f, in int64: (A f)(x) is
    the number of T0 neighbors of x less the number of T1 neighbors, read off
    the bitrade's kept counts, and theta f(x) is theta's numerator on T0, its
    negation on T1 and 0 elsewhere, over its denominator."""
    th = Fraction(theta)
    af = np.subtract(T.counts[0], T.counts[1], dtype=np.int64)
    want = np.zeros(g.num_vertices, dtype=np.int64)
    want[T.at[0]], want[T.at[1]] = th.numerator, -th.numerator
    bad = af * th.denominator != want
    if not bad.any():
        return Verdict(True)
    x = int(bad.argmax())
    fx = (x in T.t0) - (x in T.t1)
    return Verdict(False, witness=(g.labels[x], Fraction(int(af[x])), th * fx),
                   detail="neighbor sum mismatch")


def check_criterion_c(g: Graph, S: CliqueSystem, T: Bitrade) -> Verdict:
    """The induced subgraph on T0 u T1 is regular of degree k/s (bipartite,
    since Bitrade refuses a dependent side): each support vertex's neighbors
    inside the support, the sum of the bitrade's kept counts in T0 and in T1;
    the witness is the first support vertex by index whose count is not k/s."""
    _on_host(g, S, T)
    th = _theta(_degree(g), S.s)
    sup = np.sort(np.concatenate(T.at))
    degs = np.add(T.counts[0][sup], T.counts[1][sup], dtype=np.int64)
    bad = degs * th.denominator != -th.numerator
    if not bad.any():
        return Verdict(True)
    i = int(bad.argmax())
    return Verdict(False, witness=(g.labels[sup[i]], int(degs[i]), -th),
                   detail="trade subgraph degree mismatch")


# --- minimality and the trade subgraph ----------------------------------------------

@dataclass(frozen=True)
class MinimalityReport:
    cardinality: int
    bound: int
    isometric: Verdict
    minimal: bool


def _integral_bound(arr: IntersectionArray, theta) -> int:
    """The weight-distribution bound at theta, which must be an integer."""
    bound = wd_bound(arr, theta)
    if bound.denominator != 1:
        raise CrossCheckViolation(f"weight-distribution bound {bound} is not an integer")
    return int(bound)


def check_minimality(g: Graph, S: CliqueSystem, T: Bitrade,
                     host_array=None) -> MinimalityReport:
    """|T0 u T1| against the weight-distribution bound at -k/s, and the
    isometric-subgraph test, which must agree (their equivalence is the
    content of the minimality theory; disagreement is a hard failure)."""
    _on_host(g, S, T)
    arr = _host_array(g, host_array)
    bound = _integral_bound(arr, _theta(arr.k, S.s))
    meets = T.cardinality == bound
    iso = is_isometric_subgraph(g, T.support)
    if meets != iso.ok:
        raise CrossCheckViolation(
            f"meets-bound={meets} but isometric={iso.ok}: {iso.witness}")
    return MinimalityReport(T.cardinality, bound, iso, meets)


def check_subgraph_dr(g: Graph, S: CliqueSystem,
                      T: Bitrade) -> tuple[IntersectionArray, tuple[int, ...]]:
    """(array, shell_sizes): for a minimal bitrade the trade subgraph must be
    distance-regular with shell sizes |W^i| computed from the host array;
    failure here is a violated equivalence, not a user error."""
    _on_host(g, S, T)
    arr = _host_array(g)
    return _subgraph_dr(induced_subgraph(g, T.support)[0], arr, _theta(arr.k, S.s))


def _subgraph_dr(sub: Graph, arr: IntersectionArray, theta: Fraction) -> tuple:
    """check_subgraph_dr on the trade subgraph sub, against the host's
    proven array arr at theta = -k/s.  Every vertex of a distance-regular
    graph has the shells k_0 = 1, k_{i+1} = k_i b_i / c_{i+1} of its proven
    array, so vertex 0 names a mismatch."""
    dr = distance_regularity_check(sub)
    if not dr.ok:
        raise CrossCheckViolation(
            f"trade subgraph of a minimal bitrade not distance-regular: {dr.witness}")
    shells = tuple(abs(int(w)) for w in wd_coefficients(arr, theta))
    got = [1]
    for b, c in zip(dr.value.b, dr.value.c):
        got.append(got[-1] * b // c)
    if tuple(got) != shells:
        raise CrossCheckViolation(
            f"shells {tuple(got)} at {sub.labels[0]} differ from |W^i| = {shells}")
    return dr.value, shells


# --- whole-pipeline report ------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    a: Verdict
    b: Verdict
    c: Verdict
    theta: Fraction
    cardinality: int
    bound: int | None = None
    isometric: Verdict | None = None
    minimal: bool | None = None
    subgraph_array: IntersectionArray | None = None
    shell_sizes: tuple[int, ...] | None = None

    @property
    def criteria_agree(self) -> bool:
        return self.a.ok == self.b.ok == self.c.ok

    @property
    def all_pass(self) -> bool:
        return self.a.ok and self.b.ok and self.c.ok


def verify_bitrade(g: Graph, S: CliqueSystem, T: Bitrade,
                   host_array=None) -> VerificationReport:
    """Run criteria a/b/c on a distance-regular host; when all pass, also
    minimality and the trade subgraph's distance regularity, against the
    host array proven (or checked) once."""
    _on_host(g, S, T)
    arr = _host_array(g, host_array)
    th = _theta(arr.k, S.s)
    a = check_criterion_a(g, S, T)
    b = check_criterion_b(g, S, T)
    c = check_criterion_c(g, S, T)
    if not (a.ok and b.ok and c.ok):
        return VerificationReport(a, b, c, th, T.cardinality)
    mini = check_minimality(g, S, T, arr)
    sub = _subgraph_dr(mini.isometric.value, arr, th) if mini.minimal else (None, None)
    return VerificationReport(a, b, c, th, T.cardinality, mini.bound, mini.isometric,
                              mini.minimal, *sub)


@dataclass(frozen=True)
class PseudoBitradeReport:
    theta: int
    b: Verdict
    cardinality: int
    bound: int
    ok: bool


def verify_pseudo_bitrade(g: Graph, T: Bitrade) -> PseudoBitradeReport:
    """On a host without a Delsarte clique system only the eigenfunction
    criterion exists: the signed indicator at theta_min of the host's array
    (proven as in _host_array), and the cardinality against the
    weight-distribution bound there."""
    _on_host(g, T)
    arr = _host_array(g)
    theta = theta_min(arr)
    b = _signed_eigenfunction(g, T, theta)
    bound = _integral_bound(arr, theta)
    return PseudoBitradeReport(theta, b, T.cardinality, bound,
                               b.ok and T.cardinality == bound)


# --- constructors ------------------------------------------------------------------------

def _split(host: Graph, pairs) -> Bitrade:
    """The bitrade whose side i holds the vertex labelled lab for each
    (lab, i) in pairs, the labels looked up in one batch."""
    pairs = list(pairs)
    return _sides(host, host.labels.indices_of([lab for lab, _ in pairs]),
                  [side for _, side in pairs])


def _sides(host: Graph, at: np.ndarray, sides) -> Bitrade:
    """The bitrade whose side i holds the vertices at[j] with sides[j] = i."""
    sides = np.asarray(sides, dtype=np.int64)
    return Bitrade(host, frozenset(at[sides == 0].tolist()), frozenset(at[sides == 1].tolist()))


def _cube(n: int):
    """The binary words of length n, each with its weight parity."""
    for bits in itertools.product("01", repeat=n):
        yield "".join(bits), bits.count("1") % 2


def _johnson_blocks(w: int, shifts):
    """The blocks of min_bitrade_johnson with every point moved up by shift,
    one block system per shift, each block with its side."""
    return ((johnson_label(shift + 2 * i + 1 + int(b) for i, b in enumerate(bits)), parity)
            for shift in shifts for bits, parity in _cube(w))


def min_bitrade_johnson(n: int, w: int, host: Graph) -> Bitrade:
    """Blocks {a_1^{b_1},...,a_w^{b_w}} over the fixed points a_i^0 = 2i-1,
    a_i^1 = 2i, split by the parity of b_1+...+b_w."""
    return _split(host, _johnson_blocks(w, (0,)))


def min_bitrade_hamming(n: int, q: int, host: Graph) -> Bitrade:
    """Binary words inside the q-ary cube, split by weight parity."""
    return _split(host, _cube(n))


def min_bitrade_halved_cube(n: int, host: Graph) -> Bitrade:
    """Doubled words (x,x), split by the weight parity of x."""
    return _split(host, ((word * 2, parity) for word, parity in _cube(n // 2)))


def min_bitrade_octahedron(n: int, host: Graph) -> Bitrade:
    """A square: two antipodal pairs, one per side."""
    return _split(host, (("0+", 0), ("0-", 0), ("1+", 1), ("1-", 1)))


def min_bitrade_grassmann(n: int, d: int, q: int, host: Graph) -> Bitrade:
    """The bipartition of the dual polar graph on F_q^{2d}, embedded into
    the d-subspaces of F_q^n by zero-extending basis vectors.

    The two color classes come from BFS 2-coloring started at the
    lexicographically least vertex, which is canonical given canonical
    labels.  D_d(q) is built under the host's vertex count as cap: its
    [2d,d]_q candidate subspaces are at most the host's [n,d]_q.  Its labels
    are _labels bytes, d rows of 2d digits each closed by '/' (the last by
    NUL); their digits are padded with n - 2d zeros a row and looked up in
    the host in one batch."""
    if n < 2 * d:
        raise ValueError("need n >= 2d")
    dp = build_dual_polar_D(d, q, cap=host.num_vertices)
    bip = is_bipartite(dp)
    if not bip.ok:
        raise CrossCheckViolation(f"dual polar graph D_{d}({q}) has an odd cycle: {bip.witness}")
    digits = dp.labels.utf8.view(np.uint8).reshape(-1, d, 2 * d + 1)[:, :, :-1] - ord("0")
    padded = np.pad(digits, ((0, 0), (0, 0), (0, n - 2 * d))).reshape(len(digits), d * n)
    return _sides(host, host.labels.indices_of(_labels(padded, d)), bip.value)


def pseudo_bitrade_doob(m: int, n: int, host: Graph) -> Bitrade:
    """In the Doob graph there is no Delsarte clique system, so only the
    eigenfunction route exists: the vertex set {(0,j)}^m x {0,1}^n is split by
    the parity of its coordinates' sum and certified directly against the
    minimum eigenvalue -(2m+n), raising CrossCheckViolation if it fails."""
    theta = -(2 * m + n)
    words = itertools.product(*[("00", "01", "02", "03")] * m, *[("0", "1")] * n)
    T = _split(host, ((".".join(w), sum(map(int, w)) % 2) for w in words))
    verdict = _signed_eigenfunction(host, T, theta)
    if not verdict.ok:
        raise CrossCheckViolation(
            f"parity split of doob({m},{n}) is not an eigenfunction at {theta}: {verdict.witness}")
    return T


def double_johnson_bitrade(n: int, w: int, host: Graph) -> Bitrade:
    """Union of two point-disjoint minimum blocks systems, the second shifted
    to points 2w+1..4w: a valid bitrade of twice the minimum cardinality."""
    if n < 4 * w:
        raise ValueError("need n >= 4w for point-disjoint copies")
    return _split(host, _johnson_blocks(w, (0, 2 * w)))


MIN_BITRADES = {
    "octahedron": min_bitrade_octahedron,
    "hamming": min_bitrade_hamming,
    "johnson": min_bitrade_johnson,
    "halved_cube": min_bitrade_halved_cube,
    "grassmann": min_bitrade_grassmann,
    "doob": pseudo_bitrade_doob,
}


# --- corruption (negative test surface) -----------------------------------------------

def corrupt_one_vertex(T: Bitrade, rng: random.Random) -> Bitrade:
    """A one-vertex corruption that keeps the pair well-formed (disjoint,
    nonempty, independent sides), so the criteria equivalence still applies.

    Moving a vertex to a neighbor is preferred, but in tight hosts (the
    triple graph on six points, the octahedron) no single move preserves
    independence; then a non-neighbor move, a one-vertex addition, or a
    one-vertex drop is used instead.

    Moves are (side, v, u), -1 standing for no vertex; each pool lists
    T0's moves, then T1's, by v and then u ascending, and only the move
    drawn is built: a pool is a count per part and a way to the i-th move
    of each.  A vertex u outside the support may replace v when v is its
    only neighbor in the side (a neighbor move) or when it has none (any
    other move, or an addition)."""
    host, side_nbrs = T.host, T.counts
    free = np.ones(host.num_vertices, dtype=bool)
    free[T.at[0]] = free[T.at[1]] = False
    sides = [np.sort(at) for at in T.at]
    nbrs = [host.neighbors_of(vs) for vs in sides]

    def neighbor_moves(which):
        vs, x = sides[which], nbrs[which]
        near = np.flatnonzero(free[x] & (side_nbrs[which][x] == 1))
        ends = np.cumsum(host.degrees[vs])      # vs[j]'s neighbors end at ends[j]
        return near.size, lambda i: (vs[np.searchsorted(ends, near[i], side="right")],
                                     x[near[i]])

    lonely = []     # both sides', found once when no side has a neighbor move

    def lonely_of(which):
        if not lonely:
            lonely.extend(np.flatnonzero(free & (c == 0)) for c in side_nbrs)
        return lonely[which]

    def other_moves(which):
        vs, u = sides[which], lonely_of(which)
        return vs.size * u.size, lambda i: (vs[i // u.size], u[i % u.size])

    def adds(which):
        u = lonely_of(which)
        return u.size, lambda i: (-1, u[i])

    def drops(which):
        vs = sides[which] if sides[which].size >= 2 else sides[which][:0]
        return vs.size, lambda i: (vs[i], -1)

    for pool in ((neighbor_moves,), (other_moves, adds), (drops,)):
        parts = [(which, *make(which)) for make in pool for which in (0, 1)]
        total = sum(count for _, count, _ in parts)
        if not total:
            continue
        i = rng.randrange(total)
        for which, count, move in parts:
            if i < count:
                break
            i -= count
        v, u = (int(x) for x in move(i))
        kept = [set(T.t0), set(T.t1)]
        kept[which].discard(v)
        if u >= 0:
            kept[which].add(u)
        return Bitrade(host, frozenset(kept[0]), frozenset(kept[1]))
    raise RuntimeError("no admissible one-vertex corruption exists")


# --- clique designs --------------------------------------------------------------------

def check_clique_design(g: Graph, S: CliqueSystem, dset) -> Verdict:
    """True iff the set meets every clique of S in exactly one vertex.  A
    positive verdict is cross-checked against radius-1 complete regularity
    with the minimum eigenvalue."""
    _on_host(g, S)
    D = set(vertex_indices(g, dset).tolist())
    if not D:
        return Verdict(False, detail="empty set is not a design")
    hits = S.hits(D)
    bad = np.flatnonzero(hits != 1)
    if bad.size:
        ci = int(bad[0])
        return Verdict(False, witness=(ci, int(hits[ci])),
                       detail="clique not met exactly once")
    if len(D) < g.num_vertices:
        th = _theta(_degree(g), S.s)
        cr = completely_regular_check(g, D)
        if not (cr.ok and cr.value.rho == 1 and is_matrix_eigenvalue(cr.value, th)):
            raise CrossCheckViolation(
                "design is not completely regular of radius 1 at -k/s")
    return Verdict(True, value=len(D))


def design_difference(g: Graph, S: CliqueSystem, d1, d2) -> Bitrade:
    """The difference pair (D1 - D2, D2 - D1) of two distinct clique designs
    is always a clique bitrade; verified via criterion a before returning."""
    D1, D2 = set(d1), set(d2)
    for D in (D1, D2):
        v = check_clique_design(g, S, D)
        if not v.ok:
            raise ValueError(f"not a clique design: {v.detail} {v.witness}")
    if D1 == D2:
        raise DegenerateEmpty("designs are identical; difference is empty")
    T = Bitrade(g, frozenset(D1 - D2), frozenset(D2 - D1))
    a = check_criterion_a(g, S, T)
    if not a.ok:
        raise CrossCheckViolation(f"design difference failed criterion a: {a.witness}")
    return T
