"""Constructors for the distance-regular graph families in scope, together
with their natural Delsarte clique systems and closed-form parameters.

Vertex labels are canonical strings (digit words, comma-joined point sets,
'/'-joined RREF rows), sorted, so that structures built abstractly can be
located inside host graphs deterministically and serializations diff clean.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, isqrt

import numpy as np

from .errors import (
    CliquesNotDelsarte,
    CrossCheckViolation,
    EnumerationTooLarge,
    InvalidParameters,
)
from .gfq import (
    gaussian_binomial,
    hyperplane_keys,
    isotropic_count_product,
    make_field,
    pack_digits,
    rref_batch,
    subspace_bases,
    totally_isotropic_mask,
    unpack_digits,
)
from .graphs import CliqueSystem, Graph, IntersectionArray, Labels, _index_type

DEFAULT_ENUMERATION_CAP = 100_000


def _require(ok: bool, need: str):
    """A family's builder and its closed-form array refuse the same parameters."""
    if not ok:
        raise InvalidParameters(f"need {need}")


def _require_field_order(q: int):
    """The q-ary closed forms hold for every prime power q, built or not."""
    _require(q >= 2, "q >= 2")
    p = next((f for f in range(2, isqrt(q) + 1) if q % f == 0), q)
    while q % p == 0:
        q //= p
    _require(q == 1, "q a prime power")


def _capped(log2_floor: int, exact) -> int | None:
    """The count exact(), at least 2^log2_floor, if it is below 2^64, else
    None.  exact() is not called when log2_floor >= 64, so parameters of any
    size are tested against a cap at once, before anything is computed."""
    if log2_floor >= 64:
        return None
    count = exact()
    return count if count < 1 << 64 else None


def _shown(count: int | None, spec: str = "") -> str:
    return "at least 2^64" if count is None else format(count, spec)


def _guard(count: int | None, cap: int, what: str, degree, unit: str = "vertices",
           vertices=None):
    """Refuse a build of more than cap vertices (or of the unit it enumerates),
    a _capped count, then one of more than 2,000 * cap adjacency entries, the
    vertices times the degree, which a complete graph reaches under the vertex
    cap; J_4(6,2), the densest host with d >= 2 that the default cap admits,
    has 158M.  degree() is the closed form of k, read once the count passed."""
    if count is None or count > cap:
        raise EnumerationTooLarge(f"{what}: {_shown(count)} {unit} exceeds cap {cap}")
    entries = (count if vertices is None else vertices) * degree()
    if entries > 2_000 * cap:
        raise EnumerationTooLarge(f"{what}: {entries} adjacency entries exceed 2000 x cap {cap}")


def _host_with_cliques(labels, rows, s: int, m: int, family: str,
                       params: tuple) -> tuple[Graph, CliqueSystem]:
    """The clique system with each row sorted and the rows in lexicographic
    order, in _index_type (in place for rows in that type), and the host of
    the within-clique pairs, sharing its rows."""
    cliques = np.asarray(rows, dtype=_index_type(len(labels)))
    cliques.sort(axis=1)
    cliques[:] = cliques[np.lexsort(cliques.T[::-1])]
    g = Graph(labels, cliques, family=family, params=params)
    return g, CliqueSystem(g, cliques, s=s, m=m)


def _label_generators(g: Graph, maps) -> None:
    """Give g automorphism generators, computed only when called, from maps
    taking each vertex label to the label of its image.  The certificate of
    distance_regularity_check checks that each is a permutation and an
    automorphism, and that together they are transitive."""
    g.generators = lambda: [g.labels.indices_of([f(lab) for lab in g.labels]) for f in maps]


# --- octahedron -------------------------------------------------------------

def build_octahedron(n: int,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Graph, CliqueSystem]:
    """n antipodal pairs, all edges except within a pair; the clique system
    is all 2^n transversals (one vertex per pair), each edge lying in
    2^(n-2) of them.  The cap bounds the transversals.  The host is built
    from its pair list: as the rows, a vertex gathers n * 2^(n-1) entries for
    2n - 2 neighbors (octahedron(16)'s check took 100 ms against 1 ms)."""
    _require(n >= 2, "n >= 2")
    _guard(_capped(n, lambda: 2 ** n), cap, f"octahedron({n})", lambda: 2 * n - 2,
           "cliques", 2 * n)
    labels = sorted(f"{i}{s}" for i in range(n) for s in "+-")
    # pair j is vertices 2j ('+') and 2j+1 ('-'): rows come out sorted, in lexicographic order
    u, v = np.triu_indices(2 * n, 1)
    g = Graph(labels, np.stack([u, v], axis=1)[u // 2 != v // 2],
              family="octahedron", params=(n,))
    bits = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    S = CliqueSystem(g, (2 * np.arange(n) + bits).astype(_index_type(2 * n)),
                     s=n - 1, m=2 ** (n - 2))
    # the pair cycle, and the swap within pair 0
    _label_generators(g, [lambda v: f"{(int(v[:-1]) + 1) % n}{v[-1]}",
                          lambda v: {"0+": "0-", "0-": "0+"}.get(v, v)])
    return g, S


def octahedron_array(n: int) -> IntersectionArray:
    _require(n >= 2, "n >= 2")
    return IntersectionArray(2 * n - 2, (2 * n - 2, 1), (1, 2 * n - 2))


# --- Hamming ----------------------------------------------------------------

def build_hamming(n: int, q: int,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Graph, CliqueSystem]:
    """Words of length n over q symbols, adjacent at Hamming distance 1;
    cliques are the q-element lines obtained by freeing one coordinate."""
    _require(n >= 1 and q >= 2, "n >= 1, q >= 2")
    # a label spells each symbol as one digit, so n >= 2 needs q <= 10; at
    # n = 1 a label is its one symbol, and the labels sort as strings
    _require(n == 1 or q <= 10, "q <= 10 to build n >= 2")
    _guard(_capped(n * (q.bit_length() - 1), lambda: q ** n), cap, f"hamming({n},{q})",
           lambda: n * (q - 1))
    labels = Labels(sorted("".join(str(d) for d in w)
                           for w in itertools.product(range(q), repeat=n)))
    cliques = labels.indices_of([lab[:pos] + str(v) + lab[pos + 1:] for lab in labels
                                 for pos in range(n) if lab[pos] == "0" for v in range(q)])
    g, S = _host_with_cliques(labels, cliques.reshape(-1, q), q - 1, 1, "hamming", (n, q))
    # the coordinate cycle, and +1 mod q in the last coordinate (the whole
    # label when n = 1, where q may take two digits)
    _label_generators(g, [lambda w: w[n - 1:] + w[:n - 1],
                          lambda w: w[:n - 1] + str((int(w[n - 1:]) + 1) % q)])
    return g, S


def hamming_array(n: int, q: int) -> IntersectionArray:
    _require(n >= 1 and q >= 2, "n >= 1, q >= 2")
    return IntersectionArray(n * (q - 1),
                             tuple((n - i) * (q - 1) for i in range(n)),
                             tuple(range(1, n + 1)))


# --- Johnson ----------------------------------------------------------------

def johnson_label(subset) -> str:
    return ",".join(str(x) for x in sorted(subset))


def build_johnson(n: int, w: int,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Graph, CliqueSystem]:
    """w-subsets of {1..n}, adjacent when sharing w-1 points; one clique per
    (w-1)-subset, consisting of the n-w+1 supersets."""
    _require(2 <= 2 * w <= n, "2 <= 2w <= n")
    # C(n, w) >= max(2^w, n) when 2 <= 2w <= n
    _guard(_capped(max(w, n.bit_length() - 1), lambda: comb(n, w)), cap, f"johnson({n},{w})",
           lambda: w * (n - w))
    points = range(1, n + 1)
    labels = Labels(sorted(johnson_label(s) for s in itertools.combinations(points, w)))
    cliques = labels.indices_of([johnson_label(core + (x,))
                                 for core in itertools.combinations(points, w - 1)
                                 for x in points if x not in core])
    g, S = _host_with_cliques(labels, cliques.reshape(-1, n - w + 1), n - w, 1, "johnson",
                              (n, w))
    # the point cycle i -> i mod n + 1, and the transposition (1 2)
    _label_generators(g, [lambda lab: johnson_label(int(x) % n + 1 for x in lab.split(",")),
                          lambda lab: johnson_label({1: 2, 2: 1}.get(int(x), int(x))
                                                    for x in lab.split(","))])
    return g, S


def johnson_array(n: int, w: int) -> IntersectionArray:
    _require(2 <= 2 * w <= n, "2 <= 2w <= n")
    return IntersectionArray(w * (n - w),
                             tuple((w - i) * (n - w - i) for i in range(w)),
                             tuple(i * i for i in range(1, w + 1)))


# --- halved cube ------------------------------------------------------------

def build_halved_cube(n: int, check_delsarte: bool = True,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Graph, CliqueSystem]:
    """Even-weight binary words of length n, adjacent at Hamming distance 2;
    one clique per odd word: its n cube-neighbors.  The cliques reach the
    Hoffman bound only for even n, so odd n is rejected unless the caller
    asks for the raw pair."""
    _require(n >= 4, "n >= 4")
    if check_delsarte and n % 2 == 1:
        raise CliquesNotDelsarte(
            f"halved {n}-cube cliques have order {n} < Hoffman bound for odd n")
    _guard(_capped(n - 1, lambda: 2 ** (n - 1)), cap, f"halved_cube({n})",
           lambda: n * (n - 1) // 2)
    # of the words 2j and 2j + 1 the even one, 2j + parity(j), is vertex j in
    # label order; the odd one's n neighbors, at (word ^ bit) >> 1, are a clique
    j = np.arange(2 ** (n - 1))
    parity = sum(j >> b & 1 for b in range(n)) & 1
    labels = [format(w, f"0{n}b") for w in (2 * j + parity).tolist()]
    cliques = ((2 * j + 1 - parity)[:, None] ^ 1 << np.arange(n)) >> 1
    g, S = _host_with_cliques(labels, cliques, n - 1, 2, "halved_cube", (n,))
    # the coordinate cycle, and the flip of coordinates 0 and 1
    _label_generators(g, [lambda w: w[-1] + w[:-1],
                          lambda w: "10"[int(w[0])] + "10"[int(w[1])] + w[2:]])
    return g, S


def halved_cube_array(n: int) -> IntersectionArray:
    _require(n >= 4, "n >= 4")
    rho = n // 2
    return IntersectionArray(comb(n, 2),
                             tuple(comb(n - 2 * i, 2) for i in range(rho)),
                             tuple(comb(2 * i, 2) for i in range(1, rho + 1)))


# --- Shrikhande and Doob ------------------------------------------------------

_SHRIKHANDE_DIFFS = ((0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3))


def build_doob(m: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Graph:
    """Cartesian product of m Shrikhande factors and n complete 4-factors.
    No clique system: its natural cliques are too small for a Delsarte pair.

    A vertex is labelled by its factor labels, '.'-joined.  The labels of
    one factor share a length, so product order is label order."""
    _require(m >= 1 and n >= 0, "m >= 1, n >= 0")
    _guard(_capped(4 * m + 2 * n, lambda: 16 ** m * 4 ** n), cap, f"doob({m},{n})",
           lambda: 3 * (2 * m + n))
    shrikhande = ([f"{a}{b}" for a in range(4) for b in range(4)],
                  [(4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
                   for a in range(4) for b in range(4) for da, db in _SHRIKHANDE_DIFFS])
    k4 = (list("0123"), list(itertools.combinations(range(4), 2)))
    factors = [shrikhande] * m + [k4] * n
    # grid[w] is the vertex of word w; a factor edge joins two slices of its axis
    grid = np.arange(16 ** m * 4 ** n).reshape([len(f[0]) for f in factors])
    edges = [np.stack([grid.take(u, axis=pos).ravel(), grid.take(v, axis=pos).ravel()], axis=1)
             for pos, (_, pairs) in enumerate(factors) for u, v in pairs]
    labels = [".".join(w) for w in itertools.product(*(f[0] for f in factors))]
    g = Graph(labels, np.concatenate(edges), family="doob", params=(m, n))
    # each digit of a label is one Z_4 axis of a factor, Shrikhande's two
    # included: both factors are Cayley graphs, so +1 on an axis is an automorphism
    _label_generators(g, [lambda lab, p=p: lab[:p] + "1230"[int(lab[p])] + lab[p + 1:]
                          for p, ch in enumerate(labels[0]) if ch != "."])
    return g


def build_shrikhande(cap: int = DEFAULT_ENUMERATION_CAP) -> Graph:
    """The Doob graph with one Shrikhande factor and no K4 factor: 16 pairs
    over Z4 x Z4, adjacent when the difference lies in the six-element
    difference set."""
    g = build_doob(1, 0, cap)
    g.family, g.params = "shrikhande", ()
    return g


def doob_array(m: int, n: int) -> IntersectionArray:
    _require(m >= 1 and n >= 0, "m >= 1, n >= 0")
    return hamming_array(2 * m + n, 4)


# --- Grassmann ----------------------------------------------------------------

def _labels(rows: np.ndarray, d: int) -> np.ndarray:
    """The vertex label of each flattened (d * n)-digit RREF basis in rows,
    as an S array of its bytes: the d rows of n digits, '/'-joined ("0" for
    d = 0).  The last row ends in a NUL for its '/', which the S type drops."""
    if d == 0:
        return np.full(len(rows), b"0")
    n = rows.shape[1] // d
    chars = np.full((len(rows), d, n + 1), ord("/"), dtype=np.uint8)
    chars[:, :, :n] = rows.reshape(len(rows), d, n) + ord("0")
    chars[:, -1, n] = 0
    return chars.reshape(len(rows), -1).view(f"S{d * (n + 1)}").ravel()


def _hyperplane_buckets(bases: np.ndarray, field, size: int):
    """The labels of the subspaces in bases (N, d, n), sorted, as _labels
    bytes (labels share their length and separator positions, so label order
    is pack_digits key order), the sorted vertex indices, in _index_type,
    grouped by the (d-1)-subspaces they contain, as one row of size members
    per (d-1)-subspace, and the keys in label order.  Hyperplanes are grouped by
    sorting their hyperplane_keys; a group of the wrong size names the
    (d-1)-subspace whose first member comes earliest in (vertex enumeration,
    hyperplane) order.  The keys are sorted in the narrowest unsigned type
    that holds q^(n(d-1)) of them: NumPy's stable sort is a radix sort up to
    16 bits."""
    nv, d, n = bases.shape
    flat = bases.reshape(nv, d * n)
    keys = pack_digits(flat, field.q)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    labels = _labels(flat[order], d)
    vertex = np.empty(nv, dtype=_index_type(nv))
    vertex[order] = np.arange(nv)
    per_vertex = gaussian_binomial(d, 1, field.q)
    rows = np.empty((nv * per_vertex // size, size), dtype=vertex.dtype)
    hkeys = hyperplane_keys(bases, field).ravel().astype(
        np.min_scalar_type(field.q ** (n * (d - 1)) - 1))
    at = np.argsort(hkeys, kind="stable")
    hkeys = hkeys[at]
    starts = np.flatnonzero(np.r_[True, hkeys[1:] != hkeys[:-1]])
    sizes = np.diff(np.r_[starts, len(at)])
    bad = np.flatnonzero(sizes != size)
    if bad.size:
        g = bad[np.argmin(at[starts[bad]])]
        digits = unpack_digits(hkeys[starts[g], None].astype(np.int64), field.q, (d - 1) * n)
        raise CrossCheckViolation(f"(d-1)-subspace {_labels(digits, d - 1)[0].decode()} lies in "
                                  f"{sizes[g]} vertices, expected {size}")
    np.floor_divide(at, per_vertex, out=at)
    np.take(vertex, at, out=rows.reshape(-1), mode="clip")
    return labels, rows, keys


def build_grassmann(n: int, d: int, q: int,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Graph, CliqueSystem]:
    """d-dimensional subspaces of F_q^n, adjacent when meeting in dimension
    d-1.  Adjacency is assembled by bucketing vertices over their
    (d-1)-subspaces: adjacent vertices share exactly one, so within-bucket
    pairs list every edge exactly once, and the buckets are the cliques of
    the (M,1) system."""
    _require(2 <= 2 * d <= n, "2 <= 2d <= n")
    field = make_field(q)
    # [n, d]_q >= q^(d(n-d))
    _guard(_capped(d * (n - d) * (q.bit_length() - 1), lambda: gaussian_binomial(n, d, q)), cap,
           f"grassmann({n},{d},{q})",
           lambda: q * gaussian_binomial(d, 1, q) * gaussian_binomial(n - d, 1, q))
    clique_order = gaussian_binomial(n - d + 1, 1, q)
    labels, rows, keys = _hyperplane_buckets(subspace_bases(n, d, q), field, clique_order)
    g, S = _host_with_cliques(labels, rows, clique_order - 1, 1, "grassmann", (n, d, q))
    g.generators = lambda: _grassmann_generators(keys, d, n, field)
    return g, S


def _grassmann_generators(keys: np.ndarray, d: int, n: int, field) -> list[np.ndarray]:
    """Automorphisms of the Grassmann graph on the d-subspaces of F_q^n with
    the sorted pack_digits keys, as permutations of label order: U -> U M
    for the n-cycle permutation matrix (a roll of the columns), the
    transvection e_1 += e_2 (column 1 gains column 0) and, for q > 2,
    diag(w, 1, ..., 1) with w primitive (column 0 times w), which generate
    GL(n, q), so a transitive group.  The images are made one at a time; an
    image's index is searchsorted in the keys, -1 where no vertex has its key."""
    nv, q = len(keys), field.q
    bases = unpack_digits(keys, q, d * n).reshape(nv, d, n)
    perms = []
    for gen in ("cycle", "transvection", "diag")[:3 if q > 2 else 2]:
        image = np.roll(bases, 1, axis=2) if gen == "cycle" else bases.copy()
        if gen == "transvection":
            image[..., 1] = field.add_table[image[..., 1], image[..., 0]]
        elif gen == "diag":
            image[..., 0] = field.mul_table[_primitive_element(field), image[..., 0]]
        ikeys = pack_digits(rref_batch(image, field).reshape(nv, d * n), q)
        pos = np.minimum(np.searchsorted(keys, ikeys), nv - 1)
        perms.append(np.where(keys[pos] == ikeys, pos, -1))
    return perms


def _primitive_element(field) -> int:
    """The least element index whose powers, read off mul_table, are all
    q - 1 nonzero elements (index 1 is the identity)."""
    for w in range(2, field.q):
        x, order = w, 1
        while x != 1:
            x, order = field.mul_table[x, w], order + 1
        if order == field.q - 1:
            return w
    raise CrossCheckViolation(f"GF({field.q}) has no primitive element")


def grassmann_array(n: int, d: int, q: int) -> IntersectionArray:
    _require(2 <= 2 * d <= n, "2 <= 2d <= n")
    _require_field_order(q)
    b = tuple(q ** (2 * i + 1)
              * gaussian_binomial(d - i, 1, q)
              * gaussian_binomial(n - d - i, 1, q) for i in range(d))
    c = tuple(gaussian_binomial(i, 1, q) ** 2 for i in range(1, d + 1))
    return IntersectionArray(b[0], b, c)


# --- dual polar (hyperbolic type) ------------------------------------------------

def build_dual_polar_D(d: int, q: int,
                       cap: int = DEFAULT_ENUMERATION_CAP) -> Graph:
    """Maximal totally isotropic subspaces of the hyperbolic form on
    F_q^{2d}, adjacent when meeting in dimension d-1.  Bipartite and
    (q^d-1)/(q-1)-regular; each isotropic hyperplane lies in exactly two
    vertices, so buckets have size two; D_1(q) is the edge between the two
    isotropic points of the hyperbolic plane.  The vertices are found by
    filtering all d-subspaces of F_q^{2d}, so the cap bounds that candidate
    count."""
    _require(d >= 1, "d >= 1")
    field = make_field(q)
    # [2d, d]_q >= q^(d^2), and the vertices prod (q^(d-i) + 1) > q^(d(d-1)/2)
    bits = q.bit_length() - 1
    candidates = _capped(d * d * bits, lambda: gaussian_binomial(2 * d, d, q))
    if candidates is None or candidates > cap:
        vertices = _capped(d * (d - 1) // 2 * bits, lambda: isotropic_count_product(d, q))
        raise EnumerationTooLarge(
            f"dual_polar_D({d},{q}) has {_shown(vertices, ',')} vertices but would enumerate "
            f"{_shown(candidates, ',')} candidate {d}-subspaces, which exceeds cap {cap}")
    _guard(isotropic_count_product(d, q), cap, f"dual_polar_D({d},{q})",
           lambda: gaussian_binomial(d, 1, q))
    bases = subspace_bases(2 * d, d, q)
    bases = bases[totally_isotropic_mask(bases, field)]
    labels, edges, _ = _hyperplane_buckets(bases, field, 2)
    return Graph(labels, edges, family="dual_polar_D", params=(d, q))


def dual_polar_array(d: int, q: int) -> IntersectionArray:
    _require(d >= 1, "d >= 1")
    _require_field_order(q)
    b = tuple(q ** i * gaussian_binomial(d - i, 1, q) for i in range(d))
    c = tuple(gaussian_binomial(i, 1, q) for i in range(1, d + 1))
    return IntersectionArray(b[0], b, c)


# --- registry -----------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """One FAMILIES entry: builder, arity, closed-form expectations."""

    arity: int
    build: object                 # (*params, cap) -> Graph | (Graph, CliqueSystem)
    array: object                 # params -> IntersectionArray
    rho: object                   # params -> the diameter, read off before any array


FAMILIES = {
    "octahedron": FamilySpec(1, build_octahedron, octahedron_array, lambda n: 2),
    "hamming": FamilySpec(2, build_hamming, hamming_array, lambda n, q: n),
    "johnson": FamilySpec(2, build_johnson, johnson_array, lambda n, w: w),
    "halved_cube": FamilySpec(1, build_halved_cube, halved_cube_array, lambda n: n // 2),
    "shrikhande": FamilySpec(0, build_shrikhande, lambda: doob_array(1, 0), lambda: 2),
    "doob": FamilySpec(2, build_doob, doob_array, lambda m, n: 2 * m + n),
    "grassmann": FamilySpec(3, build_grassmann, grassmann_array, lambda n, d, q: d),
    "dual_polar_D": FamilySpec(2, build_dual_polar_D, dual_polar_array, lambda d, q: d),
}


def parse_family(spec: str) -> tuple[str, tuple[int, ...]]:
    """Parse 'name:p1,p2,...' strings, e.g. 'johnson:6,3' or 'shrikhande'."""
    name, _, rest = spec.partition(":")
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
    params = tuple(int(x) for x in rest.split(",")) if rest else ()
    if len(params) != FAMILIES[name].arity:
        raise ValueError(
            f"{name} takes {FAMILIES[name].arity} parameters, got {len(params)}")
    return name, params


def build_family(name: str, params: tuple[int, ...],
                 cap: int = DEFAULT_ENUMERATION_CAP):
    """Build a family instance under the enumeration cap; returns
    (Graph, CliqueSystem | None)."""
    out = FAMILIES[name].build(*params, cap=cap)
    return out if isinstance(out, tuple) else (out, None)


def family_array(name: str, params: tuple[int, ...],
                 cap: int = DEFAULT_ENUMERATION_CAP) -> IntersectionArray:
    """The closed-form array, refused with EnumerationTooLarge when its
    diameter passes isqrt(10 * cap), before the array or its parameter check:
    a Sturm count of the spectrum takes about rho^2 big-integer steps, bounded
    by 10 * cap as a build's adjacency entries are by 2,000 * cap, so the
    default cap admits rho = 1,000 (wd-bound in 0.1 s, spectrum in 1.7 s on
    H(1000,2)).  Every family host has at least 2^rho vertices, so the
    bound refuses no closed form of a host that the cap admits."""
    rho, bound = FAMILIES[name].rho(*params), isqrt(10 * cap)
    if rho > bound:
        raise EnumerationTooLarge(f"{name}({','.join(map(str, params))}): diameter {rho} "
                                  f"exceeds {bound}, the closed-form bound of cap {cap}")
    return FAMILIES[name].array(*params)
