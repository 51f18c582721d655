"""Generic finite-graph machinery: BFS distances, regularity, bipartiteness,
isometric subgraphs, completely regular sets, clique systems and
distance-regularity testing.

Every check returns a Verdict carrying a witness on failure, because a bare
"false" is not actionable when the point of the run is verification.  Heavy
counting loops are vectorized with numpy; all values involved are small
integers, so nothing leaves exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import CrossCheckViolation, Disconnected

# entries gathered at once, bounding the peak memory of CSR assembly, the clique-system
# check, the BFS frontier, the pulls of distances_among, bounded or not, the shell counts
# and the automorphism check; indexing casts int32 indices to intp, so 1 << 22 costs 50 MB
_GATHER_BLOCK = 1 << 20


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification, with payload on success or witness on failure."""

    ok: bool
    value: Any = None
    witness: Any = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class Graph:
    """Finite simple undirected graph with canonical string labels.

    Vertex order is the label order handed in by the constructor; family
    builders always pass labels sorted, so indices are reproducible across
    runs and serializations are byte-identical.  Edges, given as index pairs
    or as clique rows (which must meet every vertex equally often), are
    stored once, as CSR arrays: the neighbors of v are
    _flat[_off[v]:_off[v + 1]], sorted.
    """

    def __init__(self, labels, edges, family=None, params=None):
        self.labels = list(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        self.family = family
        self.params = tuple(params) if params is not None else None
        n = len(self.labels)
        if not n:
            raise ValueError("a graph needs at least one vertex")
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] < 2:
            raise ValueError("edges must be index pairs or cliques")
        e = vertex_indices(self, e).reshape(e.shape)
        if e.shape[1] > 2:      # rows of mutually adjacent vertices
            if (np.diff(np.sort(e, axis=1), axis=1) == 0).any():
                raise ValueError("loops are not allowed")
            incidence = np.bincount(e.ravel(), minlength=n)
            if (incidence != incidence[0]).any():
                raise ValueError("clique rows must meet every vertex equally often")
            self._flat, self._off = _csr_from_cliques(e, int(incidence[0]))
        else:
            if (e[:, 0] == e[:, 1]).any():
                raise ValueError("loops are not allowed")
            und = np.concatenate([e, e[:, ::-1]])
            keys = und[:, 0] * n + und[:, 1]
            del und             # before the sort, which sets the peak memory of large builds
            keys.sort()
            keys = keys[np.diff(keys, prepend=-1) != 0]
            self._flat = (keys % n).astype(np.int32)
            self._off = np.searchsorted(keys, np.arange(n + 1) * n)
        self._degrees = np.diff(self._off)
        regular = (self._degrees == self._degrees[0]).all()     # _rows[v]: v's CSR row
        self._rows = self._flat.reshape(n, self._degrees[0]) if regular else None
        self._dm = None
        # zero-argument callable returning automorphisms as permutation
        # arrays, set by builders that know some; only the certificate of
        # distance_regularity_check calls it
        self.generators = None

    # -- basic accessors ------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return int(len(self._flat)) // 2

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        return self._flat[self._off[v]:self._off[v + 1]]

    def neighbors_of(self, vs: np.ndarray) -> np.ndarray:
        """The neighbor rows of the vertices vs, concatenated in that order."""
        if self._rows is not None:
            return self._rows[vs].ravel()
        lens = self._degrees[vs]
        starts = self._off[vs] - (np.cumsum(lens) - lens)
        return self._flat[np.repeat(starts, lens) + np.arange(int(lens.sum()))]

    def index_of(self, label: str) -> int:
        return self._index[label]

    def edge_array(self) -> np.ndarray:
        """Edge pairs (i, j) with i < j as an (E, 2) array, lexicographically
        sorted."""
        heads = np.repeat(np.arange(self.num_vertices), self._degrees)
        up = heads < self._flat
        return np.stack([heads[up], self._flat[up]], axis=1)

    def edges(self):
        """Edge pairs (i, j) with i < j, lexicographically sorted, as Python
        ints.  Serves only the benchmark's builder probes; the package reads
        edge_array."""
        e = self.edge_array()
        return zip(e[:, 0].tolist(), e[:, 1].tolist())

    # -- distances --------------------------------------------------------

    def multi_source_distances(self, sources) -> np.ndarray:
        """Distances from a vertex set; -1 marks unreachable vertices."""
        return self._bfs(sources)

    def _bfs(self, sources, depth=None) -> np.ndarray:
        """multi_source_distances, with -1 also beyond depth levels if given.

        Level-synchronous BFS: each level gathers the frontier's CSR rows, a
        block of at most _GATHER_BLOCK entries at a time, and keeps the
        unreached vertices, deduplicated by the mask dist == level.  It stops
        once every vertex has its distance."""
        sources = vertex_indices(self, sources)
        if not sources.size:
            raise ValueError("empty source set")
        dist = np.full(self.num_vertices, -1, dtype=np.int32)
        dist[sources] = 0
        frontier = np.flatnonzero(dist == 0)
        unreached = self.num_vertices - frontier.size
        step = max(1, _GATHER_BLOCK // max(1, int(self._degrees.max())))
        level = 0
        while frontier.size and unreached and level != depth:
            level += 1
            for f0 in range(0, frontier.size, step):
                nbrs = self.neighbors_of(frontier[f0:f0 + step])
                dist[nbrs[dist[nbrs] < 0]] = level
            frontier = np.flatnonzero(dist == level)
            unreached -= frontier.size
        return dist

    def distances_among(self, verts, depth=None) -> np.ndarray:
        """Distances between the vertices verts as a matrix, -1 marking
        unreachable pairs, by bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD
        2013): reach[v] has a bit, 64 to a uint64 word, for each source within
        the current level of v.  A level ORs the reach rows of v's neighbors;
        the bits v lacked, read at verts, are the pairs at that distance.

        With depth, pairs farther apart stay -1; level 1 pushes each source's
        bit to its neighbors, and level j >= 2 pulls only over the rows within
        depth - j of verts (after Beamer, Asanovic and Patterson, SC 2012)."""
        verts = vertex_indices(self, verts)
        m, src = len(verts), np.arange(len(verts))
        word, bit = src // 64, np.uint64(1) << (src % 64).astype(np.uint64)
        reach = np.zeros((self.num_vertices, (m + 63) // 64), dtype="<u8")
        np.bitwise_or.at(reach, (verts, word), bit)
        step = max(1, _GATHER_BLOCK // max(1, int(self._degrees.max())))
        pull = np.flatnonzero(self._degrees)            # reduceat needs nonempty rows
        if depth is not None:       # the vertices beyond depth - 2 of verts never pull
            near = self._bfs(verts, depth=max(0, depth - 2))
            near[near < 0] = depth
        dist = np.full((m, m), -1, dtype=np.int32)
        new, level = reach, 0
        while True:
            bits = np.unpackbits(new[verts].view(np.uint8), axis=1, count=m, bitorder="little")
            dist[bits.T == 1] = level
            if (dist >= 0).all() or level == depth:
                return dist
            new = np.zeros_like(reach)
            rows = pull if depth is None else pull[near[pull] < depth - level]
            if depth is not None and not level:     # level 1 pushes instead
                rows, lens = pull[:0], self._degrees[verts]
                np.bitwise_or.at(new, (self.neighbors_of(verts), np.repeat(word, lens)),
                                 np.repeat(bit, lens))
            for i in range(0, len(rows), step):
                vs = rows[i:i + step]
                lens = self._degrees[vs]
                new[vs] = np.bitwise_or.reduceat(reach[self.neighbors_of(vs)],
                                                 np.cumsum(lens) - lens, axis=0)
            new &= ~reach
            if not new.any():
                return dist
            reach |= new
            level += 1

    def distance_matrix(self) -> np.ndarray:
        """Full distance matrix by the bit-parallel BFS, cached; rows are
        BFS distance vectors."""
        if self._dm is None:
            dm = self.distances_among(np.arange(self.num_vertices))
            if (dm < 0).any():
                raise Disconnected("graph is disconnected")
            self._dm = dm
        return self._dm

    def __repr__(self):
        tag = f" {self.family}{self.params}" if self.family else ""
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges{tag})"


@dataclass(frozen=True)
class IntersectionArray:
    """Sequence (b_0,...,b_{rho-1}; c_1,...,c_rho) attached to degree k.

    a_i = k - b_i - c_i with the conventions b_rho = c_0 = 0.
    """

    k: int
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        if len(self.b) != len(self.c):
            raise ValueError("b and c must have equal length")
        if any(x <= 0 for x in self.b) or any(x <= 0 for x in self.c):
            raise ValueError("b_i (i < rho) and c_i (i >= 1) must be positive")
        for i in range(self.rho + 1):
            if self.a(i) < 0:
                raise ValueError(f"a_{i} = {self.a(i)} negative")

    @property
    def rho(self) -> int:
        return len(self.b)

    def b_at(self, i: int) -> int:
        return self.b[i] if i < self.rho else 0

    def c_at(self, i: int) -> int:
        return self.c[i - 1] if i >= 1 else 0

    def a(self, i: int) -> int:
        return self.k - self.b_at(i) - self.c_at(i)

    def __str__(self):
        bs = ",".join(str(x) for x in self.b)
        cs = ",".join(str(x) for x in self.c)
        return f"({bs};{cs})"


@dataclass(frozen=True, eq=False)
class CliqueSystem:
    """A set of (s+1)-cliques covering every host edge exactly m times.

    The cliques are stored as one (N, s+1) integer array, one clique per
    row; any rectangular sequence of rows of host vertices is accepted."""

    host: Graph
    cliques: np.ndarray
    s: int
    m: int

    def __post_init__(self):
        try:
            rows = np.asarray(self.cliques).reshape(len(self.cliques), self.s + 1)
        except ValueError:
            raise ValueError("clique of wrong size in system") from None
        object.__setattr__(self, "cliques", vertex_indices(self.host, rows).reshape(rows.shape))

    def __repr__(self):
        return f"CliqueSystem({len(self.cliques)} cliques of size {self.s + 1}, m={self.m})"


def _co_members(rows: np.ndarray, r: int):
    """Co-members in the rows of an (N, w) array, every vertex in r rows (a
    vertex twice in a row is among its own co-members): yields (v0, block)
    per block of vertices, block[i] the sorted r(w-1) entries sharing a row
    with v0 + i.  A vertex gathers its rows (a stable argsort of the entries)
    into one reused buffer (take buffers its out unless mode="clip") and
    overwrites itself by -1, which the sort puts first."""
    w = rows.shape[1]
    rows = rows.astype(np.int32)
    at = np.argsort(rows, axis=None, kind="stable").reshape(-1, r)
    step = min(len(at), max(1, _GATHER_BLOCK // (r * w)))
    buf = np.empty((step, r * w), dtype=np.int32)
    for v0 in range(0, len(at), step):
        p, block = at[v0:v0 + step], buf[:len(at) - v0]
        np.take(rows, p // w, axis=0, out=block.reshape(-1, r, w), mode="clip")
        block[np.arange(len(p))[:, None], p % w + np.arange(0, r * w, w)] = -1
        block.sort(axis=1)
        yield v0, block[:, r:]


def _csr_from_cliques(rows: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the pairs within the rows of an (N, w) array, every vertex in r
    rows and none twice in a row: one of each run of a vertex's co-members,
    written into one array of the gathered size, trimmed in place."""
    n = rows.size // r
    flat = np.empty(n * r * (rows.shape[1] - 1), dtype=np.int32)
    off = np.zeros(n + 1, dtype=np.int64)
    for v0, nbrs in _co_members(rows, r):
        keep = np.ones(nbrs.shape, dtype=bool)
        np.not_equal(nbrs[:, 1:], nbrs[:, :-1], out=keep[:, 1:])
        ends = off[v0] + np.cumsum(np.count_nonzero(keep, axis=1))
        flat[off[v0]:ends[-1]] = nbrs[keep]
        off[v0 + 1:v0 + 1 + len(ends)] = ends
    flat.resize(off[-1], refcheck=False)
    return flat, off


# --- verdict-style checks -----------------------------------------------------


def is_regular(g: Graph) -> Verdict:
    """Common degree as value, or a witness vertex of deviating degree.  A
    graph has its (n, k) row view exactly when it is regular, so only an
    irregular graph is scanned, for its witness."""
    if g._rows is not None:
        return Verdict(True, value=g._rows.shape[1])
    degs = g.degrees
    k = int(degs[0])
    v = int(np.flatnonzero(degs != k)[0])
    return Verdict(False, witness=(g.labels[v], int(degs[v]), k),
                   detail="degree deviates from vertex 0")


def vertex_indices(g: Graph, vertices) -> np.ndarray:
    """The vertices as an int64 index array, refused with ValueError unless
    each is an integer index of g: numpy would truncate a float, wrap a
    negative index and fail with a bare IndexError past the end."""
    out = np.asarray(vertices if isinstance(vertices, np.ndarray) else list(vertices)).ravel()
    if out.size and (out.dtype.kind not in "iu" or out.min() < 0 or out.max() >= g.num_vertices):
        raise ValueError("vertex index out of range")
    return out.astype(np.int64, copy=False)


def vertex_mask(g: Graph, vertices) -> np.ndarray:
    """Boolean indicator of a vertex set over the vertices of g, for
    indices that vertex_indices has accepted."""
    out = np.zeros(g.num_vertices, dtype=bool)
    out[list(vertices)] = True
    return out


def induced_subgraph(g: Graph, verts) -> tuple[Graph, list[int]]:
    """Subgraph on verts with inherited labels; second item maps subgraph
    indices back to host indices."""
    hosts = np.flatnonzero(vertex_mask(g, vertex_indices(g, verts)))
    if not hosts.size:
        raise ValueError("empty vertex set")
    back = hosts.tolist()
    pos = np.full(g.num_vertices, -1, dtype=np.int64)
    pos[hosts] = np.arange(len(back))
    heads = np.repeat(hosts, g.degrees[hosts])
    nbrs = g.neighbors_of(hosts)
    keep = (pos[nbrs] >= 0) & (heads < nbrs)
    edges = np.stack([pos[heads[keep]], pos[nbrs[keep]]], axis=1)
    sub = Graph([g.labels[h] for h in back], edges)
    return sub, back


def is_isometric_subgraph(g: Graph, verts) -> Verdict:
    """True iff induced-subgraph distances equal host distances on verts, both
    from one bit-parallel BFS (Graph.distances_among); the witness is the
    first pair i < j, row by row, whose distances differ.  On success the
    value is the induced subgraph, its distance matrix cached.  A subgraph
    path is a host path, so a connected subgraph's diameter bounds the search."""
    sub, back = induced_subgraph(g, verts)
    dsub = sub.distances_among(np.arange(sub.num_vertices))
    dhost = g.distances_among(back, depth=int(dsub.max()) if (dsub >= 0).all() else None)
    if (dhost < 0).any():
        i, j = np.argwhere(dhost < 0)[0].tolist()
        raise Disconnected(f"vertex {sub.labels[j]!r} unreachable from {sub.labels[i]!r}")
    bad = np.argwhere(np.triu(dsub != dhost, 1))
    if not bad.size:
        sub._dm = dsub          # equal to dhost, so connected
        return Verdict(True, value=sub)
    i, j = bad[0].tolist()
    dij = int(dsub[i, j])
    return Verdict(False, witness=(sub.labels[i], sub.labels[j], None if dij < 0 else dij,
                                   int(dhost[i, j])),
                   detail="internal distance differs from host distance")


def is_bipartite(g: Graph) -> Verdict:
    """Distance parity from vertex 0 as the 2-coloring, or an odd cycle: the
    first CSR edge with both ends at one distance, closed by stepping each end
    to its least-index neighbor nearer vertex 0 until the two paths meet."""
    dist = g.multi_source_distances([0])
    heads = np.repeat(np.arange(g.num_vertices), g.degrees)
    same = np.flatnonzero((dist[heads] == dist[g._flat]) & (dist[heads] >= 0))
    if same.size:
        paths = [[int(heads[same[0]])], [int(g._flat[same[0]])]]
        while paths[0][-1] != paths[1][-1]:
            for p in paths:
                nbrs = g.neighbors(p[-1])
                p.append(int(nbrs[dist[nbrs] == dist[p[-1]] - 1][0]))
        cycle = paths[0] + paths[1][-2::-1]
        return Verdict(False, witness=[g.labels[x] for x in cycle], detail="odd cycle")
    if (dist < 0).any():
        raise Disconnected("2-coloring undefined on a disconnected graph")
    return Verdict(True, value=tuple((dist % 2).tolist()))


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of a flat array cut at offsets (robust to empty
    segments, unlike reduceat), in the dtype of values: object arrays of
    Python ints sum exactly."""
    c = np.concatenate(([0], np.cumsum(values)))
    return c[offsets[1:]] - c[offsets[:-1]]


def _shell_counts(g: Graph, dist: np.ndarray, k: int):
    """Counts of the neighbors one shell out (fwd) and one shell in (bwd) of
    every vertex, relative to each distance row of dist, (n,) or (m, n), on a
    k-regular graph; a block of vertices at a time, gathering at most
    _GATHER_BLOCK entries of the narrowest signed type that holds dist."""
    n, rows = g.num_vertices, g._rows
    dist = dist.astype(np.min_scalar_type(-1 - int(dist.max())), copy=False)
    fwd, bwd = np.empty(dist.shape, dtype=np.int64), np.empty(dist.shape, dtype=np.int64)
    step = max(1, _GATHER_BLOCK // max(1, k * (dist.size // n)))
    for v0 in range(0, n, step):
        block = slice(v0, v0 + step)
        diff = dist.take(rows[block], axis=-1)
        diff -= dist[..., block, None]
        fwd[..., block] = np.count_nonzero(diff == 1, axis=-1)
        bwd[..., block] = np.count_nonzero(diff == -1, axis=-1)
    return fwd, bwd


def _uniform_array(g: Graph, dist: np.ndarray, k: int):
    """(IntersectionArray, None) if shell counts of the k-regular graph g are
    uniform per distance, else (None, witness)."""
    fwd, bwd = _shell_counts(g, dist, k)
    b, c = [], []
    for i in range(int(dist.max()) + 1):
        shell = np.flatnonzero(dist == i)
        for way, counts, out in (("forward", fwd[shell], b), ("backward", bwd[shell], c)):
            lo, hi = int(counts.min()), int(counts.max())
            if lo != hi:
                return None, (g.labels[int(shell[int(counts.argmin())])], i, way, lo, hi)
            out.append(lo)
    return IntersectionArray(k, tuple(b[:-1]), tuple(c[1:])), None


def completely_regular_check(g: Graph, C) -> Verdict:
    """Intersection array of the set C as value, or a witness of failure.

    Partitions vertices by distance to C and demands that forward/backward
    neighbor counts depend only on the distance.
    """
    return _completely_regular(g, C)[0]


def _completely_regular(g: Graph, C) -> tuple[Verdict, np.ndarray | None]:
    """completely_regular_check's verdict, with the distances to C it read
    the shells from (None when the host is not regular)."""
    reg = is_regular(g)
    if not reg.ok:
        return Verdict(False, witness=reg.witness, detail="host graph not regular"), None
    dist = g.multi_source_distances(C)
    if (dist < 0).any():
        raise Disconnected("set does not reach the whole graph")
    arr, witness = _uniform_array(g, dist, reg.value)
    if arr is None:
        return Verdict(False, witness=witness, detail="non-uniform shell counts"), dist
    return Verdict(True, value=arr), dist


def distance_regularity_check(g: Graph) -> Verdict:
    """Common singleton intersection array as value, else a witness: the
    first vertex with non-uniform shell counts, or whose array differs from
    vertex 0's (b_i neighbors out and c_i in at distance i).

    When the generators are transitive (_transitive), every singleton is the
    image of {0}, so vertex 0's BFS row is the only row read, in O(E) memory
    at any size; otherwise every row of the distance matrix is, a block of
    sources at a time."""
    reg = is_regular(g)
    if not reg.ok:
        return Verdict(False, witness=reg.witness, detail="not regular")
    k, n = reg.value, g.num_vertices
    if g.generators is not None and _transitive(g, g.generators(), k):
        dm = g.multi_source_distances([0])[None]
        if (dm < 0).any():
            raise Disconnected("graph is disconnected")
    else:
        dm = g.distance_matrix()
    common, witness = _uniform_array(g, dm[0], k)
    if common is None:
        return Verdict(False, witness=(g.labels[0],) + witness,
                       detail="singleton not completely regular")
    b, c = np.array(common.b + (0,)), np.array((0,) + common.c)
    step = max(1, _GATHER_BLOCK // max(1, n * k))
    for x0 in range(1, len(dm), step):
        dist = dm[x0:x0 + step]
        fwd, bwd = _shell_counts(g, dist, k)
        at = np.minimum(dist, common.rho)
        bad = np.flatnonzero((dist.max(axis=1) != common.rho)
                             | (fwd != b[at]).any(axis=1) | (bwd != c[at]).any(axis=1))
        if bad.size:
            x = x0 + int(bad[0])
            arr, witness = _uniform_array(g, dm[x], k)
            if arr is None:
                return Verdict(False, witness=(g.labels[x],) + witness,
                               detail="singleton not completely regular")
            return Verdict(False, witness=(g.labels[x], str(arr), str(common)),
                           detail="intersection array differs between vertices")
    return Verdict(True, value=common)


def _transitive(g: Graph, perms, k: int) -> bool:
    """True when the permutations generate a group transitive on the
    vertices of the k-regular graph g, i.e. the orbit of vertex 0 is every
    vertex.  A permutation that is not one, or that maps an edge to a
    non-edge, raises CrossCheckViolation."""
    n, rows = g.num_vertices, g._rows
    step = max(1, _GATHER_BLOCK // max(1, k))
    perms = [np.asarray(p) for p in perms]
    for i, p in enumerate(perms):
        if (p.shape != (n,) or p.dtype.kind not in "iu"
                or not np.array_equal(np.sort(p), np.arange(n))):
            raise CrossCheckViolation(f"generator {i} is not a permutation of the {n} vertices")
        # p maps the neighbors of v into those of p(v), in a block of vertices at a time
        for v0 in range(0, n, step):
            image = p[rows[v0:v0 + step]]
            image.sort(axis=1)
            bad = np.flatnonzero((image != rows[p[v0:v0 + step]]).any(axis=1))
            if bad.size:
                v = v0 + int(bad[0])
                u = next(u for u in rows[v].tolist() if p[u] not in rows[p[v]])
                labs = [g.labels[x] for x in (v, u, p[v], p[u])]
                raise CrossCheckViolation(
                    f"generator {i} maps edge {labs[0]}-{labs[1]} to non-edge {labs[2]}-{labs[3]}")
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        fresh = np.zeros(n, dtype=bool)
        fresh[np.concatenate([p[frontier] for p in perms])] = True
        seen, frontier = seen | fresh, np.flatnonzero(fresh & ~seen)
    return bool(seen.all())


def verify_clique_system(g: Graph, S: CliqueSystem) -> Verdict:
    """Checks clique-ness, uniform size s+1, and exact edge multiplicity m:
    on a k-regular host (k > 0) with every vertex in r rows and r*s = k*m,
    m >= 1, by comparing each vertex's co-members with its CSR row taken m
    times, a block of vertices at a time; otherwise, or where a block
    differs, by looking each pair up in the edge keys u*n+v (u < v), which
    names the first bad clique or the first edge of wrong multiplicity (a row
    repeating a vertex fails the comparison: no CSR row holds its own vertex)."""
    n, k = g.num_vertices, is_regular(g).value
    holds = Verdict(True, value=(int(g.degrees[0]), S.s, S.m))
    if k and S.m >= 1:
        incidence = np.bincount(S.cliques.ravel(), minlength=n)
        r, csr = int(incidence[0]), g._rows[..., None]
        if (incidence == r).all() and r * S.s == k * S.m and all(
                (nbrs.reshape(-1, k, S.m) == csr[v0:v0 + len(nbrs)]).all()
                for v0, nbrs in _co_members(S.cliques, r)):
            return holds
    rows = np.sort(S.cliques, axis=1)
    repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    i, j = np.triu_indices(rows.shape[1], 1)
    keys = rows[:, i] * n + rows[:, j]
    edges = g.edge_array()
    edge_keys = edges[:, 0] * n + edges[:, 1]
    pos = np.searchsorted(edge_keys, keys)
    is_edge = np.append(edge_keys, -1)[pos] == keys
    bad = repeated | ~is_edge.all(axis=1)
    if bad.any():
        ci = int(np.argmax(bad))
        if repeated[ci]:
            return Verdict(False, witness=ci, detail="clique of wrong size")
        p = int(np.argmin(is_edge[ci]))
        u, v = rows[ci, i[p]], rows[ci, j[p]]
        return Verdict(False, witness=(ci, g.labels[u], g.labels[v]),
                       detail="clique contains a non-edge")
    got = np.bincount(pos.ravel(), minlength=len(edge_keys))
    wrong = np.flatnonzero(got != S.m)
    if wrong.size:
        u, v = edges[wrong[0]].tolist()
        return Verdict(False, witness=(g.labels[u], g.labels[v], int(got[wrong[0]]), S.m),
                       detail="edge multiplicity mismatch")
    return holds


def graph_to_json(g: Graph) -> dict:
    """Serialization with vertices sorted by label and lexicographic edges,
    bit-exact across runs."""
    if g.labels != sorted(g.labels):
        raise CrossCheckViolation("graph_to_json: constructors must sort labels")
    return {
        "family": g.family,
        "params": list(g.params) if g.params is not None else None,
        "vertices": list(g.labels),
        "edges": g.edge_array().tolist(),
    }
