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

# CSR entries gathered at once, bounding the peak memory of distances_among,
# the shell counts and the automorphism check
_GATHER_BLOCK = 1 << 22


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
    or as clique rows, are stored once, as CSR arrays: the neighbors of v
    are _flat[_off[v]:_off[v + 1]], sorted.
    """

    def __init__(self, labels, edges, family=None, params=None):
        self.labels = list(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate vertex labels")
        self.family = family
        self.params = tuple(params) if params is not None else None
        n = len(self.labels)
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] < 2:
            raise ValueError("edges must be index pairs or cliques")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError("edge endpoint out of range")
        if e.shape[1] > 2:      # rows of mutually adjacent vertices
            if (np.diff(np.sort(e, axis=1), axis=1) == 0).any():
                raise ValueError("loops are not allowed")
            incidence = np.bincount(e.ravel(), minlength=n)
            if (incidence == incidence[0]).all():
                self._flat, self._off = _csr_from_cliques(e, int(incidence[0]))
            else:
                e = clique_pairs(e).reshape(-1, 2)
        if e.shape[1] == 2:
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
        self._index = {lab: i for i, lab in enumerate(self.labels)}
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

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        return self._flat[self._off[v]:self._off[v + 1]]

    def neighbors_of(self, vs: np.ndarray) -> np.ndarray:
        """The neighbor rows of the vertices vs, concatenated in that order."""
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
        """Distances from a vertex set; -1 marks unreachable vertices.

        Level-synchronous BFS: each level gathers the frontier's CSR rows and
        keeps the unreached vertices, deduplicated by the mask dist == level.
        It stops once every vertex has its distance."""
        sources = list(sources)
        if not sources:
            raise ValueError("empty source set")
        dist = np.full(self.num_vertices, -1, dtype=np.int32)
        dist[sources] = 0
        frontier = np.flatnonzero(dist == 0)
        unreached = self.num_vertices - frontier.size
        level = 0
        while frontier.size and unreached:
            nbrs = self.neighbors_of(frontier)
            level += 1
            dist[nbrs[dist[nbrs] < 0]] = level
            frontier = np.flatnonzero(dist == level)
            unreached -= frontier.size
        return dist

    def distances_among(self, verts) -> np.ndarray:
        """Distances between the vertices verts as a matrix, -1 marking
        unreachable pairs, by bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD
        2013): reach[v] has a bit, 64 to a uint64 word, for each source within
        the current level of v.  A level ORs the reach rows of v's neighbors;
        the bits v lacked, read at verts, are the pairs at that distance."""
        verts = np.asarray(verts, dtype=np.int64).reshape(-1)
        m, src = len(verts), np.arange(len(verts))
        reach = np.zeros((self.num_vertices, (m + 63) // 64), dtype="<u8")
        np.bitwise_or.at(reach, (verts, src // 64), np.uint64(1) << (src % 64).astype(np.uint64))
        step = max(1, _GATHER_BLOCK // max(1, int(self._degrees.max(initial=0))))
        dist = np.full((m, m), -1, dtype=np.int32)
        new, level = reach, 0
        while True:
            bits = np.unpackbits(new[verts].view(np.uint8), axis=1, count=m, bitorder="little")
            dist[bits.T == 1] = level
            if (dist >= 0).all():
                return dist
            new = np.zeros_like(reach)
            for v0 in range(0, self.num_vertices, step):
                # reduceat needs nonempty rows; those of a vertex range are one run of _flat
                vs = v0 + np.flatnonzero(self._degrees[v0:v0 + step])
                if vs.size:
                    lo, hi = self._off[vs[0]], self._off[vs[-1] + 1]
                    new[vs] = np.bitwise_or.reduceat(reach[self._flat[lo:hi]],
                                                     self._off[vs] - lo, axis=0)
            new &= ~reach
            if not new.any():
                return dist
            reach |= new
            level += 1

    def distances_from(self, x: int) -> np.ndarray:
        if self._dm is not None:
            return self._dm[x]
        dist = self.multi_source_distances([x])
        if (dist < 0).any():
            bad = int(np.flatnonzero(dist < 0)[0])
            raise Disconnected(
                f"vertex {self.labels[bad]!r} unreachable from {self.labels[x]!r}")
        return dist

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
    row; any rectangular sequence of rows is accepted."""

    host: Graph
    cliques: np.ndarray
    s: int
    m: int

    def __post_init__(self):
        try:
            rows = np.asarray(self.cliques, dtype=np.int64).reshape(
                len(self.cliques), self.s + 1)
        except ValueError:
            raise ValueError("clique of wrong size in system") from None
        object.__setattr__(self, "cliques", rows)

    def __repr__(self):
        return f"CliqueSystem({len(self.cliques)} cliques of size {self.s + 1}, m={self.m})"


def _csr_from_cliques(rows: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the pairs within the rows of an (N, w) array, every vertex in r
    rows and none twice in a row: each vertex gathers its rows, drops itself,
    sorts the rest and keeps one of each run (an edge may lie in m > 1 rows)."""
    flat = rows.astype(np.int32).ravel()
    n, w = len(flat) // r, rows.shape[1]
    nbrs = flat.reshape(-1, w)[np.argsort(flat, kind="stable").reshape(n, r) // w]
    nbrs = nbrs[nbrs != np.arange(n, dtype=np.int32)[:, None, None]].reshape(n, r * (w - 1))
    nbrs.sort(axis=1)
    keep = np.ones(nbrs.shape, dtype=bool)
    np.not_equal(nbrs[:, 1:], nbrs[:, :-1], out=keep[:, 1:])
    return nbrs[keep], np.concatenate(([0], np.cumsum(keep.sum(axis=1))))


# --- verdict-style checks -----------------------------------------------------


def is_regular(g: Graph) -> Verdict:
    """Common degree as value, or a witness vertex of deviating degree."""
    degs = g.degrees
    k = int(degs[0])
    bad = np.flatnonzero(degs != k)
    if bad.size:
        v = int(bad[0])
        return Verdict(False, witness=(g.labels[v], int(degs[v]), k),
                       detail="degree deviates from vertex 0")
    return Verdict(True, value=k)


def vertex_mask(g: Graph, vertices) -> np.ndarray:
    """Boolean indicator of a vertex set over the vertices of g."""
    out = np.zeros(g.num_vertices, dtype=bool)
    out[list(vertices)] = True
    return out


def induced_subgraph(g: Graph, verts) -> tuple[Graph, list[int]]:
    """Subgraph on verts with inherited labels; second item maps subgraph
    indices back to host indices."""
    back = sorted(set(int(v) for v in verts))
    if not back:
        raise ValueError("empty vertex set")
    hosts = np.array(back)
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
    first pair i < j, row by row, whose distances differ."""
    sub, back = induced_subgraph(g, verts)
    dhost = g.distances_among(back)
    if (dhost < 0).any():
        i, j = np.argwhere(dhost < 0)[0].tolist()
        raise Disconnected(f"vertex {sub.labels[j]!r} unreachable from {sub.labels[i]!r}")
    dsub = sub.distances_among(np.arange(sub.num_vertices))
    bad = np.argwhere(np.triu(dsub != dhost, 1))
    if not bad.size:
        return Verdict(True)
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
    k-regular graph, whose CSR rows form an (n, k) array; a block of vertices
    at a time, gathering at most _GATHER_BLOCK entries."""
    n = g.num_vertices
    rows = g._flat.reshape(n, k)
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
    rho = int(dist.max())
    b, c = [], []
    for i in range(rho + 1):
        shell = np.flatnonzero(dist == i)
        fv = fwd[shell]
        bv = bwd[shell]
        if int(fv.min()) != int(fv.max()):
            v = int(shell[int(fv.argmin())])
            return None, (g.labels[v], i, "forward", int(fv.min()), int(fv.max()))
        if int(bv.min()) != int(bv.max()):
            v = int(shell[int(bv.argmin())])
            return None, (g.labels[v], i, "backward", int(bv.min()), int(bv.max()))
        if i < rho:
            b.append(int(fv[0]))
        if i >= 1:
            c.append(int(bv[0]))
    return IntersectionArray(k, tuple(b), tuple(c)), None


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
    C = sorted(set(int(v) for v in C))
    if not C:
        raise ValueError("empty vertex set")
    dist = g.multi_source_distances(C)
    if (dist < 0).any():
        raise Disconnected("set does not reach the whole graph")
    arr, witness = _uniform_array(g, dist, reg.value)
    if arr is None:
        return Verdict(False, witness=witness, detail="non-uniform shell counts"), dist
    return Verdict(True, value=arr), dist


def distance_regularity_check(g: Graph) -> Verdict:
    """Common singleton intersection array as value, else a witness.

    A graph with generators gets the automorphism certificate
    (_transitive_certificate), in O(E) memory at any size; without
    generators, or when they are not transitive, the sweep reads every
    singleton off the distance matrix."""
    reg = is_regular(g)
    if not reg.ok:
        return Verdict(False, witness=reg.witness, detail="not regular")
    if g.generators is not None:
        proof = _transitive_certificate(g, g.generators(), reg.value)
        if proof is not None:
            return proof
    return _distance_regularity_sweep(g, reg.value)


def _distance_regularity_sweep(g: Graph, k: int) -> Verdict:
    """distance_regularity_check on a k-regular graph, every singleton read
    off the distance matrix, a block of sources at a time, against vertex
    0's array: b_i neighbors out and c_i in at distance i.  The first vertex
    with non-uniform shell counts, or whose array differs from vertex 0's,
    is the witness."""
    dm = g.distance_matrix()
    n = g.num_vertices
    # the narrowest signed type that holds the distances: the gathers move fewer bytes
    narrow = dm.astype(np.min_scalar_type(-1 - int(dm.max())))
    common, witness = _uniform_array(g, dm[0], k)
    if common is None:
        return Verdict(False, witness=(g.labels[0],) + witness,
                       detail="singleton not completely regular")
    b, c = np.array(common.b + (0,)), np.array((0,) + common.c)
    step = max(1, _GATHER_BLOCK // max(1, n * k))
    for x0 in range(0, n, step):
        dist = narrow[x0:x0 + step]
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


def _transitive_certificate(g: Graph, perms, k: int) -> Verdict | None:
    """distance_regularity_check on a k-regular graph with automorphisms:
    when the permutations generate a group transitive on the vertices, every
    singleton is the image of {0}, so the graph is distance-regular iff {0}
    is completely regular, with its array (a failure is the sweep's own
    witness at vertex 0).  None when the orbit of vertex 0 is not every
    vertex.  A permutation that is not one, or that maps an edge to a
    non-edge, raises CrossCheckViolation."""
    n = g.num_vertices
    rows = g._flat.reshape(n, k)
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
        image = np.concatenate([p[frontier] for p in perms])
        frontier = np.unique(image[~seen[image]])
        seen[frontier] = True
    if not seen.all():
        return None
    dist = g.multi_source_distances([0])
    if (dist < 0).any():
        raise Disconnected("graph is disconnected")
    arr, witness = _uniform_array(g, dist, k)
    if arr is None:
        return Verdict(False, witness=(g.labels[0],) + witness,
                       detail="singleton not completely regular")
    return Verdict(True, value=arr)


def clique_pairs(cliques: np.ndarray) -> np.ndarray:
    """The vertex pairs inside each row of an (N, s+1) array, as an
    (N, s(s+1)/2, 2) array; pairs of a row come in lexicographic position
    order, (0,1), (0,2), ..., (1,2), ..."""
    i, j = np.triu_indices(cliques.shape[1], 1)
    return np.stack([cliques[:, i], cliques[:, j]], axis=2)


def verify_clique_system(g: Graph, S: CliqueSystem) -> Verdict:
    """Checks clique-ness, uniform size s+1, and exact edge multiplicity m.

    The system holds when the sorted keys u*n+v (u <= v) of the
    within-clique pairs are the host's edge keys (u < v), each m times.
    Otherwise each pair is looked up in the edge keys, to name the first
    bad clique or the first edge of wrong multiplicity."""
    n = g.num_vertices
    holds = Verdict(True, value=(int(g.degrees[0]) if n else 0, S.s, S.m))
    rows = np.sort(S.cliques, axis=1)
    i, j = np.triu_indices(rows.shape[1], 1)
    keys = rows[:, i] * n + rows[:, j]
    edges = g.edge_array()
    edge_keys = edges[:, 0] * n + edges[:, 1]
    if S.m >= 0 and np.array_equal(np.sort(keys, axis=None), np.repeat(edge_keys, S.m)):
        return holds
    repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
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
