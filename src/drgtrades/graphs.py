"""Generic finite-graph machinery: BFS distances, regularity, bipartiteness,
isometric subgraphs, completely regular sets, clique systems and
distance-regularity testing.

Every check returns a Verdict carrying a witness on failure, because a bare
"false" is not actionable when the point of the run is verification.  Heavy
counting loops are vectorized with numpy; all values involved are small
integers, so nothing leaves exact arithmetic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import CliqueSearchTooLarge, Disconnected

# Graphs up to this many vertices get a cached dense distance matrix
# (computed by level-synchronous BFS over a float32 adjacency product;
# all counts stay below 2**24, hence exact).  Larger graphs fall back to
# per-source BFS.
DENSE_DISTANCE_CAP = 4096

# CSR entries distances_among gathers at once, bounding its peak memory
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
        """Edge pairs (i, j) with i < j, lexicographically sorted."""
        e = self.edge_array()
        return zip(e[:, 0].tolist(), e[:, 1].tolist())

    # -- distances --------------------------------------------------------

    def multi_source_distances(self, sources) -> np.ndarray:
        """Distances from a vertex set; -1 marks unreachable vertices.

        Level-synchronous BFS: each level gathers the frontier's CSR rows and
        keeps the unreached vertices, deduplicated by the mask dist == level."""
        sources = list(sources)
        if not sources:
            raise ValueError("empty source set")
        dist = np.full(self.num_vertices, -1, dtype=np.int32)
        dist[sources] = 0
        frontier = np.flatnonzero(dist == 0)
        level = 0
        while frontier.size:
            nbrs = self.neighbors_of(frontier)
            level += 1
            dist[nbrs[dist[nbrs] < 0]] = level
            frontier = np.flatnonzero(dist == level)
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

    @property
    def is_connected(self) -> bool:
        return not (self.multi_source_distances([0]) < 0).any()

    def distance_matrix(self) -> np.ndarray:
        """Full distance matrix, cached.  Rows are BFS distance vectors."""
        if self._dm is None:
            self._dense_bfs()
        return self._dm

    def _dense_bfs(self, k: int | None = None) -> IntersectionArray | None:
        """Level-synchronous BFS from every vertex at once; caches the
        distance matrix D.

        Level j multiplies its frontier F_j = (D == j) by the float32
        adjacency A.  P_j = F_j @ A counts, at [x, y], the neighbors of y at
        distance j from x, so it holds a_j on F_j itself and c_{j+1} on the
        next frontier.  With the degree k given, returns the intersection
        array (b_j = k - a_j - c_j) if each of these counts is uniform over
        its pairs, else None.  Every count is at most n <= DENSE_DISTANCE_CAP
        < 2**24, so the products are exact.
        """
        n = self.num_vertices
        if n > DENSE_DISTANCE_CAP:
            raise MemoryError(
                f"dense distance matrix disabled for {n} > {DENSE_DISTANCE_CAP} vertices")
        A = np.zeros((n, n), dtype=np.float32)
        A[np.repeat(np.arange(n), self._degrees), self._flat] = 1.0
        D = np.full((n, n), -1, dtype=np.int16)
        np.fill_diagonal(D, 0)
        frontier = np.eye(n, dtype=bool)
        unreached = ~frontier
        nxt = np.empty_like(frontier)
        F = np.empty_like(A)
        P = A.copy()                  # P_0 = F_0 @ A with F_0 the identity
        a, c = [], [0]
        level = 0
        while True:
            np.greater(P, 0, out=nxt)
            nxt &= unreached
            unreached ^= nxt
            grew = nxt.any()
            if k is not None and None not in a + c:
                # F is free until it takes the next frontier
                a.append(_common_count(P, frontier, F))
                if grew:
                    c.append(_common_count(P, nxt, F))
            if not grew:
                break
            level += 1
            D[nxt] = level
            F[...] = nxt
            np.matmul(F, A, out=P)
            frontier, nxt = nxt, frontier
        if unreached.any():
            raise Disconnected("graph is disconnected")
        self._dm = D
        if k is None or None in a + c:
            return None
        b = [k - ai - ci for ai, ci in zip(a[:-1], c)]
        return IntersectionArray(k, tuple(b), tuple(c[1:]))

    def eccentricity(self, x: int) -> int:
        return int(self.distances_from(x).max())

    def diameter(self) -> int:
        if self.num_vertices <= DENSE_DISTANCE_CAP:
            return int(self.distance_matrix().max())
        return max(self.eccentricity(x) for x in range(self.num_vertices))

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

    def matrix(self) -> list[list[int]]:
        """Tridiagonal intersection matrix: M[i][i]=a_i, M[i][i+1]=b_i,
        M[i][i-1]=c_i."""
        n = self.rho + 1
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = self.a(i)
            if i + 1 < n:
                m[i][i + 1] = self.b[i]
                m[i + 1][i] = self.c[i]
        return m

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
    """BFS 2-coloring as value, or an odd cycle as witness."""
    n = g.num_vertices
    color = np.full(n, -1, dtype=np.int8)
    parent = np.full(n, -1, dtype=np.int64)
    color[0] = 0
    dq = deque([0])
    while dq:
        u = dq.popleft()
        cu = color[u]
        for v in g.neighbors(u).tolist():
            if color[v] < 0:
                color[v] = 1 - cu
                parent[v] = u
                dq.append(v)
            elif color[v] == cu:
                cycle = _odd_cycle(parent, u, v)
                return Verdict(False, witness=[g.labels[x] for x in cycle],
                               detail="odd cycle")
    if (color < 0).any():
        raise Disconnected("2-coloring undefined on a disconnected graph")
    return Verdict(True, value=tuple(int(c) for c in color))


def _odd_cycle(parent, u, v):
    def chain(x):
        out = [x]
        while parent[out[-1]] >= 0:
            out.append(int(parent[out[-1]]))
        return out

    pu, pv = chain(u), chain(v)
    while len(pu) >= 2 and len(pv) >= 2 and pu[-1] == pv[-1] and pu[-2] == pv[-2]:
        pu.pop()
        pv.pop()
    return pu + pv[:-1][::-1]


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of a flat array cut at offsets (robust to empty
    segments, unlike reduceat)."""
    c = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return c[offsets[1:]] - c[offsets[:-1]]


def _shell_counts(g: Graph, dist: np.ndarray, k: int):
    """Per-vertex counts of neighbors one shell out (fwd) and one shell in
    (bwd) relative to the distance vector, on a k-regular graph, whose CSR
    rows form an (n, k) array."""
    step = dist.take(g._flat).reshape(len(dist), k) - dist[:, None]
    return np.count_nonzero(step == 1, axis=1), np.count_nonzero(step == -1, axis=1)


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

    Up to DENSE_DISTANCE_CAP vertices the array is read off the dense BFS's
    level products; the per-vertex sweep runs when that finds a non-uniform
    count, since only the sweep names a witness, and on larger graphs."""
    reg = is_regular(g)
    if not reg.ok:
        return Verdict(False, witness=reg.witness, detail="not regular")
    if g.num_vertices <= DENSE_DISTANCE_CAP:
        arr = g._dense_bfs(reg.value)
        if arr is not None:
            return Verdict(True, value=arr)
    return _distance_regularity_sweep(g, reg.value)


def _distance_regularity_sweep(g: Graph, k: int) -> Verdict:
    """distance_regularity_check on a k-regular graph, one singleton at a
    time: the first vertex with non-uniform shell counts, or whose array
    differs from vertex 0's, is the witness."""
    if g.num_vertices <= DENSE_DISTANCE_CAP:
        g.distance_matrix()     # distances_from reads the cached rows
    common = None
    for x in range(g.num_vertices):
        arr, witness = _uniform_array(g, g.distances_from(x), k)
        if arr is None:
            return Verdict(False, witness=(g.labels[x],) + witness,
                           detail="singleton not completely regular")
        if common is None:
            common = arr
        elif arr != common:
            return Verdict(False, witness=(g.labels[x], str(arr), str(common)),
                           detail="intersection array differs between vertices")
    return Verdict(True, value=common)


def _common_count(P: np.ndarray, mask: np.ndarray, scratch: np.ndarray) -> int | None:
    """The value P takes on every entry under the nonempty mask, or None if
    it varies.  P holds counts in [0, n] for an n x n P; the product with
    the mask zeroes the other entries, so the maximum of P * mask is the
    largest count under the mask and that of (n + 1 - P) * mask gives the
    smallest.  scratch is an n x n float32 buffer."""
    top = len(P) + 1
    np.multiply(P, mask, out=scratch)
    hi = scratch.max()
    np.subtract(top, P, out=scratch)
    scratch *= mask
    return int(hi) if top - scratch.max() == hi else None


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


def max_clique_order(g: Graph, node_budget: int = 2_000_000) -> int:
    """Exact maximum clique cardinality via branch and bound with a greedy
    coloring bound.  Raises CliqueSearchTooLarge past the node budget."""
    adj = [frozenset(g.neighbors(v).tolist()) for v in range(g.num_vertices)]
    best = 0
    nodes = 0

    def color_order(cands):
        classes = []
        for v in cands:
            for cl in classes:
                if not (adj[v] & cl):
                    cl.add(v)
                    break
            else:
                classes.append({v})
        out = []
        for bound, cl in enumerate(classes, start=1):
            for v in sorted(cl):
                out.append((v, bound))
        return out

    def expand(size, cands):
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise CliqueSearchTooLarge(f"exceeded {node_budget} search nodes")
        if not cands:
            best = max(best, size)
            return
        colored = color_order(cands)
        for pos in range(len(colored) - 1, -1, -1):
            v, bound = colored[pos]
            if size + bound <= best:
                return
            rest = [u for u, _ in colored[:pos] if u in adj[v]]
            expand(size + 1, rest)

    order = sorted(range(g.num_vertices), key=lambda v: -g.degree(v))
    expand(0, order)
    return best


def graph_to_json(g: Graph) -> dict:
    """Serialization with vertices sorted by label and lexicographic edges,
    bit-exact across runs."""
    assert g.labels == sorted(g.labels), "constructors must sort labels"
    return {
        "family": g.family,
        "params": list(g.params) if g.params is not None else None,
        "vertices": list(g.labels),
        "edges": g.edge_array().tolist(),
    }
