"""Generic finite-graph machinery: BFS distances, regularity, bipartiteness,
isometric subgraphs, completely regular sets, clique systems and
distance-regularity testing.

A graph built from clique rows keeps them as its adjacency, shared with its
clique system, whatever the number m of rows an edge lies in; one built from
index pairs keeps a CSR.  Readers that count or order neighbors see them
sorted, once, without the vertex; the distance readers take each row once.

Every check returns a Verdict carrying a witness on failure, because a bare
"false" is not actionable when the point of the run is verification.  Heavy
counting loops are vectorized with numpy; all values involved are small
integers, so nothing leaves exact arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .errors import CrossCheckViolation, Disconnected

_GATHER_BLOCK = 1 << 18


def _blocks(count: int, width: int, start: int = 0):
    """Slices of range(start, count) keeping a gather of width entries per
    item within _GATHER_BLOCK, which bounds the peak memory of every
    host-sized gather: indexing copies a narrow index block to intp, so
    1 << 18 entries hold about 3 MB in flight."""
    step = max(1, _GATHER_BLOCK // max(1, width))
    return (slice(i, min(i + step, count)) for i in range(start, count, step))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification, with payload on success or witness on failure."""

    ok: bool
    value: Any = None
    witness: Any = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _encoded(labels: list) -> np.ndarray | None:
    """The labels' UTF-8 bytes as one S array, or None unless each is a str
    that UTF-8 encodes and that holds no NUL: an S array drops trailing NULs.
    One encode of the labels NUL-joined, split at the NULs."""
    if not labels:
        return np.array([], dtype="S1")
    try:
        text = "\0".join(labels)
        if text.count("\0") == len(labels) - 1:
            return np.array(text.encode().split(b"\0"))
    except (TypeError, UnicodeEncodeError):
        pass
    return None


class Labels(Sequence):
    """Distinct vertex labels in sorted order, read-only, kept as one numpy S
    array of their UTF-8 bytes (_bytes), whose byte order is str order: vertex
    order is label order, and a lookup is one searchsorted.  An int index
    gives a str, a slice or an index array a list of them.  Labels are str
    holding no NUL, or handed in as an S array of their bytes, which is kept
    without a copy.  Only these methods read _bytes."""

    __slots__ = ("_bytes",)

    def __init__(self, labels):
        if isinstance(labels, np.ndarray) and labels.dtype.kind == "S":
            store = labels.ravel()
            # a NUL inside a label is one followed by a byte that is not NUL
            for block in _blocks(len(store), store.itemsize):
                b = store[block].view(np.uint8).reshape(-1, store.itemsize)
                if ((b[:, :-1] == 0) & (b[:, 1:] != 0)).any():
                    raise ValueError("vertex labels must not hold NUL")
        else:
            store = _encoded(list(labels))
            if store is None:
                raise ValueError("vertex labels must be UTF-8 encodable str without NUL")
        if not (store[1:] > store[:-1]).all():
            said = "duplicate vertex labels: " if (store[1:] == store[:-1]).any() else ""
            raise ValueError(said + "vertex labels must be distinct and in sorted order")
        store.flags.writeable = False
        self._bytes = store

    def __len__(self) -> int:
        return len(self._bytes)

    def __getitem__(self, i):
        picked = self._bytes[i]
        if isinstance(picked, bytes):       # an int index gives one np.bytes_
            return picked.decode()
        return [lab.decode() for lab in picked.tolist()]

    def __iter__(self):
        for block in _blocks(len(self), self._bytes.itemsize):
            yield from self[block]

    def __eq__(self, other):
        if isinstance(other, Labels):
            return np.array_equal(self._bytes, other._bytes)
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Labels({self[:]})" if len(self) <= 8 else f"Labels({len(self)} labels)"

    @property
    def utf8(self) -> np.ndarray:
        """The labels' UTF-8 bytes in vertex order, the read-only S array."""
        return self._bytes

    def take(self, vs) -> Labels:
        """The labels of the ascending vertices vs, a store of their own."""
        return Labels(self._bytes[vs])

    def index_of(self, label) -> int:
        """The vertex labelled label; KeyError if none is."""
        if not isinstance(label, str) or "\0" in label:
            raise KeyError(label)
        key = label.encode(errors="surrogatepass")
        if len(key) > self._bytes.itemsize:
            raise KeyError(label)
        at = int(np.searchsorted(self._bytes, key))
        if at == len(self) or self._bytes[at] != key:
            raise KeyError(label)
        return at

    def indices_of(self, labels) -> np.ndarray:
        """index_of of each of labels, strs or an S array of their UTF-8
        bytes, as an intp array, by one searchsorted; KeyError names the
        first label that no vertex has."""
        if isinstance(labels, np.ndarray):
            keys = labels.ravel()
        else:
            labels = list(labels)
            keys = _encoded(labels)
        if keys is None:        # a label that _encoded refuses raises here
            return np.array([self.index_of(lab) for lab in labels], dtype=np.intp)
        probe = keys
        if keys.itemsize > self._bytes.itemsize:    # a common type would copy the store
            probe = keys.astype(self._bytes.dtype)
        at = np.minimum(np.searchsorted(self._bytes, probe), len(self) - 1)
        miss = np.flatnonzero(self._bytes[at] != keys)
        if miss.size:
            i = int(miss[0])
            raise KeyError(labels[i] if isinstance(labels, list) else keys[i].decode())
        return at


class Graph:
    """Finite simple undirected graph with canonical string labels, kept in
    a Labels store.

    Vertex order is label order, which Labels demands, so indices are
    reproducible across runs and serializations are byte-identical.  Edges
    are index pairs, kept as CSR arrays (the neighbors of v are
    _flat[_off[v]:_off[v + 1]], sorted), or clique rows wider than two, kept
    as they are (_cliques, None exactly on a CSR) with their incidence
    (_clique_incidence) and each vertex's r rows (_row_ids, in
    _index_type(N) for N rows): the neighbors of v are the other members of
    its rows.  Rows must meet every vertex equally often, hold no vertex
    twice and every pair in equally many rows, m (_m), so the degree is
    r(w - 1)/m for rows of w.  Vertex indices are kept in _index_type(n).

    Only Graph's methods read these arrays.  Its accessors return each
    vertex's neighbors sorted, once and without the vertex itself, dropping
    repeats or dividing by m.  On rows, the BFS, the pull and the shell
    counts take each row once; the other distance readers, and all of them
    on a CSR, gather _hood, a vertex's whole rows or its CSR row.
    """

    def __init__(self, labels, edges, family=None, params=None):
        self.labels = labels if isinstance(labels, Labels) else Labels(labels)
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
        self._flat = self._off = self._rows = None
        self._cliques, self._clique_incidence, self._row_ids, self._m = None, None, None, 1
        # _k: the common degree, or None; _sizes[v]: the entries _hood gathers
        # for v, _width their most; _m: the rows holding each edge, 1 on a CSR
        if e.shape[1] > 2:      # rows of mutually adjacent vertices: the adjacency
            self._cliques, self._clique_incidence = e, _positions(e, n)
            at = self._clique_incidence[2]      # each vertex's positions, ascending
            if at is None:      # the loop test below needs even rows
                loop = (np.diff(np.sort(e, axis=1), axis=1) == 0).any()
                raise ValueError("loops are not allowed" if loop
                                 else "clique rows must meet every vertex equally often")
            r, w = at.shape[1], e.shape[1]
            self._row_ids = (at // w).astype(_index_type(len(e)))
            if (self._row_ids[:, 1:] == self._row_ids[:, :-1]).any():    # v twice in a row
                raise ValueError("loops are not allowed")
            self._m = _multiplicity(e, at)
            self._k, self._width = r * (w - 1) // self._m, r * w
            self._degrees = np.broadcast_to(np.int64(self._k), n)
            self._sizes = np.broadcast_to(np.int64(self._width), n)
        else:
            if (e[:, 0] == e[:, 1]).any():
                raise ValueError("loops are not allowed")
            und = np.concatenate([e, e[:, ::-1]])
            keys = und[:, 0].astype(np.int64) * n + und[:, 1]
            del und             # before the sort, which sets the peak memory of large builds
            keys.sort()
            keys = keys[np.diff(keys, prepend=-1) != 0]
            self._flat = (keys % n).astype(_index_type(n))
            self._off = np.searchsorted(keys, np.arange(n + 1) * n)
            self._degrees = self._sizes = np.diff(self._off)
            self._rows = _uniform_rows(self._flat, self._off)      # _rows[v]: v's CSR row
            self._k = None if self._rows is None else self._rows.shape[1]
            self._width = int(self._degrees.max())
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
        return int(self.degrees.sum()) // 2

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @cached_property
    def count_type(self) -> np.dtype:
        """The narrowest unsigned type that holds the largest degree, so
        any vertex's number of neighbors in a vertex set."""
        return np.min_scalar_type(int(self.degrees.max()))

    def neighbors(self, v: int) -> np.ndarray:
        if self._flat is not None:
            return self._flat[self._off[v]:self._off[v + 1]]
        hood = self._hood(v)
        nbrs = hood[hood != v]
        nbrs.sort()
        return nbrs[::self._m]

    def neighbors_of(self, vs) -> np.ndarray:
        """The neighbor rows of the vertices vs, each sorted, concatenated in
        that order: on rows, every m-th of a vertex's sorted co-members."""
        if self._flat is not None:
            return _segments(self._flat, self._off, self._rows, vs)
        vs = np.asarray(vs, dtype=np.int64)
        out = np.empty((len(vs), self._k), dtype=self._cliques.dtype)
        for block in _blocks(len(vs), self._width):
            hood = self._hood(vs[block]).reshape(-1, self._width)
            nbrs = hood[hood != vs[block, None]].reshape(-1, self._k * self._m)
            nbrs.sort(axis=1)
            out[block] = nbrs[:, ::self._m]
        return out.ravel()

    def neighbor_counts(self, vs) -> np.ndarray:
        """The number of neighbors in vs, distinct vertices, of each vertex,
        np.bincount(neighbors_of(vs), minlength=n), counted off their _hood
        less the r entries of each of them in its own rows, over m."""
        vs = np.asarray(vs)
        counts = np.bincount(self._hood(vs), minlength=self.num_vertices)
        if self._flat is None:
            counts[vs] -= self._row_ids.shape[1]
        return counts if self._m == 1 else counts // self._m

    def neighbor_sums(self, values: np.ndarray) -> np.ndarray:
        """The sum of values over the neighbors of each vertex, in the dtype
        of values: object arrays of Python ints sum exactly.  On rows, each
        vertex's rows' totals less r times its own value, over m."""
        if self._flat is not None:
            return segment_sums(values[self._flat], self._off)
        row_sums = values[self._cliques].sum(axis=1)
        sums = row_sums[self._row_ids].sum(axis=1) - self._row_ids.shape[1] * values
        return sums if self._m == 1 else sums // self._m

    def index_of(self, label: str) -> int:
        return self.labels.index_of(label)

    def edge_array(self) -> np.ndarray:
        """Edge pairs (i, j) with i < j as an (E, 2) array, lexicographically
        sorted."""
        heads = np.repeat(np.arange(self.num_vertices), self.degrees)
        nbrs = self.neighbors_of(np.arange(self.num_vertices))
        up = heads < nbrs
        return np.stack([heads[up], nbrs[up]], axis=1)

    def edges(self):
        """Edge pairs (i, j) with i < j, lexicographically sorted, as Python
        ints.  Serves only the benchmark's builder probes; the package reads
        edge_array."""
        e = self.edge_array()
        return zip(e[:, 0].tolist(), e[:, 1].tolist())

    def _hood(self, vs) -> np.ndarray:
        """What the distance readers gather for the vertices vs (an index
        array or a slice), concatenated in that order, _sizes[v] entries for
        v: its CSR row, or its whole rows, with v once a row and each neighbor
        m times.  v counts in no shell, is already reached and has its bits
        in its own reach row, and a repeat changes no OR and no reached set."""
        if self._flat is not None:
            return _segments(self._flat, self._off, self._rows, vs)
        return self._cliques.take(self._row_ids[vs], axis=0).ravel()

    def _keeps_rows(self, p: np.ndarray) -> bool:
        """True when the graph was built from rows and the permutation p maps
        their set onto itself, an automorphism then, as the edges are the
        pairs within the rows.  Each row is sorted, and the rows are sorted
        as byte strings: any total order serves to compare two sets."""
        if self._cliques is None:
            return False

        def rows_sorted(rows):
            rows = np.sort(rows, axis=1)
            return np.sort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel())
        return np.array_equal(rows_sorted(p[self._cliques]), rows_sorted(self._cliques))

    def _incidence_of(self, rows: np.ndarray):
        """_positions(rows, n), read off the graph's own incidence when rows
        are the rows it was built from."""
        if self._cliques is not None and np.array_equal(rows, self._cliques):
            return self._clique_incidence
        return _positions(rows, self.num_vertices)

    def _rows_are_adjacency(self, rows: np.ndarray, m: int) -> bool:
        """True when rows are the graph's own, each edge in m of them."""
        return m == self._m and np.array_equal(rows, self._cliques)

    # -- distances --------------------------------------------------------

    def multi_source_distances(self, sources) -> np.ndarray:
        """Distances from a vertex set; -1 marks unreachable vertices."""
        return self._bfs(sources)

    def _bfs(self, sources, depth=None) -> np.ndarray:
        """multi_source_distances, with -1 also beyond depth levels if given.

        Level-synchronous BFS: each level gathers the vertices next to the
        frontier (_steps), a block of at most _GATHER_BLOCK entries at a time,
        and keeps the unreached ones, deduplicated by the mask dist == level.
        It stops once every vertex has its distance."""
        sources = vertex_indices(self, sources)
        if not sources.size:
            raise ValueError("empty source set")
        dist = np.full(self.num_vertices, -1, dtype=np.int32)
        dist[sources] = 0
        frontier = np.flatnonzero(dist == 0)
        unreached = self.num_vertices - frontier.size
        level = 0
        while frontier.size and unreached and level != depth:
            level += 1
            for nbrs in self._steps(frontier):
                dist[nbrs[dist[nbrs] < 0]] = level
            frontier = np.flatnonzero(dist == level)
            unreached -= frontier.size
        return dist

    def distances_among(self, verts, depth=None) -> np.ndarray:
        """Distances between the vertices verts as a matrix, -1 marking
        unreachable pairs, by bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD
        2013): reach[v] has a bit, 64 to a uint64 word, for each source within
        the current level of v.  A level ORs the reach rows of v's _hood
        (_pull); the bits v lacked, read at verts, are the pairs at that
        distance.

        Pairs farther apart than depth, n if not given, stay -1; level 1 pushes
        each source's bit to its neighbors, and level j >= 2 pulls only over the
        rows within depth - j of verts (after Beamer, Asanovic and Patterson, SC 2012)."""
        verts = vertex_indices(self, verts)
        depth = self.num_vertices if depth is None else depth
        m, src = len(verts), np.arange(len(verts))
        word, bit = src // 64, np.uint64(1) << (src % 64).astype(np.uint64)
        reach = np.zeros((self.num_vertices, (m + 63) // 64), dtype="<u8")
        np.bitwise_or.at(reach, (verts, word), bit)
        pull = np.flatnonzero(self._sizes)              # reduceat needs nonempty rows
        near = self._bfs(verts, depth=max(0, depth - 2))    # none beyond depth - 2 pull
        near[near < 0] = depth
        dist = np.full((m, m), -1, dtype=np.int32)
        new, level = reach, 0
        while True:
            bits = np.unpackbits(new[verts].view(np.uint8), axis=1, count=m, bitorder="little")
            dist[bits.T == 1] = level
            if (dist >= 0).all() or level == depth:
                return dist
            new = np.zeros_like(reach)
            rows = pull[near[pull] < depth - level]
            if not level:       # level 1 pushes instead
                rows, lens = pull[:0], self._sizes[verts]
                np.bitwise_or.at(new, (self._hood(verts), np.repeat(word, lens)),
                                 np.repeat(bit, lens))
            new[rows] = self._pull(reach, rows)
            new &= ~reach
            if not new.any():
                return dist
            reach |= new
            level += 1

    def _pull(self, reach: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """The OR of the reach rows over the _hood of each vertex of vs, a
        block at a time.  On rows, the OR of each row that vs meet is taken
        once, over its w members, and a vertex ORs those of its r rows, where
        its _hood would gather r * w entries."""
        out = np.empty((len(vs), reach.shape[1]), dtype=reach.dtype)
        if self._flat is not None:
            for block in _blocks(len(vs), self._width):
                lens = self._sizes[vs[block]]
                out[block] = np.bitwise_or.reduceat(reach[self._hood(vs[block])],
                                                    np.cumsum(lens) - lens, axis=0)
            return out
        met = self._rows_met(vs)
        ors = np.empty((len(self._cliques), reach.shape[1]), dtype=reach.dtype)
        for block in _blocks(len(met), self._cliques.shape[1]):
            ors[met[block]] = np.bitwise_or.reduce(reach[self._cliques[met[block]]], axis=1)
        for block in _blocks(len(vs), self._row_ids.shape[1]):
            out[block] = np.bitwise_or.reduce(ors[self._row_ids[vs[block]]], axis=1)
        return out

    def _steps(self, vs: np.ndarray):
        """Blocks of the vertices next to the vertices vs, themselves among
        them and with repeats: their _hood, or on rows the members of each
        row that vs meet, once a row."""
        if self._flat is not None:
            for block in _blocks(len(vs), self._width):
                yield self._hood(vs[block])
            return
        met = self._rows_met(vs)
        for block in _blocks(len(met), self._cliques.shape[1]):
            yield self._cliques[met[block]].ravel()

    def _shell_counts(self, dist: np.ndarray):
        """Counts of the neighbors one shell out (fwd) and one shell in (bwd)
        of every vertex, relative to each distance row of dist, (n,) or
        (m, n), on a regular graph, reading dist in the narrowest signed type
        that holds it.  On rows, each row's levels are counted once
        (_row_levels), and each vertex adds up its r rows, a column of
        _row_ids at a time: in a row at lo + t, t being 0 or 1, it has up
        * (1 - t) neighbors one shell out and (w - up) * t one shell in, so
        the sums of up, lo and up * lo over its rows give both counts, each
        neighbor counted in the _m rows it shares with the vertex.  The
        terms and sums stay within 2 * r * w * (rho + 1) for rho the largest
        distance, and are held in the narrowest signed type that holds it.
        Otherwise a block of vertices at a time gathers their _hood (a vertex
        is no shell away from itself), at most _GATHER_BLOCK entries."""
        n, m = self.num_vertices, dist.size // self.num_vertices
        dist = dist.astype(np.min_scalar_type(-1 - int(dist.max())), copy=False)
        if self._flat is None:
            r, w = self._row_ids.shape[1], self._cliques.shape[1]
            lo, up = _row_levels(dist, self._cliques)
            terms = np.stack([up, lo, up * lo], dtype=np.min_scalar_type(
                -2 * r * w * (int(dist.max()) + 1)))
            fwd, bwd = np.empty((2,) + dist.shape, dtype=terms.dtype)
            for block in _blocks(n, 3 * m):
                s_up, s_lo, s_p = sums = terms.take(self._row_ids[block, 0], axis=-1)
                for j in range(1, r):
                    sums += terms.take(self._row_ids[block, j], axis=-1)
                d = dist[..., block]
                fwd[..., block] = (s_p + s_up - s_up * d) // self._m
                bwd[..., block] = (s_p + (r * w - s_up) * d - w * s_lo) // self._m
            return fwd, bwd
        fwd, bwd = np.empty(dist.shape, dtype=np.int64), np.empty(dist.shape, dtype=np.int64)
        for block in _blocks(n, self._width * m):
            diff = dist.take(self._hood(block).reshape(-1, self._width), axis=-1)
            diff -= dist[..., block, None]
            fwd[..., block] = np.count_nonzero(diff == 1, axis=-1)
            bwd[..., block] = np.count_nonzero(diff == -1, axis=-1)
        return fwd, bwd

    def _rows_met(self, vs: np.ndarray) -> np.ndarray:
        """The indices of the rows that hold a vertex of vs, ascending."""
        met = np.zeros(len(self._cliques), dtype=bool)
        for block in _blocks(len(vs), self._row_ids.shape[1]):
            met[self._row_ids[vs[block]]] = True
        return np.flatnonzero(met)

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

    The cliques are stored as one (N, s+1) array in _index_type(n), one
    clique per row; any rectangular sequence of rows of host vertices is
    accepted, and rows already in that type are kept as they are.  The
    incidence, each vertex's entries in that array, is read by
    verify_clique_system and hits; it is the host's own when the rows are
    those the host was built from, else built on first use."""

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

    @cached_property
    def _incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """_positions of the cliques, the host's or built on first use, and kept."""
        return self.host._incidence_of(self.cliques)

    def hits(self, vertices) -> np.ndarray:
        """The number of each row's entries in a set of distinct vertices,
        counted from the entries of those vertices alone; an index array is
        read as it is."""
        at = _segments(*self._incidence,
                       vertices if isinstance(vertices, np.ndarray) else list(vertices))
        return np.bincount(at // (self.s + 1), minlength=len(self.cliques))

    def __repr__(self):
        return f"CliqueSystem({len(self.cliques)} cliques of size {self.s + 1}, m={self.m})"


def _index_type(n: int) -> np.dtype:
    """The narrowest unsigned type that holds every index of n vertices:
    NumPy's stable sort is a radix sort up to 16 bits, a timsort above."""
    return np.min_scalar_type(n - 1)


def _positions(rows: np.ndarray, n: int):
    """(at, off, view): the flat positions of the entries of an integer array
    over n vertices, grouped by vertex and in row order (a stable argsort of
    the entries in _index_type, kept in int32), v's being at[off[v]:off[v + 1]],
    and at's (n, r) view when every vertex has r entries, else None."""
    flat = rows.ravel()
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n), out=off[1:])
    at = np.argsort(flat.astype(_index_type(n), copy=False), kind="stable").astype(np.int32)
    return at, off, _uniform_rows(at, off)


def _uniform_rows(flat: np.ndarray, off: np.ndarray) -> np.ndarray | None:
    """The (n, r) view of flat when each of its n segments, cut at off, has r
    entries, else None."""
    lens = np.diff(off)
    return flat.reshape(len(lens), lens[0]) if (lens == lens[0]).all() else None


def _segments(flat: np.ndarray, off: np.ndarray, rows, vs) -> np.ndarray:
    """The segments flat[off[v]:off[v + 1]] of the vertices vs, concatenated
    in that order; rows is their _uniform_rows view, or None."""
    if rows is not None:
        return rows[vs].ravel()
    starts = off[vs]
    lens = off[1:][vs] - starts
    return flat[np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(int(lens.sum()))]


def _co_members(rows: np.ndarray, at: np.ndarray):
    """Co-members in the rows of an (N, w) array in _index_type, at the (n, r)
    positions of each vertex's entries (_positions): yields (v0, block) per
    block of vertices, block[i] the sorted r(w-1) entries sharing a row with
    v0 + i, itself among them once for each row holding it twice.  A vertex
    gathers its rows into one reused buffer (take buffers its out unless
    mode="clip") and overwrites its own entries by the type's largest value,
    which the sort puts last, and cuts off r of them."""
    (n, r), w = at.shape, rows.shape[1]
    slices = list(_blocks(n, r * w))
    buf = np.empty((slices[0].stop, r * w), dtype=rows.dtype)
    for block in slices:
        p, out = at[block], buf[:block.stop - block.start]
        np.take(rows, p // w, axis=0, out=out.reshape(-1, r, w), mode="clip")
        out[np.arange(len(p))[:, None], p % w + np.arange(0, r * w, w)] = np.iinfo(rows.dtype).max
        out.sort(axis=1)
        yield block.start, out[:, :-r]


def _multiplicity(rows: np.ndarray, at: np.ndarray) -> int:
    """The m for which every co-member of every vertex repeats exactly m
    times (_co_members), each pair lying in m rows, in rows holding no vertex
    twice; pairs in unequal numbers of rows raise ValueError.  Every
    comparison is made in the rows' index type."""
    m = None
    for _, nbrs in _co_members(rows, at):
        m = m or int(np.count_nonzero(nbrs[0] == nbrs[0, 0]))
        first, last = nbrs[:, ::m], nbrs[:, m - 1::m]       # of each run of m
        if nbrs.shape[1] % m or (last[:, :-1] == first[:, 1:]).any() or (
                m > 1 and (first != last).any()):
            raise ValueError("clique rows must hold every pair equally often")
    return m


# --- verdict-style checks -----------------------------------------------------


def is_regular(g: Graph) -> Verdict:
    """Common degree as value, or a witness vertex of deviating degree.  A
    graph knows its common degree from its construction, so only an
    irregular graph is scanned, for its witness."""
    if g._k is not None:
        return Verdict(True, value=g._k)
    degs = g.degrees
    k = int(degs[0])
    v = int(np.flatnonzero(degs != k)[0])
    return Verdict(False, witness=(g.labels[v], int(degs[v]), k),
                   detail="degree deviates from vertex 0")


def vertex_indices(g: Graph, vertices) -> np.ndarray:
    """The vertices as an index array in _index_type(n), without a copy when
    they are one already, refused with ValueError unless each is an integer
    index of g: numpy would truncate a float, wrap a negative index and fail
    with a bare IndexError past the end.  Arithmetic on the indices, such as
    a pair key u * n + v, must widen them first."""
    out = np.asarray(vertices if isinstance(vertices, np.ndarray) else list(vertices)).ravel()
    if out.size and (out.dtype.kind not in "iu" or out.min() < 0 or out.max() >= g.num_vertices):
        raise ValueError("vertex index out of range")
    return out.astype(_index_type(g.num_vertices), copy=False)


def _on_host(g: Graph, *parts) -> None:
    """Refuse a bitrade, clique system or vertex function that lies on
    another graph than g."""
    if any(part.host is not g for part in parts):
        raise ValueError("bitrade, clique system or vertex function lies on another host")


def induced_subgraph(g: Graph, verts) -> tuple[Graph, list[int]]:
    """Subgraph on verts with inherited labels; second item maps subgraph
    indices back to host indices."""
    mask = np.zeros(g.num_vertices, dtype=bool)
    mask[vertex_indices(g, verts)] = True
    hosts = np.flatnonzero(mask)
    if not hosts.size:
        raise ValueError("empty vertex set")
    pos = np.full(g.num_vertices, -1, dtype=np.int64)
    pos[hosts] = np.arange(len(hosts))
    heads = np.repeat(hosts, g.degrees[hosts])
    nbrs = g.neighbors_of(hosts)
    keep = (pos[nbrs] >= 0) & (heads < nbrs)
    edges = np.stack([pos[heads[keep]], pos[nbrs[keep]]], axis=1)
    return Graph(g.labels.take(hosts), edges), hosts.tolist()


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
    first edge_array edge with both ends at one distance, closed by stepping
    each end to its least-index neighbor nearer vertex 0 until the paths meet."""
    dist = g.multi_source_distances([0])
    edges = g.edge_array()
    same = np.flatnonzero((dist[edges[:, 0]] == dist[edges[:, 1]]) & (dist[edges[:, 0]] >= 0))
    if same.size:
        paths = [[int(x)] for x in edges[same[0]]]
        while paths[0][-1] != paths[1][-1]:
            for p in paths:
                nbrs = g.neighbors(p[-1])
                p.append(int(nbrs[dist[nbrs] == dist[p[-1]] - 1][0]))
        cycle = paths[0] + paths[1][-2::-1]
        return Verdict(False, witness=g.labels[cycle], detail="odd cycle")
    if (dist < 0).any():
        raise Disconnected("2-coloring undefined on a disconnected graph")
    return Verdict(True, value=tuple((dist % 2).tolist()))


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of a flat array cut at offsets (robust to empty
    segments, unlike reduceat), in the dtype of values: object arrays of
    Python ints sum exactly."""
    c = np.concatenate(([0], np.cumsum(values)))
    return c[offsets[1:]] - c[offsets[:-1]]


def _row_levels(dist: np.ndarray, rows: np.ndarray):
    """(lo, up), each (..., N): the lower of the two levels that the members
    of each of the N rows lie at, relative to each distance row of dist, (n,)
    or (m, n), and how many of them lie one level up.  Members of a clique
    are at most one apart, so a row spanning more levels is a fault of the
    distances or the rows, and raises CrossCheckViolation.  A column of rows
    at a time, in blocks of rows."""
    m, (N, w) = dist.size // dist.shape[-1], rows.shape
    lo = np.empty(dist.shape[:-1] + (N,), dtype=dist.dtype)
    up = np.empty(lo.shape, dtype=np.int32)
    for block in _blocks(N, m):
        low = lo[..., block]
        low[...] = high = dist.take(rows[block, 0], axis=-1)
        total = high.astype(np.int32)
        for j in range(1, w):
            col = dist.take(rows[block, j], axis=-1)
            np.minimum(low, col, out=low)
            np.maximum(high, col, out=high)
            total += col
        high -= low
        if high.max() > 1:
            raise CrossCheckViolation(f"clique row {block.start + np.argwhere(high > 1)[0][-1]} "
                                      "spans more than two distance levels")
        up[..., block] = total - np.multiply(low, w, dtype=np.int32)
    return lo, up


def _uniform_array(g: Graph, dist: np.ndarray, k: int):
    """(IntersectionArray, None) if shell counts of the k-regular graph g are
    uniform per distance, else (None, witness).  The counts are compared with
    those of one vertex per distance at once; only a failure is looked for
    shell by shell, to name its witness."""
    fwd, bwd = g._shell_counts(dist)
    rep = np.zeros(int(dist.max()) + 1, dtype=np.int64)
    rep[dist] = np.arange(dist.size)        # a vertex at each distance
    b, c = fwd[rep], bwd[rep]
    if (fwd == b[dist]).all() and (bwd == c[dist]).all():
        return IntersectionArray(k, tuple(b[:-1].tolist()), tuple(c[1:].tolist())), None
    for i in range(len(rep)):
        shell = np.flatnonzero(dist == i)
        for way, counts in (("forward", fwd[shell]), ("backward", bwd[shell])):
            lo, hi = int(counts.min()), int(counts.max())
            if lo != hi:
                return None, (g.labels[int(shell[int(counts.argmin())])], i, way, lo, hi)


def completely_regular_check(g: Graph, C) -> Verdict:
    """Intersection array of the set C as value, or a witness of failure.

    Partitions vertices by distance to C and demands that forward/backward
    neighbor counts depend only on the distance.
    """
    reg = is_regular(g)
    if not reg.ok:
        return Verdict(False, witness=reg.witness, detail="host graph not regular")
    dist = g.multi_source_distances(C)
    if (dist < 0).any():
        raise Disconnected("set does not reach the whole graph")
    arr, witness = _uniform_array(g, dist, reg.value)
    if arr is None:
        return Verdict(False, witness=witness, detail="non-uniform shell counts")
    return Verdict(True, value=arr)


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
    if g.generators is not None and _transitive(g, g.generators()):
        dm = g.multi_source_distances([0])[None]
        if (dm < 0).any():
            raise Disconnected("graph is disconnected")
    else:
        dm = g.distance_matrix()
    common, witness = _uniform_array(g, dm[0], k)
    if common is None:
        return Verdict(False, witness=(g.labels[0],) + witness,
                       detail="singleton not completely regular")
    for block in _blocks(len(dm), n * k, start=1):
        if off := _first_off_row(g, dm[block], common):
            x, witness, detail = off
            return Verdict(False, witness=(g.labels[block.start + x],) + witness, detail=detail)
    return Verdict(True, value=common)


def _first_off_row(g: Graph, dist: np.ndarray, common: IntersectionArray):
    """None when each distance row of dist, (m, n), has the shell counts of
    the array common (one _shell_counts call), else (x, witness, detail) for
    the first row x off it: _uniform_array's witness or both arrays."""
    fwd, bwd = g._shell_counts(dist)
    b, c = np.array(common.b + (0,)), np.array((0,) + common.c)
    at = np.minimum(dist, common.rho)
    bad = np.flatnonzero((dist.max(axis=1) != common.rho)
                         | (fwd != b[at]).any(axis=1) | (bwd != c[at]).any(axis=1))
    if not bad.size:
        return None
    x = int(bad[0])
    arr, witness = _uniform_array(g, dist[x], common.k)
    if arr is None:
        return x, witness, "singleton not completely regular"
    return x, (str(arr), str(common)), "intersection array differs between vertices"


def _transitive(g: Graph, perms) -> bool:
    """True when the permutations generate a group transitive on the
    vertices of the regular graph g, i.e. the orbit of vertex 0 is every
    vertex.  A permutation that is not one, or that maps an edge to a
    non-edge, raises CrossCheckViolation.  A permutation that maps the rows
    g was built from onto themselves is an automorphism (Graph._keeps_rows);
    any other is checked vertex by vertex."""
    n, width = g.num_vertices, g._width
    perms = [np.asarray(p) for p in perms]
    for i, p in enumerate(perms):
        if (p.shape != (n,) or p.dtype.kind not in "iu"
                or not np.array_equal(np.sort(p), np.arange(n))):
            raise CrossCheckViolation(f"generator {i} is not a permutation of the {n} vertices")
        p = perms[i] = p.astype(_index_type(n))
        if g._keeps_rows(p):
            continue
        # p maps the _hood of v onto that of p(v), in a block of vertices at a
        # time: p(v) stands for v's own entries, so the neighbors map likewise
        for block in _blocks(n, width):
            image, want = (np.sort(x.reshape(-1, width), axis=1)
                           for x in (p[g._hood(block)], g._hood(p[block])))
            bad = np.flatnonzero((image != want).any(axis=1))
            if bad.size:
                v = block.start + int(bad[0])
                u = next(u for u in g.neighbors(v).tolist() if p[u] not in g.neighbors(p[v]))
                labs = g.labels[[v, u, p[v], p[u]]]
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
    """Checks clique-ness, uniform size s+1, and exact edge multiplicity m.
    The rows the host is stored as hold with the m its construction found.
    Otherwise, on a k-regular host (k > 0) with every vertex in r rows and
    r*s = k*m, m >= 1, by comparing each vertex's co-members with its
    neighbor row taken m times, a block of vertices at a time; otherwise, or
    where a block differs, by looking each pair up in the edge keys u*n+v
    (u < v), which names the first bad clique or the first edge of wrong
    multiplicity (a row repeating a vertex fails the comparison: no neighbor
    row holds its own vertex)."""
    n, k = g.num_vertices, is_regular(g).value
    holds = Verdict(True, value=(int(g.degrees[0]), S.s, S.m))
    if g._rows_are_adjacency(S.cliques, S.m):
        return holds
    if k and S.m >= 1:
        at = S._incidence[2]
        if at is not None and at.shape[1] * S.s == k * S.m and all(
                (nbrs.reshape(-1, k, S.m)
                 == g.neighbors_of(np.arange(v0, v0 + len(nbrs))).reshape(-1, k, 1)).all()
                for v0, nbrs in _co_members(S.cliques, at)):
            return holds
    rows = np.sort(S.cliques, axis=1).astype(np.int64)     # pair keys overflow a narrow type
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
    return {
        "family": g.family,
        "params": list(g.params) if g.params is not None else None,
        "vertices": list(g.labels),
        "edges": g.edge_array().tolist(),
    }
