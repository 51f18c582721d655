"""Small ad-hoc graphs, the sorted CSR of a graph read through its
accessors, scalar GF(q) references, scalar Fraction references for vertex
functions and their sums, criterion 11's oracles, the signed indicator of
a bitrade, the spectrum with its two confirmations stated apart, shell
counts over neighbor rows with the complete-regularity verdict and the
per-vertex distance-regularity sweep read from them, a pair count of
clique systems, clique hits and criterion a by gathering every row,
one-vertex corruptions from every move pool at once, the pairs inside
clique rows, an exact maximum-clique search and the Grassmann generators
as matrix products, shared across test modules."""

import itertools
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from drgtrades.gfq import (SUPPORTED_ORDERS, make_field, matmul_batch, rref_batch, subspace_bases,
                           totally_isotropic_mask)
from drgtrades.bitrades import Bitrade
from drgtrades.graphs import (Graph, IntersectionArray, Verdict, completely_regular_check,
                              segment_sums)
from drgtrades.errors import NonIntegerSpectrum
from drgtrades.spectral import VertexFunction, _count_above, _last_minor, standard_eigenvector


def cube_graph(n):
    """H(n,2) built directly from bit flips."""
    labels = ["".join(str((x >> i) & 1) for i in range(n - 1, -1, -1))
              for x in range(2 ** n)]
    labels.sort()
    idx = {lab: i for i, lab in enumerate(labels)}
    edges = set()
    for lab in labels:
        for i in range(n):
            other = lab[:i] + str(1 - int(lab[i])) + lab[i + 1:]
            edges.add(tuple(sorted((idx[lab], idx[other]))))
    return Graph(labels, sorted(edges))


def cycle_graph(n):
    return Graph([f"v{i}" for i in range(n)],
                 [(i, (i + 1) % n) for i in range(n)])


def reference_csr(g):
    """(flat, off): the sorted CSR of g, whatever it is stored as, rebuilt
    through its accessors: the neighbors of v are flat[off[v]:off[v + 1]]."""
    off = np.zeros(g.num_vertices + 1, dtype=np.int64)
    np.cumsum(g.degrees, out=off[1:])
    return g.neighbors_of(np.arange(g.num_vertices)), off


def same_csr(g, h):
    """g and h have equal sorted CSR arrays, of equal dtypes."""
    return all(a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in zip(reference_csr(g), reference_csr(h)))


# --- oracles for graph checks, independent of graphs' shell counts ------------

def neighbor_rows(g):
    """The (n, k) sorted neighbor rows of a k-regular graph, read one vertex
    at a time through Graph.neighbors."""
    return np.stack([g.neighbors(v) for v in range(g.num_vertices)]).reshape(g.num_vertices, -1)


def reference_shell_counts(nbrs, dist):
    """(fwd, bwd): the neighbors one shell out and one shell in of every
    vertex, relative to each distance row of dist, (n,) or (m, n), counted
    over the neighbor rows nbrs."""
    step = dist[..., nbrs] - dist[..., None]
    return (step == 1).sum(axis=-1), (step == -1).sum(axis=-1)


def reference_completely_regular(g, C, nbrs):
    """completely_regular_check's verdict on a connected regular graph with
    neighbor rows nbrs, from reference_shell_counts: the first shell whose
    forward, then backward, counts differ names its least-count vertex."""
    dist = g.multi_source_distances(C)
    fwd, bwd = reference_shell_counts(nbrs, dist)
    b, c = [], []
    for i in range(int(dist.max()) + 1):
        shell = np.flatnonzero(dist == i)
        for way, counts in (("forward", fwd[shell]), ("backward", bwd[shell])):
            if counts.min() != counts.max():
                v = int(shell[counts.argmin()])
                return Verdict(False, witness=(g.labels[v], i, way, int(counts.min()),
                                               int(counts.max())),
                               detail="non-uniform shell counts")
        b.append(int(fwd[shell[0]]))
        c.append(int(bwd[shell[0]]))
    return Verdict(True, value=IntersectionArray(nbrs.shape[1], tuple(b[:-1]), tuple(c[1:])))


def reference_sweep(g):
    """distance_regularity_check's verdict on a connected regular graph, one
    singleton at a time: one BFS per vertex, its shell counts, and the first
    vertex whose counts are not uniform per distance, or whose array differs
    from vertex 0's, as the witness."""
    nbrs, common = neighbor_rows(g), None
    for x in range(g.num_vertices):
        v = reference_completely_regular(g, [x], nbrs)
        if not v.ok:
            return Verdict(False, witness=(g.labels[x],) + v.witness,
                           detail="singleton not completely regular")
        if common is None:
            common = v.value
        elif v.value != common:
            return Verdict(False, witness=(g.labels[x], str(v.value), str(common)),
                           detail="intersection array differs between vertices")
    return Verdict(True, value=common)


def reference_clique_system(g, rows, m):
    """verify_clique_system's verdict, True or False, by counting with Python
    sets: every row holds distinct vertices, every pair inside a row is an
    edge, and every edge lies in exactly m rows."""
    count = {frozenset((u, v)): 0
             for u in range(g.num_vertices) for v in g.neighbors(u).tolist()}
    for row in np.asarray(rows).tolist():
        if len(set(row)) < len(row):
            return False
        for pair in itertools.combinations(row, 2):
            if frozenset(pair) not in count:
                return False
            count[frozenset(pair)] += 1
    return all(c == m for c in count.values())


def reference_hits(S, vertices):
    """CliqueSystem.hits by gathering every row: the entries of each row of
    S.cliques that lie in the vertex set."""
    mask = np.zeros(S.host.num_vertices, dtype=bool)
    mask[list(vertices)] = True
    return mask[S.cliques].sum(axis=1)


def reference_criterion_a(g, S, T):
    """check_criterion_a's verdict from reference_hits: the first row that
    meets T0 and T1 unequally often, or either more than once."""
    hits0, hits1 = reference_hits(S, T.t0), reference_hits(S, T.t1)
    bad = np.flatnonzero((hits0 != hits1) | (hits0 > 1))
    if bad.size:
        ci = int(bad[0])
        members = sorted(g.labels[v] for v in S.cliques[ci].tolist())
        return Verdict(False, witness=(ci, members, int(hits0[ci]), int(hits1[ci])),
                       detail="clique meets the trades unevenly")
    return Verdict(True)


def reference_corrupt_one_vertex(T, rng):
    """corrupt_one_vertex as it was written first: every move pool of both
    sides is built, |side| x |lonely| other moves among them, before the
    first nonempty one is drawn from."""
    def moves(which, v, u):
        return np.stack([np.full(v.size, which), v, u], axis=1)

    host = T.host
    free = np.isin(np.arange(host.num_vertices), list(T.support), invert=True)
    neighbor_moves, other_moves, adds, drops = [], [], [], []
    for which, side in enumerate((T.t0, T.t1)):
        vs = np.array(sorted(side), dtype=np.int64)
        nbrs = host.neighbors_of(vs)
        owners = np.repeat(vs, host.degrees[vs])
        side_nbrs = np.bincount(nbrs, minlength=host.num_vertices)
        near = free[nbrs] & (side_nbrs[nbrs] == 1)
        lonely = np.flatnonzero(free & (side_nbrs == 0))
        neighbor_moves.append(moves(which, owners[near], nbrs[near]))
        other_moves.append(moves(which, np.repeat(vs, lonely.size), np.tile(lonely, vs.size)))
        adds.append(moves(which, np.full_like(lonely, -1), lonely))
        dropped = vs if vs.size >= 2 else vs[:0]
        drops.append(moves(which, dropped, np.full_like(dropped, -1)))
    for pool in (neighbor_moves, other_moves + adds, drops):
        pool = np.concatenate(pool)
        if len(pool):
            which, v, u = pool[rng.randrange(len(pool))].tolist()
            sides = [set(T.t0), set(T.t1)]
            sides[which].discard(v)
            if u >= 0:
                sides[which].add(u)
            return Bitrade(host, frozenset(sides[0]), frozenset(sides[1]))
    raise RuntimeError("no admissible one-vertex corruption exists")


def clique_pairs(cliques):
    """The vertex pairs inside each row of an (N, s+1) array, as an
    (N, s(s+1)/2, 2) array; pairs of a row come in lexicographic position
    order, (0,1), (0,2), ..., (1,2), ..."""
    i, j = np.triu_indices(cliques.shape[1], 1)
    return np.stack([cliques[:, i], cliques[:, j]], axis=2)


class CliqueSearchTooLarge(RuntimeError):
    """Exact maximum-clique search exceeded its node budget."""


def max_clique_order(g, node_budget=2_000_000):
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

    order = sorted(range(g.num_vertices), key=lambda v: -int(g.degrees[v]))
    expand(0, order)
    return best


# --- Fraction references independent of spectral; criterion 11's oracles -------

def reference_neighbor_sums(g, values):
    """sum_{y ~ x} values[y] for every vertex x, one Fraction at a time."""
    adj = [[] for _ in range(g.num_vertices)]
    for u, v in g.edge_array().tolist():
        adj[u].append(v)
        adj[v].append(u)
    return [sum((Fraction(values[y]) for y in adj[x]), Fraction(0))
            for x in range(g.num_vertices)]


def reference_distances(g, x):
    """Distances from x to every vertex it reaches, by a deque BFS."""
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u).tolist():
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_isometry(g, verts):
    """is_isometric_subgraph's outcome as (ok, witness, subgraph distance
    matrix), read off the host's full distance_matrix(), which no depth bound
    limits: the subgraph's edges are its pairs at host distance 1, and its
    distances come from boolean matrix powers of that adjacency.  The
    witness is the first pair i < j, row by row in vertex order, whose
    distances differ."""
    back = np.unique(np.asarray(list(verts), dtype=np.int64))
    dhost = g.distance_matrix()[np.ix_(back, back)]
    adj = (dhost == 1).astype(np.int64)
    dsub = np.where(np.eye(len(back), dtype=bool), 0, -1)
    reach = np.eye(len(back), dtype=bool)
    for d in range(1, len(back)):
        wider = reach | (reach.astype(np.int64) @ adj > 0)
        dsub[wider & ~reach] = d
        reach = wider
    for i, j in zip(*np.triu_indices(len(back), 1)):
        if dsub[i, j] != dhost[i, j]:
            dij = int(dsub[i, j])
            return False, (g.labels[int(back[i])], g.labels[int(back[j])],
                           None if dij < 0 else dij, int(dhost[i, j])), dsub
    return True, None, dsub


def reference_shell_sums(g, values, x, dist=None):
    """sum of values over each distance-i shell of x, by a deque BFS unless
    its distances dist are given."""
    dist = reference_distances(g, x) if dist is None else dist
    out = [Fraction(0)] * (max(dist.values()) + 1)
    for v, d in dist.items():
        out[d] += Fraction(values[v])
    return out


def vertex_function(g, values):
    """The VertexFunction of per-vertex rationals: each numerator over the
    least common denominator."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return VertexFunction(g, [v.numerator * (den // v.denominator) for v in values], den)


def values(f):
    """The value of f at each vertex, one Fraction per vertex."""
    return tuple(Fraction(a, f.den) for a in f.num)


def signed_function(T):
    """The signed indicator of the bitrade T: +1 on T0, -1 on T1, 0 elsewhere."""
    return VertexFunction(T.host, [1 if v in T.t0 else -1 if v in T.t1 else 0
                                   for v in range(T.host.num_vertices)])


def reference_delta_values(g, x, theta, dist=None):
    """The delta function at theta around the singleton {x}, one Fraction per
    vertex: nu_{d(x, v)}, with nu from the array of {x} by the three-term
    recurrence nu_{i+1} = ((theta - a_i) nu_i - c_i nu_{i-1}) / b_i."""
    arr = completely_regular_check(g, [x]).value
    nu = [Fraction(1)]
    for i in range(arr.rho):
        prev = nu[i - 1] if i else 0
        nu.append(((theta - arr.a(i)) * nu[i] - arr.c_at(i) * prev) / arr.b[i])
    dist = reference_distances(g, x) if dist is None else dist
    return [nu[dist[v]] for v in range(g.num_vertices)]


def delta_function(g, C, thetas):
    """For each theta of thetas, the function equal to nu_i on the distance-i
    shell around the completely regular set C, nu the standard eigenvector of
    C's matrix at theta (an eigenfunction of g at theta), and the distances to
    C; ValueError when C is not completely regular."""
    res = completely_regular_check(g, C)
    if not res.ok:
        raise ValueError(f"not completely regular: {res.witness}")
    dist = g.multi_source_distances(C)
    out = []
    for theta in thetas:
        nu = standard_eigenvector(res.value, theta)  # may raise NotAnEigenvalue
        den = lcm(*(v.denominator for v in nu))
        shells = np.array([v.numerator * (den // v.denominator) for v in nu], dtype=object)
        out.append(VertexFunction(g, shells[dist], den))
    return out, dist


def weight_distribution_of(f, dist):
    """Shell sums W^i = sum of f over the vertices at distance i, for i up
    to dist's maximum: the shells of x when dist is
    g.multi_source_distances([x])."""
    bounds = np.concatenate(([0], np.cumsum(np.bincount(dist))))
    sums = segment_sums(f.num[np.argsort(dist, kind="stable")], bounds)
    return [Fraction(w, f.den) for w in sums]


# --- the spectrum with its two confirmations stated apart -------------------------

def _bisect(arr, j):
    """The least integer m in [-k, k] with at most j eigenvalues of arr above
    m + 1/2, unconfirmed."""
    lo, hi = -arr.k, arr.k
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _count_above(arr, 2 * mid + 1) <= j else (mid + 1, hi)
    return lo


def reference_eigenvalues(arr):
    """intersection_matrix_eigenvalues with its own check: bisection j gives
    the eigenvalue when p_rho vanishes there and bisection j - 1 did not
    land on the same integer."""
    roots = []
    for j in range(arr.rho + 1):
        lo = _bisect(arr, j)
        if _last_minor(arr, lo) != 0 or lo in roots[-1:]:
            raise NonIntegerSpectrum(
                f"eigenvalue {j} (descending) of {arr} lies within 1/2 of {lo} "
                f"but is not {lo}; the spectrum is not integral")
        roots.append(lo)
    return roots


def reference_theta_min(arr):
    """theta_min with its own check: p_rho vanishes at m and the other rho
    eigenvalues lie above m + 1/2."""
    m = _bisect(arr, arr.rho)
    if _last_minor(arr, m) != 0 or _count_above(arr, 2 * m + 1) != arr.rho:
        raise NonIntegerSpectrum(f"the least eigenvalue of {arr} lies within 1/2 of {m} "
                                 f"but is not {m} alone; the spectrum is not integral")
    return m


# --- scalar GF(q) references, independent of the batched engine in gfq ---------

@lru_cache(maxsize=None)
def field_lists(F):
    """F's add, mul, neg and inv tables as nested Python lists."""
    return (F.add_table.tolist(), F.mul_table.tolist(), F.neg_table.tolist(),
            F.inv_table.tolist())


def reference_rref(rows, F):
    """Row reduction one matrix at a time in scalar field arithmetic."""
    add, mul, neg, inv = field_lists(F)
    rows = [list(r) for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        for piv in range(r, len(rows)):
            if rows[piv][col]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = mul[inv[rows[r][col]]]
        rows[r] = [s[x] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = mul[neg[rows[i][col]]]
                rows[i] = [add[x][f[y]] for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


def reference_bases(n, d, q):
    """Every d x n matrix in reduced row echelon form over GF(q), as tuples
    of row tuples: a pivot column per row, zeros in the other pivot columns
    and left of each pivot, any digits elsewhere."""
    out = []
    for pivots in itertools.combinations(range(n), d):
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n)
                if j not in pivots]
        for digits in itertools.product(range(q), repeat=len(free)):
            m = [[0] * n for _ in range(d)]
            for i, j in enumerate(pivots):
                m[i][j] = 1
            for (i, j), x in zip(free, digits):
                m[i][j] = x
            out.append(tuple(map(tuple, m)))
    return out


def combination(coeffs, rows, F):
    """sum_i coeffs[i] rows[i] in scalar field arithmetic."""
    add, mul, _, _ = field_lists(F)
    v = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        v = [add[x][mul[c][y]] for x, y in zip(v, row)]
    return v


def reference_span(rows, F):
    """Every vector of the row space, one per coefficient vector."""
    return [tuple(combination(c, rows, F))
            for c in itertools.product(range(F.q), repeat=len(rows))]


def hyperbolic_value(v, F):
    """Q(v) = v_1 u_1 + ... + v_h u_h on v = (v_1..v_h, u_1..u_h)."""
    add, mul, _, _ = field_lists(F)
    h = len(v) // 2
    acc = 0
    for i in range(h):
        acc = add[acc][mul[v[i]][v[h + i]]]
    return acc


def is_totally_isotropic(rows, F):
    """Q vanishes on every vector of the row space."""
    return all(hyperbolic_value(v, F) == 0 for v in reference_span(rows, F))


def label(rows):
    return "/".join("".join(map(str, r)) for r in rows) if rows else "0"


# the bases point_rows and hyperplane_keys are checked on: Grassmann vertices
# over every supported field, d = 1, and dual polar vertices
ORACLE_BASES = ([("grassmann", (4, 2, q)) for q in SUPPORTED_ORDERS]
                + [("grassmann", p) for p in [(3, 1, 2), (4, 1, 7), (5, 3, 2), (6, 3, 2),
                                               (5, 2, 3), (4, 3, 4), (3, 2, 9)]]
                + [("dual_polar", p) for p in [(1, 2), (2, 2), (3, 2), (2, 3), (2, 5)]])


def oracle_bases(kind, params):
    """The vertex bases of a Grassmann or dual polar host, and q."""
    if kind == "grassmann":
        return subspace_bases(*params), params[2]
    d, q = params
    bases = subspace_bases(2 * d, d, q)
    return bases[totally_isotropic_mask(bases, make_field(q))], q


def reference_grassmann_generators(g):
    """The generators of a Grassmann host g as U -> rref(U M), through
    matmul_batch, for the full n x n matrix M of the n-cycle, the transvection
    e_1 += e_2 and, for q > 2, diag(w, 1, ..., 1) with w the least primitive
    element; each image's index is looked up by its label."""
    n, _, q = g.params
    F = make_field(q)
    mul = F.mul_table.tolist()
    bases = np.array([[list(map(int, row)) for row in lab.split("/")] for lab in g.labels],
                     dtype=np.int8)
    mats = [np.roll(np.eye(n, dtype=np.int8), 1, axis=1), np.eye(n, dtype=np.int8)]
    mats[1][0, 1] = 1
    if q > 2:
        mats.append(np.eye(n, dtype=np.int8))
        mats[2][0, 0] = next(w for w in range(2, q) if len(set(
            itertools.accumulate([w] * (q - 1), lambda x, _: mul[x][w]))) == q - 1)
    return [np.array([g.index_of(label(rows))
                      for rows in rref_batch(matmul_batch(bases, m, F), F).tolist()])
            for m in mats]
