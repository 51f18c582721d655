"""Small ad-hoc graphs, scalar GF(q) references, scalar Fraction
references for vertex functions and their sums, the signed indicator of a
bitrade, a per-vertex distance-regularity sweep, a pair count of clique
systems, the pairs inside clique rows and an exact maximum-clique search,
shared across test modules."""

import itertools
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from drgtrades.gfq import SUPPORTED_ORDERS, make_field, subspace_bases, totally_isotropic_mask
from drgtrades.graphs import Graph, IntersectionArray, Verdict, completely_regular_check
from drgtrades.spectral import VertexFunction


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


# --- oracles for graph checks, independent of graphs' shell counts ------------

def reference_sweep(g):
    """distance_regularity_check's verdict on a connected regular graph, one
    singleton at a time: one BFS per vertex, its shell counts, and the first
    vertex whose counts are not uniform per distance, or whose array differs
    from vertex 0's, as the witness."""
    n, k = g.num_vertices, int(g.degrees[0])
    nbrs = np.stack([g.neighbors(v) for v in range(n)]).reshape(n, k)
    common = None
    for x in range(n):
        dist = g.multi_source_distances([x])
        step = dist[nbrs] - dist[:, None]
        fwd, bwd = (step == 1).sum(axis=1), (step == -1).sum(axis=1)
        b, c = [], []
        for i in range(int(dist.max()) + 1):
            shell = np.flatnonzero(dist == i)
            for way, counts in (("forward", fwd[shell]), ("backward", bwd[shell])):
                if counts.min() != counts.max():
                    v = int(shell[counts.argmin()])
                    return Verdict(False, witness=(g.labels[x], g.labels[v], i, way,
                                                   int(counts.min()), int(counts.max())),
                                   detail="singleton not completely regular")
            b.append(int(fwd[shell[0]]))
            c.append(int(bwd[shell[0]]))
        arr = IntersectionArray(k, tuple(b[:-1]), tuple(c[1:]))
        if common is None:
            common = arr
        elif arr != common:
            return Verdict(False, witness=(g.labels[x], str(arr), str(common)),
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


# --- scalar Fraction references, independent of spectral -----------------------

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
